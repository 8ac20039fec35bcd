"""Experiment files: flat `key = value` text with dotted sections.

The format is deliberately diff-friendly for sweeps: one assignment per
line, `#` starts a comment, an unknown key or a key set twice is
rejected with its line number. `resolved_lines` round-trips the fully
resolved configuration; its hash is stamped into every emitted file so
results are self-describing. Keys that cannot change results (output directory,
checkpoint cadence) stay out of the dump and the hash.

`_KEYS` is the one place to add a key: it names the attribute the key
sets and marks whether the key is hashed. Parsing, the canonical dump,
the hash and the command-line flags all read it.
"""

import hashlib
import re
from dataclasses import dataclass, field, replace

import numpy as np

from .data import (
    Dataset,
    DirichletSpec,
    dirichlet_partition,
    load_csv,
    synth_gaussian_mixture,
    train_test_split,
)
from .federation import FedConfig, clients_from_partition, quadratic_clients
from .models import Mlp1, Quadratic, SoftmaxLinear
from .rng import rng_for

__all__ = [
    "ConfigError",
    "ExperimentSpec",
    "parse_config",
    "read_dataset",
    "build_problem",
]

MODEL_KINDS = ("mlp", "softmax", "quadratic")
DATA_KINDS = ("synthetic", "csv")


class ConfigError(ValueError):
    """Invalid experiment file or override; message names line or key."""


@dataclass(frozen=True)
class ExperimentSpec:
    """Fully resolved experiment: data source, model family, run plan."""

    fed: FedConfig = field(default_factory=FedConfig)
    data_kind: str = "synthetic"
    classes: int = 10
    dim: int = 20
    n_samples: int = 2000
    spread: float = 1.0
    csv_path: str = ""
    alpha: float = 0.1
    test_fraction: float = 0.2
    model_kind: str = "mlp"
    hidden: int = 32
    quad_dim: int = 5
    seeds: tuple[int, ...] = (1,)
    out_dir: str = "out"
    checkpoint_every: int = 0

    def validate(self) -> None:
        try:
            self.fed.validate()
        except ValueError as exc:
            raise ConfigError(_keyed(str(exc))) from exc
        if self.data_kind not in DATA_KINDS:
            raise ConfigError(f"data.kind must be one of {DATA_KINDS}")
        if self.model_kind not in MODEL_KINDS:
            raise ConfigError(f"model.kind must be one of {MODEL_KINDS}")
        if self.data_kind == "csv" and not self.csv_path:
            raise ConfigError("data.csv_path is required when data.kind = csv")
        if self.model_kind != "quadratic":
            if self.classes < 2 or self.dim < 1 or self.n_samples < self.classes:
                raise ConfigError("need data.classes >= 2, data.dim >= 1, data.n >= classes")
            if not self.spread > 0:
                raise ConfigError("data.spread must be positive")
            if not 0.0 < self.test_fraction < 1.0:
                raise ConfigError("data.test_fraction must lie in (0, 1)")
            try:
                DirichletSpec(self.alpha, self.fed.n_clients)
            except ValueError as exc:
                raise ConfigError(
                    f"data.alpha = {self.alpha!r}, fed.n_clients = {self.fed.n_clients}: {exc}"
                ) from exc
            if self.hidden < 1:
                raise ConfigError("model.hidden must be >= 1")
        elif self.quad_dim < 1:
            raise ConfigError("model.quad_dim must be >= 1")
        if not self.seeds:
            raise ConfigError("run.seeds must list at least one seed")
        if not self.out_dir:
            raise ConfigError("run.out must name a directory")
        if self.checkpoint_every < 0:
            raise ConfigError("run.checkpoint_every must be >= 0")

    def resolved_lines(self) -> list[str]:
        """Canonical `key = value` dump of every hashed setting, sorted by key."""
        return [
            f"{key} = {_fmt(_get(self, attr))}"
            for key, (attr, hashed) in sorted(_KEYS.items())
            if hashed
        ]

    def config_hash(self) -> str:
        text = "\n".join(self.resolved_lines()) + "\n"
        return hashlib.sha256(text.encode()).hexdigest()

    def for_run(self, algorithm: str, seed: int) -> "ExperimentSpec":
        """The spec one concrete (algorithm, seed) run actually executes."""
        return replace(
            self, fed=replace(self.fed, algorithm=algorithm, seed=seed), seeds=(seed,)
        )


# key -> (attribute, hashed); "fed.x" names FedConfig.x. The key is read
# by the type of the attribute's default; mark it unhashed only when it
# cannot change any result.
_KEYS = {
    "data.kind": ("data_kind", True),
    "data.classes": ("classes", True),
    "data.dim": ("dim", True),
    "data.n": ("n_samples", True),
    "data.spread": ("spread", True),
    "data.csv_path": ("csv_path", True),
    "data.alpha": ("alpha", True),
    "data.test_fraction": ("test_fraction", True),
    "model.kind": ("model_kind", True),
    "model.hidden": ("hidden", True),
    "model.quad_dim": ("quad_dim", True),
    "fed.algorithm": ("fed.algorithm", True),
    "fed.n_clients": ("fed.n_clients", True),
    "fed.participation": ("fed.participation", True),
    "fed.rounds": ("fed.rounds", True),
    "fed.local_steps": ("fed.local_steps", True),
    "fed.batch_size": ("fed.batch_size", True),
    "fed.lr": ("fed.lr0", True),
    "fed.lr_decay": ("fed.lr_decay", True),
    "fed.rho": ("fed.rho", True),
    "fed.momentum": ("fed.momentum", True),
    "fed.extrapolate": ("fed.extrapolate", True),
    "run.seeds": ("seeds", True),
    "run.out": ("out_dir", False),
    "run.eval_every": ("fed.eval_every", True),
    "run.checkpoint_every": ("checkpoint_every", False),
    "metrics.flatness": ("fed.track_flatness", True),
    "metrics.sharpness": ("fed.track_sharpness", True),
    "metrics.grad_norm": ("fed.track_grad_norm", True),
    "metrics.full_flatness": ("fed.full_flatness", True),
    "metrics.rho": ("fed.metric_rho", True),
    "metrics.wall_time": ("fed.track_wall_time", True),
}


def _keyed(message: str) -> str:
    """A ``FedConfig.validate`` message with each attribute named by its key.

    Quoted text is a value, not an attribute, and stays as it is.
    """
    key_of = {
        attr.removeprefix("fed."): key for key, (attr, _) in _KEYS.items() if attr.startswith("fed.")
    }
    return re.sub(r"'[^']*'|\"[^\"]*\"|\w+", lambda m: key_of.get(m[0], m[0]), message)


def _get(spec: ExperimentSpec, attr: str):
    owner, _, name = attr.rpartition(".")
    return getattr(spec.fed if owner else spec, name)


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, tuple):
        return ",".join(str(s) for s in v)
    return str(v)


def _read_bool(raw: str) -> bool:
    if raw.lower() in ("true", "1", "yes", "on"):
        return True
    if raw.lower() in ("false", "0", "no", "off"):
        return False
    raise ValueError(raw)


def _read_float(raw: str) -> float:
    value = float(raw)
    if not np.isfinite(value):
        raise ValueError(raw)
    return value


def _read_seeds(raw: str) -> tuple[int, ...]:
    seeds = tuple(int(s) for s in raw.split(",") if s.strip())
    if len(set(seeds)) < len(seeds):
        raise ValueError(raw)
    return seeds


# type of a key's default -> (reader, what a value the reader rejects should be)
_READERS = {
    bool: (_read_bool, "a boolean"),
    int: (int, "an integer"),
    float: (_read_float, "a finite number"),
    str: (str, "text"),
    tuple: (_read_seeds, "distinct comma-separated integers"),
}
_DEFAULTS = ExperimentSpec()


def _assign(spec_kw: dict, fed_kw: dict, key: str, raw: str, where: str) -> None:
    if key not in _KEYS:
        raise ConfigError(f"{where}: unknown key {key!r}")
    attr, _ = _KEYS[key]
    read, expected = _READERS[type(_get(_DEFAULTS, attr))]
    try:
        value = read(raw)
    except ValueError:
        raise ConfigError(f"{where}: {key} = {raw!r}: expected {expected}") from None
    owner, _, name = attr.rpartition(".")
    (fed_kw if owner else spec_kw)[name] = value


def parse_config(path, overrides: list[str] | None = None) -> ExperimentSpec:
    """Parse an experiment file, apply `key=value` overrides, validate.

    A key may be set once in the file; an override may set it again.
    Raises ConfigError naming the offending line or override on any
    problem, including constraint violations after resolution.
    """
    try:
        with open(path) as f:
            lines = f.read().splitlines()
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read file ({exc})") from exc
    spec_kw: dict = {}
    fed_kw: dict = {}
    set_on: dict[str, int] = {}  # key -> the line that set it
    for lineno, line in enumerate(lines, start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected `key = value`")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key in set_on:
            raise ConfigError(f"{path}:{lineno}: {key} is already set on line {set_on[key]}")
        set_on[key] = lineno
        _assign(spec_kw, fed_kw, key, raw, f"{path}:{lineno}")
    for ov in overrides or []:
        if "=" not in ov:
            raise ConfigError(f"override {ov!r}: expected key=value")
        key, raw = (part.strip() for part in ov.split("=", 1))
        _assign(spec_kw, fed_kw, key, raw, "override")
    spec = ExperimentSpec(fed=FedConfig(**fed_kw), **spec_kw)
    spec.validate()
    return spec


def read_dataset(spec: ExperimentSpec) -> Dataset | None:
    """The dataset file a CSV-backed spec names, read once for all its runs.

    Returns None when there is no file to share: the data is generated
    per seed, or the model is a quadratic that needs no data.
    """
    if spec.model_kind == "quadratic" or spec.data_kind != "csv":
        return None
    return load_csv(spec.csv_path)


def build_problem(run_spec: ExperimentSpec, dataset: Dataset | None = None):
    """Materialize (clients, eval_data, model) for one run.

    The seed is the run spec's own, ``run_spec.fed.seed`` (see ``for_run``).
    Classification: the CSV file is read (``dataset``, when given, is what
    ``read_dataset`` returned, shared by a command's runs) or the Gaussian
    mixture generated, the test fraction held out, and the training part
    partitioned by the Dirichlet draw, one client per shard. Quadratic: one
    objective per client (diagonal curvatures in [0.3, 1.5], unit-scale
    centers), no eval data.
    """
    seed = run_spec.fed.seed
    if run_spec.model_kind == "quadratic":
        rng = rng_for(seed, "quad-ensemble")
        d = run_spec.quad_dim
        ensemble = [
            Quadratic(np.diag(rng.uniform(0.3, 1.5, d)), rng.standard_normal(d))
            for _ in range(run_spec.fed.n_clients)
        ]
        return quadratic_clients(ensemble), None, ensemble[0]

    ds = dataset if dataset is not None else read_dataset(run_spec)
    if ds is None:
        try:
            ds = synth_gaussian_mixture(
                run_spec.classes, run_spec.dim, run_spec.n_samples, run_spec.spread, seed
            )
        except ValueError as exc:  # validate() has passed, so spread is to blame: nan or huge
            raise ConfigError(f"data.spread = {run_spec.spread!r}: {exc}") from exc
    try:
        train, test = train_test_split(ds, run_spec.test_fraction, seed)
    except ValueError as exc:
        raise ConfigError(
            f"data.test_fraction = {run_spec.test_fraction!r}: {exc} of {ds.n} samples"
        ) from exc
    shards = dirichlet_partition(
        train, DirichletSpec(run_spec.alpha, run_spec.fed.n_clients, seed)
    )
    if run_spec.model_kind == "mlp":
        model = Mlp1(train.dim, run_spec.hidden, train.classes)
    else:
        model = SoftmaxLinear(train.classes, train.dim)
    clients = clients_from_partition(model, train, shards, run_spec.fed)
    return clients, test, model
