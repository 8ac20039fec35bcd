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
import operator
import re
from dataclasses import dataclass, field, replace

import numpy as np

from .data import (
    MAX_CELLS,
    MAX_CLASSES,
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

# The most weights a classifier may have: hidden * (dim + classes) for the
# mlp, classes * dim for softmax. A run holds a few vectors of this length
# per client it trains and a batch of activations per hidden unit. On a
# 2-vCPU x86-64 host with one BLAS thread, a one-round ``fnsm run`` of an
# mlp at this size takes 0.9 s and 255 MB; at ten times it, 12 s and 1.9 GB.
MAX_WEIGHTS = 10**6
# The most curvature-matrix cells a quadratic ensemble may have,
# n_clients * quad_dim**2: 80 MB of float64, each matrix checked by a
# Cholesky factorisation. A one-round ``fnsm run`` of one client at
# quad_dim 3162 takes 1.0 s and 283 MB, and of MAX_CLIENTS clients at
# quad_dim 10 it takes 5.5 s and 205 MB.
MAX_QUAD_CELLS = 10**7
# The most cells of the clients-by-classes table, fed.n_clients * classes:
# the partition draws one proportion per client for each class, and
# ``fnsm partition`` prints one count per cell. At this size it takes
# 1.1 s and 43 MB with up to 10 000 clients, and 1.9 s and 96 MB with
# MAX_CLIENTS; a one-round ``fnsm run`` of 100 clients and 10 000 classes
# takes 2.3 s and 204 MB. At ten times it, ``fnsm partition`` printed
# 69 MB in 9.3 s.
MAX_CLIENT_CLASSES = 10**6
# The most weights an evaluation round with full flatness holds at once,
# fed.n_clients * the classifier's weights: every client's final local
# model is kept for the dispersion. A one-round, evaluated ``fnsm run`` at
# this size takes 1.8 s and 324 MB with 10 clients of 10**6 weights, and
# 1.0 s and 155 MB with 1000 clients of 10**4. A quadratic ensemble holds
# fed.n_clients * model.quad_dim weights, bounded by MAX_QUAD_CELLS.
MAX_HELD_WEIGHTS = 10**7


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
            if self.classes > MAX_CLASSES:
                raise ConfigError(f"data.classes must be <= {MAX_CLASSES}")
            if self.n_samples * self.dim > MAX_CELLS:
                raise ConfigError(
                    f"data.n * data.dim = {self.n_samples} * {self.dim} must be <= {MAX_CELLS}"
                )
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
            if self.data_kind == "synthetic":  # a CSV's sizes are checked once it is read
                self._check_sizes(self.dim, self.classes)
        elif self.quad_dim < 1:
            raise ConfigError("model.quad_dim must be >= 1")
        elif self.fed.n_clients * self.quad_dim**2 > MAX_QUAD_CELLS:
            raise ConfigError(
                f"fed.n_clients * model.quad_dim**2 = {self.fed.n_clients} * {self.quad_dim}**2 "
                f"must be <= {MAX_QUAD_CELLS}"
            )
        if not self.seeds:
            raise ConfigError("run.seeds must list at least one seed")
        if not self.out_dir:
            raise ConfigError("run.out must name a directory")
        if self.checkpoint_every < 0:
            raise ConfigError("run.checkpoint_every must be >= 0")

    def _check_sizes(self, dim: int, classes: int) -> None:
        """Raise ConfigError when data of this size would pass MAX_CLIENT_CLASSES, or
        give a classifier past MAX_WEIGHTS or a round past MAX_HELD_WEIGHTS."""
        fed = self.fed
        if fed.n_clients * classes > MAX_CLIENT_CLASSES:
            named = "data.classes" if self.data_kind == "synthetic" else "data.csv_path's classes"
            raise ConfigError(
                f"fed.n_clients * {named} = {fed.n_clients} * {classes} "
                f"must be <= {MAX_CLIENT_CLASSES}"
            )
        if self.model_kind == "mlp":
            weights, sizes = self.hidden * (dim + classes), f"model.hidden = {self.hidden}, "
        else:
            weights, sizes = classes * dim, ""
        if weights > MAX_WEIGHTS:
            raise ConfigError(
                f"the {self.model_kind} model would have {weights} weights ({sizes}{dim} "
                f"features, {classes} classes); at most {MAX_WEIGHTS}"
            )
        if fed.full_flatness and fed.track_flatness and fed.n_clients * weights > MAX_HELD_WEIGHTS:
            raise ConfigError(
                f"fed.n_clients * model weights = {fed.n_clients} * {weights} must be <= "
                f"{MAX_HELD_WEIGHTS} when metrics.full_flatness and metrics.flatness are on"
            )

    def resolved_lines(self) -> list[str]:
        """Canonical `key = value` dump of every hashed setting, sorted by key."""
        return [f"{key} = {_KEY_TYPES[key][1](_get(self, attr))}"
                for key, (attr, hashed) in sorted(_KEYS.items()) if hashed]

    def config_hash(self) -> str:
        text = "\n".join(self.resolved_lines()) + "\n"
        return hashlib.sha256(text.encode()).hexdigest()

    def for_run(self, algorithm: str, seed: int) -> "ExperimentSpec":
        """The spec one concrete (algorithm, seed) run actually executes."""
        return replace(
            self, fed=replace(self.fed, algorithm=algorithm, seed=seed), seeds=(seed,)
        )


# key -> (attribute, hashed); "fed.x" names FedConfig.x. The key is read
# and written by the type of the attribute's default (`_TYPES`); mark it
# unhashed only when it cannot change any result.
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


# type of a key's default -> (reader, writer, what a value the reader rejects
# should be). A value is written by its key's type, not by its own, so an
# np.float64, an int for a bool or a list of seeds dumps as the value it is;
# an int is written through operator.index, so a non-integral value raises
# TypeError instead of dumping, and hashing, as another value.
_TYPES = {
    bool: (_read_bool, lambda v: "true" if v else "false", "a boolean"),
    int: (int, lambda v: str(operator.index(v)), "an integer"),
    float: (_read_float, lambda v: repr(float(v)), "a finite number"),
    str: (str, str, "text"),
    tuple: (_read_seeds, lambda v: ",".join(str(operator.index(s)) for s in v),
            "distinct comma-separated integers"),
}
_DEFAULTS = ExperimentSpec()
_KEY_TYPES = {key: _TYPES[type(_get(_DEFAULTS, attr))] for key, (attr, _) in _KEYS.items()}


def _assign(spec_kw: dict, fed_kw: dict, key: str, raw: str, where: str) -> None:
    if key not in _KEYS:
        raise ConfigError(f"{where}: unknown key {key!r}")
    attr, _ = _KEYS[key]
    read, _, expected = _KEY_TYPES[key]
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
    per seed, or the model is a quadratic that needs no data. Raises
    ConfigError when the file's features and classes pass a size cap
    (``ExperimentSpec._check_sizes``).
    """
    if spec.model_kind == "quadratic" or spec.data_kind != "csv":
        return None
    ds = load_csv(spec.csv_path)
    spec._check_sizes(ds.dim, ds.classes)
    return ds


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
