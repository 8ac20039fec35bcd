"""Experiment files: flat `key = value` text with dotted sections.

The format is deliberately diff-friendly for sweeps: one assignment per
line, `#` starts a comment, unknown keys are rejected with their line
number. `resolved_lines` round-trips the fully resolved configuration;
its hash is stamped into every emitted file so results are
self-describing. Keys that cannot change results (output directory,
checkpoint cadence) stay out of the hash.
"""

import hashlib
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
    "client_data",
    "build_problem",
]

MODEL_KINDS = ("mlp", "softmax", "quadratic")
DATA_KINDS = ("synthetic", "csv")
UNHASHED_KEYS = ("run.out", "run.checkpoint_every")


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
        self.fed.validate()
        if self.data_kind not in DATA_KINDS:
            raise ConfigError(f"data.kind must be one of {DATA_KINDS}")
        if self.model_kind not in MODEL_KINDS:
            raise ConfigError(f"model.kind must be one of {MODEL_KINDS}")
        if self.data_kind == "csv" and not self.csv_path:
            raise ConfigError("data.csv_path is required when data.kind = csv")
        if self.model_kind != "quadratic":
            if self.classes < 2 or self.dim < 1 or self.n_samples < self.classes:
                raise ConfigError("need data.classes >= 2, data.dim >= 1, data.n >= classes")
            if self.spread <= 0:
                raise ConfigError("data.spread must be positive")
            if not 0.0 < self.test_fraction < 1.0:
                raise ConfigError("data.test_fraction must lie in (0, 1)")
            if self.alpha <= 0:
                raise ConfigError("data.alpha must be positive")
            if self.hidden < 1:
                raise ConfigError("model.hidden must be >= 1")
        elif self.quad_dim < 1:
            raise ConfigError("model.quad_dim must be >= 1")
        if not self.seeds:
            raise ConfigError("run.seeds must list at least one seed")
        if self.checkpoint_every < 0:
            raise ConfigError("run.checkpoint_every must be >= 0")

    def resolved_lines(self) -> list[str]:
        """Canonical `key = value` dump of every setting, sorted by key."""
        f = self.fed
        items = {
            "data.kind": self.data_kind,
            "data.classes": self.classes,
            "data.dim": self.dim,
            "data.n": self.n_samples,
            "data.spread": self.spread,
            "data.csv_path": self.csv_path,
            "data.alpha": self.alpha,
            "data.test_fraction": self.test_fraction,
            "model.kind": self.model_kind,
            "model.hidden": self.hidden,
            "model.quad_dim": self.quad_dim,
            "fed.algorithm": f.algorithm,
            "fed.n_clients": f.n_clients,
            "fed.participation": f.participation,
            "fed.rounds": f.rounds,
            "fed.local_steps": f.local_steps,
            "fed.batch_size": f.batch_size,
            "fed.lr": f.lr0,
            "fed.lr_decay": f.lr_decay,
            "fed.rho": f.rho,
            "fed.momentum": f.momentum,
            "fed.extrapolate": f.extrapolate,
            "run.seeds": ",".join(str(s) for s in self.seeds),
            "run.eval_every": f.eval_every,
            "metrics.flatness": f.track_flatness,
            "metrics.sharpness": f.track_sharpness,
            "metrics.grad_norm": f.track_grad_norm,
            "metrics.full_flatness": f.full_flatness,
            "metrics.rho": f.metric_rho,
            "metrics.wall_time": f.track_wall_time,
        }
        return [f"{k} = {_fmt(v)}" for k, v in sorted(items.items())]

    def config_hash(self) -> str:
        text = "\n".join(self.resolved_lines()) + "\n"
        return hashlib.sha256(text.encode()).hexdigest()

    def for_run(self, algorithm: str, seed: int) -> "ExperimentSpec":
        """The spec one concrete (algorithm, seed) run actually executes."""
        return replace(
            self, fed=replace(self.fed, algorithm=algorithm, seed=seed), seeds=(seed,)
        )


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _parse_bool(raw: str, where: str) -> bool:
    if raw.lower() in ("true", "1", "yes", "on"):
        return True
    if raw.lower() in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"{where}: expected a boolean, got {raw!r}")


def _parse_int(raw: str, where: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{where}: expected an integer, got {raw!r}") from None


def _parse_float(raw: str, where: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{where}: expected a number, got {raw!r}") from None


def _parse_seeds(raw: str, where: str) -> tuple[int, ...]:
    try:
        return tuple(int(s) for s in raw.split(",") if s.strip())
    except ValueError:
        raise ConfigError(f"{where}: expected comma-separated integers, got {raw!r}") from None


# key -> (target attribute path, parser); attribute "fed.x" lands on FedConfig
_SCHEMA = {
    "data.kind": ("data_kind", str),
    "data.classes": ("classes", _parse_int),
    "data.dim": ("dim", _parse_int),
    "data.n": ("n_samples", _parse_int),
    "data.spread": ("spread", _parse_float),
    "data.csv_path": ("csv_path", str),
    "data.alpha": ("alpha", _parse_float),
    "data.test_fraction": ("test_fraction", _parse_float),
    "model.kind": ("model_kind", str),
    "model.hidden": ("hidden", _parse_int),
    "model.quad_dim": ("quad_dim", _parse_int),
    "fed.algorithm": ("fed.algorithm", str),
    "fed.n_clients": ("fed.n_clients", _parse_int),
    "fed.participation": ("fed.participation", _parse_int),
    "fed.rounds": ("fed.rounds", _parse_int),
    "fed.local_steps": ("fed.local_steps", _parse_int),
    "fed.batch_size": ("fed.batch_size", _parse_int),
    "fed.lr": ("fed.lr0", _parse_float),
    "fed.lr_decay": ("fed.lr_decay", _parse_float),
    "fed.rho": ("fed.rho", _parse_float),
    "fed.momentum": ("fed.momentum", _parse_float),
    "fed.extrapolate": ("fed.extrapolate", _parse_bool),
    "run.seeds": ("seeds", _parse_seeds),
    "run.out": ("out_dir", str),
    "run.eval_every": ("fed.eval_every", _parse_int),
    "run.checkpoint_every": ("checkpoint_every", _parse_int),
    "metrics.flatness": ("fed.track_flatness", _parse_bool),
    "metrics.sharpness": ("fed.track_sharpness", _parse_bool),
    "metrics.grad_norm": ("fed.track_grad_norm", _parse_bool),
    "metrics.full_flatness": ("fed.full_flatness", _parse_bool),
    "metrics.rho": ("fed.metric_rho", _parse_float),
    "metrics.wall_time": ("fed.track_wall_time", _parse_bool),
}


def _assign(spec_kw: dict, fed_kw: dict, key: str, raw: str, where: str) -> None:
    if key not in _SCHEMA:
        raise ConfigError(f"{where}: unknown key {key!r}")
    target, parser = _SCHEMA[key]
    value = parser(raw, where) if parser is not str else raw
    if target.startswith("fed."):
        fed_kw[target[4:]] = value
    else:
        spec_kw[target] = value


def parse_config(path, overrides: list[str] | None = None) -> ExperimentSpec:
    """Parse an experiment file, apply `key=value` overrides, validate.

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
    for lineno, line in enumerate(lines, start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected `key = value`")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        _assign(spec_kw, fed_kw, key, raw, f"{path}:{lineno}")
    for ov in overrides or []:
        if "=" not in ov:
            raise ConfigError(f"override {ov!r}: expected key=value")
        key, raw = (part.strip() for part in ov.split("=", 1))
        _assign(spec_kw, fed_kw, key, raw, f"override {key}")
    try:
        spec = ExperimentSpec(fed=FedConfig(**fed_kw), **spec_kw)
        spec.validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return spec


def read_dataset(spec: ExperimentSpec) -> Dataset | None:
    """The dataset file a CSV-backed spec names, read once for all its runs.

    Returns None when there is no file to share: the data is generated
    per seed, or the model is a quadratic that needs no data.
    """
    if spec.model_kind == "quadratic" or spec.data_kind != "csv":
        return None
    return load_csv(spec.csv_path)


def client_data(spec: ExperimentSpec, seed: int, dataset: Dataset | None = None):
    """The (train, test, shards) of one seed's run.

    Loads the CSV file or generates the Gaussian mixture, holds out the
    test fraction and partitions the training part by the Dirichlet draw.
    ``dataset`` is what ``read_dataset(spec)`` returned; passing it lets
    every run of a command share one read of the file.
    """
    ds = dataset if dataset is not None else read_dataset(spec)
    if ds is None:
        ds = synth_gaussian_mixture(spec.classes, spec.dim, spec.n_samples, spec.spread, seed)
    train, test = train_test_split(ds, spec.test_fraction, seed)
    shards = dirichlet_partition(train, DirichletSpec(spec.alpha, spec.fed.n_clients, seed))
    return train, test, shards


def build_problem(spec: ExperimentSpec, seed: int, dataset: Dataset | None = None):
    """Materialize (clients, eval_data, model) for one seed.

    Classification: the split and partition of ``client_data`` (which
    ``dataset`` is passed on to), each shard bound to a client. Quadratic:
    one client-specific objective each (diagonal curvatures in [0.3, 1.5],
    unit-scale centers), no eval data.
    """
    fed = replace(spec.fed, seed=seed)
    if spec.model_kind == "quadratic":
        rng = rng_for(seed, "quad-ensemble")
        ensemble = [
            Quadratic(np.diag(rng.uniform(0.3, 1.5, spec.quad_dim)), rng.standard_normal(spec.quad_dim))
            for _ in range(fed.n_clients)
        ]
        clients = quadratic_clients(ensemble)
        for c in clients:
            c.seed = seed
        return clients, None, ensemble[0]

    train, test, shards = client_data(spec, seed, dataset)
    if spec.model_kind == "mlp":
        model = Mlp1(train.dim, spec.hidden, train.classes)
    else:
        model = SoftmaxLinear(train.classes, train.dim)
    clients = clients_from_partition(model, train, shards, fed)
    return clients, test, model
