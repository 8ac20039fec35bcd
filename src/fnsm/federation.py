"""Server loop: sampling, local rounds, aggregation, momentum, schedules.

One coordinator drives rounds sequentially. Per round, the server
samples its clients and computes once what they all share
(``local.round_constants``: theta as float64, nsam's probe offset,
mosam's blend target, the rule's settings). Per client, it calls
``local_round``, which does that client's own arithmetic and returns
its final model. The clients are independent pure computations, run one
after another in ascending client-id order. The server then stacks the
sampled clients' models into one (clients x dim) array, subtracts theta
from it in one call and reduces it in one ordered call
(``metrics.aggregate``, the one mean over per-client vectors): row by
row in client order, from +0.0, as a sequential loop would, so every
output is bit-identical for a given seed, signed zeros included. A
round with full participation samples every client without drawing a
random stream.

One overflow guard covers the whole round. The round's arithmetic (its
shared constants, the local rounds, aggregation, the server update and
the metrics) runs inside a single ``np.errstate(over="ignore",
invalid="ignore")``, so a run that overflows anywhere in a round emits
no warning; it stops with a DivergenceError instead, naming the client
and step (``local_round``'s own check) or, from the checks after the
guard, the global model or the metric. ``on_round`` and
``save_checkpoint`` run outside the guard.

Two server branches exist. Plain averaging adds the mean client
displacement to the global model. The momentum branch folds the mean
displacement into an exponential moving average first and applies that:

    m <- momentum * m + mean_delta
    theta <- theta + m

fedavg, fedsam and fedlesam use the plain branch; fedavgm, mofedsam and
fednsam use the momentum branch.

A checkpoint has one layout, v1, which ``save_checkpoint`` writes and
``load_checkpoint`` reads: the little-endian header ``_HEADER`` (the
magic ``FNSM``, u32 version 1, u32 round, u64 dim d, 20 bytes), then
theta, momentum and last_delta as one (3, d) block of ``<f8``. v1 drops
``ServerState.last_seen``; the v2 that stores it extends this header
(ROADMAP must-fix 2).
"""

import math
import struct
import time
from dataclasses import dataclass, field, fields

import numpy as np

from .data import Dataset
from .local import ClientState, DivergenceError, all_finite, local_round, round_constants
from .metrics import (aggregate, extrapolated_grad_norm, flatness_distance, global_sharpness,
                      population_loss)
from .models import accuracy
from .rng import rng_for

__all__ = [
    "ALGORITHMS",
    "MOMENTUM_SERVER",
    "FedConfig",
    "ServerState",
    "RoundRecord",
    "sample_clients",
    "server_update",
    "run_experiment",
    "initial_state",
    "clients_from_partition",
    "quadratic_clients",
    "save_checkpoint",
    "load_checkpoint",
    "CHECKPOINT_MAGIC",
]

# algorithm -> (local rule kind, whether the server takes the momentum branch)
_ALGORITHM_PARTS = {
    "fedavg": ("sgd", False),
    "fedavgm": ("sgd", True),
    "fedsam": ("sam", False),
    "mofedsam": ("mosam", True),
    "fedlesam": ("lesam", False),
    "fednsam": ("nsam", True),
}
ALGORITHMS = tuple(_ALGORITHM_PARTS)
MOMENTUM_SERVER = frozenset(a for a, (_, server) in _ALGORITHM_PARTS.items() if server)

CHECKPOINT_MAGIC = b"FNSM"
CHECKPOINT_VERSION = 1
_HEADER = struct.Struct("<4sIIQ")  # magic, version, round, dim


@dataclass(frozen=True)
class FedConfig:
    """Everything a federated run depends on, apart from the data itself."""

    algorithm: str = "fedavg"
    n_clients: int = 20
    participation: int = 2
    rounds: int = 300
    local_steps: int = 20
    batch_size: int = 32
    lr0: float = 0.1
    lr_decay: float = 0.998
    rho: float = 0.1
    momentum: float = 0.85
    extrapolate: bool = True
    seed: int = 1
    eval_every: int = 10
    # metric switches; metric_rho is the probe radius of the sharpness
    # proxy, kept separate from rho so non-SAM algorithms report it too
    track_flatness: bool = True
    track_sharpness: bool = True
    track_grad_norm: bool = True
    full_flatness: bool = False
    metric_rho: float = 0.1
    track_wall_time: bool = False

    def validate(self) -> None:
        for f in fields(self):
            if f.type is float and not np.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if not 1 <= self.participation <= self.n_clients:
            raise ValueError("need 1 <= participation <= n_clients")
        if self.rounds < 1 or self.local_steps < 1 or self.batch_size < 1:
            raise ValueError("rounds, local_steps and batch_size must be >= 1")
        if not (self.lr0 > 0 and 0.0 < self.lr_decay <= 1.0):
            raise ValueError("need lr0 > 0 and 0 < lr_decay <= 1")
        if not (self.rho >= 0 and self.metric_rho > 0):
            raise ValueError("need rho >= 0 and metric_rho > 0")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if self.eval_every < 1:
            raise ValueError("eval_every must be >= 1")

    @property
    def local_rule(self) -> str:
        """The local update rule kind the algorithm runs on each client."""
        return _ALGORITHM_PARTS[self.algorithm][0]


@dataclass
class ServerState:
    theta: np.ndarray
    momentum: np.ndarray
    last_delta: np.ndarray
    round_index: int
    lr: float
    # client id -> the theta it received at its last real participation;
    # lesam's probe reads it, and only lesam rounds write it
    last_seen: dict[int, np.ndarray] = field(default_factory=dict)


@dataclass
class RoundRecord:
    """One row of the per-round metric stream; None marks a skipped metric."""

    round: int
    train_loss: float | None = None
    test_accuracy: float | None = None
    grad_norm_extrapolated: float | None = None
    flatness_distance: float | None = None
    global_sharpness: float | None = None
    wall_time_ms: float | None = None


def sample_clients(n_clients: int, participation: int, round_index: int, seed: int) -> list[int]:
    """Draw the round's participants without replacement, sorted ascending.

    The draw is keyed by (seed, round) only, so any round can be
    reproduced in isolation. Full participation draws no stream: every
    sorted draw of n of n clients is 0..n-1.
    """
    if not 1 <= participation <= n_clients:
        raise ValueError("need 1 <= participation <= n_clients")
    if participation == n_clients:
        return list(range(n_clients))
    rng = rng_for(seed, "sample", round_index)
    picked = rng.choice(n_clients, size=participation, replace=False)
    return sorted(int(i) for i in picked)


def server_update(state: ServerState, mean_delta: np.ndarray, cfg: FedConfig) -> ServerState:
    """Apply one aggregated round to the server, advancing the schedule."""
    if mean_delta.shape != state.theta.shape:
        raise ValueError("delta dimension does not match the model")
    if cfg.algorithm in MOMENTUM_SERVER:
        momentum = cfg.momentum * state.momentum + mean_delta
        theta = state.theta + momentum
    else:
        momentum = state.momentum
        theta = state.theta + mean_delta
    return ServerState(
        theta=theta,
        momentum=momentum,
        last_delta=mean_delta,
        round_index=state.round_index + 1,
        lr=state.lr * cfg.lr_decay,
        last_seen=state.last_seen,
    )


def initial_state(cfg: FedConfig, dim: int) -> ServerState:
    """Round-zero state: zero momentum, undecayed learning rate."""
    return ServerState(
        theta=np.zeros(dim),
        momentum=np.zeros(dim),
        last_delta=np.zeros(dim),
        round_index=0,
        lr=cfg.lr0,
    )


def clients_from_partition(
    model, ds: Dataset, shards: list[np.ndarray], cfg: FedConfig
) -> list[ClientState]:
    """One ClientState per shard, all sharing the same model family."""
    if len(shards) != cfg.n_clients:
        raise ValueError("partition size does not match cfg.n_clients")
    return [ClientState(i, model, ds.features[s], ds.labels[s]) for i, s in enumerate(shards)]


def quadratic_clients(ensemble) -> list[ClientState]:
    """Data-free clients, one per quadratic objective."""
    return [ClientState(client_id=i, model=q) for i, q in enumerate(ensemble)]


def run_experiment(
    cfg: FedConfig,
    clients: list[ClientState],
    eval_data: Dataset | None = None,
    resume_from: ServerState | None = None,
    checkpoint_path=None,
    checkpoint_every: int = 0,
    on_round=None,
) -> tuple[list[RoundRecord], ServerState]:
    """Drive T communication rounds and collect per-round metrics.

    Fully deterministic in cfg.seed: datasets, batches, sampling and
    initialization all derive from it, so two runs agree bit-exactly.
    Metrics are computed on rounds where (round + 1) % eval_every == 0
    and left as None elsewhere.
    ``on_round(state)`` is invoked after every server update for callers
    that track custom per-round quantities.

    Training starts from ``resume_from`` when given, else from round 0
    with the model's seeded initialization. The state is all a run carries
    between rounds and is never written once handed out, so resuming from
    any state it gave (to ``on_round`` or as its result) is exact for all
    six algorithms; a v1 checkpoint drops ``last_seen``, so a fedlesam
    resume from a file is not. Another start is a caller's own
    ``ServerState`` (``initial_state`` with theta set). Raises
    DivergenceError when the global model or a recorded metric goes non-finite.

    Returns the records for the executed rounds and the final state.
    """
    cfg.validate()
    if len(clients) != cfg.n_clients:
        raise ValueError("len(clients) must equal cfg.n_clients")
    model = clients[0].model

    if resume_from is not None:
        state = resume_from
    else:
        state = initial_state(cfg, model.dim)
        state.theta = model.init_params(rng_for(cfg.seed, "init"))

    records: list[RoundRecord] = []
    for t in range(state.round_index, cfg.rounds):
        started = time.perf_counter()
        # lesam writes into this round's own copy, so a state handed out stays as it was
        state = ServerState(
            theta=state.theta, momentum=state.momentum, last_delta=state.last_delta,
            round_index=state.round_index, lr=state.lr, last_seen=dict(state.last_seen),
        )
        sampled = sample_clients(cfg.n_clients, cfg.participation, t, cfg.seed)
        chosen = set(sampled)
        eval_round = (t + 1) % cfg.eval_every == 0
        # with full flatness every other client runs a metric-only round,
        # so that the dispersion covers every client; it records nothing
        everyone = eval_round and cfg.full_flatness and cfg.track_flatness
        ids = range(cfg.n_clients) if everyone else sampled
        # overflow is an anticipated failure mode, which the checks below
        # report as a DivergenceError (module docstring)
        with np.errstate(over="ignore", invalid="ignore"):
            constants = round_constants(cfg, state)  # the same for every client
            finals = {i: local_round(cfg, state, clients[i], i in chosen, constants) for i in ids}

            results = [finals[i] for i in sampled if finals[i] is not None]
            if results:
                mean_delta = aggregate(np.array(results) - state.theta)
            else:
                mean_delta = np.zeros_like(state.theta)
            prev_theta, prev_momentum = state.theta, state.momentum
            state = server_update(state, mean_delta, cfg)

            rec = RoundRecord(round=t)
            if eval_round:
                _fill_metrics(rec, cfg, clients, finals, state, prev_theta, prev_momentum, eval_data)
        if cfg.track_wall_time:
            rec.wall_time_ms = (time.perf_counter() - started) * 1000.0
        if not all_finite(state.theta):
            raise DivergenceError(t, what="global model")
        for name, value in vars(rec).items():
            if value is not None and not math.isfinite(value):
                raise DivergenceError(t, what=name)
        records.append(rec)
        if on_round is not None:
            on_round(state)

        if checkpoint_path is not None and checkpoint_every > 0 and (
            (t + 1) % checkpoint_every == 0 or t + 1 == cfg.rounds
        ):
            save_checkpoint(checkpoint_path, state)
    return records, state


def _fill_metrics(rec, cfg, clients, finals, state, prev_theta, prev_momentum, eval_data):
    if any(c.evaluable for c in clients):
        rec.train_loss = population_loss(clients, state.theta)
    if eval_data is not None and hasattr(clients[0].model, "predict"):
        rec.test_accuracy = accuracy(
            clients[0].model, state.theta, eval_data.features, eval_data.labels
        )
    if cfg.track_flatness:
        models = [finals[i] for i in sorted(finals) if finals[i] is not None]
        if models:
            # dispersion is measured around the average of the round's
            # local models, which is the plain-averaging global model
            center = aggregate(models)
            rec.flatness_distance = flatness_distance(models, center)
    if rec.train_loss is None:
        return  # nothing evaluable; population metrics stay absent
    if cfg.track_sharpness:
        rec.global_sharpness = global_sharpness(clients, state.theta, cfg.metric_rho)
    if cfg.track_grad_norm:
        momentum = cfg.momentum if cfg.algorithm in MOMENTUM_SERVER else 0.0
        rec.grad_norm_extrapolated = extrapolated_grad_norm(
            clients, prev_theta, prev_momentum, momentum
        )


def save_checkpoint(path, state: ServerState) -> None:
    """Write the state in the v1 layout (module docstring); last_seen is dropped."""
    # raises ValueError, before any file is opened, for vectors of different lengths
    block = np.stack([state.theta, state.momentum, state.last_delta], dtype="<f8")
    header = _HEADER.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, state.round_index, block.shape[1])
    with open(path, "wb") as f:
        f.write(header)
        f.write(block.tobytes())


def load_checkpoint(path, cfg: FedConfig) -> ServerState:
    """Read a snapshot back; the learning rate is replayed from the config.

    Raises ValueError naming the file when it is malformed, claims a round
    past cfg.rounds or holds a non-finite value (a diverged run never resumes).

    Replaying the decay multiplication round by round (rather than using a
    power) reproduces the exact float the uninterrupted run would hold.
    """
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: not a checkpoint file")
    if len(blob) < _HEADER.size:
        raise ValueError(
            f"{path}: truncated checkpoint header ({len(blob)} of {_HEADER.size} bytes)"
        )
    _, version, round_index, d = _HEADER.unpack_from(blob)
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    if round_index > cfg.rounds:  # before the lr replay below, which loops per round
        raise ValueError(f"{path}: round {round_index} is past fed.rounds = {cfg.rounds}")
    need = _HEADER.size + 3 * 8 * d
    if len(blob) != need:
        raise ValueError(f"{path}: truncated checkpoint ({len(blob)} of {need} bytes)")
    block = np.frombuffer(blob, dtype="<f8", count=3 * d, offset=_HEADER.size).reshape(3, d)
    for name, vec in zip(("theta", "momentum", "last_delta"), block):
        if not np.isfinite(vec).all():
            raise ValueError(f"{path}: non-finite {name} in checkpoint")
    theta, momentum, last_delta = (vec.astype(np.float64) for vec in block)
    lr = cfg.lr0
    for _ in range(round_index):
        lr *= cfg.lr_decay
    return ServerState(
        theta=theta, momentum=momentum, last_delta=last_delta, round_index=round_index, lr=lr
    )
