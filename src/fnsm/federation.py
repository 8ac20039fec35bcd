"""Server loop: sampling, broadcast, aggregation, momentum, schedules.

One coordinator drives rounds sequentially. Within a round the sampled
clients are independent pure computations, run one after another in
ascending client-id order and reduced in that order, which keeps every
output bit-identical for a given seed.

Two server branches exist. Plain averaging adds the mean client
displacement to the global model. The momentum branch folds the mean
displacement into an exponential moving average first and applies that:

    m <- momentum * m + mean_delta
    theta <- theta + m

fedavg, fedsam and fedlesam use the plain branch; fedavgm, mofedsam and
fednsam use the momentum branch.
"""

import struct
import time
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .local import BroadcastState, ClientState, LocalResult, LocalRule, local_round
from .metrics import extrapolated_grad_norm, flatness_distance, global_sharpness, population_loss
from .models import accuracy
from .rng import rng_for

__all__ = [
    "ALGORITHMS",
    "MOMENTUM_SERVER",
    "FedConfig",
    "ServerState",
    "RoundRecord",
    "sample_clients",
    "aggregate",
    "server_update",
    "run_experiment",
    "initial_state",
    "local_rule_for",
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
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if not 1 <= self.participation <= self.n_clients:
            raise ValueError("need 1 <= participation <= n_clients")
        if self.rounds < 1 or self.local_steps < 1 or self.batch_size < 1:
            raise ValueError("rounds, local_steps and batch_size must be >= 1")
        if self.lr0 <= 0 or not 0.0 < self.lr_decay <= 1.0:
            raise ValueError("need lr0 > 0 and 0 < lr_decay <= 1")
        if self.rho < 0 or self.metric_rho <= 0:
            raise ValueError("need rho >= 0 and metric_rho > 0")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if self.eval_every < 1:
            raise ValueError("eval_every must be >= 1")


@dataclass
class ServerState:
    theta: np.ndarray
    momentum: np.ndarray
    last_delta: np.ndarray
    round_index: int
    lr: float


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


def local_rule_for(cfg: FedConfig) -> LocalRule:
    """The algorithm's local rule; each rule kind reads only the knobs it uses."""
    kind, _ = _ALGORITHM_PARTS[cfg.algorithm]
    return LocalRule(kind, rho=cfg.rho, momentum=cfg.momentum, extrapolate=cfg.extrapolate)


def sample_clients(n_clients: int, participation: int, round_index: int, seed: int) -> list[int]:
    """Draw the round's participants without replacement, sorted ascending.

    The draw is keyed by (seed, round) only, so any round can be
    reproduced in isolation.
    """
    if not 1 <= participation <= n_clients:
        raise ValueError("need 1 <= participation <= n_clients")
    rng = rng_for(seed, "sample", round_index)
    picked = rng.choice(n_clients, size=participation, replace=False)
    return sorted(int(i) for i in picked)


def aggregate(deltas: list[np.ndarray]) -> np.ndarray:
    """Plain mean of client displacements, summed in list order.

    The caller passes deltas in ascending client-id order; the explicit
    sequential sum pins the reduction order for bit-reproducibility.
    """
    if not deltas:
        raise ValueError("no client results to aggregate")
    total = np.zeros_like(deltas[0])
    for d in deltas:
        if d.shape != total.shape:
            raise ValueError("client deltas disagree on dimension")
        total = total + d
    return total / len(deltas)


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
    return [
        ClientState(
            client_id=i,
            model=model,
            features=ds.features[idx],
            labels=ds.labels[idx],
            seed=cfg.seed,
            batch_size=cfg.batch_size,
        )
        for i, idx in enumerate(shards)
    ]


def quadratic_clients(ensemble) -> list[ClientState]:
    """Data-free clients, one per quadratic objective."""
    return [ClientState(client_id=i, model=q) for i, q in enumerate(ensemble)]


def run_experiment(
    cfg: FedConfig,
    clients: list[ClientState],
    eval_data: Dataset | None = None,
    theta0: np.ndarray | None = None,
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

    Returns the records for the executed rounds and the final state.
    Resuming from a checkpointed state replays the remaining rounds
    exactly as the uninterrupted run would have.
    """
    cfg.validate()
    if len(clients) != cfg.n_clients:
        raise ValueError("len(clients) must equal cfg.n_clients")
    rule = local_rule_for(cfg)
    model = clients[0].model

    if resume_from is not None:
        state = resume_from
    else:
        if theta0 is None:
            theta0 = model.init_params(rng_for(cfg.seed, "init"))
        state = initial_state(cfg, model.dim)
        state.theta = np.asarray(theta0, dtype=np.float64).copy()

    records: list[RoundRecord] = []
    for t in range(state.round_index, cfg.rounds):
        started = time.perf_counter()
        sampled = sample_clients(cfg.n_clients, cfg.participation, t, cfg.seed)
        bs = BroadcastState(
            theta=state.theta,
            momentum=state.momentum,
            last_delta=state.last_delta,
            lr=state.lr,
            local_steps=cfg.local_steps,
            round_index=t,
        )
        eval_round = (t + 1) % cfg.eval_every == 0
        extra = (
            [i for i in range(cfg.n_clients) if i not in set(sampled)]
            if eval_round and cfg.full_flatness and cfg.track_flatness
            else []
        )
        results = _run_clients(rule, bs, clients, sampled, extra)

        deltas = [results[i].delta for i in sampled if results[i] is not None]
        mean_delta = aggregate(deltas) if deltas else np.zeros_like(state.theta)
        prev_theta, prev_momentum = state.theta, state.momentum
        state = server_update(state, mean_delta, cfg)

        rec = RoundRecord(round=t)
        if eval_round:
            # a run mid-divergence can overflow here; the divergence
            # error itself is raised from the next local round
            with np.errstate(over="ignore", invalid="ignore"):
                _fill_metrics(rec, cfg, clients, results, state, prev_theta, prev_momentum, eval_data)
        if cfg.track_wall_time:
            rec.wall_time_ms = (time.perf_counter() - started) * 1000.0
        records.append(rec)
        if on_round is not None:
            on_round(state)

        if checkpoint_path is not None and checkpoint_every > 0 and (
            (t + 1) % checkpoint_every == 0 or t + 1 == cfg.rounds
        ):
            save_checkpoint(checkpoint_path, state)
    return records, state


def _run_clients(rule, bs, clients, sampled, extra) -> dict[int, LocalResult | None]:
    """Local rounds for the sampled set plus metric-only extras.

    Extras never mutate client memory; they exist only so the dispersion
    metric can cover the whole population when asked to.
    """
    jobs = [(i, True) for i in sampled] + [(i, False) for i in extra]
    return {i: local_round(rule, bs, clients[i], update_client_state=real) for i, real in jobs}


def _fill_metrics(rec, cfg, clients, results, state, prev_theta, prev_momentum, eval_data):
    if any(c.evaluable for c in clients):
        rec.train_loss = population_loss(clients, state.theta)
    if eval_data is not None and hasattr(clients[0].model, "predict"):
        rec.test_accuracy = accuracy(
            clients[0].model, state.theta, eval_data.features, eval_data.labels
        )
    if cfg.track_flatness:
        finals = [results[i].final_theta for i in sorted(results) if results[i] is not None]
        if finals:
            # dispersion is measured around the average of the round's
            # local models, which is the plain-averaging global model
            center = aggregate(finals)
            rec.flatness_distance = flatness_distance(finals, center)
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
    """Binary little-endian snapshot: magic, version, round, dim, 3 vectors."""
    d = state.theta.shape[0]
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<I", CHECKPOINT_VERSION))
        f.write(struct.pack("<I", state.round_index))
        f.write(struct.pack("<Q", d))
        for vec in (state.theta, state.momentum, state.last_delta):
            f.write(np.ascontiguousarray(vec, dtype="<f8").tobytes())


def load_checkpoint(path, cfg: FedConfig) -> ServerState:
    """Read a snapshot back; the learning rate is replayed from the config.

    Replaying the decay multiplication round by round (rather than using a
    power) reproduces the exact float the uninterrupted run would hold.
    """
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: not a checkpoint file")
    if len(blob) < 20:
        raise ValueError(f"{path}: truncated checkpoint header ({len(blob)} of 20 bytes)")
    (version,) = struct.unpack_from("<I", blob, 4)
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    (round_index,) = struct.unpack_from("<I", blob, 8)
    (d,) = struct.unpack_from("<Q", blob, 12)
    need = 20 + 3 * 8 * d
    if len(blob) != need:
        raise ValueError(f"{path}: truncated checkpoint ({len(blob)} of {need} bytes)")
    vecs = [
        np.frombuffer(blob, dtype="<f8", count=d, offset=20 + 8 * d * k).astype(np.float64)
        for k in range(3)
    ]
    lr = cfg.lr0
    for _ in range(round_index):
        lr *= cfg.lr_decay
    return ServerState(
        theta=vecs[0], momentum=vecs[1], last_delta=vecs[2], round_index=round_index, lr=lr
    )
