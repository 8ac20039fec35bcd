"""Per-client local training for one communication round.

Five update rules share one loop. With g(.) the minibatch gradient and
lr the broadcast learning rate:

  sgd     theta <- theta - lr * g(theta)
  sam     probe the ascent direction of the *local* gradient:
          d = rho * g(theta)/|g(theta)|, theta <- theta - lr * g(theta + d)
  nsam    probe a *shared* direction built from the server momentum m:
          d = rho * (-m)/|m|, offset = momentum * m (when extrapolating),
          theta <- theta - lr * g(theta + offset + d)
  mosam   local SAM gradient blended with the server's step-normalized
          pseudo-gradient: theta <- theta - lr * (momentum * g(theta + d)
          + (1 - momentum) * ghat), ghat = -last_delta / (lr * K)
  lesam   perturb along the drift between the last-received and current
          global model: d = rho * (old_global - theta0)/|.|

The nsam probe offset and perturbation depend only on broadcast state,
so they are constant across all K steps and across clients within a
round; sam recomputes its perturbation from each step's own gradient.

Each client draws batches from a stream keyed by (seed, client, round):
a fresh without-replacement shuffle per local epoch, short final batch
kept. Keying the stream by round makes local_round a pure function of
its arguments, so clients can run in any order.
"""

from dataclasses import dataclass, field

import numpy as np

from .rng import rng_for

__all__ = [
    "LocalRule",
    "ClientState",
    "BroadcastState",
    "LocalResult",
    "DivergenceError",
    "sam_perturbation",
    "nsam_perturbation",
    "local_round",
]

ZERO_NORM = 1e-12  # below this, normalized directions fall back to zero

_KINDS = ("sgd", "sam", "nsam", "mosam", "lesam")


class DivergenceError(RuntimeError):
    """A parameter went non-finite; carries (round, client, step) context."""

    def __init__(self, round_index: int, client_id: int, step: int):
        super().__init__(
            f"non-finite parameter at round {round_index}, "
            f"client {client_id}, local step {step}"
        )
        self.round_index = round_index
        self.client_id = client_id
        self.step = step


@dataclass(frozen=True)
class LocalRule:
    """Which per-step update runs on the client, with its knobs."""

    kind: str
    rho: float = 0.0
    momentum: float = 0.0
    extrapolate: bool = True

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown local rule {self.kind!r}")
        if self.rho < 0:
            raise ValueError("rho must be >= 0")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")

    @classmethod
    def sgd(cls):
        return cls("sgd")

    @classmethod
    def sam(cls, rho: float):
        return cls("sam", rho=rho)

    @classmethod
    def nsam(cls, rho: float, momentum: float, extrapolate: bool = True):
        return cls("nsam", rho=rho, momentum=momentum, extrapolate=extrapolate)

    @classmethod
    def mosam(cls, rho: float, momentum: float):
        return cls("mosam", rho=rho, momentum=momentum)

    @classmethod
    def lesam(cls, rho: float):
        return cls("lesam", rho=rho)


@dataclass
class ClientState:
    """One client: its objective, data shard, and cross-round memory.

    ``features is None`` marks a data-free objective (a client-specific
    quadratic); such clients are always evaluable and ignore batching.
    ``old_global`` is the global model received at the previous
    participation, kept only for the lesam perturbation.
    """

    client_id: int
    model: object
    features: np.ndarray | None = None
    labels: np.ndarray | None = None
    seed: int = 0
    batch_size: int = 32
    old_global: np.ndarray | None = field(default=None, repr=False)

    @property
    def n_samples(self) -> int:
        return -1 if self.features is None else int(self.features.shape[0])

    @property
    def evaluable(self) -> bool:
        return self.features is None or self.features.shape[0] > 0

    def full_loss(self, theta) -> float:
        return self.model.loss(theta, self.features, self.labels)

    def full_grad(self, theta) -> np.ndarray:
        return self.model.grad(theta, self.features, self.labels)

    def batches(self, round_index: int):
        """Endless minibatch stream for one round, reshuffled per epoch."""
        if self.features is None:
            while True:
                yield None, None
        rng = rng_for(self.seed, "batch", self.client_id, round_index)
        n = self.features.shape[0]
        while True:
            order = rng.permutation(n)
            for start in range(0, n, self.batch_size):
                take = order[start : start + self.batch_size]
                yield self.features[take], self.labels[take]


@dataclass(frozen=True)
class BroadcastState:
    """Server-to-client payload for one round."""

    theta: np.ndarray
    momentum: np.ndarray
    last_delta: np.ndarray
    lr: float
    local_steps: int
    round_index: int


@dataclass(frozen=True)
class LocalResult:
    delta: np.ndarray  # final_theta - broadcast theta, exactly
    final_theta: np.ndarray
    steps_taken: int


def sam_perturbation(g: np.ndarray, rho: float) -> np.ndarray:
    """rho * g / |g|, or zero when the gradient has (near-)zero norm."""
    if rho < 0:
        raise ValueError("rho must be >= 0")
    norm = float(np.linalg.norm(g))
    if norm < ZERO_NORM:
        return np.zeros_like(g)
    return (rho / norm) * g


def nsam_perturbation(m: np.ndarray, rho: float) -> np.ndarray:
    """rho * (-m) / |m|; zero on the cold start where m is still zero.

    The momentum accumulates descent displacements, so its negation points
    up the loss surface, which is the direction an ascent probe needs.
    """
    if rho < 0:
        raise ValueError("rho must be >= 0")
    norm = float(np.linalg.norm(m))
    if norm < ZERO_NORM:
        return np.zeros_like(m)
    return (-rho / norm) * m


def local_round(
    rule: LocalRule,
    bs: BroadcastState,
    client: ClientState,
    update_client_state: bool = True,
) -> LocalResult | None:
    """Run K local steps from the broadcast model; return the displacement.

    Returns None for a client whose shard is empty (the caller skips it).
    ``update_client_state`` is turned off for metric-only evaluations so
    that lesam's participation memory only advances on real participation.
    """
    if client.n_samples == 0:
        return None
    theta0 = np.asarray(bs.theta, dtype=np.float64)
    theta = theta0.copy()
    lr = bs.lr

    if rule.kind == "nsam":
        probe_offset = nsam_perturbation(bs.momentum, rule.rho)
        if rule.extrapolate:
            probe_offset = probe_offset + rule.momentum * bs.momentum
    elif rule.kind == "lesam":
        if client.old_global is None:
            probe_offset = np.zeros_like(theta0)
        else:
            probe_offset = sam_perturbation(client.old_global - theta0, rule.rho)
    elif rule.kind == "mosam":
        ghat = -bs.last_delta / (lr * bs.local_steps)

    stream = client.batches(bs.round_index)
    # overflow is an anticipated failure mode, reported via DivergenceError
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(bs.local_steps):
            X, y = next(stream)
            if rule.kind == "sgd":
                theta = theta - lr * client.model.grad(theta, X, y)
            elif rule.kind == "sam":
                d = sam_perturbation(client.model.grad(theta, X, y), rule.rho)
                theta = theta - lr * client.model.grad(theta + d, X, y)
            elif rule.kind == "mosam":
                d = sam_perturbation(client.model.grad(theta, X, y), rule.rho)
                g_probe = client.model.grad(theta + d, X, y)
                theta = theta - lr * (rule.momentum * g_probe + (1.0 - rule.momentum) * ghat)
            else:  # nsam, lesam: shared probe offset, constant within the round
                theta = theta - lr * client.model.grad(theta + probe_offset, X, y)
            if not np.isfinite(theta).all():
                raise DivergenceError(bs.round_index, client.client_id, k)

    if update_client_state and rule.kind == "lesam":
        client.old_global = theta0
    return LocalResult(delta=theta - theta0, final_theta=theta, steps_taken=bs.local_steps)
