"""Per-client local training for one communication round.

The client reads two things: the run's ``federation.FedConfig`` (which
rule its algorithm uses, rho, the momentum lambda, extrapolation on or
off, K local steps, the seed and the batch size) and the round's
``federation.ServerState`` (theta, the server momentum m, the last
aggregated displacement, the learning rate, the round index and lesam's
per-client memory ``last_seen``). It returns its model after K local
steps, every rule taking the same step with g(.) the minibatch gradient
and lr the round's learning rate:

  theta <- theta - lr * blend(g(probe))

The rules differ only in the probe, with N(v) = rho * v/|v| (zero when
|v| is near zero), and only mosam blends (elsewhere blend(g) = g):

  sgd     probe = theta
  sam     probe = theta + N(g(theta)), the client's own gradient
  mosam   as sam; blend(g) = momentum * g + (1 - momentum) * ghat, with
          ghat = -last_delta / (lr * K) the server's pseudo-gradient
  nsam    probe = theta + offset, offset = N(-m), the negated global
          momentum (+ momentum * m when extrapolating)
  lesam   probe = theta + offset, offset = N(last_seen - theta0), the drift
          from the model the client last received, kept in the server state

The offsets depend only on what the server sent, so they are fixed for
the round; sam and mosam recompute the probe from each step's gradient.

Per round and per client: everything a round's clients share (the rule
kind, K, rho, the momentum, theta as a float64 vector, the learning
rate, nsam's offset and mosam's blend target (1 - momentum) * ghat,
already scaled) is read from ``cfg`` and ``state`` once, by
``round_constants``. The server loop computes it once per round and
hands it to each client's local_round; a direct call computes its own.
Per client there remains only the client's own work: lesam's offset
from its memory, the batch stream of a client that holds data (a
data-free client gets none) and K steps of gradient arithmetic. The
server loop also silences numpy's overflow warnings once per round; a
direct call does not, so a diverging client may warn before it raises.

Each client draws batches from a stream keyed by (seed, client, round):
a fresh without-replacement shuffle per local epoch, short final batch
kept. Each epoch gathers, in one copy, the rows of that epoch which the
round's cfg.local_steps steps still take (the whole shard when they
cover the epoch, fewer when the round ends inside it), and its batches
are slices of that copy; so a round copies the same rows as one gather
per step, never more. Keying the stream by round makes a client's
result depend only on the arguments of local_round, so clients can run
in any order.

Every local step checks that theta is still finite (``all_finite``):
one dot product, whose squared norm is non-finite whenever an entry is
NaN or infinite. A huge but finite theta overflows the squared norm
too; the exact elementwise test then runs and lets it pass.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .rng import rng_for

__all__ = [
    "ClientState",
    "DivergenceError",
    "all_finite",
    "sam_perturbation",
    "nsam_perturbation",
    "RoundConstants",
    "round_constants",
    "local_round",
]

ZERO_NORM = 1e-12  # below this, normalized directions fall back to zero


class DivergenceError(RuntimeError):
    """Training went non-finite; carries (round, client, step) context, with
    client and step None when only the global model or a metric (``what``) did."""

    def __init__(self, round_index: int, client_id=None, step=None, what="parameter"):
        where = (" (every client's local steps stayed finite)" if client_id is None
                 else f", client {client_id}, local step {step}")
        super().__init__(f"non-finite {what} at round {round_index}{where}")
        self.round_index = round_index
        self.client_id = client_id
        self.step = step


@dataclass(frozen=True)
class ClientState:
    """One client: its objective and data shard. Clients hold no run state
    (lesam's memory is ``ServerState.last_seen``), so runs can share them.

    ``features is None`` marks a data-free objective (a client-specific
    quadratic); such clients are always evaluable and have no batches.
    """

    client_id: int
    model: object
    features: np.ndarray | None = None
    labels: np.ndarray | None = None

    @property
    def evaluable(self) -> bool:
        return self.features is None or self.features.shape[0] > 0

    def full_loss(self, theta) -> float:
        return self.model.loss(theta, self.features, self.labels)

    def full_grad(self, theta) -> np.ndarray:
        return self.model.grad(theta, self.features, self.labels)

    def batches(self, cfg, round_index: int):
        """Endless stream of cfg.batch_size minibatches, reshuffled per epoch.

        The first cfg.local_steps batches are views of one gathered copy
        per epoch, holding only the rows those steps take; any batch past
        them is gathered on its own.
        """
        rng = rng_for(cfg.seed, "batch", self.client_id, round_index)
        n, size = self.features.shape[0], cfg.batch_size
        per_epoch, steps = -(-n // size), cfg.local_steps  # steps still to serve
        while True:
            order = rng.permutation(n)
            stop = min(n, steps * size)
            steps -= min(steps, per_epoch)
            X, y = self.features[order[:stop]], self.labels[order[:stop]]
            for start in range(0, n, size):
                if start < stop:
                    yield X[start : start + size], y[start : start + size]
                else:
                    take = order[start : start + size]
                    yield self.features[take], self.labels[take]


def all_finite(v: np.ndarray) -> bool:
    """Whether every entry of the float vector v is finite, in one dot product.

    A NaN or an infinity makes the squared norm non-finite. A huge but
    finite v only overflows it, and the exact elementwise test then
    clears v. ``np.vdot`` raises no floating-point warning on overflow.
    """
    return math.isfinite(np.vdot(v, v)) or bool(np.isfinite(v).all())


def _normalized(v: np.ndarray, rho: float) -> np.ndarray:
    """rho * v / |v|, or zero when v has (near-)zero norm.

    |v| is sqrt(v . v), which is how ``np.linalg.norm`` computes the norm
    of a float64 vector, so the result is the same to the bit, warnings
    included; calling the dot product directly skips norm's dispatch.
    """
    if not rho >= 0:
        raise ValueError("rho must be >= 0")
    norm = math.sqrt(v.dot(v))
    if norm < ZERO_NORM:
        return np.zeros_like(v)
    return (rho / norm) * v


def sam_perturbation(g: np.ndarray, rho: float) -> np.ndarray:
    """rho * g / |g|, or zero when the gradient has (near-)zero norm."""
    return _normalized(g, rho)


def nsam_perturbation(m: np.ndarray, rho: float) -> np.ndarray:
    """rho * (-m) / |m|; zero on the cold start where m is still zero.

    The momentum accumulates descent displacements, so its negation points
    up the loss surface, which is the direction an ascent probe needs.
    """
    return _normalized(-m, rho)


class RoundConstants(NamedTuple):
    """What every client of a round shares, read from ``cfg`` and the round's state."""

    kind: str  # the local rule: sgd, sam, mosam, nsam or lesam
    steps: int  # K
    rho: float
    momentum: float
    theta: np.ndarray  # the round's model, as float64
    # the learning rate as a 0-d float64 array: the same product, to the
    # bit, as with the Python float, but numpy converts no scalar per step
    lr: np.ndarray
    offset: np.ndarray | None  # nsam's probe offset
    blend: np.ndarray | None  # mosam's (1 - momentum) * ghat


def round_constants(cfg, state) -> RoundConstants:
    """The round's shared constants; nsam's offset and mosam's blend target
    are None for the other rules."""
    kind = cfg.local_rule
    offset = blend = None
    if kind == "nsam":
        offset = nsam_perturbation(state.momentum, cfg.rho)
        if cfg.extrapolate:
            offset = offset + cfg.momentum * state.momentum
    elif kind == "mosam":
        ghat = -state.last_delta / (state.lr * cfg.local_steps)
        blend = (1.0 - cfg.momentum) * ghat
    theta, lr = np.asarray(state.theta, dtype=np.float64), np.array(state.lr, dtype=np.float64)
    return RoundConstants(kind, cfg.local_steps, cfg.rho, cfg.momentum, theta, lr, offset, blend)


def local_round(
    cfg, state, client: ClientState, update_client_state: bool = True, constants=None
) -> np.ndarray | None:
    """Run K local steps from the server model; return the client's final model.

    ``cfg`` is the run's ``federation.FedConfig``: the rule comes from
    its algorithm (``cfg.local_rule``), and rho, momentum, extrapolate,
    local_steps, seed and batch_size are read from it as they are.
    ``state`` is the round's ``federation.ServerState``; its theta,
    momentum, last_delta, lr, round_index and last_seen are read. Returns
    None for a client whose shard is empty (the caller skips it).
    ``update_client_state`` marks a real participation: lesam then records
    the received theta in ``state.last_seen``. It is off for metric-only
    evaluations, which record nothing.
    ``constants`` is ``round_constants(cfg, state)``, which the server loop
    computes once per round; when omitted it is computed here. Given,
    it is all that is read of ``cfg`` apart from the batch stream's
    seed, batch size and K, and of ``state`` apart from round_index and
    last_seen.

    Overflow is reported as a DivergenceError naming the client and step.
    The server loop silences numpy's floating-point warnings once per
    round; a direct call does not, so it may also emit a RuntimeWarning
    first.
    """
    if not client.evaluable:
        return None
    kind, steps, rho, momentum, theta0, lr, offset, blend = (
        round_constants(cfg, state) if constants is None else constants
    )
    if kind == "lesam":
        seen = state.last_seen.get(client.client_id, theta0)  # zero drift at first
        offset = sam_perturbation(seen - theta0, rho)
    own_probe = kind in ("sam", "mosam")

    grad = client.model.grad
    X = y = stream = None
    if client.features is not None:
        stream = client.batches(cfg, state.round_index)
    theta = theta0
    for k in range(steps):
        if stream is not None:
            X, y = next(stream)
        if offset is not None:
            probe = theta + offset
        elif own_probe:
            probe = theta + sam_perturbation(grad(theta, X, y), rho)
        else:
            probe = theta
        g = grad(probe, X, y)
        if blend is not None:
            g = momentum * g + blend
        theta = theta - lr * g
        if not all_finite(theta):
            raise DivergenceError(state.round_index, client.client_id, k)

    if update_client_state and kind == "lesam":
        state.last_seen[client.client_id] = theta0
    return theta
