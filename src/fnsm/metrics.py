"""Diagnostics for flat-minima behaviour of a federated run.

The population objective is the unweighted mean of the clients' full-data
losses. Clients are any objects exposing ``full_loss(theta)``,
``full_grad(theta)`` and ``evaluable``; empty shards are skipped.

``aggregate`` is the one mean over per-client vectors: the server's mean
displacement, the center of the flatness distance and the population
gradient all sum their rows in client order from +0.0, so each is
bit-identical to a sequential loop for any shape.
"""

from dataclasses import dataclass

import numpy as np

from .local import ZERO_NORM, sam_perturbation
from .rng import rng_for

__all__ = [
    "SurfaceGrid",
    "aggregate",
    "flatness_distance",
    "global_sharpness",
    "extrapolated_grad_norm",
    "population_loss",
    "population_grad",
    "loss_surface_slice",
    "write_surface",
    "read_surface",
]

SURFACE_HEADER = "# fnsm-surface v1"


def flatness_distance(local_models: list[np.ndarray], global_model: np.ndarray) -> float:
    """Mean squared Euclidean distance from each local model to the global one.

    Small values mean the clients' round-end models cluster tightly around
    the aggregate; growth signals client drift.
    """
    if not local_models:
        raise ValueError("need at least one local model")
    g = np.asarray(global_model, dtype=np.float64)
    total = 0.0
    for lm in local_models:
        diff = np.asarray(lm, dtype=np.float64) - g
        if diff.shape != g.shape:
            raise ValueError("local model dimension mismatch")
        total += float(diff @ diff)
    return total / len(local_models)


def aggregate(deltas) -> np.ndarray:
    """Plain mean of per-client vectors, summed in client order.

    ``deltas`` is a (clients x dim) array or a list of vectors (client
    displacements, local models or gradients), in ascending client-id
    order. The sum runs row by row from +0.0, as ``total = zeros; for d
    in deltas: total += d`` would, which pins the reduction order for
    bit-reproducibility: numpy reduces axis 0 of a C-contiguous 2-D array
    that way. A 1-D run, which a one-coordinate model's (clients x 1)
    array becomes, numpy sums pairwise instead, so that shape keeps the
    loop.
    """
    if len(deltas) == 0:
        raise ValueError("no client results to aggregate")
    try:
        D = np.ascontiguousarray(deltas)
    except ValueError:  # vectors of different lengths do not stack
        raise ValueError("client deltas disagree on dimension") from None
    if D.ndim != 2:
        raise ValueError("client deltas disagree on dimension")
    if D.shape[1] > 1:
        total = np.add.reduce(D, axis=0, initial=0.0)
    else:
        total = np.zeros(1, dtype=D.dtype)
        for d in D:
            total += d
    return total / len(D)


def population_loss(clients, theta: np.ndarray) -> float:
    vals = [c.full_loss(theta) for c in clients if c.evaluable]
    if not vals:
        raise ValueError("no evaluable clients")
    return float(np.mean(vals))


def population_grad(clients, theta: np.ndarray) -> np.ndarray:
    grads = [c.full_grad(theta) for c in clients if c.evaluable]
    if not grads:
        raise ValueError("no evaluable clients")
    return aggregate(grads)


def global_sharpness(clients, theta: np.ndarray, rho: float) -> float:
    """Loss rise of the population under the SAM probe of its own gradient.

    With g the population gradient at theta, this is
    population_loss(theta + sam_perturbation(g, rho)) - population_loss(theta):
    one ascent step of length rho approximates the worst loss in a
    rho-ball. It is 0 when g is (near-)zero, since the probe is then zero.
    """
    if not rho > 0:
        raise ValueError("rho must be positive")
    theta = np.asarray(theta, dtype=np.float64)
    d = sam_perturbation(population_grad(clients, theta), rho)
    return population_loss(clients, theta + d) - population_loss(clients, theta)


def extrapolated_grad_norm(clients, theta, momentum_vec, momentum: float) -> float:
    """Norm of the population gradient at the momentum look-ahead point."""
    theta = np.asarray(theta, dtype=np.float64)
    point = theta + momentum * np.asarray(momentum_vec, dtype=np.float64)
    return float(np.linalg.norm(population_grad(clients, point)))


@dataclass
class SurfaceGrid:
    """2-D slice of the population loss around a center model."""

    center: np.ndarray
    u: np.ndarray
    v: np.ndarray
    span: float
    res: int
    values: np.ndarray  # (res, res); values[a][b] = loss at center + x_a*u + y_b*v


def _filter_normalize(direction: np.ndarray, theta: np.ndarray, blocks) -> np.ndarray:
    """Rescale each parameter block of the direction to the block norm of theta.

    Blocks where either norm is (near-)zero are left as drawn; without the
    guard a zero model would erase the direction entirely.
    """
    out = direction.copy()
    for b in blocks:
        t_norm = float(np.linalg.norm(theta[b]))
        d_norm = float(np.linalg.norm(out[b]))
        if t_norm >= ZERO_NORM and d_norm >= ZERO_NORM:
            out[b] *= t_norm / d_norm
    return out


def loss_surface_slice(
    clients,
    theta: np.ndarray,
    seed: int,
    span: float,
    res: int,
) -> SurfaceGrid:
    """Evaluate the population loss on a res x res grid around theta.

    Two random directions u, v are drawn from the seed, v is orthogonalized
    against u, and both are filter-normalized per parameter block
    (``clients[0].model.blocks()``) so slices of differently scaled models
    are comparable; a block where theta is (near-)zero is left unscaled.
    Resolution must be odd so the exact center is a grid point.
    """
    if res < 3 or res % 2 == 0:
        raise ValueError("resolution must be odd and >= 3")
    if not span > 0:
        raise ValueError("span must be positive")
    theta = np.asarray(theta, dtype=np.float64)
    d = theta.shape[0]
    blocks = clients[0].model.blocks()
    rng = rng_for(seed, "surface")
    u = rng.standard_normal(d)
    v = rng.standard_normal(d)
    # Gram-Schmidt, then per-block rescale
    u_norm = float(np.linalg.norm(u))
    if u_norm >= ZERO_NORM:
        v = v - (float(v @ u) / u_norm**2) * u
    u = _filter_normalize(u, theta, blocks)
    v = _filter_normalize(v, theta, blocks)
    coords = np.linspace(-span, span, res)
    values = np.empty((res, res))
    for a, x in enumerate(coords):
        base = theta + x * u
        for b, y in enumerate(coords):
            values[a, b] = population_loss(clients, base + y * v)
    return SurfaceGrid(center=theta, u=u, v=v, span=span, res=res, values=values)


def write_surface(grid: SurfaceGrid, path) -> None:
    """Plain-text grid: one header line, then res rows of res values."""
    with open(path, "w", newline="\n") as f:
        f.write(f"{SURFACE_HEADER} res={grid.res} range={repr(float(grid.span))}\n")
        for row in grid.values:
            f.write(" ".join(repr(float(v)) for v in row))
            f.write("\n")


def read_surface(path) -> tuple[np.ndarray, float, int]:
    """Parse a surface file back into (values, span, res).

    A malformed file (a header without ``res=`` or ``range=`` or with a
    value that is not a number, a wrong number of rows, a ragged row or
    a cell that is not a number) raises ValueError naming the file and
    the line.
    """
    with open(path) as f:
        lines = f.read().splitlines()
    if not lines or not lines[0].startswith(SURFACE_HEADER):
        raise ValueError(f"{path}: not a surface grid file")
    fields = dict(part.partition("=")[::2] for part in lines[0].split()[3:])
    try:
        res = int(fields["res"])
        span = float(fields["range"])
    except KeyError as exc:
        raise ValueError(f"{path}:1: header has no {exc.args[0]}=") from None
    except ValueError:
        raise ValueError(f"{path}:1: res= or range= is not a number") from None
    if len(lines) != res + 1:
        raise ValueError(f"{path}: expected {res} rows, found {len(lines) - 1}")
    values = np.empty((res, res))
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split()
        if len(cells) != res:
            raise ValueError(
                f"{path}:{lineno}: grid is not {res}x{res}: row has {len(cells)} values"
            )
        try:
            values[lineno - 2] = [float(v) for v in cells]
        except ValueError:
            raise ValueError(f"{path}:{lineno}: a value is not a number") from None
    return values, span, res
