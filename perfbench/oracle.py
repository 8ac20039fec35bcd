"""Independent readers and recomputations that the output checks compare against.

Nothing here calls fnsm: the checkpoint reader follows the documented v1
layout, the forward pass re-derives the tanh MLP from its flat parameter
layout, and the quadratic minimiser is the closed form for diagonal
curvatures. The CSV and surface parsers read the text formats directly.
"""

import math
import struct

import numpy as np

RECORD_COLUMNS = (
    "round", "train_loss", "test_accuracy", "grad_norm_extrapolated",
    "flatness_distance", "global_sharpness", "wall_time_ms",
)


def read_checkpoint(path):
    """v1 layout: b"FNSM", u32 version, u32 round, u64 d, then theta, momentum, last_delta as <f8."""
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != b"FNSM":
        raise ValueError(f"{path}: bad magic")
    version, round_index, d = struct.unpack_from("<IIQ", blob, 4)
    if version != 1:
        raise ValueError(f"{path}: version {version}, expected 1")
    if len(blob) != 20 + 24 * d:
        raise ValueError(f"{path}: {len(blob)} bytes for d={d}")
    vecs = np.frombuffer(blob, dtype="<f8", offset=20).reshape(3, d).astype(np.float64)
    return round_index, vecs[0], vecs[1], vecs[2]


def mlp_logits(theta, X, hidden: int, classes: int):
    """tanh MLP, flat layout [W1 (hidden x dim), b1, W2 (classes x hidden), b2]."""
    dim = X.shape[1]
    k1 = hidden * dim
    k2 = k1 + hidden
    k3 = k2 + classes * hidden
    if theta.shape != (k3 + classes,):
        raise ValueError(f"parameter vector of length {theta.shape[0]}, expected {k3 + classes}")
    W1 = theta[:k1].reshape(hidden, dim)
    W2 = theta[k2:k3].reshape(classes, hidden)
    return np.tanh(X @ W1.T + theta[k1:k2]) @ W2.T + theta[k3:]


def mlp_loss(theta, X, y, hidden: int, classes: int) -> float:
    """Mean softmax cross-entropy."""
    z = mlp_logits(theta, X, hidden, classes)
    zmax = z.max(axis=1)
    lse = zmax + np.log(np.exp(z - zmax[:, None]).sum(axis=1))
    return float(np.mean(lse - z[np.arange(len(y)), y]))


def mlp_accuracy(theta, X, y, hidden: int, classes: int) -> float:
    return float(np.mean(mlp_logits(theta, X, hidden, classes).argmax(axis=1) == y))


def population_loss(theta, shards, hidden: int, classes: int) -> float:
    """Unweighted mean over non-empty shards of each shard's mean loss."""
    losses = [mlp_loss(theta, X, y, hidden, classes) for X, y in shards if len(y)]
    return float(np.mean(losses))


def quadratic_minimiser(curvatures, centres):
    """argmin of the mean of 0.5 sum_j a_ij (theta_j - c_ij)^2: sum_i a_i c_i / sum_i a_i."""
    return (curvatures * centres).sum(axis=0) / curvatures.sum(axis=0)


def quadratic_mean_loss(theta, curvatures, centres) -> float:
    return float(np.mean(0.5 * (curvatures * (theta - centres) ** 2).sum(axis=1)))


def read_records(path):
    """A per-run metrics CSV as a list of dicts; empty cells become None."""
    with open(path) as f:
        lines = f.read().splitlines()
    if not lines or not lines[0].startswith("# fnsm "):
        raise ValueError(f"{path}: missing provenance line")
    if len(lines) < 2 or tuple(lines[1].split(",")) != RECORD_COLUMNS:
        raise ValueError(f"{path}: unexpected columns")
    rows = []
    for line in lines[2:]:
        cells = line.split(",")
        if len(cells) != len(RECORD_COLUMNS):
            raise ValueError(f"{path}: ragged row {line!r}")
        row = {"round": int(cells[0])}
        for key, cell in zip(RECORD_COLUMNS[1:], cells[1:]):
            row[key] = float(cell) if cell else None
        rows.append(row)
    return rows


def read_summary(path):
    """summary.csv as {algorithm: [six floats]}, in file order."""
    with open(path) as f:
        lines = [ln for ln in f.read().splitlines() if ln and not ln.startswith("#")]
    out = {}
    for line in lines[1:]:
        algo, *cells = line.split(",")
        if len(cells) != 6 or algo in out:
            raise ValueError(f"{path}: bad row {line!r}")
        out[algo] = [float(c) for c in cells]
    return out


def read_surface(path):
    """(values, range, res) from a `# fnsm-surface v1 res=R range=S` grid file."""
    with open(path) as f:
        lines = f.read().splitlines()
    head = lines[0].split()
    if head[:3] != ["#", "fnsm-surface", "v1"]:
        raise ValueError(f"{path}: not a v1 surface file")
    fields = dict(part.split("=", 1) for part in head[3:])
    res = int(fields["res"])
    values = np.array([[float(v) for v in ln.split()] for ln in lines[1:]])
    if values.shape != (res, res):
        raise ValueError(f"{path}: grid {values.shape}, expected {res}x{res}")
    return values, float(fields["range"]), res


def close(a: float, b: float, rtol: float) -> bool:
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= rtol * max(abs(a), abs(b))
