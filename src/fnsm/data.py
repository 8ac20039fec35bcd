"""Synthetic datasets, CSV ingestion, and non-IID client partitioning.

A partition assigns every sample index to exactly one client. Label
heterogeneity is controlled by a Dirichlet concentration: for each class
the per-client proportions are drawn from Dirichlet(alpha), so small
alpha concentrates a class on few clients and large alpha approaches a
uniform split.
"""

import sys
from array import array
from dataclasses import dataclass

import numpy as np

from .rng import rng_for

__all__ = [
    "Dataset",
    "DirichletSpec",
    "DatasetFormatError",
    "synth_gaussian_mixture",
    "dirichlet_partition",
    "train_test_split",
    "load_csv",
    "save_csv",
]


# The most classes a dataset may have: the model has an output per class,
# and the partition draws a Dirichlet vector over the clients per class.
# Far above the 10-1000 classes of label-skew benchmarks. On a 2-vCPU
# x86-64 host with one BLAS thread, a 10 000-row mixture with a row per
# class takes 0.6 s and 39 MB to ``fnsm partition`` and 3.6 s and 197 MB
# for a one-round ``fnsm run`` that evaluates every metric.
MAX_CLASSES = 10_000
# The most feature cells, data.n * data.dim, a generated dataset may have:
# 80 MB of float64 features. ``fnsm partition`` of 2 500 000 rows of 4
# takes 1.4 s and 320 MB, and of 1 000 000 rows of 10 in 10 000 classes
# 1.3 s and 289 MB.
MAX_CELLS = 10**7


class DatasetFormatError(ValueError):
    """Raised when a dataset file cannot be parsed; message names the line."""


@dataclass
class Dataset:
    """Feature matrix with integer class labels."""

    features: np.ndarray  # (n, dim) float64, all finite
    labels: np.ndarray  # (n,) int64 in [0, classes)
    classes: int

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels)
        if self.features.ndim != 2 or self.features.shape[0] < 1:
            raise ValueError("features must be a nonempty (n, dim) matrix")
        if self.labels.shape != (self.features.shape[0],):
            raise ValueError("labels must align with feature rows")
        if not np.isfinite(self.features).all():
            raise ValueError("features contain non-finite values")
        if self.classes < 2:
            raise ValueError("need at least 2 classes")
        self.labels = check_labels(self.labels, self.classes).astype(np.int64, copy=False)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


def check_labels(y: np.ndarray, classes: int) -> np.ndarray:
    """y, a nonempty label vector, when it holds integer class indices in [0, classes).

    Otherwise raises ValueError naming the first bad label. The dtype
    decides integrality: a float or bool vector is refused whatever its
    values, so 1.0 or True never passes as a class index.
    """
    if y.dtype.kind not in "iu":
        raise ValueError(f"label {y[0]} is not an integer class index ({y.dtype} labels)")
    if np.minimum.reduce(y) < 0 or np.maximum.reduce(y) >= classes:
        raise ValueError(f"label {y[(y < 0) | (y >= classes)][0]} is outside [0, {classes})")
    return y


@dataclass(frozen=True)
class DirichletSpec:
    """Concentration, client count, and seed for one partition draw."""

    alpha: float
    n_clients: int
    seed: int = 0

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")
        if self.n_clients < 1:
            raise ValueError("need at least one client")
        # past this the draw's normaliser overflows and every proportion comes out 0
        if self.n_clients > sys.float_info.max / float(self.alpha):
            raise ValueError("alpha * n_clients must be finite")


def synth_gaussian_mixture(
    classes: int, dim: int, n: int, spread: float, seed: int
) -> Dataset:
    """Isotropic Gaussian blobs, one per class, with balanced labels.

    Class means are drawn once from the seed (standard normal). The labels
    are one class-sorted vector whose class counts differ by at most one,
    and one (n, dim) standard normal draw gives every point as
    ``means[label] + spread * noise``; the generator fills that draw row by
    row, so it holds the per-class draws back to back. Row order is a
    seeded shuffle, so the same call always returns bit-identical arrays.
    """
    if classes < 2 or dim < 1 or n < classes or not spread > 0:
        raise ValueError("need classes >= 2, dim >= 1, n >= classes, spread > 0")
    rng = rng_for(seed, "dataset")
    means = rng.standard_normal((classes, dim))
    counts = np.full(classes, n // classes)
    counts[: n % classes] += 1
    labels = np.repeat(np.arange(classes), counts)
    # a spread that overflows the features is reported by Dataset's finiteness check
    with np.errstate(over="ignore", invalid="ignore"):
        features = means[labels] + spread * rng.standard_normal((n, dim))
    order = rng.permutation(n)
    return Dataset(features=features[order], labels=labels[order], classes=classes)


def dirichlet_partition(ds: Dataset, spec: DirichletSpec) -> list[np.ndarray]:
    """Split sample indices into disjoint per-client shards.

    For each class, proportions over clients are drawn from
    Dirichlet(alpha) and converted to integer counts by largest-remainder
    rounding, so the shards always cover the dataset exactly. Shards can
    be empty: at small alpha, and always when ``n_clients`` exceeds
    ``ds.n``.

    Each class's shuffled sample indices are dealt out in client order by
    those counts into one owner vector, the client id of every sample. One
    stable argsort of it lists the samples client by client, each client's
    in ascending order, and the per-client counts cut that list into the
    shards.

    Returns one ascending int64 index array per client.
    """
    rng = rng_for(spec.seed, "partition")
    owner = np.empty(ds.n, dtype=np.int64)
    # each class's sample indices in ascending order, cut from one stable sort
    by_class = np.argsort(ds.labels, kind="stable")
    for idx in np.split(by_class, np.cumsum(np.bincount(ds.labels, minlength=ds.classes))[:-1]):
        if idx.size == 0:
            continue
        idx = rng.permutation(idx)
        p = rng.dirichlet(np.full(spec.n_clients, spec.alpha))
        owner[idx] = np.repeat(np.arange(spec.n_clients), _largest_remainder(p, idx.size))
    cuts = np.cumsum(np.bincount(owner, minlength=spec.n_clients))[:-1]
    return np.split(np.argsort(owner, kind="stable"), cuts)


def _largest_remainder(p: np.ndarray, total: int) -> np.ndarray:
    """Integer counts summing to total, proportional to p."""
    raw = p * total
    counts = np.floor(raw).astype(np.int64)
    short = total - counts.sum()
    if short > 0:
        # ties broken toward lower index by stable sort
        order = np.argsort(-(raw - counts), kind="stable")
        counts[order[:short]] += 1
    return counts


def train_test_split(ds: Dataset, test_fraction: float, seed: int):
    """Seeded shuffle split into (train Dataset, test Dataset)."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must lie in (0, 1)")
    order = rng_for(seed, "split").permutation(ds.n)
    n_test = max(1, int(round(ds.n * test_fraction)))
    if n_test >= ds.n:
        raise ValueError("test split would consume the whole dataset")
    test, train = order[:n_test], order[n_test:]
    return (
        Dataset(ds.features[train], ds.labels[train], ds.classes),
        Dataset(ds.features[test], ds.labels[test], ds.classes),
    )


def save_csv(ds: Dataset, path) -> None:
    """Write one `f1,...,fdim,label` line per sample.

    Floats use the shortest representation that round-trips exactly, so
    save followed by load reproduces the arrays bit for bit.
    """
    with open(path, "w", newline="\n") as f:
        for row, lab in zip(ds.features, ds.labels):
            f.write(",".join(repr(float(v)) for v in row))
            f.write(f",{int(lab)}\n")


def load_csv(path) -> Dataset:
    """Parse a dataset file written in the save_csv format.

    Classes are inferred as 1 + max label. Every malformed input (missing
    file, ragged row, non-numeric or non-finite cell, a label that is not
    an integer in [0, MAX_CLASSES)) raises
    DatasetFormatError naming the offending line; a file whose labels
    are all 0 raises it naming the file. Lines may end in LF or
    CRLF, and the last one needs no line break.

    The file is streamed line by line into one flat float64 buffer that
    becomes the feature matrix without a copy, so the whole text, its
    lines and per-row lists are never held at once.
    """
    feats = array("d")
    labels = array("q")
    width = None
    try:
        # undecodable bytes become lone surrogates, which fail the numeric
        # parse below and so are reported with their line
        with open(path, errors="surrogateescape") as f:
            for lineno, line in enumerate(f, start=1):
                if not line.strip():
                    raise DatasetFormatError(f"{path}:{lineno}: blank line")
                cells = line.split(",")
                if width is None:
                    width = len(cells)
                    if width < 2:
                        raise DatasetFormatError(f"{path}:{lineno}: need features and a label")
                elif len(cells) != width:
                    raise DatasetFormatError(
                        f"{path}:{lineno}: expected {width} fields, got {len(cells)}"
                    )
                label = cells.pop()
                try:
                    feats.fromlist(list(map(float, cells)))
                except ValueError:
                    raise DatasetFormatError(f"{path}:{lineno}: non-numeric feature") from None
                try:
                    lab = int(label)
                except ValueError:
                    raise DatasetFormatError(f"{path}:{lineno}: label is not an integer") from None
                if lab < 0:
                    raise DatasetFormatError(f"{path}:{lineno}: negative label")
                if lab >= MAX_CLASSES:
                    raise DatasetFormatError(
                        f"{path}:{lineno}: label out of range: {lab} is past the cap of "
                        f"{MAX_CLASSES} classes"
                    )
                labels.append(lab)
    except OSError as exc:
        raise DatasetFormatError(f"{path}: cannot read file ({exc})") from exc
    if width is None:
        raise DatasetFormatError(f"{path}: empty file")
    features = np.frombuffer(feats, dtype=np.float64).reshape(len(labels), width - 1)
    bad = np.flatnonzero(~np.isfinite(features).all(axis=1))
    if bad.size:
        # every line holds one row, so row i sits on line i + 1
        raise DatasetFormatError(f"{path}:{bad[0] + 1}: non-finite feature")
    labels = np.frombuffer(labels, dtype=np.int64)
    if labels.max() == 0:
        raise DatasetFormatError(f"{path}: every label is 0, so there is a single class")
    return Dataset(features, labels, classes=int(labels.max()) + 1)
