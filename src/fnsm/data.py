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
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2 or self.features.shape[0] < 1:
            raise ValueError("features must be a nonempty (n, dim) matrix")
        if self.labels.shape != (self.features.shape[0],):
            raise ValueError("labels must align with feature rows")
        if not np.isfinite(self.features).all():
            raise ValueError("features contain non-finite values")
        if self.classes < 2:
            raise ValueError("need at least 2 classes")
        if self.labels.min() < 0 or self.labels.max() >= self.classes:
            raise ValueError("labels out of range")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


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

    Class means are drawn once from the seed (standard normal), points as
    mean + spread * noise. Class counts differ by at most one; row order
    is a seeded shuffle, so the same call always returns bit-identical
    arrays.
    """
    if classes < 2 or dim < 1 or n < classes or not spread > 0:
        raise ValueError("need classes >= 2, dim >= 1, n >= classes, spread > 0")
    rng = rng_for(seed, "dataset")
    means = rng.standard_normal((classes, dim))
    counts = np.full(classes, n // classes)
    counts[: n % classes] += 1
    feats = []
    labs = []
    # a spread that overflows the features is reported by Dataset's finiteness check
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(classes):
            feats.append(means[k] + spread * rng.standard_normal((counts[k], dim)))
            labs.append(np.full(counts[k], k, dtype=np.int64))
    order = rng.permutation(n)
    return Dataset(
        features=np.concatenate(feats)[order],
        labels=np.concatenate(labs)[order],
        classes=classes,
    )


def dirichlet_partition(ds: Dataset, spec: DirichletSpec) -> list[np.ndarray]:
    """Split sample indices into disjoint per-client shards.

    For each class, proportions over clients are drawn from
    Dirichlet(alpha) and converted to integer counts by largest-remainder
    rounding, so the shards always cover the dataset exactly. Shards can
    be empty: at small alpha, and always when ``n_clients`` exceeds
    ``ds.n``.

    Returns one sorted index array per client.
    """
    rng = rng_for(spec.seed, "partition")
    shards: list[list[np.ndarray]] = [[] for _ in range(spec.n_clients)]
    for k in range(ds.classes):
        idx = np.flatnonzero(ds.labels == k)
        if idx.size == 0:
            continue
        idx = rng.permutation(idx)
        p = rng.dirichlet(np.full(spec.n_clients, spec.alpha))
        counts = _largest_remainder(p, idx.size)
        stop = np.cumsum(counts)
        start = stop - counts
        for i in range(spec.n_clients):
            shards[i].append(idx[start[i] : stop[i]])
    return [
        np.sort(np.concatenate(parts)) if parts else np.empty(0, dtype=np.int64)
        for parts in shards
    ]


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
    file, ragged row, non-numeric or non-finite cell, bad label) raises
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
                try:
                    labels.append(lab)
                except OverflowError:
                    raise DatasetFormatError(f"{path}:{lineno}: label out of range") from None
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
