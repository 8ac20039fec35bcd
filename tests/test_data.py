"""Dataset generation, Dirichlet partitioning, CSV round-trips."""

import tracemalloc

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fnsm import (
    Dataset,
    DatasetFormatError,
    DirichletSpec,
    SoftmaxLinear,
    dirichlet_partition,
    load_csv,
    rng_for,
    save_csv,
    synth_gaussian_mixture,
    train_test_split,
)
from fnsm.data import MAX_CLASSES


@st.composite
def datasets(draw):
    """Small datasets over every finite float64, labels spanning >= 2 classes."""
    n = draw(st.integers(1, 30))
    dim = draw(st.integers(1, 8))
    features = draw(
        hnp.arrays(np.float64, (n, dim), elements=st.floats(allow_nan=False, allow_infinity=False))
    )
    labels = draw(hnp.arrays(np.int64, n, elements=st.integers(0, 12)))
    labels[draw(st.integers(0, n - 1))] = draw(st.integers(1, 12))
    return Dataset(features, labels, classes=int(labels.max()) + 1)


# signed zeros, the smallest subnormal and normal, the largest finite
# magnitudes, and exponents at both ends of the range
SPECIAL_VALUES = Dataset(
    np.array(
        [
            [0.0, -0.0, 5e-324, -5e-324],
            [2.2250738585072014e-308, -2.225073858507201e-308, 1.7976931348623157e308, -1e308],
            [1e-300, -1.5e-320, 0.1, -123456789.125],
        ]
    ),
    np.array([0, 2, 1]),
    classes=3,
)


@st.composite
def partition_cases(draw):
    """(classes, n, alpha, n_clients, seed), with n_clients running past n so shards go empty."""
    classes = draw(st.integers(2, 12))
    n = draw(st.integers(1, 3000))
    alpha = draw(st.sampled_from([0.01, 0.1, 1.0, 1e6]))
    return classes, n, alpha, draw(st.integers(1, n + 5)), draw(st.integers(0, 2**32 - 1))


def reference_mixture(classes, dim, n, spread, seed):
    """The per-class loop synth_gaussian_mixture replaced: one draw and one label block per class."""
    rng = rng_for(seed, "dataset")
    means = rng.standard_normal((classes, dim))
    counts = np.full(classes, n // classes)
    counts[: n % classes] += 1
    feats = []
    labs = []
    for k in range(classes):
        feats.append(means[k] + spread * rng.standard_normal((counts[k], dim)))
        labs.append(np.full(counts[k], k, dtype=np.int64))
    order = rng.permutation(n)
    return np.concatenate(feats)[order], np.concatenate(labs)[order]


def reference_partition(ds, spec):
    """The per-client loop dirichlet_partition replaced: slices appended per class, then sorted."""
    rng = rng_for(spec.seed, "partition")
    shards = [[] for _ in range(spec.n_clients)]
    for k in range(ds.classes):
        idx = np.flatnonzero(ds.labels == k)
        if idx.size == 0:
            continue
        idx = rng.permutation(idx)
        p = rng.dirichlet(np.full(spec.n_clients, spec.alpha))
        raw = p * idx.size
        counts = np.floor(raw).astype(np.int64)
        short = idx.size - counts.sum()
        if short > 0:
            counts[np.argsort(-(raw - counts), kind="stable")[:short]] += 1
        stop = np.cumsum(counts)
        start = stop - counts
        for i in range(spec.n_clients):
            shards[i].append(idx[start[i] : stop[i]])
    return [
        np.sort(np.concatenate(parts)) if parts else np.empty(0, dtype=np.int64)
        for parts in shards
    ]


def max_class_share(ds, shards):
    """Mean over nonempty clients of their dominant within-client class share."""
    shares = []
    for idx in shards:
        if len(idx) == 0:
            continue
        counts = np.bincount(ds.labels[idx], minlength=ds.classes)
        shares.append(counts.max() / len(idx))
    return float(np.mean(shares))


class TestSynthMixture:
    def test_balanced_binary_labels(self):
        ds = synth_gaussian_mixture(classes=2, dim=2, n=10, spread=0.1, seed=7)
        assert ds.n == 10
        assert np.bincount(ds.labels).tolist() == [5, 5]

    def test_deterministic(self):
        a = synth_gaussian_mixture(3, 4, 31, 0.5, seed=42)
        b = synth_gaussian_mixture(3, 4, 31, 0.5, seed=42)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_imbalance_at_most_one(self):
        ds = synth_gaussian_mixture(3, 2, 31, 0.5, seed=1)
        counts = np.bincount(ds.labels)
        assert counts.max() - counts.min() <= 1

    def test_tiny_spread_is_linearly_separable(self):
        # full-batch descent on a linear classifier reaches perfect accuracy
        ds = synth_gaussian_mixture(classes=3, dim=4, n=60, spread=1e-6, seed=5)
        model = SoftmaxLinear(3, 4)
        th = np.zeros(model.dim)
        for _ in range(300):
            th = th - 0.5 * model.grad(th, ds.features, ds.labels)
        assert np.mean(model.predict(th, ds.features) == ds.labels) == 1.0

    @settings(max_examples=60, deadline=None)
    @given(
        classes=st.integers(2, 12),
        dim=st.integers(1, 29),
        extra=st.integers(0, 3000),
        spread=st.floats(1e-3, 1e3),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(classes=12, dim=29, extra=2988, spread=1.0, seed=0)
    def test_matches_the_per_class_loop_byte_for_byte(self, classes, dim, extra, spread, seed):
        n = min(classes + extra, 3000)
        ds = synth_gaussian_mixture(classes, dim, n, spread, seed)
        features, labels = reference_mixture(classes, dim, n, spread, seed)
        assert ds.features.tobytes() == features.tobytes()
        assert ds.labels.dtype == np.int64
        assert ds.labels.tobytes() == labels.tobytes()
        assert ds.classes == classes

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            synth_gaussian_mixture(1, 2, 10, 0.1, 0)
        with pytest.raises(ValueError):
            synth_gaussian_mixture(3, 2, 2, 0.1, 0)
        with pytest.raises(ValueError):
            synth_gaussian_mixture(2, 2, 10, 0.0, 0)
        with pytest.raises(ValueError):
            synth_gaussian_mixture(2, 2, 10, float("nan"), 0)


class TestDirichletPartition:
    def test_conservation_and_disjointness(self):
        rng = rng_for(0, "spectest")
        for trial in range(50):
            n = int(rng.integers(20, 200))
            classes = int(rng.integers(2, 8))
            ds = synth_gaussian_mixture(classes, 2, n, 1.0, seed=trial)
            spec = DirichletSpec(
                alpha=float(10 ** rng.uniform(-2, 3)),
                n_clients=int(rng.integers(1, 15)),
                seed=trial,
            )
            shards = dirichlet_partition(ds, spec)
            joined = np.concatenate(shards)
            assert len(joined) == ds.n
            assert len(np.unique(joined)) == ds.n

    @settings(max_examples=80, deadline=None)
    @given(case=partition_cases())
    @example(case=(2, 1, 1.0, 6, 0))
    @example(case=(12, 3000, 0.01, 3005, 1))
    def test_matches_the_per_client_loop_byte_for_byte(self, case):
        classes, n, alpha, n_clients, seed = case
        # random labels leave some classes empty at small n
        labels = rng_for(seed, "labels").integers(0, classes, n)
        labels[0] = classes - 1
        ds = Dataset(np.zeros((n, 1)), labels, classes)
        spec = DirichletSpec(alpha, n_clients, seed)
        shards = dirichlet_partition(ds, spec)
        expected = reference_partition(ds, spec)
        assert len(shards) == n_clients
        for got, want in zip(shards, expected):
            assert got.dtype == np.int64
            assert np.all(np.diff(got) > 0)
            assert got.tobytes() == want.tobytes()

    def test_deterministic_in_seed(self):
        ds = synth_gaussian_mixture(4, 2, 100, 1.0, seed=3)
        a = dirichlet_partition(ds, DirichletSpec(0.5, 7, seed=9))
        b = dirichlet_partition(ds, DirichletSpec(0.5, 7, seed=9))
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_huge_alpha_is_near_uniform(self):
        ds = synth_gaussian_mixture(10, 2, 1000, 1.0, seed=4)
        shards = dirichlet_partition(ds, DirichletSpec(1e6, 10, seed=4))
        for idx in shards:
            counts = np.bincount(ds.labels[idx], minlength=10)
            assert np.all(np.abs(counts - 10) <= 5)

    def test_small_alpha_concentrates_classes(self):
        ds = synth_gaussian_mixture(10, 2, 1000, 1.0, seed=8)
        stats = [
            max_class_share(ds, dirichlet_partition(ds, DirichletSpec(0.1, 10, seed=s)))
            for s in range(20)
        ]
        assert np.mean(stats) > 0.5

    def test_heterogeneity_monotone_in_alpha(self):
        ds = synth_gaussian_mixture(10, 2, 1000, 1.0, seed=2)
        means = []
        for alpha in (0.1, 0.6, 1e6):
            stats = [
                max_class_share(ds, dirichlet_partition(ds, DirichletSpec(alpha, 10, seed=s)))
                for s in range(20)
            ]
            means.append(np.mean(stats))
        assert means[0] > means[1] > means[2]

    def test_more_clients_than_samples_leaves_empty_shards(self):
        ds = synth_gaussian_mixture(2, 2, 4, 1.0, seed=0)
        shards = dirichlet_partition(ds, DirichletSpec(1.0, 5, seed=0))
        assert len(shards) == 5
        joined = np.concatenate(shards)
        assert len(joined) == ds.n
        assert len(np.unique(joined)) == ds.n
        assert any(len(idx) == 0 for idx in shards)

    def test_alpha_is_bounded_by_the_draws_overflow(self):
        # past alpha * n_clients = 1.8e308 the draw is all zeros: 200 of 2000 rows would remain
        ds = synth_gaussian_mixture(10, 2, 2000, 1.0, seed=6)
        shards = dirichlet_partition(ds, DirichletSpec(8.9e306, 20, seed=6))
        assert np.array_equal(np.sort(np.concatenate(shards)), np.arange(ds.n))
        with pytest.raises(ValueError, match="alpha"):
            DirichletSpec(9.1e306, 20, seed=6)

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(ValueError):
            DirichletSpec(0.0, 3, seed=0)
        with pytest.raises(ValueError):
            DirichletSpec(float("nan"), 3, seed=0)


class TestCsv:
    def test_direct_parse(self, tmp_path):
        p = tmp_path / "two.csv"
        p.write_text("0.0,1.0,0\n1.0,0.0,1\n")
        ds = load_csv(p)
        assert ds.n == 2 and ds.dim == 2 and ds.classes == 2

    def test_the_last_label_under_the_class_cap_loads(self, tmp_path):
        p = tmp_path / "cap.csv"
        p.write_text(f"0.0,1.0,0\n1.0,0.0,{MAX_CLASSES - 1}\n")
        assert load_csv(p).classes == MAX_CLASSES

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(DatasetFormatError):
            load_csv(p)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(DatasetFormatError):
            load_csv(tmp_path / "nope.csv")

    def test_roundtrip_bit_identical(self, tmp_path):
        ds = synth_gaussian_mixture(3, 5, 40, 0.9, seed=13)
        p = tmp_path / "mix.csv"
        save_csv(ds, p)
        back = load_csv(p)
        assert np.array_equal(ds.features, back.features)
        assert np.array_equal(ds.labels, back.labels)
        assert back.classes == ds.classes

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(ds=datasets())
    @example(ds=SPECIAL_VALUES)
    def test_roundtrip_byte_identical_property(self, tmp_path, ds):
        p = tmp_path / "prop.csv"
        save_csv(ds, p)
        back = load_csv(p)
        assert back.features.shape == ds.features.shape
        assert back.features.tobytes() == ds.features.tobytes()
        assert back.labels.tobytes() == ds.labels.tobytes()
        assert back.classes == ds.classes

    def test_crlf_and_missing_final_newline_parse_alike(self, tmp_path):
        ds = synth_gaussian_mixture(3, 4, 25, 0.9, seed=5)
        lf = tmp_path / "lf.csv"
        save_csv(ds, lf)
        text = lf.read_bytes()
        variants = {
            "crlf.csv": text.replace(b"\n", b"\r\n"),
            "open.csv": text[:-1],
            "crlf_open.csv": text.replace(b"\n", b"\r\n")[:-2],
        }
        for name, content in variants.items():
            p = tmp_path / name
            p.write_bytes(content)
            back = load_csv(p)
            assert back.features.tobytes() == ds.features.tobytes(), name
            assert back.labels.tobytes() == ds.labels.tobytes(), name

    def test_undecodable_bytes_name_the_line(self, tmp_path):
        p = tmp_path / "binary.csv"
        p.write_bytes(b"0.0,1.0,0\n0.\xff,1.0,1\n")
        with pytest.raises(DatasetFormatError, match=r":2: non-numeric"):
            load_csv(p)

    def test_peak_memory_within_three_times_features(self, tmp_path):
        ds = synth_gaussian_mixture(10, 20, 4000, 1.0, seed=11)
        p = tmp_path / "big.csv"
        save_csv(ds, p)
        tracemalloc.start()
        try:
            back = load_csv(p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert back.features.tobytes() == ds.features.tobytes()
        assert peak <= 3 * back.features.nbytes, peak / back.features.nbytes

    @pytest.mark.parametrize(
        "content,fragment",
        [
            ("0.0,1.0,0\n1.0,0.0\n", ":2"),  # ragged
            ("0.0,x,0\n", "non-numeric"),
            ("0.0,1.0,1.5\n", "label"),
            ("0.0,1.0,-1\n", "negative"),
            ("0.0,1.0,0\n1.0,0.0,1\n\n1.0,1.0,1\n", ":3: blank line"),
            ("0.0,1.0,0\n1.0,0.0,99999999999999999999\n", ":2: label out of range"),
            ("0.0,1.0,0\n1.0,0.0,999999999999\n0.0,0.0,1\n1.0,1.0,0\n", ":2: label out of range"),
            (f"0.0,1.0,0\n1.0,0.0,{MAX_CLASSES}\n", f":2: label out of range: {MAX_CLASSES} is past"),
            ("0.0,1.0,0\n1.0,inf,1\n", ":2: non-finite"),
            ("0.0,1.0,0\n1.0,0.0,1\nnan,0.0,1\n", ":3: non-finite"),
            ("0.0,1.0,0\n1.0,0.0,0\n", r"bad\.csv: every label is 0"),
        ],
    )
    def test_parse_errors_name_the_line(self, tmp_path, content, fragment):
        p = tmp_path / "bad.csv"
        p.write_text(content)
        with pytest.raises(DatasetFormatError, match=fragment):
            load_csv(p)


class TestSplit:
    def test_split_sizes_and_determinism(self):
        ds = synth_gaussian_mixture(3, 2, 100, 1.0, seed=6)
        tr1, te1 = train_test_split(ds, 0.2, seed=6)
        tr2, te2 = train_test_split(ds, 0.2, seed=6)
        assert tr1.n == 80 and te1.n == 20
        assert np.array_equal(tr1.features, tr2.features)
        assert np.array_equal(te1.labels, te2.labels)

    def test_dataset_invariants(self):
        with pytest.raises(ValueError):
            Dataset(np.ones((2, 2)), np.array([0, 2]), classes=2)
        with pytest.raises(ValueError):
            Dataset(np.array([[np.inf, 0.0]]), np.array([0]), classes=2)
