"""Objective correctness: hand values, complex-step derivative oracles, purity."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fnsm import models
from fnsm import (
    Mlp1,
    Quadratic,
    SoftmaxLinear,
    grad_check,
    quadratic_ensemble_minimizer,
    rng_for,
)


def random_batch(rng, model, n=12):
    X = rng.standard_normal((n, model.in_dim))
    y = rng.integers(0, model.classes, n)
    return X, y


class TestQuadratic:
    def test_loss_at_minimizer_is_zero(self):
        q = Quadratic(np.eye(2), np.zeros(2))
        assert q.loss(np.zeros(2)) == 0.0

    def test_loss_half_unit_offset(self):
        q = Quadratic(np.eye(2), np.array([1.0, 0.0]))
        assert q.loss(np.zeros(2)) == 0.5

    def test_grad_identity_curvature(self):
        q = Quadratic(np.eye(2), np.array([1.0, 0.0]))
        assert np.array_equal(q.grad(np.zeros(2)), np.array([-1.0, 0.0]))

    def test_grad_diagonal_curvature(self):
        q = Quadratic(np.diag([2.0, 1.0]), np.zeros(2))
        assert np.array_equal(q.grad(np.ones(2)), np.array([2.0, 1.0]))

    @pytest.mark.parametrize("layout", ["C", "F", "strided theta"])
    def test_grad_is_the_matmul_byte_for_byte(self, layout):
        rng = rng_for(1, "quadgrad", layout)
        for _ in range(300):
            d = int(rng.integers(1, 40))
            M = rng.standard_normal((d, d))
            A = M @ M.T + d * np.eye(d)
            q = Quadratic(np.asfortranarray(A) if layout == "F" else A, rng.standard_normal(d))
            theta = rng.standard_normal(2 * d)
            theta = theta[::2] if layout == "strided theta" else theta[:d]
            theta *= 10.0 ** rng.uniform(-100, 100)
            assert q.grad(theta).tobytes() == (q.A @ (theta - q.c)).tobytes()
        # a complex theta keeps its type, and its value to rounding: numpy sums a
        # complex product over an F-ordered matrix in another order
        theta = rng.standard_normal(d) + 1e-6j * rng.standard_normal(d)
        got, want = q.grad(theta), q.A @ (theta - q.c)
        assert got.dtype == want.dtype == np.complex128
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    def test_batch_independent(self):
        rng = rng_for(0, "quadbatch")
        q = Quadratic(np.diag([2.0, 1.0]), np.zeros(2))
        th = rng.standard_normal(2)
        ref = q.loss(th)
        for _ in range(3):
            X = rng.standard_normal((4, 2))
            assert q.loss(th, X, None) == ref

    def test_rejects_non_spd(self):
        with pytest.raises(ValueError):
            Quadratic(np.array([[1.0, 2.0], [0.0, 1.0]]), np.zeros(2))
        with pytest.raises(ValueError):
            Quadratic(np.diag([1.0, -1.0]), np.zeros(2))

    def test_dimension_mismatch_rejected(self):
        q = Quadratic(np.eye(2), np.zeros(2))
        with pytest.raises(ValueError):
            q.loss(np.zeros(3))


class TestSoftmaxLinear:
    def test_zero_weights_give_uniform_loss(self):
        model = SoftmaxLinear(3, 4)
        rng = rng_for(1, "sm")
        X, y = random_batch(rng, model)
        assert model.loss(np.zeros(model.dim), X, y) == pytest.approx(np.log(3), abs=1e-12)

    def test_empty_batch_rejected(self):
        model = SoftmaxLinear(3, 4)
        with pytest.raises(ValueError):
            model.loss(np.zeros(model.dim), np.empty((0, 4)), np.empty(0, dtype=int))

    def test_loss_nonnegative(self):
        model = SoftmaxLinear(4, 3)
        rng = rng_for(2, "smpos")
        for _ in range(10):
            th = rng.standard_normal(model.dim)
            X, y = random_batch(rng, model)
            assert model.loss(th, X, y) >= 0.0


class TestLabelShape:
    @pytest.mark.parametrize("method", ["loss", "grad"])
    @pytest.mark.parametrize("shape", [(5, 1), (4,), (6,)], ids=["column", "shorter", "longer"])
    @pytest.mark.parametrize("model", [SoftmaxLinear(3, 4), Mlp1(4, 5, 3)], ids=["softmax", "mlp"])
    def test_rejects_labels_not_one_per_row(self, model, shape, method):
        rng = rng_for(13, "labels")
        X = rng.standard_normal((5, 4))
        y = rng.integers(0, 3, shape)
        want = re.escape(f"labels have shape {shape}, expected (5,) for features of shape (5, 4)")
        with pytest.raises(ValueError, match=want):
            getattr(model, method)(model.init_params(rng), X, y)


class TestLabelValues:
    @pytest.mark.parametrize("method", ["loss", "grad"])
    @pytest.mark.parametrize(
        "y, want",
        [
            ([0, -1], "label -1 is outside [0, 3)"),
            ([0, 3], "label 3 is outside [0, 3)"),
            (np.array([2, 200], dtype=np.uint8), "label 200 is outside [0, 3)"),
            ([0.0, 1.0], "label 0.0 is not an integer class index (float64 labels)"),
            ([True, False], "label True is not an integer class index (bool labels)"),
        ],
        ids=["negative", "past_last_class", "unsigned_past_last_class", "float", "bool"],
    )
    @pytest.mark.parametrize("model", [SoftmaxLinear(3, 3), Mlp1(3, 4, 3)], ids=["softmax", "mlp"])
    def test_bad_label_raises_naming_it(self, model, y, want, method):
        theta = model.init_params(np.random.default_rng(0))
        with pytest.raises(ValueError, match=re.escape(want)):
            getattr(model, method)(theta, np.ones((2, 3)), y)

    @pytest.mark.parametrize("dtype", [np.int8, np.int32, np.uint16, np.uint64])
    def test_every_integer_dtype_gives_the_int64_result(self, dtype):
        rng = rng_for(2, "labels")
        model = Mlp1(3, 4, 3)
        theta = model.init_params(rng)
        X, y = random_batch(rng, model)
        assert model.loss(theta, X, y.astype(dtype)) == model.loss(theta, X, y)
        assert model.grad(theta, X, y.astype(dtype)).tobytes() == model.grad(theta, X, y).tobytes()


class TestGradCheck:
    def test_quadratic_tight(self):
        rng = rng_for(3, "gc")
        for _ in range(20):
            d = int(rng.integers(2, 6))
            M = rng.standard_normal((d, d))
            q = Quadratic(M @ M.T + d * np.eye(d), rng.standard_normal(d))
            assert grad_check(q, rng.standard_normal(d), h=1e-6) < 1e-8

    def test_softmax_linear(self):
        rng = rng_for(4, "gc")
        model = SoftmaxLinear(3, 5)
        for _ in range(20):
            th = rng.standard_normal(model.dim)
            X, y = random_batch(rng, model)
            assert grad_check(model, th, X, y, h=1e-5) < 1e-6

    def test_mlp(self):
        rng = rng_for(5, "gc")
        model = Mlp1(5, 8, 3)
        for _ in range(20):
            th = model.init_params(rng)
            X, y = random_batch(rng, model)
            assert grad_check(model, th, X, y, h=1e-5) < 1e-5

    def test_rejects_nonpositive_step(self):
        q = Quadratic(np.eye(1), np.zeros(1))
        with pytest.raises(ValueError):
            grad_check(q, np.ones(1), h=0.0)
        with pytest.raises(ValueError):
            grad_check(q, np.ones(1), h=float("nan"))

    def test_quadratic_exact_to_rounding_without_warning(self):
        # the complex step subtracts nothing, so it has no cancellation floor to warn
        # about; what is left is the rounding of (A r)_j against a small coordinate
        rng = rng_for(14, "gc")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(20):
                d = int(rng.integers(2, 6))
                M = rng.standard_normal((d, d))
                q = Quadratic(M @ M.T + d * np.eye(d), rng.standard_normal(d))
                assert grad_check(q, rng.standard_normal(d), h=1e-6) <= 1e-13


class TestLossPrecision:
    @pytest.fixture(params=["quadratic", "softmax", "mlp"])
    def problem(self, request):
        rng = rng_for(10, "precision")
        if request.param == "quadratic":
            return Quadratic(np.diag([2.0, 1.0, 3.0]), rng.standard_normal(3)), None, None
        model = SoftmaxLinear(3, 4) if request.param == "softmax" else Mlp1(4, 5, 3)
        return model, *random_batch(rng, model)

    def test_float64_theta_gives_python_float(self, problem):
        model, X, y = problem
        assert type(model.loss(np.full(model.dim, 0.1), X, y)) is float

    def test_complex_theta_gives_complex(self, problem):
        model, X, y = problem
        value = model.loss(np.full(model.dim, 0.1, dtype=np.complex128), X, y)
        assert type(value) is complex and value.imag == 0.0
        assert value.real == pytest.approx(model.loss(np.full(model.dim, 0.1), X, y), rel=1e-15)


class TestPurity:
    def test_repeated_eval_bit_identical(self):
        rng = rng_for(6, "pure")
        model = Mlp1(4, 6, 3)
        th = model.init_params(rng)
        X, y = random_batch(rng, model)
        assert model.loss(th, X, y) == model.loss(th, X, y)
        assert np.array_equal(model.grad(th, X, y), model.grad(th, X, y))


class TestEnsembleMinimizer:
    def test_equal_curvature_mean(self):
        ens = [
            Quadratic(np.eye(2), np.array([1.0, 0.0])),
            Quadratic(np.eye(2), np.array([0.0, 1.0])),
        ]
        assert np.allclose(quadratic_ensemble_minimizer(ens), [0.5, 0.5], atol=1e-14)

    def test_single_client_identity(self):
        ens = [Quadratic(np.eye(2), np.array([3.0, -2.0]))]
        assert np.allclose(quadratic_ensemble_minimizer(ens), [3.0, -2.0], atol=1e-14)

    def test_weighted_two_by_two(self):
        # sum A = diag(3, 2), sum A c = (2, 1) -> (2/3, 1/2)
        ens = [
            Quadratic(np.diag([2.0, 1.0]), np.array([1.0, 1.0])),
            Quadratic(np.diag([1.0, 1.0]), np.array([0.0, 0.0])),
        ]
        assert np.allclose(quadratic_ensemble_minimizer(ens), [2.0 / 3.0, 0.5], atol=1e-14)

    def test_minimizes_the_average(self):
        # gradient of the averaged objective vanishes at the solution
        rng = rng_for(7, "ens")
        for _ in range(5):
            ens = []
            for _ in range(4):
                M = rng.standard_normal((3, 3))
                ens.append(Quadratic(M @ M.T + 3 * np.eye(3), rng.standard_normal(3)))
            star = quadratic_ensemble_minimizer(ens)
            g = np.mean([q.grad(star) for q in ens], axis=0)
            assert np.linalg.norm(g) < 1e-10

    def test_rejects_non_spd_member(self):
        # members are Quadratics, and a non-SPD one is refused when it is built
        with pytest.raises(ValueError, match="positive definite"):
            Quadratic(np.diag([1.0, 0.0]), np.zeros(2))

    def test_rejects_mixed_dimensions_and_an_empty_list(self):
        mixed = [Quadratic(np.eye(2), np.zeros(2)), Quadratic(np.eye(3), np.zeros(3))]
        with pytest.raises(ValueError, match="disagree on dimension"):
            quadratic_ensemble_minimizer(mixed)
        with pytest.raises(ValueError, match="empty ensemble"):
            quadratic_ensemble_minimizer([])


class TestInit:
    def test_mlp_init_within_fan_in_bounds(self):
        model = Mlp1(16, 4, 3)
        th = model.init_params(rng_for(8, "init"))
        s = model.blocks()
        assert np.abs(th[s[0]]).max() <= 1 / 4.0  # fan_in 16
        assert np.abs(th[s[2]]).max() <= 0.5  # fan_in 4

    def test_softmax_init_within_fan_in_bound(self):
        model = SoftmaxLinear(3, 16)
        th = model.init_params(rng_for(8, "init"))
        for s in model.blocks():
            assert np.abs(th[s]).max() <= 1 / 4.0  # fan_in 16, weights and bias alike

    @pytest.mark.parametrize("classes, dim", [(2, 1), (3, 4), (10, 20), (7, 33)])
    def test_softmax_init_is_one_draw_over_the_fan_in(self, classes, dim):
        model = SoftmaxLinear(classes, dim)
        bound = 1.0 / np.sqrt(dim)
        for seed in range(5):
            want = np.random.default_rng(seed).uniform(-bound, bound, size=model.dim)
            assert model.init_params(np.random.default_rng(seed)).tobytes() == want.tobytes()

    def test_init_deterministic(self):
        model = Mlp1(5, 4, 3)
        a = model.init_params(rng_for(9, "init"))
        b = model.init_params(rng_for(9, "init"))
        assert np.array_equal(a, b)


def reference_check_theta(theta, dim):
    """_check_theta without its shortcut for float64 vectors."""
    theta = np.asarray(theta)
    theta = np.asarray(theta, dtype=np.complex128 if np.iscomplexobj(theta) else np.float64)
    if theta.shape != (dim,):
        raise ValueError(f"parameter vector has shape {theta.shape}, expected ({dim},)")
    return theta


def reference_log_softmax(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def reference_softmax(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def reference_unpack(model, theta):
    """Either classifier's weight blocks, sliced by hand from the flat layout."""
    c, d = model.classes, model.in_dim
    if isinstance(model, SoftmaxLinear):
        return theta[: c * d].reshape(c, d), theta[c * d :]
    h = model.hidden
    W1 = theta[: h * d].reshape(h, d)
    b1 = theta[h * d : h * d + h]
    W2 = theta[h * d + h : h * d + h + c * h].reshape(c, h)
    b2 = theta[h * d + h + c * h :]
    return W1, b1, W2, b2


def reference_forward(model, theta, X):
    """The allocating forward pass: (the softmax head's input, logits)."""
    X = np.asarray(X, dtype=np.float64)
    if isinstance(model, SoftmaxLinear):
        W, b = reference_unpack(model, theta)
        return X, X @ W.T + b
    W1, b1, W2, b2 = reference_unpack(model, theta)
    H = np.tanh(X @ W1.T + b1)
    return H, H @ W2.T + b2


def reference_loss(model, theta, X, y):
    theta = reference_check_theta(theta, model.dim)
    y = np.asarray(y)
    _, logits = reference_forward(model, theta, X)
    value = -reference_log_softmax(logits)[np.arange(len(y)), y].mean()
    return complex(value) if np.iscomplexobj(theta) else float(value)


def reference_grad(model, theta, X, y):
    """Either classifier's gradient in its textbook form: fresh temporaries and one concatenate."""
    theta = reference_check_theta(theta, model.dim)
    X, y = np.asarray(X, dtype=np.float64), np.asarray(y)
    H, logits = reference_forward(model, theta, X)
    P = reference_softmax(logits)
    P[np.arange(len(y)), y] -= 1.0
    P /= len(y)
    head = [(P.T @ H).ravel(), P.sum(axis=0)]
    if isinstance(model, SoftmaxLinear):
        return np.concatenate(head)
    W2 = reference_unpack(model, theta)[2]
    dH = (P @ W2) * (1.0 - H * H)
    return np.concatenate([(dH.T @ X).ravel(), dH.sum(axis=0), *head])


def reference_predict(model, theta, X):
    return np.argmax(reference_forward(model, np.asarray(theta, dtype=np.float64), X)[1], axis=1)


class TestClassifierHead:
    """Both classifiers' in-place forward pass and softmax head against the allocating forms."""

    @settings(max_examples=120, deadline=None)
    @given(
        kind=st.sampled_from(["softmax", "mlp"]),
        n=st.integers(1, 400),
        dims=st.tuples(st.integers(1, 12), st.integers(1, 24), st.integers(2, 10)),
        scale=st.sampled_from([1e-3, 0.3, 1.0, 5.0, 100.0]),
        labels=st.integers(1, 10),  # distinct labels drawn from, down to one for the whole batch
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bit_identical_to_the_allocating_forms(self, kind, n, dims, scale, labels, seed):
        d, h, c = dims
        model = Mlp1(d, h, c) if kind == "mlp" else SoftmaxLinear(c, d)
        rng = np.random.default_rng(seed)
        theta = scale * model.init_params(rng)
        X = rng.standard_normal((n, d))
        y = rng.integers(0, min(labels, c), n)
        loss, want = model.loss(theta, X, y), reference_loss(model, theta, X, y)
        assert type(loss) is float and np.float64(loss).tobytes() == np.float64(want).tobytes()
        assert model.grad(theta, X, y).tobytes() == reference_grad(model, theta, X, y).tobytes()
        assert model.predict(theta, X).tobytes() == reference_predict(model, theta, X).tobytes()
        # a complex theta (grad_check's probe) keeps its type and value
        probe = theta + 1e-6j * rng.standard_normal(model.dim)
        loss, want = model.loss(probe, X, y), reference_loss(model, probe, X, y)
        assert type(loss) is complex
        assert np.complex128(loss).tobytes() == np.complex128(want).tobytes()


class TestMlpGradKernel:
    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(1, 400),
        dims=st.tuples(st.integers(1, 12), st.integers(1, 24), st.integers(2, 10)),
        scale=st.sampled_from([1e-3, 0.3, 1.0, 5.0, 100.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bit_identical_to_the_concatenated_form(self, n, dims, scale, seed):
        model = Mlp1(*dims)
        rng = np.random.default_rng(seed)
        theta = scale * model.init_params(rng)
        X = rng.standard_normal((n, model.in_dim))
        y = rng.integers(0, model.classes, n)
        got = model.grad(theta, X, y)
        assert got.dtype == np.float64 and got.shape == (model.dim,)
        assert got.tobytes() == reference_grad(model, theta, X, y).tobytes()

    def test_bit_identical_on_batch_views_lists_and_complex(self):
        model = Mlp1(6, 9, 4)
        rng = rng_for(12, "kernel")
        theta = model.init_params(rng)
        X = rng.standard_normal((50, 6))
        y = rng.integers(0, 4, 50)
        ref = reference_grad(model, theta, X[7:40], y[7:40]).tobytes()
        assert model.grad(theta, X[7:40], y[7:40]).tobytes() == ref
        assert model.grad(list(theta), X[7:40].tolist(), y[7:40].tolist()).tobytes() == ref
        probe = theta + 1e-6j * rng.standard_normal(model.dim)
        got = model.grad(probe, X, y)
        assert got.dtype == np.complex128
        assert got.tobytes() == reference_grad(model, probe, X, y).tobytes()


class TestCheckTheta:
    DIM = 6

    @pytest.mark.parametrize("make", [
        lambda: np.arange(12.0)[::2],  # strided view
        lambda: [0.5, 1, 2, 3, 4, 5],  # Python list
        lambda: np.arange(6),  # int array
        lambda: np.linspace(0, 1, 6, dtype=np.float32),
        lambda: np.linspace(0, 1, 6) + 1e-6j,  # grad_check's probe
        lambda: np.linspace(0, 1, 6).astype(">f8"),  # non-native byte order
        lambda: np.linspace(0, 1, 6),
        lambda: np.zeros(5),  # wrong shapes
        lambda: np.zeros((6, 1)),
        lambda: np.float64(1.0),
        lambda: [[1.0] * 6],
        lambda: np.linspace(0, 1, 6, dtype=np.complex64),  # widened to complex128
        lambda: np.linspace(0, 1, 6).astype(np.longdouble),  # a plain float64 conversion
    ], ids=[
        "strided", "list", "int", "float32", "complex", "big_endian", "plain",
        "short", "column", "scalar", "nested_list", "complex64", "longdouble",
    ])
    def test_behaves_as_the_plain_conversion(self, make):
        theta = make()
        try:
            want = reference_check_theta(theta, self.DIM)
        except ValueError as exc:
            with pytest.raises(ValueError) as err:
                models._check_theta(theta, self.DIM)
            assert str(err.value) == str(exc)
            return
        got = models._check_theta(theta, self.DIM)
        assert type(got) is type(want) and got.dtype == want.dtype
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert (got is theta) == (want is theta)
