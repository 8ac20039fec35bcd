"""Differentiable desk-scale objectives with analytic gradients.

Three model families share one interface: ``loss(theta, X, y)`` returns
the mean per-sample loss on a minibatch, ``grad(theta, X, y)`` its exact
analytic gradient with respect to the flat parameter vector. Parameters
are plain 1-D float64 arrays of length ``dim``, fixed when the model is
built; ``blocks()`` exposes the per-layer slice structure used by
filter-normalized surface directions. Both classifiers share one in-place
forward pass and softmax head, bit-identical to the textbook forms.

All training arithmetic is 64-bit: the diagnostic quantities measured
downstream sit at the 1e-3 scale and need the headroom. ``loss`` also
accepts an ``np.longdouble`` parameter vector, evaluates in that type and
returns an ``np.longdouble`` scalar; ``grad_check`` uses this to form its
central differences below the float64 rounding floor.
"""

import warnings

import numpy as np

__all__ = [
    "Quadratic",
    "SoftmaxLinear",
    "Mlp1",
    "grad_check",
    "quadratic_ensemble_minimizer",
    "accuracy",
]


# False where np.longdouble is plain float64 (MSVC, macOS arm64)
_LONGDOUBLE_IS_EXTENDED = np.finfo(np.longdouble).eps < np.finfo(np.float64).eps
_F64 = np.dtype(np.float64)


def _check_theta(theta: np.ndarray, dim: int) -> np.ndarray:
    # the training path passes float64 vectors; take them as they are
    if type(theta) is np.ndarray and theta.dtype == _F64 and theta.shape == (dim,):
        return theta
    # a longdouble theta keeps its precision: grad_check relies on it
    theta = np.asarray(theta)
    if theta.dtype != np.longdouble:
        theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != (dim,):
        raise ValueError(f"parameter vector has shape {theta.shape}, expected ({dim},)")
    return theta


def _check_batch(X, y):
    if X is None or len(X) == 0:
        raise ValueError("empty batch")
    return np.asarray(X, dtype=np.float64), np.asarray(y)


def _scalar(value, theta: np.ndarray):
    """A loss value as a Python float, or as np.longdouble for a longdouble theta."""
    return value if theta.dtype == np.longdouble else float(value)


def _mean_xent(Z: np.ndarray, y: np.ndarray):
    """Mean cross-entropy of the logits Z (n x classes), overwriting Z: to the bit
    ``-log_softmax(Z)[arange(n), y].mean()``, whose mean also sums a fresh
    contiguous vector (numpy sums a strided axis in another order)."""
    Z -= np.maximum.reduce(Z, axis=1, keepdims=True)  # keeps exp() in range
    picked = Z[np.arange(len(y)), y]
    np.exp(Z, out=Z)
    picked -= np.log(np.add.reduce(Z, axis=1))
    return -picked.mean()


def _dlogits(Z: np.ndarray, y: np.ndarray) -> np.ndarray:
    """d(mean cross-entropy)/dZ = (softmax(Z) - onehot(y)) / n, written over Z."""
    Z -= np.maximum.reduce(Z, axis=1, keepdims=True)
    np.exp(Z, out=Z)
    Z /= np.add.reduce(Z, axis=1, keepdims=True)
    Z[np.arange(len(y)), y] -= 1.0
    Z /= len(y)
    return Z


class Quadratic:
    """Loss 0.5 * (theta - c)^T A (theta - c) with A symmetric positive definite.

    Data arguments are accepted and ignored: the objective is the same for
    every batch, which makes it the deterministic full-batch reference for
    convergence oracles.
    """

    def __init__(self, A: np.ndarray, c: np.ndarray):
        A = np.asarray(A, dtype=np.float64)
        c = np.asarray(c, dtype=np.float64)
        if A.ndim != 2 or A.shape[0] != A.shape[1] or c.shape != (A.shape[0],):
            raise ValueError("A must be square and c must match its dimension")
        _require_spd(A)
        self.A = A
        self.c = c
        self.dim = c.shape[0]

    def blocks(self) -> list[slice]:
        return [slice(0, self.dim)]

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(-1.0, 1.0, size=self.dim)

    def loss(self, theta, X=None, y=None) -> float:
        theta = _check_theta(theta, self.dim)
        r = theta - self.c
        return _scalar(0.5 * r @ self.A @ r, theta)

    def grad(self, theta, X=None, y=None) -> np.ndarray:
        theta = _check_theta(theta, self.dim)
        # the same product as ``self.A @ r``, to the bit, without matmul's dispatch
        return self.A.dot(theta - self.c)


class SoftmaxLinear:
    """Linear multinomial classifier trained with mean cross-entropy.

    Flat layout: [W (classes x dim) row-major, b (classes)].
    """

    def __init__(self, classes: int, dim: int):
        if classes < 2 or dim < 1:
            raise ValueError("need classes >= 2 and dim >= 1")
        self.classes = classes
        self.in_dim = dim
        self.dim = classes * dim + classes

    def blocks(self) -> list[slice]:
        w = self.classes * self.in_dim
        return [slice(0, w), slice(w, w + self.classes)]

    def _unpack(self, theta):
        w, b = self.blocks()
        return theta[w].reshape(self.classes, self.in_dim), theta[b]

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        bound = 1.0 / np.sqrt(self.in_dim)
        return rng.uniform(-bound, bound, size=self.dim)

    def _logits(self, theta, X):
        W, b = self._unpack(theta)
        Z = X @ W.T
        Z += b
        return Z

    def loss(self, theta, X, y) -> float:
        theta = _check_theta(theta, self.dim)
        X, y = _check_batch(X, y)
        return _scalar(_mean_xent(self._logits(theta, X), y), theta)

    def grad(self, theta, X, y) -> np.ndarray:
        theta = _check_theta(theta, self.dim)
        X, y = _check_batch(X, y)
        P = _dlogits(self._logits(theta, X), y)
        return np.concatenate([(P.T @ X).ravel(), P.sum(axis=0)])

    def predict(self, theta, X) -> np.ndarray:
        theta = _check_theta(theta, self.dim)
        return np.argmax(self._logits(theta, np.asarray(X, dtype=np.float64)), axis=1)


class Mlp1:
    """One-hidden-layer tanh network with a softmax cross-entropy head.

    tanh keeps the objective smooth everywhere, which the gradient-check
    tolerances rely on. Flat layout: [W1 (hidden x dim), b1, W2
    (classes x hidden), b2].
    """

    def __init__(self, dim: int, hidden: int, classes: int):
        if classes < 2 or dim < 1 or hidden < 1:
            raise ValueError("need classes >= 2, dim >= 1, hidden >= 1")
        self.in_dim = dim
        self.hidden = hidden
        self.classes = classes
        self.dim = hidden * (dim + 1) + classes * (hidden + 1)
        w1 = hidden * dim
        b1 = w1 + hidden
        w2 = b1 + classes * hidden
        self._slices = (slice(0, w1), slice(w1, b1), slice(b1, w2), slice(w2, self.dim))

    def blocks(self) -> list[slice]:
        return list(self._slices)

    def _unpack(self, theta):
        s = self._slices
        W1 = theta[s[0]].reshape(self.hidden, self.in_dim)
        b1 = theta[s[1]]
        W2 = theta[s[2]].reshape(self.classes, self.hidden)
        b2 = theta[s[3]]
        return W1, b1, W2, b2

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        # per-layer uniform in [-1/sqrt(fan_in), +1/sqrt(fan_in)]
        fan_in = (self.in_dim, self.in_dim, self.hidden, self.hidden)
        return np.concatenate([
            rng.uniform(-1.0 / np.sqrt(f), 1.0 / np.sqrt(f), size=s.stop - s.start)
            for f, s in zip(fan_in, self.blocks())
        ])

    def _forward(self, params, X):
        W1, b1, W2, b2 = params
        H = X @ W1.T
        H += b1
        np.tanh(H, out=H)
        Z = H @ W2.T
        Z += b2
        return H, Z

    def loss(self, theta, X, y) -> float:
        theta = _check_theta(theta, self.dim)
        X, y = _check_batch(X, y)
        _, Z = self._forward(self._unpack(theta), X)
        return _scalar(_mean_xent(Z, y), theta)

    def grad(self, theta, X, y) -> np.ndarray:
        """Mean cross-entropy gradient, written block by block into one vector.

        Past the forward pass and the head, each intermediate is still
        updated in place and each block computed straight into its view of
        the result, op for op the textbook ``concatenate([dH.T @ X,
        dH.sum(0), P.T @ H, P.sum(0)])``, so bit-identical to it; on
        ~1k-parameter models the cost is per call, not per flop.
        """
        theta = _check_theta(theta, self.dim)
        X, y = _check_batch(X, y)
        params = self._unpack(theta)
        H, Z = self._forward(params, X)
        P = _dlogits(Z, y)
        g = np.empty(self.dim, dtype=H.dtype)  # float64, or longdouble for such a theta
        s = self._slices
        np.matmul(P.T, H, out=g[s[2]].reshape(self.classes, self.hidden))
        np.add.reduce(P, axis=0, out=g[s[3]])
        dH = P @ params[2]
        H *= H
        np.subtract(1.0, H, out=H)
        dH *= H
        np.matmul(dH.T, X, out=g[s[0]].reshape(self.hidden, self.in_dim))
        np.add.reduce(dH, axis=0, out=g[s[1]])
        return g

    def predict(self, theta, X) -> np.ndarray:
        theta = _check_theta(theta, self.dim)
        _, Z = self._forward(self._unpack(theta), np.asarray(X, dtype=np.float64))
        return np.argmax(Z, axis=1)


def grad_check(model, theta, X=None, y=None, h: float = 1e-5) -> float:
    """Max relative error between the analytic gradient and central differences.

    The denominator is max(|analytic coordinate|, 1e-8) so near-zero
    coordinates do not blow the ratio up. The analytic side is the float64
    ``model.grad``. The difference side evaluates ``model.loss`` at an
    ``np.longdouble`` theta +/- h e_j and forms the difference and the
    quotient in ``np.longdouble``: with float64 losses the quotient has a
    rounding floor of about ulp(L) / (2h), which alone exceeds tight bounds
    on a quadratic. Where ``np.longdouble`` is no wider than float64 the
    result carries that floor, and a ``RuntimeWarning`` says so and gives
    its size at theta.
    """
    if not h > 0:
        raise ValueError("step h must be positive")
    theta = np.asarray(theta, dtype=np.float64)
    analytic = model.grad(theta, X, y)
    if not _LONGDOUBLE_IS_EXTENDED:
        floor = np.spacing(abs(model.loss(theta, X, y))) / (2.0 * h)
        warnings.warn(
            "np.longdouble is no wider than float64 here: central differences "
            f"carry the float64 rounding floor ulp(L)/(2h) = {floor:.1e} per coordinate",
            RuntimeWarning,
            stacklevel=2,
        )
    base = theta.astype(np.longdouble)
    step = np.longdouble(h)
    worst = 0.0
    e = np.zeros_like(base)
    for j in range(theta.shape[0]):
        e[j] = step
        fd = (model.loss(base + e, X, y) - model.loss(base - e, X, y)) / (2 * step)
        e[j] = 0
        denom = max(abs(analytic[j]), 1e-8)
        worst = max(worst, float(abs(analytic[j] - fd) / denom))
    return worst


def _require_spd(A: np.ndarray) -> None:
    if not np.allclose(A, A.T, rtol=1e-10, atol=1e-12):
        raise ValueError("matrix is not symmetric")
    try:
        np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        raise ValueError("matrix is not positive definite") from None


def quadratic_ensemble_minimizer(ensemble) -> np.ndarray:
    """Closed-form minimizer of the average of quadratics.

    For terms 0.5 (theta - c_i)^T A_i (theta - c_i) the unique minimizer is
    (sum A_i)^-1 (sum A_i c_i). Accepts Quadratic instances or (A, c) pairs.
    """
    pairs = [(q.A, q.c) if isinstance(q, Quadratic) else q for q in ensemble]
    if not pairs:
        raise ValueError("empty ensemble")
    dim = np.asarray(pairs[0][1]).shape[0]
    A_sum = np.zeros((dim, dim))
    rhs = np.zeros(dim)
    for A, c in pairs:
        A = np.asarray(A, dtype=np.float64)
        c = np.asarray(c, dtype=np.float64)
        if A.shape != (dim, dim) or c.shape != (dim,):
            raise ValueError("ensemble members disagree on dimension")
        _require_spd(A)
        A_sum += A
        rhs += A @ c
    return np.linalg.solve(A_sum, rhs)


def accuracy(model, theta, X, y) -> float:
    """Fraction of samples whose argmax prediction matches the label."""
    return float(np.mean(model.predict(theta, X) == np.asarray(y)))
