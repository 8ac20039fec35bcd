"""Differentiable desk-scale objectives with analytic gradients.

Two implementations stand behind one interface: ``Quadratic``, and one
dense tanh network with a softmax cross-entropy head that ``SoftmaxLinear``
(no hidden layer) and ``Mlp1`` (one) build from their layer sizes.
``loss(theta, X, y)`` returns the mean per-sample loss on a minibatch,
``grad(theta, X, y)`` its exact analytic gradient with respect to the flat
parameter vector. Parameters are plain 1-D float64 arrays of length
``dim``, fixed when the model is built; ``blocks()`` exposes the per-layer
slice structure used by filter-normalized surface directions. The dense
network's in-place forward and backward passes are bit-identical to the
textbook forms.

All training arithmetic is 64-bit: the diagnostic quantities measured
downstream sit at the 1e-3 scale and need the headroom. ``loss`` also
accepts a complex parameter vector, evaluates in complex128 and returns a
Python complex; every loss here is analytic in theta, so ``grad_check``
reads its reference derivatives off the imaginary part of a complex step,
which has no cancellation floor.
"""

import numpy as np

from .data import check_labels

__all__ = [
    "Quadratic",
    "SoftmaxLinear",
    "Mlp1",
    "grad_check",
    "quadratic_ensemble_minimizer",
    "accuracy",
]


_F64 = np.dtype(np.float64)


def _check_theta(theta: np.ndarray, dim: int) -> np.ndarray:
    # the training path passes float64 vectors; take them as they are
    if type(theta) is np.ndarray and theta.dtype == _F64 and theta.shape == (dim,):
        return theta
    # a complex theta stays complex: grad_check's complex step relies on it
    theta = np.asarray(theta)
    theta = np.asarray(theta, dtype=np.complex128 if theta.dtype.kind == "c" else np.float64)
    if theta.shape != (dim,):
        raise ValueError(f"parameter vector has shape {theta.shape}, expected ({dim},)")
    return theta


def _check_batch(X, y, classes: int):
    """The batch as float64 features and their labels, one integer class
    index in [0, classes) per row (``data.check_labels``)."""
    if X is None or len(X) == 0:
        raise ValueError("empty batch")
    X, y = np.asarray(X, dtype=np.float64), np.asarray(y)
    if y.shape != (len(X),):
        raise ValueError(
            f"labels have shape {y.shape}, expected ({len(X)},) for features of shape {X.shape}"
        )
    return X, check_labels(y, classes)


def _scalar(value, theta: np.ndarray):
    """A loss value as a Python float, or as a Python complex for a complex theta."""
    return complex(value) if theta.dtype.kind == "c" else float(value)


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


class _Dense:
    """Fully connected tanh network with a softmax cross-entropy head.

    Built from layer sizes (in_dim, hidden..., classes). Flat layout: per
    layer, W (out x in) row-major, then b (out). tanh keeps the objective
    smooth everywhere, which the gradient-check tolerances rely on.
    """

    def __init__(self, sizes: tuple[int, ...]):
        self.in_dim = sizes[0]
        self.classes = sizes[-1]
        layers = []
        start = 0
        for fan_in, out in zip(sizes, sizes[1:]):
            w = slice(start, start + out * fan_in)
            b = slice(w.stop, w.stop + out)
            layers.append((w, b, (out, fan_in)))
            start = b.stop
        self._layers = tuple(layers)
        self.dim = start

    def blocks(self) -> list[slice]:
        return [s for w, b, _ in self._layers for s in (w, b)]

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        # per block uniform in [-1/sqrt(fan_in), +1/sqrt(fan_in)]
        return np.concatenate([
            rng.uniform(-1.0 / np.sqrt(fan_in), 1.0 / np.sqrt(fan_in), size=s.stop - s.start)
            for w, b, (_, fan_in) in self._layers
            for s in (w, b)
        ])

    def _forward(self, theta, X):
        """(each layer's input and weight matrix, the logits), each layer's output made in place."""
        cache = []
        A = X
        for w, b, shape in self._layers:
            if cache:
                np.tanh(A, out=A)
            W = theta[w].reshape(shape)
            cache.append((A, W))
            A = A @ W.T
            A += theta[b]
        return cache, A

    def loss(self, theta, X, y) -> float:
        theta = _check_theta(theta, self.dim)
        X, y = _check_batch(X, y, self.classes)
        return _scalar(_mean_xent(self._forward(theta, X)[1], y), theta)

    def grad(self, theta, X, y) -> np.ndarray:
        """Mean cross-entropy gradient, written block by block into one vector.

        From the last layer back, each layer's blocks are ``D.T @ A`` and
        ``D.sum(0)`` for its input A and the gradient D in its output, and
        D passes back through the layer as ``(D @ W) * (1 - A * A)``. Each
        intermediate is updated in place and each block computed straight
        into its view of the result, op for op the textbook concatenation of
        those blocks, so bit-identical to it; on ~1k-parameter models the
        cost is per call, not per flop.
        """
        theta = _check_theta(theta, self.dim)
        X, y = _check_batch(X, y, self.classes)
        cache, Z = self._forward(theta, X)
        D = _dlogits(Z, y)
        g = np.empty(self.dim, dtype=Z.dtype)  # float64, or complex128 for such a theta
        for k in reversed(range(len(cache))):
            w, b, shape = self._layers[k]
            A, W = cache[k]
            np.matmul(D.T, A, out=g[w].reshape(shape))
            np.add.reduce(D, axis=0, out=g[b])
            if k:  # back through tanh: A holds tanh(.), and the caller's X is never written
                D = D @ W
                A *= A
                np.subtract(1.0, A, out=A)
                D *= A
        return g

    def predict(self, theta, X) -> np.ndarray:
        theta = _check_theta(theta, self.dim)
        return np.argmax(self._forward(theta, np.asarray(X, dtype=np.float64))[1], axis=1)


class SoftmaxLinear(_Dense):
    """Linear multinomial classifier trained with mean cross-entropy.

    Flat layout: [W (classes x dim) row-major, b (classes)].
    """

    def __init__(self, classes: int, dim: int):
        if classes < 2 or dim < 1:
            raise ValueError("need classes >= 2 and dim >= 1")
        super().__init__((dim, classes))

    # bound here too: perfbench's tracer patches each class's own loss and grad
    loss = _Dense.loss
    grad = _Dense.grad


class Mlp1(_Dense):
    """One-hidden-layer tanh network with a softmax cross-entropy head.

    Flat layout: [W1 (hidden x dim), b1, W2 (classes x hidden), b2].
    """

    def __init__(self, dim: int, hidden: int, classes: int):
        if classes < 2 or dim < 1 or hidden < 1:
            raise ValueError("need classes >= 2, dim >= 1, hidden >= 1")
        self.hidden = hidden
        super().__init__((dim, hidden, classes))

    # bound here too: perfbench's tracer patches each class's own loss and grad
    loss = _Dense.loss
    grad = _Dense.grad


def grad_check(model, theta, X=None, y=None, h: float = 1e-5) -> float:
    """Max relative error between the analytic gradient and complex-step derivatives.

    The denominator is max(|analytic coordinate|, 1e-8) so near-zero
    coordinates do not blow the ratio up. The analytic side is the float64
    ``model.grad``. The reference side is Im L(theta + i h e_j) / h, with
    ``model.loss`` evaluated at a complex theta: it subtracts nothing, so
    unlike central differences it has no cancellation floor of about
    ulp(L) / h, on any platform, and its error is the O(h^2) truncation
    alone (Squire & Trapp 1998). It needs a loss analytic in theta, as the
    models here are (tanh layers, a softmax cross-entropy head,
    quadratics); a loss built on ``abs`` or a ReLU's max would not be.
    """
    if not h > 0:
        raise ValueError("step h must be positive")
    theta = np.asarray(theta, dtype=np.float64)
    analytic = model.grad(theta, X, y)
    probe = theta.astype(np.complex128)
    worst = 0.0
    for j in range(theta.shape[0]):
        probe[j] += 1j * h
        derivative = model.loss(probe, X, y).imag / h
        probe[j] = theta[j]
        denom = max(abs(analytic[j]), 1e-8)
        worst = max(worst, float(abs(analytic[j] - derivative) / denom))
    return worst


def _require_spd(A: np.ndarray) -> None:
    if not np.allclose(A, A.T, rtol=1e-10, atol=1e-12):
        raise ValueError("matrix is not symmetric")
    try:
        np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        raise ValueError("matrix is not positive definite") from None


def quadratic_ensemble_minimizer(ensemble) -> np.ndarray:
    """Closed-form minimizer of the average of a list of ``Quadratic`` objectives.

    For terms 0.5 (theta - c_i)^T A_i (theta - c_i) the unique minimizer is
    (sum A_i)^-1 (sum A_i c_i); each A_i is symmetric positive definite,
    which ``Quadratic`` checks when it is built.
    """
    if not ensemble:
        raise ValueError("empty ensemble")
    dim = ensemble[0].dim
    A_sum = np.zeros((dim, dim))
    rhs = np.zeros(dim)
    for q in ensemble:
        if q.dim != dim:
            raise ValueError("ensemble members disagree on dimension")
        A_sum += q.A
        rhs += q.A @ q.c
    return np.linalg.solve(A_sum, rhs)


def accuracy(model, theta, X, y) -> float:
    """Fraction of samples whose argmax prediction matches the label.

    The labels are checked as ``loss`` and ``grad`` check them: one integer
    class index in [0, model.classes) per row of X.
    """
    X, y = _check_batch(X, y, model.classes)
    return float(np.mean(model.predict(theta, X) == y))
