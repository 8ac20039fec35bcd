"""Local update rules: perturbations, per-step arithmetic, reductions."""

import warnings

import numpy as np
import pytest

from fnsm import (
    ALGORITHMS,
    ClientState,
    DivergenceError,
    FedConfig,
    Quadratic,
    ServerState,
    SoftmaxLinear,
    local_round,
    nsam_perturbation,
    rng_for,
    sam_perturbation,
    synth_gaussian_mixture,
)
from fnsm.local import ZERO_NORM, _normalized, round_constants


def server(theta, momentum=None, last_delta=None, lr=0.1, round_index=0):
    theta = np.asarray(theta, dtype=float)
    z = np.zeros_like(theta)
    return ServerState(
        theta=theta,
        momentum=z if momentum is None else np.asarray(momentum, dtype=float),
        last_delta=z if last_delta is None else np.asarray(last_delta, dtype=float),
        round_index=round_index,
        lr=lr,
    )


def fed(algorithm, rho=0.0, momentum=0.0, extrapolate=True, local_steps=1, seed=0, batch_size=8):
    """The run settings local_round reads, with the local rule's knobs off by default."""
    return FedConfig(
        algorithm=algorithm, rho=rho, momentum=momentum, extrapolate=extrapolate,
        local_steps=local_steps, seed=seed, batch_size=batch_size,
    )


def quad_client(A, c, cid=0):
    return ClientState(client_id=cid, model=Quadratic(np.asarray(A, float), np.asarray(c, float)))


def data_client(seed=0, cid=0, n=40):
    ds = synth_gaussian_mixture(3, 4, n, 0.8, seed=seed)
    model = SoftmaxLinear(3, 4)
    return ClientState(client_id=cid, model=model, features=ds.features, labels=ds.labels)


class TestPerturbations:
    def test_sam_three_four_five(self):
        assert np.allclose(sam_perturbation(np.array([3.0, 4.0]), 0.1), [0.06, 0.08], atol=1e-15)

    def test_sam_zero_gradient_fallback(self):
        assert np.array_equal(sam_perturbation(np.zeros(2), 0.1), np.zeros(2))

    def test_sam_axis_vector(self):
        assert np.allclose(sam_perturbation(np.array([1.0, 0.0]), 0.05), [0.05, 0.0], atol=1e-15)

    def test_nsam_negated_unit(self):
        assert np.allclose(nsam_perturbation(np.array([0.0, -2.0]), 0.1), [0.0, 0.1], atol=1e-15)

    def test_nsam_cold_start(self):
        assert np.array_equal(nsam_perturbation(np.zeros(3), 0.4), np.zeros(3))

    def test_nsam_three_four_five_negated(self):
        assert np.allclose(nsam_perturbation(np.array([3.0, 4.0]), 1.0), [-0.6, -0.8], atol=1e-15)

    def test_nsam_is_sam_of_negated_momentum_bit_exactly(self):
        rng = rng_for(5, "probe")
        for _ in range(20):
            m = rng.standard_normal(7) * float(rng.uniform(1e-3, 1e3))
            rho = float(rng.uniform(0.0, 2.0))
            assert np.array_equal(nsam_perturbation(m, rho), sam_perturbation(-m, rho))

    def test_negative_rho_rejected(self):
        with pytest.raises(ValueError):
            sam_perturbation(np.ones(2), -0.1)
        with pytest.raises(ValueError):
            nsam_perturbation(np.ones(2), -0.1)
        with pytest.raises(ValueError):
            sam_perturbation(np.ones(2), float("nan"))


def norm_normalized(v, rho):
    """The reference: rho * v / |v| with |v| from np.linalg.norm."""
    norm = float(np.linalg.norm(v))
    return np.zeros_like(v) if norm < ZERO_NORM else (rho / norm) * v


class TestNormalizedIsNormsResult:
    TINY = np.finfo(float).smallest_subnormal

    @pytest.mark.parametrize(
        "v",
        [
            np.zeros(4),
            np.full(3, -0.0),
            np.array([TINY, -3 * TINY, 0.0]),  # subnormal: the squared norm underflows to 0
            np.array([1e-160, 2e-160]),  # squared entries subnormal
            np.array([1e-6, -2e-7, 3e-7]),  # norm just above ZERO_NORM
            np.array([3e200, -4e200]),  # the squared norm overflows: |v| = inf
            np.array([1e154, 1e154, 1e154]),
            np.array([np.nan, 1.0]),
            np.array([np.inf, 1.0]),
            np.array([-np.inf, np.inf]),
        ],
    )
    def test_special_vectors(self, v):
        for rho in (0.0, 0.1, 3.0):
            with warnings.catch_warnings(record=True) as got_warnings:
                warnings.simplefilter("always")
                got = _normalized(v, rho)
            with warnings.catch_warnings(record=True) as want_warnings:
                warnings.simplefilter("always")
                want = norm_normalized(v, rho)
            assert got.tobytes() == want.tobytes()
            assert [str(w.message) for w in got_warnings] == [str(w.message) for w in want_warnings]

    def test_random_vectors(self):
        rng = rng_for(8, "norm")
        for _ in range(500):
            v = rng.standard_normal(int(rng.integers(1, 1100))) * 10.0 ** rng.uniform(-150, 150)
            assert _normalized(v, 0.7).tobytes() == norm_normalized(v, 0.7).tobytes()


class TestRuleValidation:
    def test_bad_rho_and_momentum(self):
        # the local rule's knobs are checked where local_round reads them: FedConfig
        with pytest.raises(ValueError):
            fed("fedsam", rho=-1.0).validate()
        with pytest.raises(ValueError):
            fed("fednsam", rho=0.1, momentum=1.0).validate()
        with pytest.raises(ValueError):
            fed("fedsam", rho=float("nan")).validate()
        with pytest.raises(ValueError):
            fed("fedavg", local_steps=0).validate()
        with pytest.raises(ValueError):
            fed("newton").validate()


class TestSgdStep:
    def test_single_step_displacement(self):
        client = quad_client(np.eye(2), [1.0, -2.0])
        theta0 = np.array([0.5, 0.5])
        final = local_round(fed("fedavg"), server(theta0, lr=0.1), client)
        expect = -0.1 * (theta0 - np.array([1.0, -2.0]))
        assert np.allclose(final - theta0, expect, atol=1e-15)

    def test_bookkeeping_exact(self):
        # exactly K = 7 plain steps over the round's batch stream
        client = data_client(seed=3)
        state = server(np.zeros(client.model.dim), lr=0.05, round_index=2)
        cfg = fed("fedavg", local_steps=7, seed=3)
        final = local_round(cfg, state, client)
        stream = client.batches(cfg, 2)
        theta = state.theta.copy()
        for _ in range(7):
            X, y = next(stream)
            theta = theta - 0.05 * client.model.grad(theta, X, y)
        assert np.array_equal(final, theta)

    def test_descent_on_quadratic(self):
        # lr below 1/lambda_max strictly decreases the full objective
        A = np.diag([2.0, 0.5])
        client = quad_client(A, [0.0, 0.0])
        theta0 = np.array([1.0, 1.0])
        final = local_round(fed("fedavg", local_steps=3), server(theta0, lr=0.4), client)
        assert client.model.loss(final) < client.model.loss(theta0)


class TestReductions:
    def test_sam_zero_radius_equals_sgd(self):
        client_a, client_b = data_client(seed=5), data_client(seed=5)
        state = server(np.zeros(client_a.model.dim), lr=0.1)
        a = local_round(fed("fedavg", local_steps=10, seed=5), state, client_a)
        b = local_round(fed("fedsam", rho=0.0, local_steps=10, seed=5), state, client_b)
        assert np.array_equal(a, b)

    def test_nsam_all_zero_equals_sgd(self):
        client_a, client_b = data_client(seed=6), data_client(seed=6)
        state = server(np.zeros(client_a.model.dim), lr=0.1)
        a = local_round(fed("fedavg", local_steps=10, seed=6), state, client_a)
        b = local_round(fed("fednsam", 0.0, 0.0, extrapolate=True, local_steps=10, seed=6), state, client_b)
        assert np.array_equal(a, b)


class TestSamStep:
    def test_one_dimensional_closed_form(self):
        # F = theta^2/2, theta0 = 1, lr = 0.1, rho = 0.1:
        # probe = 1.1, so theta1 = 1 - 0.1 * 1.1 = 0.89
        client = quad_client(np.eye(1), [0.0])
        final = local_round(fed("fedsam", rho=0.1), server(np.array([1.0]), lr=0.1), client)
        assert final[0] == pytest.approx(0.89, abs=1e-15)


class TestNsamStep:
    def test_probe_constant_within_round(self):
        # hand-rolled loop with the round's fixed probe offset
        A = np.diag([1.5, 0.5])
        c = np.array([0.3, -0.7])
        m = np.array([0.2, -0.1])
        lam, rho, lr = 0.85, 0.1, 0.2
        client = quad_client(A, c)
        state = server(np.array([1.0, 1.0]), momentum=m, lr=lr)
        final = local_round(fed("fednsam", rho, lam, extrapolate=True, local_steps=4), state, client)

        offset = lam * m + rho * (-m) / np.linalg.norm(m)
        theta = state.theta.copy()
        for _ in range(4):
            theta = theta - lr * (A @ (theta + offset - c))
        assert np.allclose(final, theta, atol=1e-15)

    def test_no_extrapolation_drops_lookahead(self):
        m = np.array([0.2, -0.1])
        client = quad_client(np.eye(2), [0.0, 0.0])
        state = server(np.array([1.0, 1.0]), momentum=m, lr=0.1)
        final = local_round(fed("fednsam", 0.1, 0.85, extrapolate=False, local_steps=2), state, client)

        offset = 0.1 * (-m) / np.linalg.norm(m)
        theta = state.theta.copy()
        for _ in range(2):
            theta = theta - 0.1 * (theta + offset)
        assert np.allclose(final, theta, atol=1e-15)


class TestMoSamStep:
    def test_blends_pseudo_gradient(self):
        A, c = np.eye(2), np.array([0.0, 0.0])
        last_delta = np.array([-0.4, 0.2])
        lam, rho, lr, K = 0.85, 0.1, 0.1, 3
        client = quad_client(A, c)
        state = server(np.array([1.0, 0.5]), last_delta=last_delta, lr=lr)
        final = local_round(fed("mofedsam", rho, lam, local_steps=K), state, client)

        ghat = -last_delta / (lr * K)
        theta = state.theta.copy()
        for _ in range(K):
            g = A @ (theta - c)
            d = rho * g / np.linalg.norm(g)
            theta = theta - lr * (lam * (A @ (theta + d - c)) + (1 - lam) * ghat)
        assert np.allclose(final, theta, atol=1e-15)


class TestLesamStep:
    def test_first_participation_has_zero_perturbation(self):
        client_a, client_b = data_client(seed=7), data_client(seed=7)
        state = server(np.zeros(client_a.model.dim), lr=0.1)
        a = local_round(fed("fedavg", local_steps=5, seed=7), state, client_a)
        b = local_round(fed("fedlesam", rho=0.1, local_steps=5, seed=7), state, client_b)
        assert np.array_equal(a, b)
        assert np.array_equal(state.last_seen[client_b.client_id], state.theta)

    def test_perturbs_along_global_drift(self):
        A, c = np.diag([1.0, 2.0]), np.array([0.5, -0.5])
        client = quad_client(A, c)
        theta0 = np.array([0.2, 0.6])
        state = server(theta0, lr=0.1)
        state.last_seen[client.client_id] = np.array([1.0, 1.0])
        final = local_round(fed("fedlesam", rho=0.3, local_steps=2), state, client)

        drift = np.array([1.0, 1.0]) - theta0
        d = 0.3 * drift / np.linalg.norm(drift)
        theta = theta0.copy()
        for _ in range(2):
            theta = theta - 0.1 * (A @ (theta + d - c))
        assert np.allclose(final, theta, atol=1e-15)
        assert np.array_equal(state.last_seen[client.client_id], theta0)

    def test_metric_only_run_keeps_memory(self):
        client = data_client(seed=8)
        state = server(np.zeros(client.model.dim), lr=0.1)
        state.last_seen[client.client_id] = np.full(client.model.dim, 0.25)
        cfg = fed("fedlesam", rho=0.1, local_steps=2, seed=8)
        local_round(cfg, state, client, update_client_state=False)
        assert np.array_equal(state.last_seen[client.client_id], np.full(client.model.dim, 0.25))


def reference_round(cfg, state, client):
    """The reference for a quadratic client's local round: every shared
    quantity recomputed inside the round, |v| from np.linalg.norm, mosam's
    (1 - momentum) * ghat formed at every step, lr a Python float and the
    gradient A @ (theta - c)."""
    A, c = client.model.A, client.model.c
    kind = cfg.local_rule
    theta = theta0 = np.asarray(state.theta, dtype=np.float64)
    offset = ghat = None
    if kind == "nsam":
        offset = norm_normalized(-state.momentum, cfg.rho)
        if cfg.extrapolate:
            offset = offset + cfg.momentum * state.momentum
    elif kind == "mosam":
        ghat = -state.last_delta / (state.lr * cfg.local_steps)
    elif kind == "lesam":
        offset = norm_normalized(state.last_seen.get(client.client_id, theta0) - theta0, cfg.rho)
    for _ in range(cfg.local_steps):
        if offset is not None:
            probe = theta + offset
        elif kind in ("sam", "mosam"):
            probe = theta + norm_normalized(A @ (theta - c), cfg.rho)
        else:
            probe = theta
        g = A @ (probe - c)
        if ghat is not None:
            g = cfg.momentum * g + (1.0 - cfg.momentum) * ghat
        theta = theta - state.lr * g
    return theta


class TestDataFreeRoundIsTheReference:
    @pytest.mark.parametrize("local_steps", [1, 3])
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_byte_for_byte(self, algorithm, local_steps):
        rng = rng_for(21, "reference", algorithm, local_steps)
        for trial in range(40):
            d = int(rng.integers(1, 12))
            M = rng.standard_normal((d, d))
            client = ClientState(7, Quadratic(M @ M.T + 0.5 * np.eye(d), rng.standard_normal(d)))
            theta = rng.standard_normal(d)
            state = server(
                theta, momentum=rng.standard_normal(d) * rng.uniform(0, 2),
                last_delta=rng.standard_normal(d) * rng.uniform(0, 2),
                lr=float(rng.uniform(0.001, 0.3)), round_index=int(rng.integers(0, 50)),
            )
            if trial % 2:
                state.last_seen[7] = theta + 0.1 * rng.standard_normal(d)
            cfg = fed(
                algorithm, rho=float(rng.choice([0.0, rng.uniform(0, 0.5)])),
                momentum=float(rng.uniform(0, 0.95)), extrapolate=bool(trial % 3),
                local_steps=local_steps,
            )
            want = reference_round(cfg, state, client)
            for got in (
                local_round(cfg, state, client, False),
                local_round(cfg, state, client, False, round_constants(cfg, state)),
            ):
                assert got.tobytes() == want.tobytes()


class TestEdges:
    def test_empty_shard_returns_skip(self):
        model = SoftmaxLinear(3, 4)
        client = ClientState(
            client_id=0, model=model,
            features=np.empty((0, 4)), labels=np.empty(0, dtype=int),
        )
        assert local_round(fed("fedavg"), server(np.zeros(model.dim)), client) is None

    def test_divergence_carries_context(self):
        client = quad_client(np.diag([4.0]), [0.0], cid=3)
        state = server(np.array([1.0]), lr=200.0, round_index=9)
        with pytest.raises(DivergenceError) as err:
            local_round(fed("fedavg", local_steps=500), state, client)
        assert err.value.round_index == 9
        assert err.value.client_id == 3
        assert err.value.step > 0

    def test_batches_cover_shard_without_replacement(self):
        client = data_client(seed=9, n=40)
        stream = client.batches(fed("fedavg", seed=9, batch_size=16), round_index=0)
        seen = []
        for _ in range(3):  # one epoch: 16 + 16 + 8
            X, _ = next(stream)
            seen.append(X)
        sizes = [len(x) for x in seen]
        assert sizes == [16, 16, 8]
        stacked = np.vstack(seen)
        full = np.unique(client.features, axis=0)
        assert np.array_equal(np.unique(stacked, axis=0), full)

    def test_batch_stream_keyed_by_round(self):
        client, cfg = data_client(seed=10), fed("fedavg", seed=10)
        a = next(client.batches(cfg, round_index=0))[0]
        b = next(client.batches(cfg, round_index=0))[0]
        c = next(client.batches(cfg, round_index=1))[0]
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


class Scripted:
    """A data-free model whose k-th gradient call returns gradients[k]."""

    def __init__(self, gradients):
        self.gradients = [np.asarray(g, dtype=float) for g in gradients]
        self.calls = 0

    def grad(self, theta, X=None, y=None):
        self.calls += 1
        return self.gradients[self.calls - 1]


class TestFiniteness:
    def test_huge_finite_theta_passes_without_warnings(self):
        # |theta|^2 overflows; every entry stays finite
        client = quad_client(np.eye(3), np.zeros(3), cid=2)
        theta = np.array([1e200, -3e200, 2e200])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = local_round(fed("fedavg", local_steps=3), server(theta, lr=1e-3), client)
        want = theta
        for _ in range(3):
            want = want - 1e-3 * want
        assert np.array_equal(out, want) and np.abs(out).max() > 1e200

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("step", [0, 3])
    def test_non_finite_step_names_client_and_first_bad_step(self, bad, step):
        gradients = [[1e300, 1.0]] * step + [[bad, 0.0]] + [[0.0, 0.0]] * 3
        client = ClientState(client_id=5, model=Scripted(gradients))
        state = server(np.zeros(2), lr=1.0, round_index=4)
        with warnings.catch_warnings(), pytest.raises(DivergenceError) as err:
            warnings.simplefilter("error")
            local_round(fed("fedavg", local_steps=step + 4), state, client)
        assert (err.value.round_index, err.value.client_id, err.value.step) == (4, 5, step)
        assert "client 5, local step %d" % step in str(err.value)


def reference_batches(client, cfg, round_index):
    """The batch stream gathered one batch at a time from the epoch's order."""
    rng = rng_for(cfg.seed, "batch", client.client_id, round_index)
    n = client.features.shape[0]
    while True:
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            take = order[start : start + cfg.batch_size]
            yield client.features[take], client.labels[take]


class TestBatchStream:
    @pytest.mark.parametrize("local_steps", [1, 4, 100])
    @pytest.mark.parametrize("n, batch_size", [(40, 16), (30, 10), (10, 32), (1, 8), (7, 1)])
    def test_same_batches_as_one_gather_per_step(self, n, batch_size, local_steps):
        rng = rng_for(n, "stream")
        client = ClientState(
            client_id=3, model=SoftmaxLinear(3, 4),
            features=rng.standard_normal((n, 4)), labels=rng.integers(0, 3, n),
        )
        cfg = fed("fedavg", seed=11, batch_size=batch_size, local_steps=local_steps)
        stream, ref = client.batches(cfg, 6), reference_batches(client, cfg, 6)
        steps = 3 * -(-n // batch_size) + 1  # three epochs and one batch into the fourth
        for _ in range(steps):
            (X, y), (X_ref, y_ref) = next(stream), next(ref)
            assert X.shape == X_ref.shape and X.tobytes() == X_ref.tobytes()
            assert y.dtype == y_ref.dtype and y.tobytes() == y_ref.tobytes()

    def test_a_round_gathers_only_the_rows_its_steps_take(self):
        rng = rng_for(0, "stream")
        client = ClientState(
            client_id=3, model=SoftmaxLinear(3, 4),
            features=rng.standard_normal((1000, 4)), labels=rng.integers(0, 3, 1000),
        )
        stream = client.batches(fed("fedavg", batch_size=8, local_steps=5), 0)
        for _ in range(5):
            X, y = next(stream)
            assert X.base.shape == (40, 4) and y.base.shape == (40,)
