"""Flat-minima diagnostics: hand values, brute-force oracles, surfaces."""

import numpy as np
import pytest

from fnsm import (
    ClientState,
    Mlp1,
    Quadratic,
    extrapolated_grad_norm,
    flatness_distance,
    global_sharpness,
    loss_surface_slice,
    read_surface,
    rng_for,
    sam_perturbation,
    synth_gaussian_mixture,
    write_surface,
)
from fnsm.metrics import population_grad, population_loss


def quad_clients(*pairs):
    return [
        ClientState(client_id=i, model=Quadratic(np.asarray(A, float), np.asarray(c, float)))
        for i, (A, c) in enumerate(pairs)
    ]


class TestFlatnessDistance:
    def test_symmetric_pair(self):
        locals_ = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        assert flatness_distance(locals_, np.array([0.5, 0.5])) == 0.5

    def test_coincidence_is_zero(self):
        g = np.array([0.3, -0.2, 1.0])
        assert flatness_distance([g.copy(), g.copy()], g) == 0.0

    def test_matches_brute_force_oracle(self):
        rng = rng_for(0, "flat")
        for _ in range(100):
            k = int(rng.integers(1, 8))
            d = int(rng.integers(1, 6))
            locals_ = [rng.standard_normal(d) for _ in range(k)]
            g = rng.standard_normal(d)
            # independent loop accumulation of squared norms
            acc = 0.0
            for lm in locals_:
                s = 0.0
                for j in range(d):
                    s += (lm[j] - g[j]) ** 2
                acc += s
            assert abs(flatness_distance(locals_, g) - acc / k) < 1e-12

    def test_translation_invariant(self):
        rng = rng_for(1, "flat")
        locals_ = [rng.standard_normal(4) for _ in range(5)]
        g = rng.standard_normal(4)
        shift = rng.standard_normal(4)
        a = flatness_distance(locals_, g)
        b = flatness_distance([lm + shift for lm in locals_], g + shift)
        assert abs(a - b) < 1e-12

    def test_quadratic_scaling(self):
        rng = rng_for(2, "flat")
        locals_ = [rng.standard_normal(3) for _ in range(4)]
        g = rng.standard_normal(3)
        s = 2.5
        a = flatness_distance(locals_, g)
        b = flatness_distance([s * lm for lm in locals_], s * g)
        assert b == pytest.approx(s * s * a, rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            flatness_distance([], np.zeros(2))


class TestPopulationGrad:
    def test_one_coordinate_mean_is_the_ordered_sum(self):
        # numpy sums a one-coordinate stack pairwise; the population gradient
        # must sum in client order from +0.0, as the server's aggregate does
        rng = rng_for(5, "pop-grad")
        clients = quad_clients(
            *[([[a]], [c]) for a, c in zip(rng.uniform(0.1, 10.0, 20), rng.standard_normal(20))]
        )
        for theta in rng.standard_normal((500, 1)) * 10.0 ** rng.uniform(-2, 2, (500, 1)):
            want = np.zeros(1)
            for c in clients:
                want += c.full_grad(theta)
            want /= len(clients)
            assert population_grad(clients, theta).tobytes() == want.tobytes()


class TestGlobalSharpness:
    def test_one_dimensional_closed_form(self):
        # F = theta^2/2 at theta=1, rho=0.1: 0.5*1.1^2 - 0.5 = 0.105
        clients = quad_clients((np.eye(1), np.zeros(1)))
        got = global_sharpness(clients, np.array([1.0]), 0.1)
        assert got == pytest.approx(0.105, abs=1e-12)

    def test_is_loss_rise_under_sam_probe_of_population_gradient(self):
        rng = rng_for(4, "sharp-probe")
        clients = quad_clients(
            (np.diag([2.0, 0.5, 1.0]), rng.standard_normal(3)),
            (np.diag([0.3, 1.5, 0.8]), rng.standard_normal(3)),
        )
        theta = rng.standard_normal(3)
        probe = theta + sam_perturbation(population_grad(clients, theta), 0.2)
        expect = population_loss(clients, probe) - population_loss(clients, theta)
        assert global_sharpness(clients, theta, 0.2) == expect

    def test_heterogeneous_quadratics_match_the_closed_form(self):
        # F(theta + rho g) - F(theta) = rho g.gradF + rho^2/2 g^T Abar g, with
        # gradF = Abar theta - mean(A_i c_i) and g = gradF / |gradF|
        rng = rng_for(8, "sharp-closed-form")
        for _ in range(40):
            n, dim = int(rng.integers(2, 7)), int(rng.integers(1, 9))
            c_scale, t_scale = 10.0 ** rng.uniform(-1, 1, 2)
            As = []
            for _ in range(n):
                M = rng.standard_normal((dim, dim))
                As.append(M @ M.T + 0.5 * np.eye(dim))
            cs = [c_scale * rng.standard_normal(dim) for _ in range(n)]
            theta = t_scale * rng.standard_normal(dim)
            rho = float(rng.uniform(0.01, 1.0))
            A_bar = np.mean(As, axis=0)
            grad_F = A_bar @ theta - np.mean([A @ c for A, c in zip(As, cs)], axis=0)
            g = grad_F / np.linalg.norm(grad_F)
            expect = rho * (g @ grad_F) + 0.5 * rho**2 * (g @ A_bar @ g)
            got = global_sharpness(quad_clients(*zip(As, cs)), theta, rho)
            assert got == pytest.approx(expect, rel=1e-10)

    def test_zero_at_stationary_point(self):
        clients = quad_clients((np.diag([2.0, 1.0]), np.array([0.3, -0.4])))
        assert global_sharpness(clients, np.array([0.3, -0.4]), 0.1) == 0.0

    def test_nonnegative_on_convex_quadratics(self):
        rng = rng_for(3, "sharp")
        for _ in range(20):
            M = rng.standard_normal((3, 3))
            clients = quad_clients((M @ M.T + 3 * np.eye(3), rng.standard_normal(3)))
            theta = rng.standard_normal(3)
            assert global_sharpness(clients, theta, float(rng.uniform(0.01, 1.0))) >= 0.0

    def test_requires_positive_rho(self):
        clients = quad_clients((np.eye(1), np.zeros(1)))
        with pytest.raises(ValueError):
            global_sharpness(clients, np.ones(1), 0.0)
        with pytest.raises(ValueError):
            global_sharpness(clients, np.ones(1), float("nan"))


class TestExtrapolatedGradNorm:
    def test_zero_momentum_reduces_to_plain_norm(self):
        clients = quad_clients((np.eye(2), np.zeros(2)))
        theta = np.array([3.0, 4.0])
        got = extrapolated_grad_norm(clients, theta, np.zeros(2), 0.85)
        assert got == pytest.approx(5.0, abs=1e-12)

    def test_lands_on_minimizer(self):
        clients = quad_clients((np.eye(2), np.zeros(2)))
        got = extrapolated_grad_norm(clients, np.array([3.0, 4.0]), np.array([-3.0, -4.0]), 1.0 - 1e-16)
        assert got == pytest.approx(0.0, abs=1e-12)

    def test_hand_evaluated_diagonal(self):
        # A(theta + 0.5*m) with A=diag(2,1), theta=(1,1), m=(1,0) -> (3,1)
        clients = quad_clients((np.diag([2.0, 1.0]), np.zeros(2)))
        got = extrapolated_grad_norm(clients, np.array([1.0, 1.0]), np.array([1.0, 0.0]), 0.5)
        assert got == pytest.approx(np.sqrt(10.0), abs=1e-12)


class TestLossSurface:
    def test_unit_quadratic_at_zero_matches_the_closed_form(self):
        # at theta = 0 every block norm is zero, so u and v are the seeded draw
        # (v orthogonalized against u), and each cell is 0.5 * |x u + y v|^2
        clients = quad_clients((np.eye(2), np.zeros(2)))
        grid = loss_surface_slice(clients, np.zeros(2), seed=0, span=1.0, res=5)
        rng = rng_for(0, "surface")
        u, v = rng.standard_normal(2), rng.standard_normal(2)
        assert np.array_equal(grid.u, u)
        assert np.array_equal(grid.v, v - (v @ u) / (u @ u) * u)
        coords = np.linspace(-1.0, 1.0, 5)
        for a, x in enumerate(coords):
            for b, y in enumerate(coords):
                w = x * grid.u + y * grid.v
                assert grid.values[a, b] == pytest.approx(0.5 * (w @ w), rel=1e-12, abs=1e-12)
        assert grid.values[2, 2] == 0.0

    def test_center_cell_is_population_loss(self):
        ds = synth_gaussian_mixture(3, 4, 30, 0.7, seed=4)
        model = Mlp1(4, 5, 3)
        client = ClientState(0, model, ds.features, ds.labels)
        theta = model.init_params(rng_for(4, "init"))
        grid = loss_surface_slice([client], theta, seed=9, span=0.5, res=5)
        assert grid.values[2, 2] == pytest.approx(client.full_loss(theta), abs=1e-10)

    def test_even_quadratic_grid_is_symmetric(self):
        rng = rng_for(5, "surf")
        M = rng.standard_normal((3, 3))
        clients = quad_clients((M @ M.T + 3 * np.eye(3), np.zeros(3)))
        grid = loss_surface_slice(clients, np.zeros(3), seed=11, span=1.0, res=5)
        flipped = grid.values[::-1, ::-1]
        assert np.abs(grid.values - flipped).max() < 1e-10

    def test_directions_are_block_scaled(self):
        ds = synth_gaussian_mixture(3, 4, 30, 0.7, seed=6)
        model = Mlp1(4, 5, 3)
        client = ClientState(0, model, ds.features, ds.labels)
        theta = model.init_params(rng_for(6, "init"))
        grid = loss_surface_slice([client], theta, seed=3, span=0.5, res=3)
        for b in model.blocks():
            assert np.linalg.norm(grid.u[b]) == pytest.approx(np.linalg.norm(theta[b]), rel=1e-10)
            assert np.linalg.norm(grid.v[b]) == pytest.approx(np.linalg.norm(theta[b]), rel=1e-10)

    def test_single_block_directions_stay_orthogonal(self):
        # block rescaling is a global scale for one-block models, so the
        # Gram-Schmidt orthogonality survives it
        clients = quad_clients((np.eye(6), np.zeros(6)))
        theta = rng_for(12, "theta").standard_normal(6)
        grid = loss_surface_slice(clients, theta, seed=3, span=0.5, res=3)
        bound = 1e-10 * np.linalg.norm(grid.u) * np.linalg.norm(grid.v)
        assert abs(float(grid.u @ grid.v)) < bound

    def test_even_resolution_rejected(self):
        clients = quad_clients((np.eye(2), np.zeros(2)))
        with pytest.raises(ValueError):
            loss_surface_slice(clients, np.zeros(2), seed=0, span=1.0, res=4)

    def test_nonpositive_span_rejected(self):
        clients = quad_clients((np.eye(2), np.zeros(2)))
        for span in (0.0, float("nan")):
            with pytest.raises(ValueError):
                loss_surface_slice(clients, np.zeros(2), seed=0, span=span, res=3)

    def test_file_roundtrip(self, tmp_path):
        clients = quad_clients((np.eye(2), np.array([0.2, -0.1])))
        grid = loss_surface_slice(clients, np.array([1.0, 1.0]), seed=7, span=0.8, res=5)
        p = tmp_path / "grid.txt"
        write_surface(grid, p)
        values, span, res = read_surface(p)
        assert np.array_equal(values, grid.values)
        assert span == 0.8 and res == 5
        first = p.read_text().splitlines()[0]
        assert first.startswith("# fnsm-surface v1 res=5 range=")

    @pytest.mark.parametrize(
        "text, where",
        [
            ("range=0.5\n1 2 3\n", r":1: header has no res="),
            ("res=3\n1 2 3\n", r":1: header has no range="),
            ("res=x range=0.5\n", r":1: res= or range= is not a number"),
            ("res=3 range=0.5\n1 2 3\n4 x 6\n7 8 9\n", r":3: a value is not a number"),
            ("res=3 range=0.5\n1 2 3\n4 5\n7 8 9\n", r":3: grid is not 3x3"),
            ("res=3 range=0.5\n1 2 3\n4 5 6\n7 8 9 10\n", r":4: grid is not 3x3"),
        ],
    )
    def test_malformed_file_names_path_and_line(self, tmp_path, text, where):
        p = tmp_path / "grid.txt"
        p.write_text("# fnsm-surface v1 " + text)
        with pytest.raises(ValueError, match="^" + str(p) + where):
            read_surface(p)
