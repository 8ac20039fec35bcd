"""Server loop: sampling, aggregation, momentum, determinism, checkpoints."""

from dataclasses import replace

import numpy as np
import pytest

from fnsm import (
    ClientState,
    FedConfig,
    Mlp1,
    Quadratic,
    SoftmaxLinear,
    aggregate,
    clients_from_partition,
    dirichlet_partition,
    DirichletSpec,
    load_checkpoint,
    quadratic_clients,
    quadratic_ensemble_minimizer,
    rng_for,
    run_experiment,
    sample_clients,
    save_checkpoint,
    server_update,
    synth_gaussian_mixture,
    train_test_split,
)
from fnsm.federation import initial_state


def small_problem(seed=11, n_clients=6):
    ds = synth_gaussian_mixture(3, 4, 90, 0.8, seed=seed)
    train, test = train_test_split(ds, 0.2, seed=seed)
    shards = dirichlet_partition(train, DirichletSpec(0.5, n_clients, seed=seed))
    model = Mlp1(4, 6, 3)
    return model, train, test, shards


def small_cfg(**kw):
    base = dict(
        algorithm="fedavg", n_clients=6, participation=3, rounds=10,
        local_steps=4, batch_size=8, lr0=0.1, lr_decay=0.999,
        rho=0.0, momentum=0.0, seed=11, eval_every=5,
    )
    base.update(kw)
    return FedConfig(**base)


def run(cfg, seed=11):
    model, train, test, shards = small_problem(seed=seed, n_clients=cfg.n_clients)
    clients = clients_from_partition(model, train, shards, cfg)
    return run_experiment(cfg, clients, eval_data=test)


class TestSampleClients:
    def test_full_participation_is_everyone(self):
        assert sample_clients(5, 5, 0, seed=123) == [0, 1, 2, 3, 4]

    def test_distinct_and_in_range(self):
        picked = sample_clients(100, 10, 3, seed=7)
        assert len(set(picked)) == 10
        assert all(0 <= i < 100 for i in picked)
        assert picked == sorted(picked)

    def test_deterministic_per_round(self):
        a = sample_clients(50, 5, 2, seed=9)
        b = sample_clients(50, 5, 2, seed=9)
        c = sample_clients(50, 5, 3, seed=9)
        assert a == b
        assert a != c  # adjacent rounds draw independently

    def test_oversubscription_rejected(self):
        with pytest.raises(ValueError):
            sample_clients(3, 4, 0, seed=0)


class TestAggregate:
    def test_two_vector_mean(self):
        out = aggregate([np.array([1.0, 0.0]), np.array([0.0, 1.0])])
        assert np.array_equal(out, [0.5, 0.5])

    def test_single_delta_identity(self):
        d = np.array([0.3, -0.7, 2.0])
        assert np.array_equal(aggregate([d]), d)

    def test_matches_sequential_oracle_exactly(self):
        rng = rng_for(1, "agg")
        vecs = [rng.standard_normal(9) for _ in range(7)]
        got = aggregate(vecs)
        # independent coordinate-wise accumulation in the same order
        expect = np.empty(9)
        for j in range(9):
            s = 0.0
            for v in vecs:
                s += v[j]
            expect[j] = s / 7
        assert np.array_equal(got, expect)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            aggregate([np.zeros(2), np.zeros(3)])


class TestServerUpdate:
    def test_momentum_arithmetic(self):
        cfg = small_cfg(algorithm="fednsam", momentum=0.5)
        st = initial_state(cfg, 2)
        st.theta = np.array([1.0, 1.0])
        st.momentum = np.array([1.0, 1.0])
        out = server_update(st, np.array([0.0, 2.0]), cfg)
        assert np.array_equal(out.momentum, [0.5, 2.5])
        assert np.array_equal(out.theta, [1.5, 3.5])
        assert np.array_equal(out.last_delta, [0.0, 2.0])
        assert out.round_index == 1

    def test_zero_momentum_reduces_to_restart(self):
        cfg = small_cfg(algorithm="fednsam", momentum=0.0)
        st = initial_state(cfg, 2)
        st.momentum = np.array([5.0, 5.0])
        out = server_update(st, np.array([1.0, -1.0]), cfg)
        assert np.array_equal(out.momentum, [1.0, -1.0])

    def test_plain_branch_leaves_momentum_zero(self):
        cfg = small_cfg(algorithm="fedsam", momentum=0.85)
        st = initial_state(cfg, 2)
        out = server_update(st, np.array([1.0, 2.0]), cfg)
        assert np.array_equal(out.theta, [1.0, 2.0])
        assert np.array_equal(out.momentum, [0.0, 0.0])

    def test_lr_decays_each_round(self):
        cfg = small_cfg(lr0=0.1, lr_decay=0.9)
        st = initial_state(cfg, 1)
        out = server_update(st, np.zeros(1), cfg)
        assert out.lr == 0.1 * 0.9

    def test_geometric_series_limit(self):
        # constant input converges to d / (1 - momentum)
        cfg = small_cfg(algorithm="fednsam", momentum=0.85)
        d = np.array([0.3, -1.2, 0.05])
        st = initial_state(cfg, 3)
        for _ in range(200):
            st = server_update(st, d, cfg)
        assert np.abs(st.momentum - d / 0.15).max() < 1e-9

    def test_momentum_telescoping(self):
        # theta_t - theta_0 equals the running sum of momentum vectors
        cfg = small_cfg(algorithm="fedavgm", momentum=0.7)
        rng = rng_for(2, "tele")
        st = initial_state(cfg, 4)
        theta0 = st.theta.copy()
        total = np.zeros(4)
        for _ in range(30):
            st = server_update(st, rng.standard_normal(4) * 0.1, cfg)
            total += st.momentum
        assert np.abs((st.theta - theta0) - total).max() < 1e-9


class TestRunExperiment:
    def test_fednsam_reduction_to_fedavg(self):
        ra, sa = run(small_cfg(algorithm="fedavg"))
        rb, sb = run(small_cfg(algorithm="fednsam", rho=0.0, momentum=0.0))
        assert ra == rb
        assert np.array_equal(sa.theta, sb.theta)

    def test_fedsam_zero_radius_reduction(self):
        ra, _ = run(small_cfg(algorithm="fedavg"))
        rb, _ = run(small_cfg(algorithm="fedsam", rho=0.0))
        assert ra == rb

    def test_repeat_run_bit_identical(self):
        ra, sa = run(small_cfg(algorithm="fedlesam", rho=0.05))
        rb, sb = run(small_cfg(algorithm="fedlesam", rho=0.05))
        assert ra == rb
        assert np.array_equal(sa.theta, sb.theta)

    def test_one_record_per_round_with_eval_cadence(self):
        recs, _ = run(small_cfg(rounds=10, eval_every=4))
        assert [r.round for r in recs] == list(range(10))
        evaluated = [r.round for r in recs if r.train_loss is not None]
        assert evaluated == [3, 7]
        assert all(r.flatness_distance is None for r in recs if r.round not in evaluated)

    def test_quadratic_convergence_to_closed_form(self):
        rng = rng_for(5, "ens")
        ens = [
            Quadratic(np.diag(rng.uniform(0.3, 1.5, 5)), rng.standard_normal(5))
            for _ in range(10)
        ]
        star = quadratic_ensemble_minimizer(ens)
        cfg = FedConfig(
            algorithm="fedavg", n_clients=10, participation=10, rounds=500,
            local_steps=1, lr0=0.6, lr_decay=1.0, rho=0.0, momentum=0.0,
            seed=5, eval_every=100, track_sharpness=True,
        )
        _, state = run_experiment(cfg, quadratic_clients(ens))
        assert np.linalg.norm(state.theta - star) <= 1e-3

    def test_all_sampled_clients_empty_advances_round(self):
        model = SoftmaxLinear(3, 2)
        clients = [
            ClientState(client_id=i, model=model,
                        features=np.empty((0, 2)), labels=np.empty(0, dtype=int))
            for i in range(3)
        ]
        cfg = small_cfg(n_clients=3, participation=3, rounds=4, track_flatness=True,
                        track_sharpness=False, track_grad_norm=False, eval_every=2)
        theta0 = np.zeros(model.dim)
        recs, state = run_experiment(cfg, clients, theta0=theta0)
        assert state.round_index == 4
        assert np.array_equal(state.theta, theta0)
        assert len(recs) == 4

    def test_wall_time_off_by_default_and_on_when_asked(self):
        recs, _ = run(small_cfg(rounds=2, eval_every=1))
        assert all(r.wall_time_ms is None for r in recs)
        recs, _ = run(small_cfg(rounds=2, eval_every=1, track_wall_time=True))
        assert all(r.wall_time_ms is not None and r.wall_time_ms >= 0 for r in recs)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            small_cfg(participation=9).validate()  # S > N
        with pytest.raises(ValueError):
            small_cfg(algorithm="fedprox").validate()
        with pytest.raises(ValueError):
            small_cfg(momentum=1.0).validate()


class TestCheckpoints:
    def test_roundtrip_and_resume_equivalence(self, tmp_path):
        cfg = small_cfg(algorithm="fednsam", rho=0.1, momentum=0.85, rounds=10, eval_every=2)
        full_recs, full_state = run(cfg)

        ck = tmp_path / "half.ckpt"
        _, _ = run_and_checkpoint(cfg, ck)
        loaded = load_checkpoint(ck, cfg)
        assert loaded.round_index == 5

        model, train, test, shards = small_problem(seed=11, n_clients=cfg.n_clients)
        clients = clients_from_partition(model, train, shards, cfg)
        rest_recs, rest_state = run_experiment(cfg, clients, eval_data=test, resume_from=loaded)
        assert rest_recs == full_recs[5:]
        assert np.array_equal(rest_state.theta, full_state.theta)
        assert np.array_equal(rest_state.momentum, full_state.momentum)
        assert rest_state.lr == full_state.lr

    def test_binary_layout(self, tmp_path):
        cfg = small_cfg()
        st = initial_state(cfg, 3)
        st.theta = np.array([1.0, 2.0, 3.0])
        st.round_index = 7
        p = tmp_path / "x.ckpt"
        save_checkpoint(p, st)
        blob = p.read_bytes()
        assert blob[:4] == b"FNSM"
        assert len(blob) == 4 + 4 + 4 + 8 + 3 * 8 * 3
        back = load_checkpoint(p, cfg)
        assert back.round_index == 7
        assert np.array_equal(back.theta, st.theta)

    def test_rejects_corrupt_files(self, tmp_path):
        p = tmp_path / "bad.ckpt"
        p.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError):
            load_checkpoint(p, small_cfg())
        st = initial_state(small_cfg(), 2)
        save_checkpoint(p, st)
        p.write_bytes(p.read_bytes()[:-5])
        with pytest.raises(ValueError):
            load_checkpoint(p, small_cfg())


def run_and_checkpoint(cfg, path):
    model, train, test, shards = small_problem(seed=cfg.seed, n_clients=cfg.n_clients)
    clients = clients_from_partition(model, train, shards, cfg)
    half = replace(cfg, rounds=5)
    return run_experiment(half, clients, eval_data=test, checkpoint_path=path, checkpoint_every=5)
