"""Acceptance suite: one test per exit criterion, at its stated tolerance.

Each criterion prints a PASS/FAIL line (visible with `pytest -s`). The
directional training criteria (5 and 6) share one set of federated runs,
built once per session in the `figure_runs` fixture.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from fnsm import (
    ClientState,
    DirichletSpec,
    FedConfig,
    Mlp1,
    Quadratic,
    SoftmaxLinear,
    clients_from_partition,
    dirichlet_partition,
    flatness_distance,
    grad_check,
    load_checkpoint,
    quadratic_clients,
    quadratic_ensemble_minimizer,
    rng_for,
    run_experiment,
    synth_gaussian_mixture,
    train_test_split,
)
from fnsm.federation import initial_state, server_update


def report(criterion: str, ok: bool) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion failed: {criterion}"


# -----------------------------------------------------------------
# 1. gradient correctness
# -----------------------------------------------------------------
def test_criterion_1_gradient_correctness():
    started = time.perf_counter()
    rng = rng_for(100, "accept-grad")
    worst = {"quadratic": 0.0, "softmax": 0.0, "mlp": 0.0}
    for _ in range(20):
        d = int(rng.integers(2, 6))
        M = rng.standard_normal((d, d))
        q = Quadratic(M @ M.T + d * np.eye(d), rng.standard_normal(d))
        worst["quadratic"] = max(worst["quadratic"], grad_check(q, rng.standard_normal(d), h=1e-6))
    sm = SoftmaxLinear(3, 5)
    mlp = Mlp1(5, 8, 3)
    for _ in range(20):
        X, y = rng.standard_normal((12, 5)), rng.integers(0, 3, 12)
        worst["softmax"] = max(worst["softmax"], grad_check(sm, rng.standard_normal(sm.dim), X, y, h=1e-5))
        worst["mlp"] = max(worst["mlp"], grad_check(mlp, mlp.init_params(rng), X, y, h=1e-5))
    elapsed = time.perf_counter() - started
    ok = worst["quadratic"] < 1e-8 and worst["softmax"] < 1e-6 and worst["mlp"] < 1e-5 and elapsed < 5.0
    report(
        f"1 gradient correctness (quad {worst['quadratic']:.1e} < 1e-8, "
        f"softmax {worst['softmax']:.1e} < 1e-6, mlp {worst['mlp']:.1e} < 1e-5, {elapsed:.1f}s < 5s)",
        ok,
    )


# -----------------------------------------------------------------
# 2. reduction equivalences, bit-exact
# -----------------------------------------------------------------
def small_mlp_problem(cfg):
    ds = synth_gaussian_mixture(3, 4, 120, 0.8, seed=cfg.seed)
    train, test = train_test_split(ds, 0.2, seed=cfg.seed)
    shards = dirichlet_partition(train, DirichletSpec(0.5, cfg.n_clients, seed=cfg.seed))
    clients = clients_from_partition(Mlp1(4, 8, 3), train, shards, cfg)
    return clients, test


def test_criterion_2_reduction_equivalences(tmp_path):
    started = time.perf_counter()
    base = FedConfig(
        algorithm="fedavg", n_clients=8, participation=4, rounds=12, local_steps=6,
        batch_size=8, lr0=0.1, lr_decay=0.999, rho=0.0, momentum=0.0, seed=21, eval_every=3,
    )

    def run(cfg, **kw):
        clients, test = small_mlp_problem(cfg)
        return run_experiment(cfg, clients, eval_data=test, **kw)

    ra, sa = run(base)
    rb, sb = run(replace(base, algorithm="fedsam"))
    sam_ok = ra == rb and np.array_equal(sa.theta, sb.theta)

    rc, sc = run(replace(base, algorithm="fednsam"))
    nsam_ok = ra == rc and np.array_equal(sa.theta, sc.theta)

    live = replace(base, algorithm="fednsam", rho=0.1, momentum=0.85)
    rd, sd = run(live)

    ck = tmp_path / "accept.ckpt"
    run(replace(live, rounds=6), checkpoint_path=ck, checkpoint_every=6)
    rest_recs, rest_state = run(live, resume_from=load_checkpoint(ck, live))
    resume_ok = rest_recs == rd[6:] and np.array_equal(rest_state.theta, sd.theta)

    elapsed = time.perf_counter() - started
    ok = sam_ok and nsam_ok and resume_ok and elapsed < 30.0
    report(
        f"2 reductions bit-exact (fedsam(0) {sam_ok}, fednsam(0,0) {nsam_ok}, "
        f"resume {resume_ok}, {elapsed:.1f}s < 30s)",
        ok,
    )


# -----------------------------------------------------------------
# 3. quadratic convergence oracle with acceleration
# -----------------------------------------------------------------
def test_criterion_3_quadratic_convergence():
    started = time.perf_counter()
    tol, rounds_avg, rounds_nsam = 1e-3, [], []
    for seed in range(1, 6):
        rng = rng_for(seed, "accept-quad")
        # condition number ~50 across coordinates; per-client jitter keeps
        # the ensemble heterogeneous while the averaged spectrum is stable
        scale = np.logspace(np.log10(1.5 / 50.0), np.log10(1.5), 5)
        ens = [
            Quadratic(np.diag(scale * rng.uniform(0.8, 1.2, 5)), rng.standard_normal(5))
            for _ in range(10)
        ]
        star = quadratic_ensemble_minimizer(ens)
        A_bar = np.mean([q.A for q in ens], axis=0)
        lr = 1.0 / float(np.linalg.eigvalsh(A_bar).max())  # stability limit / 2

        def rounds_to_tol(algo, momentum):
            cfg = FedConfig(
                algorithm=algo, n_clients=10, participation=10, rounds=500,
                local_steps=1, lr0=lr, lr_decay=1.0, rho=0.0, momentum=momentum,
                seed=seed, eval_every=500,
                track_flatness=False, track_sharpness=False, track_grad_norm=False,
            )
            hit = []

            def watch(state):
                if not hit and np.linalg.norm(state.theta - star) <= tol:
                    hit.append(state.round_index)

            run_experiment(cfg, quadratic_clients(ens), on_round=watch)
            return hit[0] if hit else 501

        rounds_avg.append(rounds_to_tol("fedavg", 0.0))
        rounds_nsam.append(rounds_to_tol("fednsam", 0.85))

    elapsed = time.perf_counter() - started
    avg_converges = all(r <= 500 for r in rounds_avg)
    accelerates = np.mean(rounds_nsam) <= np.mean(rounds_avg)
    ok = avg_converges and accelerates and elapsed < 60.0
    report(
        f"3 quadratic oracle (fedavg mean {np.mean(rounds_avg):.0f} rounds to 1e-3, "
        f"fednsam mean {np.mean(rounds_nsam):.0f}, {elapsed:.1f}s < 60s)",
        ok,
    )


# -----------------------------------------------------------------
# 4. flatness-distance unit truth
# -----------------------------------------------------------------
def test_criterion_4_flatness_unit_truth():
    pair = flatness_distance([np.array([1.0, 0.0]), np.array([0.0, 1.0])], np.array([0.5, 0.5]))
    coincide = flatness_distance([np.ones(3)] * 4, np.ones(3))
    hand_ok = pair == 0.5 and coincide == 0.0

    rng = rng_for(4, "accept-flat")
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(1, 9))
        d = int(rng.integers(1, 7))
        locals_ = [rng.standard_normal(d) for _ in range(k)]
        g = rng.standard_normal(d)
        acc = 0.0
        for lm in locals_:
            s = 0.0
            for j in range(d):
                s += (lm[j] - g[j]) ** 2
            acc += s
        worst = max(worst, abs(flatness_distance(locals_, g) - acc / k))
    ok = hand_ok and worst < 1e-12
    report(f"4 flatness unit truth (hand cases exact, oracle gap {worst:.1e} < 1e-12)", ok)


# -----------------------------------------------------------------
# 5 & 6. directional reproduction of the heterogeneity mechanism
# -----------------------------------------------------------------
SEEDS = (1, 2, 3, 4, 5)


def figure_cfg(algorithm, seed, extrapolate=True):
    return FedConfig(
        algorithm=algorithm, n_clients=20, participation=2, rounds=300,
        local_steps=20, batch_size=32, lr0=0.1, lr_decay=0.998,
        rho=0.1, momentum=0.85, extrapolate=extrapolate, seed=seed,
        eval_every=10, full_flatness=True,
    )


def figure_run(algorithm, alpha, seed, extrapolate=True):
    cfg = figure_cfg(algorithm, seed, extrapolate)
    ds = synth_gaussian_mixture(classes=10, dim=20, n=4000, spread=1.4, seed=seed)
    train, test = train_test_split(ds, 0.2, seed)
    shards = dirichlet_partition(train, DirichletSpec(alpha, cfg.n_clients, seed))
    clients = clients_from_partition(Mlp1(20, 32, 10), train, shards, cfg)
    records, _ = run_experiment(cfg, clients, eval_data=test)
    return records


def window_mean(records, attr, window=20):
    vals = [getattr(r, attr) for r in records if getattr(r, attr) is not None]
    return float(np.mean(vals[-window:]))


@pytest.fixture(scope="module")
def figure_runs():
    started = time.perf_counter()
    runs = {}
    for seed in SEEDS:
        runs["fedsam", 0.1, seed] = figure_run("fedsam", 0.1, seed)
        runs["fedsam", 0.6, seed] = figure_run("fedsam", 0.6, seed)
        runs["fednsam", 0.1, seed] = figure_run("fednsam", 0.1, seed)
        runs["fednsam-noext", 0.1, seed] = figure_run("fednsam", 0.1, seed, extrapolate=False)
    runs["elapsed"] = time.perf_counter() - started
    return runs


def test_criterion_5_directional_heterogeneity(figure_runs):
    a_flat = b_flat = a_sharp = b_sharp = 0
    for seed in SEEDS:
        sam01 = figure_runs["fedsam", 0.1, seed]
        sam06 = figure_runs["fedsam", 0.6, seed]
        nsam01 = figure_runs["fednsam", 0.1, seed]
        a_flat += window_mean(sam01, "flatness_distance") > window_mean(sam06, "flatness_distance")
        b_flat += window_mean(nsam01, "flatness_distance") < window_mean(sam01, "flatness_distance")
        a_sharp += window_mean(sam01, "global_sharpness") > window_mean(sam06, "global_sharpness")
        b_sharp += window_mean(nsam01, "global_sharpness") < window_mean(sam01, "global_sharpness")
    elapsed = figure_runs["elapsed"]
    ok = min(a_flat, b_flat, a_sharp, b_sharp) >= 4 and elapsed < 600.0
    report(
        f"5 directional heterogeneity (flatness: alpha {a_flat}/5, algo {b_flat}/5; "
        f"sharpness: alpha {a_sharp}/5, algo {b_sharp}/5; each >= 4/5; {elapsed:.0f}s < 600s)",
        ok,
    )


def test_criterion_6_extrapolation_ablation(figure_runs):
    def final_accuracy(records):
        vals = [r.test_accuracy for r in records if r.test_accuracy is not None]
        return vals[-1]

    wins = 0
    for seed in SEEDS:
        with_ext = final_accuracy(figure_runs["fednsam", 0.1, seed])
        without = final_accuracy(figure_runs["fednsam-noext", 0.1, seed])
        wins += without <= with_ext
    report(f"6 extrapolation ablation (no-extrapolation <= full in {wins}/5 seeds, need >= 4)", wins >= 4)


# -----------------------------------------------------------------
# 7. server momentum geometric limit
# -----------------------------------------------------------------
def test_criterion_7_momentum_limit():
    cfg = FedConfig(algorithm="fednsam", momentum=0.85)
    d = np.array([0.3, -1.2, 0.05, 2.0])
    state = initial_state(cfg, 4)
    for _ in range(200):
        state = server_update(state, d, cfg)
    gap = float(np.abs(state.momentum - d / 0.15).max())
    report(f"7 momentum geometric limit (gap {gap:.1e} < 1e-9 after 200 updates)", gap < 1e-9)


# -----------------------------------------------------------------
# 8. Dirichlet partitioner
# -----------------------------------------------------------------
def test_criterion_8_dirichlet_partitioner():
    rng = rng_for(8, "accept-dirichlet")
    conserved = True
    for trial in range(1000):
        n = int(rng.integers(10, 120))
        classes = int(rng.integers(2, 7))
        labels = rng.integers(0, classes, n)
        labels[:classes] = np.arange(classes)  # every class present
        ds_features = rng.standard_normal((n, 2))
        from fnsm import Dataset

        ds = Dataset(ds_features, labels, classes)
        spec = DirichletSpec(
            alpha=float(10 ** rng.uniform(-2, 3)),
            n_clients=int(rng.integers(1, 12)),
            seed=trial,
        )
        shards = dirichlet_partition(ds, spec)
        joined = np.concatenate(shards)
        if len(joined) != n or len(np.unique(joined)) != n:
            conserved = False
            break

    ds = synth_gaussian_mixture(10, 2, 1000, 1.0, seed=88)
    means = []
    for alpha in (0.1, 0.6, 1e6):
        stats = []
        for seed in range(20):
            shards = dirichlet_partition(ds, DirichletSpec(alpha, 10, seed=seed))
            shares = []
            for idx in shards:
                if len(idx):
                    counts = np.bincount(ds.labels[idx], minlength=10)
                    shares.append(counts.max() / len(idx))
            stats.append(np.mean(shares))
        means.append(float(np.mean(stats)))
    monotone = means[0] > means[1] > means[2]
    ok = conserved and monotone
    report(
        f"8 dirichlet partitioner (1000 specs conserved+disjoint: {conserved}; "
        f"heterogeneity {means[0]:.3f} > {means[1]:.3f} > {means[2]:.3f})",
        ok,
    )
