"""Self-test of the benchmark's oracle and tracer on a tiny problem (runs in about a second).

    PYTHONPATH=src python -m pytest -q perfbench
"""

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import fnsm  # noqa: E402
import oracle  # noqa: E402
from tracer import LAYER_METRICS, SPANS, Tracer, lookup  # noqa: E402


def tiny_problem(seed=3):
    cfg = fnsm.FedConfig(
        algorithm="fednsam", n_clients=4, participation=2, rounds=6, local_steps=3,
        batch_size=8, eval_every=2, full_flatness=True, seed=seed,
    )
    ds = fnsm.synth_gaussian_mixture(3, 4, 120, 1.0, seed)
    train, test = fnsm.train_test_split(ds, 0.25, seed)
    shards = fnsm.dirichlet_partition(train, fnsm.DirichletSpec(0.5, cfg.n_clients, seed))
    clients = fnsm.clients_from_partition(fnsm.Mlp1(4, 5, 3), train, shards, cfg)
    return cfg, clients, test


def lookups():
    """Every attribute the tracer may patch, resolved now."""
    out = {}
    for module_name, path in SPANS:
        owner, attr = lookup("fnsm", module_name, path)
        out[module_name, path] = vars(owner)[attr]
    return out


def test_forward_pass_matches_mlp_loss():
    rng = np.random.default_rng(0)
    model = fnsm.Mlp1(4, 5, 3)
    X = rng.standard_normal((17, 4))
    y = rng.integers(0, 3, 17)
    for k in range(3):
        theta = 3.0 * model.init_params(np.random.default_rng(k))
        assert oracle.mlp_loss(theta, X, y, 5, 3) == pytest.approx(model.loss(theta, X, y), rel=1e-12)
        assert oracle.mlp_accuracy(theta, X, y, 5, 3) == fnsm.accuracy(model, theta, X, y)


def test_checkpoint_reader_matches_load_checkpoint(tmp_path):
    cfg, clients, test = tiny_problem()
    path = tmp_path / "run.ckpt"
    fnsm.run_experiment(cfg, clients, eval_data=test, checkpoint_path=path, checkpoint_every=4)
    round_index, theta, momentum, last_delta = oracle.read_checkpoint(path)
    ref = fnsm.load_checkpoint(path, cfg)
    assert round_index == ref.round_index == cfg.rounds
    assert np.array_equal(theta, ref.theta)
    assert np.array_equal(momentum, ref.momentum)
    assert np.array_equal(last_delta, ref.last_delta)


def test_tracing_leaves_results_bit_identical():
    cfg, clients, test = tiny_problem()
    plain_records, plain = fnsm.run_experiment(cfg, clients, eval_data=test)

    before = lookups()
    tracer = Tracer()
    tracer.install(fnsm)
    try:
        assert lookups() != before
        cfg, clients, test = tiny_problem()
        traced_records, traced = fnsm.federation.run_experiment(cfg, clients, eval_data=test)
    finally:
        tracer.restore()
    after = lookups()
    assert all(after[k] is before[k] for k in before)

    assert np.array_equal(plain.theta, traced.theta)
    assert plain_records == traced_records

    m = tracer.layer_metrics()
    assert list(m) == list(LAYER_METRICS)
    eval_rounds = cfg.rounds // cfg.eval_every
    extras = cfg.n_clients - cfg.participation
    assert m["local.rounds"] == cfg.rounds * cfg.participation + eval_rounds * extras
    assert m["local.metric_only_rounds"] == eval_rounds * extras
    # per evaluation round: train loss, sharpness (a gradient and two losses)
    # and the extrapolated gradient norm, each once per evaluable client
    evaluable = sum(c.evaluable for c in clients)
    assert m["metrics.model_calls_per_eval"] == 5 * evaluable
    assert m["rng.streams"] > 0 and m["local.s"] >= m["local.self_s"] > 0
