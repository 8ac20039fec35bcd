"""Experiment-file parsing and the four CLI subcommands."""

import math
import os
import pathlib
import struct
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fnsm.cli
import fnsm.config
from fnsm.cli import MAX_RES, main, read_records
from fnsm.config import (
    DATA_KINDS,
    MAX_CLIENT_CLASSES,
    MAX_HELD_WEIGHTS,
    MAX_QUAD_CELLS,
    MAX_WEIGHTS,
    MODEL_KINDS,
    ConfigError,
    ExperimentSpec,
    build_problem,
    parse_config,
)
from fnsm.data import MAX_CELLS, MAX_CLASSES, Dataset, save_csv, synth_gaussian_mixture
from fnsm.federation import ALGORITHMS, MAX_CLIENTS, FedConfig
from fnsm.metrics import read_surface

QUAD_CFG = """\
# tiny deterministic quadratic experiment
model.kind = quadratic
model.quad_dim = 4
fed.algorithm = fedavg
fed.n_clients = 6
fed.participation = 6
fed.rounds = 8
fed.local_steps = 1
fed.lr = 0.4
fed.lr_decay = 1.0
fed.rho = 0.0
run.seeds = 1
run.eval_every = 2
"""

MIX_CFG = """\
data.kind = synthetic
data.classes = 3
data.dim = 4
data.n = 120
data.spread = 0.7
data.alpha = 0.3
model.kind = mlp
model.hidden = 6
fed.algorithm = fednsam
fed.n_clients = 5
fed.participation = 2
fed.rounds = 6
fed.local_steps = 4
fed.batch_size = 8
fed.lr = 0.1
run.seeds = 7
run.eval_every = 2
run.checkpoint_every = 3
"""


# config_hash of these texts, computed before the key table was merged
PINNED_HASHES = [
    (QUAD_CFG, "69752fb5db4fc538ec6ca7cf18a5df3be79c1c25dce47f6ada8ac7800d8a7cd0"),
    (MIX_CFG, "95570acf7c4bef263bc258a2e6620dd39d2f940707c9c2d1d0fffbbc59e92175"),
    ("run.seeds = 1\n", "2c8510f7adaa727322da57cf1ff02c2f7754b7eaab79c8c5d556d1110d99c048"),
    (
        MIX_CFG.replace("data.kind = synthetic", "data.kind = csv\ndata.csv_path = /data/mix.csv"),
        "4538cf8eb243afd53882ef79af07f8e03e4bff6104acd2bcea0342ce713bc266",
    ),
]


# every key whose value is read as a float, straight from the key table
FLOAT_KEYS = [
    key for key, (attr, _) in fnsm.config._KEYS.items()
    if type(fnsm.config._get(ExperimentSpec(), attr)) is float
]


def finite(lo, hi=1e6, **kw):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False, **kw)


# text a `key = value` line carries as it is: no comment sign, nothing
# str.splitlines breaks a line at, nothing strip() removes at either end
TEXT = st.text(
    st.characters(codec="utf-8", exclude_categories=("Cc", "Zl", "Zp"), exclude_characters="#")
).map(str.strip)

# every value a key of each type can take, by the type of the key's default
TYPE_VALUES = {
    bool: st.booleans(),
    int: st.integers(-(2**63), 2**63 - 1),  # what OTHER_TYPE's np.int64 holds
    float: st.floats(allow_nan=False, allow_infinity=False),
    str: TEXT,
    tuple: st.lists(st.integers(), unique=True).map(tuple),
}

# another Python type for each default's type, holding the same value
OTHER_TYPE = {bool: int, int: np.int64, float: np.float64, str: np.str_, tuple: list}


@st.composite
def specs(draw):
    """Valid specs; checkpoint_every stays default, being undumped."""
    n_clients = draw(st.integers(1, 50))
    classes = draw(st.integers(2, 20))
    dim = draw(st.integers(1, 1000))
    full_flatness, track_flatness = draw(st.booleans()), draw(st.booleans())
    hidden_cap = 512
    if full_flatness and track_flatness:  # an evaluation round holds n_clients mlps
        hidden_cap = min(hidden_cap, MAX_HELD_WEIGHTS // (n_clients * (dim + classes)))
    fed = FedConfig(
        algorithm=draw(st.sampled_from(ALGORITHMS)),
        n_clients=n_clients,
        participation=draw(st.integers(1, n_clients)),
        rounds=draw(st.integers(1, 10**6)),
        local_steps=draw(st.integers(1, 100)),
        batch_size=draw(st.integers(1, 512)),
        lr0=draw(finite(0.0, exclude_min=True)),
        lr_decay=draw(finite(0.0, 1.0, exclude_min=True)),
        rho=draw(finite(0.0)),
        momentum=draw(finite(0.0, 1.0, exclude_max=True)),
        extrapolate=draw(st.booleans()),
        eval_every=draw(st.integers(1, 1000)),
        track_flatness=track_flatness,
        track_sharpness=draw(st.booleans()),
        track_grad_norm=draw(st.booleans()),
        full_flatness=full_flatness,
        metric_rho=draw(finite(0.0, exclude_min=True)),
        track_wall_time=draw(st.booleans()),
    )
    data_kind = draw(st.sampled_from(DATA_KINDS))
    path = TEXT.filter(bool)
    return ExperimentSpec(
        fed=fed,
        data_kind=data_kind,
        classes=classes,
        dim=dim,
        n_samples=draw(st.integers(classes, min(10**6, MAX_CELLS // dim))),
        spread=draw(finite(0.0, exclude_min=True)),
        csv_path=draw(path) if data_kind == "csv" else "",
        alpha=draw(finite(0.0, exclude_min=True)),
        test_fraction=draw(finite(0.0, 1.0, exclude_min=True, exclude_max=True)),
        model_kind=draw(st.sampled_from(MODEL_KINDS)),
        hidden=draw(st.integers(1, hidden_cap)),
        quad_dim=draw(st.integers(1, 100)),
        seeds=tuple(draw(st.lists(st.integers(0, 2**63), min_size=1, max_size=4, unique=True))),
        out_dir=draw(path),
    )


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def csv_config(tmp_path, ds=None):
    """MIX_CFG reading a saved CSV (by default of the same mixture) instead of generating it."""
    data = tmp_path / "mix.csv"
    save_csv(synth_gaussian_mixture(3, 4, 120, 0.7, seed=7) if ds is None else ds, data)
    text = MIX_CFG.replace("data.kind = synthetic", f"data.kind = csv\ndata.csv_path = {data}")
    return write(tmp_path, "csv.cfg", text)


def run_child(*argv):
    """``python -m fnsm.cli *argv`` in a child process that must finish within 2 s,
    so a size that is not checked shows as a timeout, not as a hung suite."""
    src = str(pathlib.Path(fnsm.cli.__file__).parents[1])
    return subprocess.run(
        [sys.executable, "-m", "fnsm.cli", *argv],
        capture_output=True, text=True, timeout=2, env={**os.environ, "PYTHONPATH": src},
    )


class TestParsing:
    def test_defaults_desk_scale(self, tmp_path):
        spec = parse_config(write(tmp_path, "min.cfg", "run.seeds = 1\n"))
        f = spec.fed
        assert (f.n_clients, f.participation, f.local_steps, f.batch_size) == (20, 2, 20, 32)
        assert (f.lr0, f.lr_decay, f.rho, f.momentum, f.rounds) == (0.1, 0.998, 0.1, 0.85, 300)

    def test_unknown_key_names_line(self, tmp_path):
        p = write(tmp_path, "bad.cfg", "fed.lr = 0.1\nfed.gamma = 2\n")
        with pytest.raises(ConfigError, match=":2"):
            parse_config(p)

    def test_bad_value_names_line(self, tmp_path):
        p = write(tmp_path, "bad.cfg", "fed.rounds = soon\n")
        with pytest.raises(ConfigError, match=":1"):
            parse_config(p)

    def test_non_finite_value_names_line_and_key(self, tmp_path):
        p = write(tmp_path, "bad.cfg", "fed.rounds = 3\nfed.lr = nan\n")
        with pytest.raises(ConfigError, match=r":2: fed.lr = 'nan': expected a finite number"):
            parse_config(p)

    @pytest.mark.parametrize("attr", ["spread", "alpha", "test_fraction"])
    def test_nan_fails_spec_validation(self, attr):
        with pytest.raises(ConfigError, match=f"data.{attr}"):
            replace(ExperimentSpec(), **{attr: float("nan")}).validate()

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(tmp_path / "absent.cfg")

    def test_overrides_and_validation(self, tmp_path):
        p = write(tmp_path, "q.cfg", QUAD_CFG)
        spec = parse_config(p, ["fed.rounds=3", "fed.lr=0.2"])
        assert spec.fed.rounds == 3 and spec.fed.lr0 == 0.2
        with pytest.raises(ConfigError, match="participation"):
            parse_config(p, ["fed.participation=9"])
        with pytest.raises(ConfigError):
            parse_config(p, ["fed.rounds"])

    def test_key_set_twice_names_key_and_both_lines(self, tmp_path):
        p = write(tmp_path, "twice.cfg", "fed.rounds = 3\nfed.lr = 0.1\nfed.rounds = 4\n")
        with pytest.raises(ConfigError, match=r":3: fed.rounds is already set on line 1"):
            parse_config(p)

    def test_set_then_out_and_seeds_override_the_file(self, tmp_path):
        p = write(tmp_path, "q.cfg", QUAD_CFG + "run.out = here\n")
        args = fnsm.cli.build_parser().parse_args(
            ["compare", "--config", p, "--algos", "fedavg", "--set", "fed.rounds=5",
             "--set", "fed.rounds=6", "--set", "run.seeds=4", "--set", "run.out=there",
             "--seeds", "2,3", "--out", "elsewhere"]
        )
        spec = fnsm.cli._parse(args)
        assert spec.fed.rounds == 6
        assert spec.seeds == (2, 3)
        assert spec.out_dir == "elsewhere"

    def test_removed_threads_key_names_line(self, tmp_path):
        p = write(tmp_path, "old.cfg", "fed.lr = 0.1\nrun.threads = 2\n")
        with pytest.raises(ConfigError, match=r":2: unknown key 'run.threads'"):
            parse_config(p)

    def test_hash_ignores_plumbing_keys(self, tmp_path):
        p = write(tmp_path, "q.cfg", QUAD_CFG)
        a = parse_config(p)
        b = parse_config(p, ["run.out=elsewhere", "run.checkpoint_every=2"])
        c = parse_config(p, ["fed.lr=0.3"])
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != c.config_hash()

    @pytest.mark.parametrize("text, digest", PINNED_HASHES)
    def test_hash_pinned(self, tmp_path, text, digest):
        assert parse_config(write(tmp_path, "p.cfg", text)).config_hash() == digest

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(spec=specs())
    def test_resolved_lines_roundtrip_property(self, tmp_path, spec):
        spec.validate()
        dump = [*spec.resolved_lines(), f"run.out = {spec.out_dir}"]
        back = parse_config(write(tmp_path, "dump.cfg", "\n".join(dump) + "\n"))
        assert back == spec
        assert back.config_hash() == spec.config_hash()

    @pytest.mark.parametrize("key", sorted(fnsm.config._KEYS))
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_each_key_reads_back_what_its_writer_wrote(self, key, data):
        kind = type(fnsm.config._get(ExperimentSpec(), fnsm.config._KEYS[key][0]))
        read, write_value, _ = fnsm.config._KEY_TYPES[key]
        value = data.draw(TYPE_VALUES[kind])
        text = write_value(value)
        assert text == text.strip() and "#" not in text and len(text.splitlines()) <= 1
        assert write_value(OTHER_TYPE[kind](value)) == text
        back = read(text)
        assert type(back) is kind and back == value

    @pytest.mark.parametrize("kw", [
        dict(alpha=np.float64(0.1)),
        dict(fed=FedConfig(extrapolate=1)),
        dict(seeds=[1]),
        dict(seeds=(np.int64(1),)),
        dict(classes=np.int64(10), fed=FedConfig(n_clients=np.int64(20))),
        dict(spread=1),
        dict(fed=FedConfig(track_wall_time=np.False_, full_flatness=0)),
    ], ids=["np_float64", "int_for_bool", "list_seeds", "np_int64_seeds", "np_int64",
            "int_for_float", "np_bool_and_int_for_bool"])
    def test_a_value_dumps_and_hashes_as_itself_whatever_its_type(self, kw):
        spec, default = ExperimentSpec(**kw), ExperimentSpec()
        assert spec.resolved_lines() == default.resolved_lines()
        assert spec.config_hash() == default.config_hash() == PINNED_HASHES[2][1]

    @pytest.mark.parametrize("kw", [
        dict(fed=FedConfig(eval_every=2.5)),
        dict(classes=10.0),
        dict(seeds=(1.5,)),
    ], ids=["float_eval_every", "integral_float_classes", "float_seed"])
    def test_a_non_integer_for_an_int_key_raises_instead_of_taking_another_hash(self, kw):
        with pytest.raises(TypeError):
            ExperimentSpec(**kw).config_hash()


DIVERGING_CFG = """\
model.kind = quadratic
fed.algorithm = fedavg
fed.n_clients = 4
fed.participation = 4
fed.rounds = 200
fed.local_steps = 1
fed.lr = 9.0
fed.lr_decay = 1.0
run.seeds = 1
run.eval_every = 50
"""

# one spec per ExperimentSpec.validate rejection, as overrides of MIX_CFG, and the key it names
REJECTED = [
    (["data.kind=parquet"], "data.kind"),
    (["model.kind=forest"], "model.kind"),
    (["data.kind=csv"], "data.csv_path"),
    (["data.classes=1"], "data.classes"),
    (["data.dim=0"], "data.dim"),
    (["data.n=2"], "data.n"),
    (["model.hidden=0"], "model.hidden"),
    (["model.kind=quadratic", "model.quad_dim=0"], "model.quad_dim"),
    (["run.seeds="], "run.seeds"),
    (["run.checkpoint_every=-1"], "run.checkpoint_every"),
    (["run.out="], "run.out"),
    (["data.alpha=1e308"], "data.alpha"),
    # FedConfig's checks, named by the key and not the attribute
    (["fed.algorithm=fedprox"], "fed.algorithm"),
    (["fed.participation=0"], "fed.participation"),
    (["fed.n_clients=1"], "fed.n_clients"),
    (["fed.rounds=0"], "fed.rounds"),
    (["fed.local_steps=0"], "fed.local_steps"),
    (["fed.batch_size=0"], "fed.batch_size"),
    (["fed.lr=-1"], "fed.lr "),
    (["fed.lr_decay=1.5"], "fed.lr_decay"),
    (["fed.rho=-1"], "fed.rho"),
    (["metrics.rho=0"], "metrics.rho"),
    (["fed.momentum=1"], "fed.momentum"),
    (["run.eval_every=0"], "run.eval_every"),
]


class TestValidation:
    @pytest.mark.parametrize("overrides, key", REJECTED, ids=[o[-1] for o, _ in REJECTED])
    def test_rejection_exits_2_naming_key(self, tmp_path, capsys, overrides, key):
        p = write(tmp_path, "m.cfg", MIX_CFG)
        args = [a for o in [f"run.out={tmp_path / 'out'}", *overrides] for a in ("--set", o)]
        assert main(["run", "--config", p, *args]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv, key",
        [
            (["compare", "--algos", "fedavg", "--seeds", "1,1"], "run.seeds"),
            (["run", "--set", "run.seeds=3,3"], "run.seeds"),
            (["compare", "--algos", "fedavg", "--seeds", ""], "run.seeds"),
            (["run", "--out", ""], "run.out"),
        ],
        ids=["repeated_seeds_flag", "repeated_seeds_set", "empty_seeds_flag", "empty_out_flag"],
    )
    def test_repeated_or_empty_flag_exits_2_naming_key(self, tmp_path, capsys, argv, key):
        p = write(tmp_path, "q.cfg", QUAD_CFG.replace("run.seeds = 1\n", "run.seeds = 1,2\n"))
        out = [] if "--out" in argv else ["--out", str(tmp_path / "out")]
        assert main([*argv, "--config", p, *out]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_repeated_seed_in_file_names_line(self, tmp_path):
        p = write(tmp_path, "q.cfg", "run.seeds = 3,1,3\n")
        with pytest.raises(ConfigError, match=r":1: run.seeds = '3,1,3'"):
            parse_config(p)


class TestCmdRun:
    def test_row_count_and_schema(self, tmp_path, capsys):
        p = write(tmp_path, "q.cfg", QUAD_CFG)
        assert main(["run", "--config", p, "--out", str(tmp_path / "out")]) == 0
        csv = tmp_path / "out" / "fedavg_seed1.csv"
        lines = csv.read_text().splitlines()
        assert lines[0].startswith("# fnsm ") and "config=sha256:" in lines[0]
        assert lines[1] == (
            "round,train_loss,test_accuracy,grad_norm_extrapolated,"
            "flatness_distance,global_sharpness,wall_time_ms"
        )
        assert len(lines) == 2 + 8  # header + one row per round

    def test_repeat_runs_byte_identical(self, tmp_path):
        p = write(tmp_path, "m.cfg", MIX_CFG)
        main(["run", "--config", p, "--out", str(tmp_path / "a")])
        main(["run", "--config", p, "--out", str(tmp_path / "b")])
        a = (tmp_path / "a" / "fednsam_seed7.csv").read_bytes()
        b = (tmp_path / "b" / "fednsam_seed7.csv").read_bytes()
        assert a == b

    def test_key_set_twice_exits_2_naming_it(self, tmp_path, capsys):
        p = write(tmp_path, "q.cfg", QUAD_CFG + "fed.rounds = 4\n")
        assert main(["run", "--config", p, "--out", str(tmp_path / "o")]) == 2
        assert "fed.rounds is already set on line 7" in capsys.readouterr().err

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        p = write(tmp_path, "q.cfg", QUAD_CFG)
        code = main(["run", "--config", p, "--set", "fed.participation=9",
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "participation" in capsys.readouterr().err

    def test_divergence_exits_3(self, tmp_path, capsys):
        p = write(tmp_path, "q.cfg", QUAD_CFG)
        code = main(["run", "--config", p, "--set", "fed.lr=200", "--set",
                     "fed.local_steps=50", "--out", str(tmp_path / "out")])
        assert code == 3
        err = capsys.readouterr().err
        assert "round" in err and "client" in err and "step" in err

    def test_divergence_at_the_last_round_exits_3_without_csv(self, tmp_path, capsys):
        # theta stays finite (about 1e122), but its loss and gradient norm overflow
        p = write(tmp_path, "d.cfg", DIVERGING_CFG)
        assert main(["run", "--config", p, "--out", str(tmp_path / "out")]) == 3
        assert "non-finite train_loss at round 199" in capsys.readouterr().err
        assert list((tmp_path / "out").iterdir()) == []

    def test_diverged_run_leaves_no_csv_or_checkpoint(self, tmp_path, capsys):
        p = write(tmp_path, "d.cfg", DIVERGING_CFG + "run.checkpoint_every = 20\n")
        out = tmp_path / "out"
        assert main(["run", "--config", p, "--set", "fed.lr=0.5", "--out", str(out)]) == 0
        assert sorted(f.name for f in out.iterdir()) == ["fedavg_seed1.ckpt", "fedavg_seed1.csv"]
        # checkpoints every 20 rounds, diverges at round 199; neither its own
        # checkpoint nor the earlier run's files at the same path remain
        assert main(["run", "--config", p, "--out", str(out)]) == 3
        assert "non-finite train_loss at round 199" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_earlier_runs_of_a_diverging_sweep_keep_their_files(self, tmp_path, capsys):
        # over 150 rounds seed 1 stays finite and seed 6 diverges at round 149
        p = write(tmp_path, "d.cfg", DIVERGING_CFG + "run.checkpoint_every = 20\n")
        out = tmp_path / "out"
        code = main(["compare", "--config", p, "--set", "fed.rounds=150", "--algos", "fedavg",
                     "--seeds", "1,6", "--out", str(out)])
        assert code == 3
        assert "non-finite train_loss at round 149" in capsys.readouterr().err
        assert sorted(f.name for f in out.iterdir()) == ["fedavg_seed1.ckpt", "fedavg_seed1.csv"]

    def test_diverging_compare_leaves_no_earlier_summary(self, tmp_path, capsys):
        p = write(tmp_path, "d.cfg", DIVERGING_CFG)
        out = tmp_path / "out"
        args = ["compare", "--config", p, "--algos", "fedavg", "--out", str(out)]
        assert main(args + ["--set", "fed.lr=0.5"]) == 0
        assert (out / "summary.csv").exists()
        assert main(args) == 3
        assert "non-finite train_loss at round 199" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_softmax_run_and_surface(self, tmp_path):
        from fnsm.federation import load_checkpoint
        from fnsm.metrics import population_loss

        cfg = write(tmp_path, "s.cfg", MIX_CFG.replace("model.kind = mlp", "model.kind = softmax"))
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        evaluated = [r for r in read_records(out / "fednsam_seed7.csv") if r.train_loss is not None]
        assert len(evaluated) == 3
        for r in evaluated:
            for v in (r.train_loss, r.test_accuracy, r.grad_norm_extrapolated,
                      r.flatness_distance, r.global_sharpness):
                assert np.isfinite(v)
        ckpt = out / "fednsam_seed7.ckpt"
        assert main(["surface", "--config", cfg, "--ckpt", str(ckpt),
                     "--range", "0.5", "--res", "5", "--out", str(out)]) == 0
        values, _, _ = read_surface(out / "surface.txt")
        spec = parse_config(cfg)
        clients, _, model = build_problem(spec.for_run("fednsam", 7))
        assert type(model).__name__ == "SoftmaxLinear"
        state = load_checkpoint(ckpt, spec.fed)
        assert values[2, 2] == population_loss(clients, state.theta)

    def test_single_class_csv_exits_2_naming_file(self, tmp_path, capsys):
        mix = synth_gaussian_mixture(3, 4, 120, 0.7, seed=7)
        p = csv_config(tmp_path, Dataset(mix.features, np.zeros(mix.n, dtype=np.int64), 3))
        assert main(["run", "--config", p, "--out", str(tmp_path / "out")]) == 2
        assert str(tmp_path / "mix.csv") in capsys.readouterr().err

    def test_test_split_taking_every_sample_exits_2_naming_key(self, tmp_path, capsys):
        p = write(tmp_path, "m.cfg", MIX_CFG)
        assert main(["run", "--config", p, "--set", "data.n=3", "--set", "data.test_fraction=0.9",
                     "--out", str(tmp_path / "out")]) == 2
        assert "data.test_fraction" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides", [
        ["data.kind=csv", "data.csv_path={tmp}/missing.csv"],  # fails reading the dataset
        ["data.n=3", "data.test_fraction=0.9"],  # fails building the problem
    ], ids=["missing dataset", "empty training split"])
    def test_failed_run_leaves_no_earlier_csv_or_checkpoint(self, tmp_path, capsys, overrides):
        p = write(tmp_path, "m.cfg", MIX_CFG)
        out = tmp_path / "out"
        assert main(["run", "--config", p, "--out", str(out)]) == 0
        assert sorted(f.name for f in out.iterdir()) == ["fednsam_seed7.ckpt", "fednsam_seed7.csv"]
        args = [a for kv in overrides for a in ("--set", kv.format(tmp=tmp_path))]
        assert main(["run", "--config", p, *args, "--out", str(out)]) == 2
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("value", ["nan", "inf", "1e308"])
    def test_spread_giving_non_finite_data_exits_2_naming_key(self, tmp_path, capsys, value):
        p = write(tmp_path, "m.cfg", MIX_CFG)
        assert main(["run", "--config", p, "--set", f"data.spread={value}",
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "data.spread" in err and "RuntimeWarning" not in err

    def test_float_keys_found(self):
        assert {"fed.lr", "data.alpha", "metrics.rho"} <= set(FLOAT_KEYS)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_non_finite_float_exits_2_naming_key(self, tmp_path, capsys, key, value):
        p = write(tmp_path, "m.cfg", MIX_CFG)
        assert main(["run", "--config", p, "--set", f"{key}={value}",
                     "--out", str(tmp_path / "out")]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_internal_value_error_propagates(self, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("internal fault")

        monkeypatch.setattr(fnsm.cli, "run_experiment", broken)
        p = write(tmp_path, "q.cfg", QUAD_CFG)
        with pytest.raises(ValueError, match="internal fault"):
            main(["run", "--config", p, "--out", str(tmp_path / "out")])

    def test_one_csv_per_seed(self, tmp_path):
        p = write(tmp_path, "q.cfg", QUAD_CFG)
        main(["run", "--config", p, "--set", "run.seeds=1,2,3", "--out", str(tmp_path / "out")])
        names = sorted(f.name for f in (tmp_path / "out").iterdir())
        assert names == ["fedavg_seed1.csv", "fedavg_seed2.csv", "fedavg_seed3.csv"]


class TestCmdCompare:
    def test_summary_shape_and_recompute(self, tmp_path):
        p = write(tmp_path, "m.cfg", MIX_CFG)
        out = tmp_path / "cmp"
        code = main(["compare", "--config", p, "--algos", "fedavg,fedsam,fednsam",
                     "--seeds", "1,2", "--out", str(out)])
        assert code == 0
        lines = (out / "summary.csv").read_text().splitlines()
        assert len(lines) == 2 + 3  # hash line, header, one row per algorithm
        # means must equal an independent aggregation over the per-seed CSVs
        for row in lines[2:]:
            cells = row.split(",")
            algo = cells[0]
            per_seed = []
            for seed in (1, 2):
                recs = read_records(out / f"{algo}_seed{seed}.csv")
                vals = [r.flatness_distance for r in recs if r.flatness_distance is not None]
                per_seed.append(np.mean(vals[-20:]))
            assert float(cells[3]) == pytest.approx(np.mean(per_seed), rel=1e-12)
            assert float(cells[4]) == pytest.approx(np.std(per_seed), rel=1e-9)

    def test_single_seed_std_is_zero(self, tmp_path):
        p = write(tmp_path, "q.cfg", QUAD_CFG)
        out = tmp_path / "cmp"
        main(["compare", "--config", p, "--algos", "fedavg", "--seeds", "1", "--out", str(out)])
        row = (out / "summary.csv").read_text().splitlines()[2].split(",")
        assert row[0] == "fedavg"
        assert row[1] == "" and row[2] == ""  # no accuracy for quadratics
        assert float(row[4]) == 0.0 and float(row[6]) == 0.0

    def test_outputs_match_run_and_read_csv_once(self, tmp_path, monkeypatch):
        p = csv_config(tmp_path)
        loads = []
        real_load = fnsm.config.load_csv
        monkeypatch.setattr(fnsm.config, "load_csv", lambda path: loads.append(path) or real_load(path))
        assert main(["compare", "--config", p, "--algos", "fedsam,fednsam",
                     "--seeds", "1,2", "--out", str(tmp_path / "cmp")]) == 0
        assert len(loads) == 1  # one read shared by all four runs
        for algo in ("fedsam", "fednsam"):
            out = tmp_path / f"run_{algo}"
            assert main(["run", "--config", p, "--set", f"fed.algorithm={algo}",
                         "--set", "run.seeds=1,2", "--out", str(out)]) == 0
            for seed in (1, 2):
                for ext in ("csv", "ckpt"):
                    name = f"{algo}_seed{seed}.{ext}"
                    assert (tmp_path / "cmp" / name).read_bytes() == (out / name).read_bytes(), name
        assert len(loads) == 3  # and one per run command

    def test_summary_hash_follows_seeds_flag(self, tmp_path):
        p = write(tmp_path, "q.cfg", QUAD_CFG)
        out = tmp_path / "cmp"
        assert main(["compare", "--config", p, "--algos", "fedavg", "--seeds", "2,3",
                     "--out", str(out)]) == 0
        stamp = (out / "summary.csv").read_text().splitlines()[0]
        assert stamp.endswith(f"config=sha256:{parse_config(p, ['run.seeds=2,3']).config_hash()}")
        assert parse_config(p).config_hash() not in stamp

    def test_bad_seeds_flag_names_key(self, tmp_path, capsys):
        p = write(tmp_path, "q.cfg", QUAD_CFG)
        assert main(["compare", "--config", p, "--algos", "fedavg", "--seeds", "x",
                     "--out", str(tmp_path / "x")]) == 2
        assert "run.seeds" in capsys.readouterr().err

    def test_unknown_algorithm_exits_2(self, tmp_path, capsys):
        p = write(tmp_path, "q.cfg", QUAD_CFG)
        assert main(["compare", "--config", p, "--algos", "fedprox",
                     "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize(
        "algos, named",
        [("", "--algos"), (" , ", "--algos"), ("fedavg,fedavg", "'fedavg' twice")],
        ids=["empty", "blank", "repeated"],
    )
    def test_empty_or_repeated_algos_exit_2_naming_them(self, tmp_path, capsys, algos, named):
        p = write(tmp_path, "q.cfg", QUAD_CFG)
        out = tmp_path / "x"
        assert main(["compare", "--config", p, "--algos", algos, "--out", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()  # nothing ran and no summary was written


class TestCmdSurface:
    def setup_ckpt(self, tmp_path):
        cfg = write(tmp_path, "m.cfg", MIX_CFG)
        out = tmp_path / "out"
        main(["run", "--config", cfg, "--out", str(out)])
        return cfg, str(out / "fednsam_seed7.ckpt"), out

    def test_grid_roundtrip_and_center(self, tmp_path):
        cfg, ckpt, out = self.setup_ckpt(tmp_path)
        code = main(["surface", "--config", cfg, "--ckpt", ckpt,
                     "--range", "0.5", "--res", "5", "--out", str(out)])
        assert code == 0
        values, span, res = read_surface(out / "surface.txt")
        assert (span, res) == (0.5, 5)
        # center cell equals the training-population loss at the checkpoint
        from fnsm.federation import load_checkpoint
        from fnsm.metrics import population_loss

        spec = parse_config(cfg)
        clients, _, _ = build_problem(spec.for_run("fednsam", 7))
        state = load_checkpoint(ckpt, spec.fed)
        assert values[2, 2] == pytest.approx(population_loss(clients, state.theta), abs=1e-10)

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda b: b"XXXX" + b[4:],
            lambda b: b[:4] + struct.pack("<I", 9) + b[8:],
            lambda b: b[:-8],
            lambda b: b[:10],
            lambda b: b[:8] + struct.pack("<I", 2**32 - 1) + b[12:],
        ],
        ids=["magic", "version", "truncated", "truncated_header", "round_past_fed_rounds"],
    )
    def test_bad_checkpoint_exits_2_naming_it(self, tmp_path, capsys, corrupt):
        cfg, ckpt, out = self.setup_ckpt(tmp_path)
        bad = tmp_path / "bad.ckpt"
        with open(ckpt, "rb") as f:
            bad.write_bytes(corrupt(f.read()))
        assert main(["surface", "--config", cfg, "--ckpt", str(bad),
                     "--range", "0.5", "--res", "5", "--out", str(out)]) == 2
        assert f"--ckpt {bad}:" in capsys.readouterr().err

    @pytest.mark.parametrize("vector, value", [(0, "nan"), (1, "inf"), (2, "-inf")],
                             ids=["theta_nan", "momentum_inf", "last_delta_-inf"])
    def test_non_finite_checkpoint_exits_2_naming_it(self, tmp_path, capsys, vector, value):
        cfg, ckpt, out = self.setup_ckpt(tmp_path)
        with open(ckpt, "rb") as f:
            blob = bytearray(f.read())
        (d,) = struct.unpack_from("<Q", blob, 12)
        struct.pack_into("<d", blob, 20 + 8 * d * vector + 8, float(value))
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(bytes(blob))
        assert main(["surface", "--config", cfg, "--ckpt", str(bad),
                     "--range", "0.5", "--res", "5", "--out", str(out)]) == 2
        assert f"--ckpt {bad}:" in capsys.readouterr().err
        assert not (out / "surface.txt").exists()

    def test_overflowing_range_exits_2_naming_ckpt_and_range(self, tmp_path, capsys):
        cfg, ckpt, out = self.setup_ckpt(tmp_path)
        assert main(["surface", "--config", cfg, "--ckpt", ckpt,
                     "--range", "1e308", "--res", "5", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"--ckpt {ckpt}" in err and "--range" in err
        assert not (out / "surface.txt").exists()

    @pytest.mark.parametrize("bad", ["ckpt", "range"])
    def test_failure_removes_an_earlier_surface(self, tmp_path, capsys, bad):
        cfg, ckpt, out = self.setup_ckpt(tmp_path)
        args = ["surface", "--config", cfg, "--res", "5", "--out", str(out)]
        assert main(args + ["--ckpt", ckpt, "--range", "0.5"]) == 0
        assert (out / "surface.txt").exists()
        if bad == "ckpt":
            args += ["--ckpt", cfg, "--range", "0.5"]  # not a checkpoint file
        else:
            args += ["--ckpt", ckpt, "--range", "1e308"]  # a non-finite surface
        assert main(args) == 2
        assert not (out / "surface.txt").exists()

    @pytest.mark.parametrize("span", ["nan", "inf", "0"])
    def test_bad_range_exits_2(self, tmp_path, capsys, span):
        cfg, ckpt, out = self.setup_ckpt(tmp_path)
        assert main(["surface", "--config", cfg, "--ckpt", ckpt,
                     "--range", span, "--res", "5", "--out", str(out)]) == 2
        assert "--range" in capsys.readouterr().err
        assert not (out / "surface.txt").exists()

    def test_even_resolution_exits_2(self, tmp_path, capsys):
        cfg, ckpt, out = self.setup_ckpt(tmp_path)
        assert main(["surface", "--config", cfg, "--ckpt", ckpt,
                     "--range", "0.5", "--res", "4", "--out", str(out)]) == 2

    def test_dimension_mismatch_exits_2(self, tmp_path, capsys):
        cfg, ckpt, out = self.setup_ckpt(tmp_path)
        code = main(["surface", "--config", cfg, "--set", "model.hidden=9",
                     "--ckpt", ckpt, "--range", "0.5", "--res", "5", "--out", str(out)])
        assert code == 2
        assert "dimension" in capsys.readouterr().err


class TestCmdPartition:
    def test_prints_histograms(self, tmp_path, capsys):
        p = write(tmp_path, "m.cfg", MIX_CFG)
        assert main(["partition", "--config", p]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].startswith("client")
        assert len(lines) == 2 + 5  # comment, header, one row per client
        totals = [int(ln.split()[1]) for ln in lines[2:]]
        assert sum(totals) == 96  # 120 samples minus the 20% test split

    def test_more_clients_than_samples_prints_empty_shards(self, tmp_path, capsys):
        p = write(tmp_path, "m.cfg", MIX_CFG)
        assert main(["partition", "--config", p, "--set", "fed.n_clients=100"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2 + 100
        totals = [int(ln.split()[1]) for ln in lines[2:]]
        assert 0 in totals
        assert sum(totals) == 96

    def test_csv_histograms_match_generated_data(self, tmp_path, capsys):
        assert main(["partition", "--config", write(tmp_path, "m.cfg", MIX_CFG)]) == 0
        generated = capsys.readouterr().out
        assert main(["partition", "--config", csv_config(tmp_path)]) == 0
        assert capsys.readouterr().out == generated

    def test_quadratic_config_rejected(self, tmp_path):
        p = write(tmp_path, "q.cfg", QUAD_CFG)
        assert main(["partition", "--config", p]) == 2

    def test_rows_are_the_shards_the_run_trains_on(self, tmp_path, capsys):
        p = write(tmp_path, "m.cfg", MIX_CFG)
        assert main(["partition", "--config", p, "--set", "run.seeds=3,4"]) == 0
        rows = [[int(v) for v in ln.split()] for ln in capsys.readouterr().out.splitlines()[2:]]
        clients, _, _ = build_problem(parse_config(p).for_run("fednsam", 3))
        assert rows == [
            [c.client_id, len(c.labels), *np.bincount(c.labels, minlength=3)] for c in clients
        ]

    @pytest.mark.parametrize("n_clients", [MAX_CLIENTS + 1, 10**11], ids=["cap_plus_one", "1e11"])
    def test_client_count_past_the_cap_exits_2_naming_key(self, tmp_path, n_clients):
        p = write(tmp_path, "m.cfg", MIX_CFG)
        done = run_child("partition", "--config", p, "--set", f"fed.n_clients={n_clients}")
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr == f"error: fed.n_clients must be <= {MAX_CLIENTS}\n"

    def test_the_cap_itself_is_legal(self):
        FedConfig(n_clients=MAX_CLIENTS).validate()
        with pytest.raises(ValueError, match="n_clients"):
            FedConfig(n_clients=MAX_CLIENTS + 1).validate()


# (config, command line after --config, what the error must name); MIX_CFG has
# data.n = 120, data.dim = 4, data.classes = 3, and QUAD_CFG fed.n_clients = 6
PAST_A_CAP = {
    "classes": (MIX_CFG, ["partition", "--set", f"data.classes={MAX_CLASSES + 1}",
                          "--set", f"data.n={MAX_CLASSES + 1}"], "data.classes"),
    "classes_1e11": (MIX_CFG, ["partition", "--set", "data.classes=100000000000",
                               "--set", "data.n=100000000000"], "data.classes"),
    "n": (MIX_CFG, ["partition", "--set", f"data.n={MAX_CELLS // 4 + 1}"], "data.n"),
    "n_1e11": (MIX_CFG, ["partition", "--set", "data.n=100000000000"], "data.n"),
    "dim": (MIX_CFG, ["partition", "--set", f"data.dim={MAX_CELLS // 120 + 1}"], "data.dim"),
    "dim_1e11": (MIX_CFG, ["partition", "--set", "data.dim=100000000000"], "data.dim"),
    "hidden": (MIX_CFG, ["run", "--set", f"model.hidden={MAX_WEIGHTS // 7 + 1}"], "model.hidden"),
    "hidden_1e11": (MIX_CFG, ["run", "--set", "model.hidden=100000000000"], "model.hidden"),
    "quad_dim": (QUAD_CFG, ["run", "--set", f"model.quad_dim={math.isqrt(MAX_QUAD_CELLS // 6) + 1}"],
                 "model.quad_dim"),
    "quad_dim_1e8": (QUAD_CFG, ["run", "--set", "model.quad_dim=100000000"], "model.quad_dim"),
    "res": (MIX_CFG, ["surface", "--ckpt", "none.ckpt", "--range", "1", "--res", str(MAX_RES + 2)],
            "--res"),
    "res_100001": (MIX_CFG, ["surface", "--ckpt", "none.ckpt", "--range", "1", "--res", "100001"],
                   "--res"),
}


class TestSizeCaps:
    """Every size a user sets is bounded before anything of that size is made."""

    @pytest.mark.parametrize("case", PAST_A_CAP)
    def test_one_past_a_cap_exits_2_naming_it(self, tmp_path, case):
        text, argv, named = PAST_A_CAP[case]
        done = run_child(argv[0], "--config", write(tmp_path, "c.cfg", text),
                         "--out", str(tmp_path / "out"), *argv[1:])
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
        assert named in done.stderr

    @pytest.mark.parametrize("command", ["partition", "run"])
    def test_a_label_past_the_class_cap_exits_2_naming_its_line(self, tmp_path, command):
        data = tmp_path / "mix.csv"
        data.write_text("0.0,1.0,0\n1.0,0.0,999999999999\n0.0,0.0,1\n1.0,1.0,0\n")
        text = MIX_CFG.replace("data.kind = synthetic", f"data.kind = csv\ndata.csv_path = {data}")
        done = run_child(command, "--config", write(tmp_path, "c.cfg", text),
                         "--out", str(tmp_path / "out"))
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr.startswith(f"error: {data}:2: label out of range")

    @pytest.mark.parametrize("sets, named", [
        # 101 clients * 9901 classes = MAX_CLIENT_CLASSES + 1
        (["fed.n_clients=101", "data.classes=9901", "data.n=9901"],
         ("fed.n_clients", "data.classes")),
        # 11 clients of a one-unit mlp on 909088 features and 3 classes, 909091 weights
        # each: 11 * 909091 = MAX_HELD_WEIGHTS + 1
        (["fed.n_clients=11", "model.hidden=1", "data.dim=909088", "data.n=10",
          "metrics.full_flatness=true"], ("fed.n_clients", "metrics.full_flatness")),
    ], ids=["client_classes", "held_weights"])
    def test_one_past_a_product_cap_exits_2_naming_both_keys(self, tmp_path, sets, named):
        assert (101 * 9901, 11 * 909091) == (MAX_CLIENT_CLASSES + 1, MAX_HELD_WEIGHTS + 1)
        done = run_child("run", "--config", write(tmp_path, "c.cfg", MIX_CFG),
                         "--out", str(tmp_path / "out"), *(a for kv in sets for a in ("--set", kv)))
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
        assert all(key in done.stderr for key in named)

    @pytest.mark.parametrize("classes, sets, named", [
        # 101 clients * 9901 classes = MAX_CLIENT_CLASSES + 1
        (9901, ["fed.n_clients=101"], ("fed.n_clients", "data.csv_path")),
        # 4 features and 3 classes: 11 clients of 7 * 129871 weights
        (3, ["fed.n_clients=11", "model.hidden=129871", "metrics.full_flatness=true"],
         ("fed.n_clients", "metrics.full_flatness")),
    ], ids=["client_classes", "held_weights"])
    def test_a_csv_past_a_product_cap_exits_2_naming_both_keys(self, tmp_path, classes, sets,
                                                                named):
        ds = Dataset(np.zeros((2, 4)), np.array([0, classes - 1]), classes)
        done = run_child("run", "--config", csv_config(tmp_path, ds),
                         "--out", str(tmp_path / "out"), *(a for kv in sets for a in ("--set", kv)))
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
        assert all(key in done.stderr for key in named)

    def test_a_csv_whose_model_is_past_the_weight_cap_exits_2_naming_hidden(self, tmp_path):
        p = csv_config(tmp_path)  # 4 features, 3 classes
        done = run_child("partition", "--config", p, "--set", f"model.hidden={MAX_WEIGHTS // 7 + 1}")
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr.startswith("error: the mlp model would have 1000006 weights")
        assert "model.hidden" in done.stderr

    @pytest.mark.parametrize(
        "kw",
        [
            dict(classes=MAX_CLASSES, n_samples=MAX_CLASSES),
            dict(n_samples=MAX_CELLS // 4, dim=4, classes=3),
            dict(dim=5, classes=3, hidden=MAX_WEIGHTS // 8),
            dict(model_kind="softmax", n_samples=1000, dim=10_000, classes=100),
            dict(model_kind="quadratic", quad_dim=1000, fed=FedConfig(n_clients=10)),
            dict(model_kind="quadratic", quad_dim=10, fed=FedConfig(n_clients=MAX_CLIENTS)),
            dict(classes=MAX_CLASSES, n_samples=MAX_CLASSES,
                 fed=FedConfig(n_clients=MAX_CLIENT_CLASSES // MAX_CLASSES)),
            dict(classes=MAX_CLIENT_CLASSES // MAX_CLIENTS, fed=FedConfig(n_clients=MAX_CLIENTS)),
            dict(dim=97, classes=3, n_samples=1000, hidden=MAX_WEIGHTS // 100,
                 fed=FedConfig(n_clients=MAX_HELD_WEIGHTS // MAX_WEIGHTS, full_flatness=True)),
            dict(model_kind="softmax", dim=100, classes=100, n_samples=1000,
                 fed=FedConfig(n_clients=MAX_HELD_WEIGHTS // 10**4, full_flatness=True)),
            # past MAX_HELD_WEIGHTS, but no round holds every client's model
            dict(dim=909088, classes=3, n_samples=10, hidden=1, fed=FedConfig(n_clients=11)),
            dict(dim=909088, classes=3, n_samples=10, hidden=1,
                 fed=FedConfig(n_clients=11, full_flatness=True, track_flatness=False)),
        ],
        ids=["classes", "cells", "weights", "softmax_weights", "quad_cells",
             "quad_clients", "client_classes", "client_classes_max_clients", "held_weights",
             "held_softmax_weights", "held_weights_full_flatness_off",
             "held_weights_flatness_off"],
    )
    def test_a_size_at_its_cap_is_legal(self, kw):
        ExperimentSpec(**kw).validate()  # only validated: nothing of that size is made

    def test_the_finest_surface_grid_is_legal(self, tmp_path, capsys):
        # the resolution passes, so the command goes on to the missing checkpoint
        p = write(tmp_path, "m.cfg", MIX_CFG)
        assert main(["surface", "--config", p, "--ckpt", str(tmp_path / "none.ckpt"),
                     "--range", "1", "--res", str(MAX_RES), "--out", str(tmp_path)]) == 2
        assert "none.ckpt" in capsys.readouterr().err


class TestReadRecords:
    HEAD = "# fnsm 0.1.0 config=sha256:00\n" + fnsm.cli.CSV_COLUMNS + "\n"

    def test_roundtrip_of_a_run(self, tmp_path):
        p = write(tmp_path, "q.cfg", QUAD_CFG)
        assert main(["run", "--config", p, "--out", str(tmp_path / "out")]) == 0
        recs = read_records(tmp_path / "out" / "fedavg_seed1.csv")
        assert [r.round for r in recs] == list(range(8))
        assert [r.train_loss is not None for r in recs] == [False, True] * 4

    @pytest.mark.parametrize(
        "row, what",
        [
            ("3,0.5,,,", "expected 7 cells, found 5"),  # short: once padded with None
            ("3,0.5,,,,,,9.0", "expected 7 cells, found 8"),  # long: once truncated
            ("3,0.5,abc,,,,", "a cell is not a number"),
            ("3.5,0.5,,,,,", "a cell is not a number"),  # the round is an integer
        ],
    )
    def test_bad_row_names_path_and_line(self, tmp_path, row, what):
        p = tmp_path / "bad.csv"
        p.write_text(self.HEAD + "0,1.0,,,,,\n\n# a comment\n" + row + "\n")
        with pytest.raises(ValueError, match=f"^{p}:6: {what}$"):
            read_records(p)

    @pytest.mark.parametrize("text", ["", "# only a comment\n", "round,train_loss\n0,1.0\n"])
    def test_missing_or_wrong_header_rejected(self, tmp_path, text):
        p = tmp_path / "bad.csv"
        p.write_text(text)
        with pytest.raises(ValueError, match="unexpected CSV header"):
            read_records(p)
