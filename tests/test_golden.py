"""Golden output digests: the sha256 of every byte the CLI writes for fixed inputs.

The inputs: an MLP compare over all six algorithms on generated data and
on the same data read from a CSV file, the ``partition`` command's
standard output for that file, a quadratic compare at full participation
and a loss-surface slice.

The promise they pin: a seed fixes every output bit for one numpy
build, one BLAS build and one BLAS kernel. A DYNAMIC_ARCH OpenBLAS
picks its kernel at load time, and kernels round differently, so the
digests name the setup they were pinned on, and a mismatch reports both
setups.

A change that claims to keep outputs bit-identical passes this test
unchanged. A change that moves the reference on purpose updates
``GOLDEN`` and ``FLOATS`` in the same diff and says how large the move is.

``FLOATS`` is the kernel-independent tier: a few float results of the
same runs (``float_values``), each output's values within a relative
1e-12 of the pinned ones, normwise. Under another kernel
(``OPENBLAS_CORETYPE=Haswell``, Sandybridge or Nehalem) 37 of the 41
digests move while these values move by at most 6e-16, and the tier is
rerun under Haswell in a child process. A relative 1e-9 change of
``fed.lr`` moves every value by 1.2e-10 to 2.4e-9, past the tier. A
one-ulp change of ``fed.lr`` moves 40 of the digests but these values by
at most 6e-16, the size of kernel drift: so the digests, not the floats,
are what catch a change that small.

``PYTHONPATH=src python tests/test_golden.py`` prints the current
digests, float values and setup in ``GOLDEN``'s and ``FLOATS``' layout.
"""

import contextlib
import ctypes
import glob
import hashlib
import io
import os
import pathlib
import platform
import subprocess
import sys

import numpy as np
import pytest

from fnsm.cli import main
from fnsm.data import save_csv, synth_gaussian_mixture
from fnsm.federation import ALGORITHMS, FedConfig, load_checkpoint
from fnsm.metrics import read_surface

ALGOS = ",".join(ALGORITHMS)

# 5 of 20 clients per round, every metric and full flatness on, periodic checkpoints
MLP_CFG = """\
data.kind = synthetic
data.classes = 4
data.dim = 6
data.n = 600
data.spread = 1.0
data.alpha = 0.3
model.kind = mlp
model.hidden = 8
fed.n_clients = 20
fed.participation = 5
fed.rounds = 30
fed.local_steps = 4
fed.batch_size = 8
fed.lr = 0.1
fed.rho = 0.1
fed.momentum = 0.85
metrics.flatness = true
metrics.sharpness = true
metrics.grad_norm = true
metrics.full_flatness = true
run.seeds = 3
run.eval_every = 5
run.checkpoint_every = 10
"""

# MLP_CFG reading its mixture from a CSV file; the path is hashed into every
# output's provenance line, so it is relative to the working directory
CSV_CFG = MLP_CFG.replace("data.kind = synthetic", "data.kind = csv\ndata.csv_path = mix.csv")

# full participation on data-free clients
QUAD_CFG = """\
model.kind = quadratic
model.quad_dim = 5
fed.n_clients = 8
fed.participation = 8
fed.rounds = 40
fed.local_steps = 3
fed.lr = 0.2
fed.rho = 0.05
metrics.full_flatness = true
run.seeds = 2
run.eval_every = 4
run.checkpoint_every = 20
"""

PINNED_ON = {
    "platform": "Linux x86_64, Python 3.11.7",
    "numpy": "2.4.6",
    "blas": "scipy-openblas 0.3.31.188.0",
    "kernel": "SkylakeX",
}

GOLDEN = {
    "mlp/fedavg_seed3.ckpt": "4a7a641eedee21ad20ac447ecf3a9b46fe920c5d9f1fae9ecbe3b2940171e1c4",
    "mlp/fedavg_seed3.csv": "082e44b93b809be3353fdfb19b6970bc7b31289a630f05c3339423afd31db432",
    "mlp/fedavgm_seed3.ckpt": "f565b7cd3ac0e957bd44037100605f18dc2578511fd39fdeeac78f49f73ebde5",
    "mlp/fedavgm_seed3.csv": "aeecbb55af4e716d6a5a3cadc7ee16bf3371c95d349d3e8d9f493b03ad749560",
    "mlp/fedlesam_seed3.ckpt": "010b7d4b4b82fd318668fbac1790f6b4f438a8a845583a5554d76bd2e2a06eb1",
    "mlp/fedlesam_seed3.csv": "8cdf3b486f83dec8f1aa52ec9cabbbef1190e55efa4262bd6198406ba72f7264",
    "mlp/fednsam_seed3.ckpt": "7aa9c4cb68876c478fe54b4fab3ed78b86cefcaa4b9de982f27a319ac1378755",
    "mlp/fednsam_seed3.csv": "ba4c54cd23777d823d127dd0283927993187af6c358dd4ee1d22bd8b92ea7d8f",
    "mlp/fedsam_seed3.ckpt": "bd4bf65f09fb29867064640947ca473182953ad71b67bfd6fa529056aa44eba8",
    "mlp/fedsam_seed3.csv": "e9932cf7a876c227303c48995949d9f757fdacf86e7f4a953863b76a36ee68a5",
    "mlp/mofedsam_seed3.ckpt": "4aebf0e8c1b540b13ca6d8867eb30cad17767546365b5041cad7bb097f8a8df2",
    "mlp/mofedsam_seed3.csv": "5e74ccb31a78d639cd8019fe0fe489c57b2d657eacc6f5ed902b6aeefb72bd93",
    "mlp/summary.csv": "3af5c894d919dc5272be474daf00b17513bfc0b5444b276677bfceb7592cf3fb",
    "csv/fedavg_seed3.ckpt": "4a7a641eedee21ad20ac447ecf3a9b46fe920c5d9f1fae9ecbe3b2940171e1c4",
    "csv/fedavg_seed3.csv": "da27d684b4d03f2f77317348f11666848a7f1bbcb18a764915b5dcaef8bde6db",
    "csv/fedavgm_seed3.ckpt": "f565b7cd3ac0e957bd44037100605f18dc2578511fd39fdeeac78f49f73ebde5",
    "csv/fedavgm_seed3.csv": "405c82f159bd43e2855415a7c7b759603a845c7aaf6f5e33c69166651965bd5e",
    "csv/fedlesam_seed3.ckpt": "010b7d4b4b82fd318668fbac1790f6b4f438a8a845583a5554d76bd2e2a06eb1",
    "csv/fedlesam_seed3.csv": "7237518815d744a81eea0680f8c83cdeb119d5372d79d596f908814495fdb562",
    "csv/fednsam_seed3.ckpt": "7aa9c4cb68876c478fe54b4fab3ed78b86cefcaa4b9de982f27a319ac1378755",
    "csv/fednsam_seed3.csv": "b879584601b686537268cc5cc67677f55714531747ecf89a10849587e87dcce8",
    "csv/fedsam_seed3.ckpt": "bd4bf65f09fb29867064640947ca473182953ad71b67bfd6fa529056aa44eba8",
    "csv/fedsam_seed3.csv": "62ed873b1904b3384ff84295e653d0e984a19439f51673036984ac3b578c389c",
    "csv/mofedsam_seed3.ckpt": "4aebf0e8c1b540b13ca6d8867eb30cad17767546365b5041cad7bb097f8a8df2",
    "csv/mofedsam_seed3.csv": "4327035fb6548aee304ab3412ab617cf513aefdb423a0ee44997cecd109352dc",
    "csv/summary.csv": "a117f3450707fd15e02dcf88e5c46bf20a57bcddcbeba35932d8936d7adc4aed",
    "partition/stdout": "8f829b4cf0b4610b2f3a1f6939ba001129fe15fd0d07dbf3d7ae3c62f598dcf2",
    "quad/fedavg_seed2.ckpt": "e3b8e4cb8ce4617258ac5131329ba9ba27cef061d1f3926b077f2d91dcb097c9",
    "quad/fedavg_seed2.csv": "2afaf2acbbdebb0d1349dbd55ecebe75352c8f9b6d2b3d2ea608cd7241f19fea",
    "quad/fedavgm_seed2.ckpt": "5e5592d05ed8eac48e105c4bb0c578c4bd91db29e240f96521a93ac9fc016df6",
    "quad/fedavgm_seed2.csv": "f4058a7ae320589dbef0008c3179b72f114875dba74ecd5f102c5feb11fcf8aa",
    "quad/fedlesam_seed2.ckpt": "569c41f5aa61382a63664d7984fb14f0df6178030a07b181f57aae86f2ded1c2",
    "quad/fedlesam_seed2.csv": "dbab3e86ad13d93d42db114877194d025569a9f8cc94562d716e90786aa619eb",
    "quad/fednsam_seed2.ckpt": "b2f59db4d8c9fb1f17a6c8cc20cd5f41d483b27a37d722be60ec25ca16bd0da8",
    "quad/fednsam_seed2.csv": "b6ce499c0b026e6b26c23c86fbac885042bc397bc5c0884774d635e3ba5ba6a2",
    "quad/fedsam_seed2.ckpt": "aa9cb656a94adee7161913f6785d9600fe13b42fb02b032233bcd330ac1fbc05",
    "quad/fedsam_seed2.csv": "d20ac40343ef9ec8f971ed5280a6ed8c4e0081c14e5fcfce6dbb607efe02c5a7",
    "quad/mofedsam_seed2.ckpt": "4eeffd6fa7815b998a5e899d782cc322bc21df85bc603ec207c0252ec82c12c3",
    "quad/mofedsam_seed2.csv": "5daa2d5d3efa4e6e794cde64382bf666f116a7eab3b1f23f4285a4cc7b760ef4",
    "quad/summary.csv": "f65a99e1bee6807efd7434abf0ca12a5ec4cb464f2a5a6c8ea0220cf6fbb531e",
    "surface/surface.txt": "41374fc89a6aa093505600714af33c64d4bf5a052196f9817de2091ebe86a0f3",
}


FLOATS = {
    "mlp/fedavg_seed3.ckpt": (3.6842091689429175, 0.0, 0.14360545821696835, -0.39707882086382706, 0.4821011148336885, -0.20495504427030242),
    "mlp/fedavgm_seed3.ckpt": (6.884240783506023, 0.2825601436998857, 0.1988562416291469, -0.47745753633913735, 0.6808446306954344, -0.4776924331597475),
    "mlp/fedlesam_seed3.ckpt": (3.726209282253506, 0.0, 0.14641818998790454, -0.3991477174645905, 0.4870759210754374, -0.21021760968448028),
    "mlp/fednsam_seed3.ckpt": (6.456952660371302, 0.25546489430566127, 0.17660439386171822, -0.5135303041184233, 0.6067893243615264, -0.42930222762978315),
    "mlp/fedsam_seed3.ckpt": (3.6882037024682144, 0.0, 0.16324048344686773, -0.4179564711034872, 0.5101958563704062, -0.23407206064167033),
    "mlp/mofedsam_seed3.ckpt": (7.177890168735836, 0.31561857636911905, 0.21065319915362002, -0.42278305440608854, 0.9673264621612485, -0.5881196738840102),
    "mlp/summary.csv fedavg": (0.7388888888888889, 0.0, 0.09297671488237182, 0.0, 0.031159322228932012, 0.0),
    "mlp/summary.csv fedavgm": (0.7513888888888888, 0.0, 0.07873285329792697, 0.0, 0.028302989825338548, 0.0),
    "mlp/summary.csv fedsam": (0.7347222222222222, 0.0, 0.1115025210352905, 0.0, 0.030805293007881856, 0.0),
    "mlp/summary.csv mofedsam": (0.7444444444444445, 0.0, 0.07171203461671645, 0.0, 0.02689627919993151, 0.0),
    "mlp/summary.csv fedlesam": (0.7347222222222222, 0.0, 0.09540457466305556, 0.0, 0.03129793752594828, 0.0),
    "mlp/summary.csv fednsam": (0.7541666666666668, 0.0, 0.07408449936164646, 0.0, 0.02539891721945332, 0.0),
    "csv/fedavg_seed3.ckpt": (3.6842091689429175, 0.0, 0.14360545821696835, -0.39707882086382706, 0.4821011148336885, -0.20495504427030242),
    "csv/fedavgm_seed3.ckpt": (6.884240783506023, 0.2825601436998857, 0.1988562416291469, -0.47745753633913735, 0.6808446306954344, -0.4776924331597475),
    "csv/fedlesam_seed3.ckpt": (3.726209282253506, 0.0, 0.14641818998790454, -0.3991477174645905, 0.4870759210754374, -0.21021760968448028),
    "csv/fednsam_seed3.ckpt": (6.456952660371302, 0.25546489430566127, 0.17660439386171822, -0.5135303041184233, 0.6067893243615264, -0.42930222762978315),
    "csv/fedsam_seed3.ckpt": (3.6882037024682144, 0.0, 0.16324048344686773, -0.4179564711034872, 0.5101958563704062, -0.23407206064167033),
    "csv/mofedsam_seed3.ckpt": (7.177890168735836, 0.31561857636911905, 0.21065319915362002, -0.42278305440608854, 0.9673264621612485, -0.5881196738840102),
    "csv/summary.csv fedavg": (0.7388888888888889, 0.0, 0.09297671488237182, 0.0, 0.031159322228932012, 0.0),
    "csv/summary.csv fedavgm": (0.7513888888888888, 0.0, 0.07873285329792697, 0.0, 0.028302989825338548, 0.0),
    "csv/summary.csv fedsam": (0.7347222222222222, 0.0, 0.1115025210352905, 0.0, 0.030805293007881856, 0.0),
    "csv/summary.csv mofedsam": (0.7444444444444445, 0.0, 0.07171203461671645, 0.0, 0.02689627919993151, 0.0),
    "csv/summary.csv fedlesam": (0.7347222222222222, 0.0, 0.09540457466305556, 0.0, 0.03129793752594828, 0.0),
    "csv/summary.csv fednsam": (0.7541666666666668, 0.0, 0.07408449936164646, 0.0, 0.02539891721945332, 0.0),
    "quad/fedavg_seed2.ckpt": (0.3206528903986749, 0.0, 0.00012741783166477646, 0.1573493628657059, 0.047689631960432084, 0.0455568519507126),
    "quad/fedavgm_seed2.ckpt": (0.32076865368267765, 0.021313437632239203, 0.008977311335038284, 0.17730593428075808, 0.044629358510850016, 0.04579001315560922),
    "quad/fedlesam_seed2.ckpt": (0.3157452765067617, 0.0, 0.02533502890603027, 0.1286403438278071, 0.05228049883042045, 0.05396732861656235),
    "quad/fednsam_seed2.ckpt": (0.3575477724991363, 0.043409319862637734, 0.02687019031616502, 0.21779162518602113, 0.04878463220217908, 0.03574131797535832),
    "quad/fedsam_seed2.ckpt": (0.31951823046105693, 0.0, 0.00012964625329597957, 0.15739003230011359, 0.048680169397428946, 0.047854460788554126),
    "quad/mofedsam_seed2.ckpt": (0.34261693346916977, 0.08484362083399342, 0.040672251578428464, 0.23943942410945876, 0.04862216421954563, 0.03896821588247176),
    "quad/summary.csv fedavg": (0.9021723004684098, 0.0, 0.011235447990509063, 0.0),
    "quad/summary.csv fedavgm": (0.9009797576514723, 0.0, 0.023694167689935552, 0.0),
    "quad/summary.csv fedsam": (0.9459170452509907, 0.0, 0.011089131931914898, 0.0),
    "quad/summary.csv mofedsam": (0.729324919885123, 0.0, 0.03209646192356974, 0.0),
    "quad/summary.csv fedlesam": (0.9023614089625716, 0.0, 0.011511623409596971, 0.0),
    "quad/summary.csv fednsam": (0.9008358553644392, 0.0, 0.01458567960352113, 0.0),
    "surface/centre": (0.42248209896915323,),
}


def blas_kernel() -> str:
    """The kernel numpy's OpenBLAS picked when it was loaded, or "unknown".

    A DYNAMIC_ARCH build picks one per CPU (``OPENBLAS_CORETYPE``
    overrides it), and kernels differ in the last bits of a float result.
    Opening the Linux wheel's bundled library again returns the loaded one.
    """
    for path in glob.glob(os.path.dirname(np.__file__) + ".libs/*openblas*"):
        try:
            corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return "unknown"


def current_setup() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy < 1.25 has no machine-readable config
        blas = "unknown"
    return {
        "platform": f"{platform.system()} {platform.machine()}, Python {platform.python_version()}",
        "numpy": np.__version__,
        "blas": blas,
        "kernel": blas_kernel(),
    }


def digests(out) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


def cli(tmp_path, name, text, *argv):
    cfg = tmp_path / name
    cfg.write_text(text)
    out = tmp_path / name.removesuffix(".cfg")
    assert main([argv[0], "--config", str(cfg), "--out", str(out), *argv[1:]]) == 0
    return out


def csv_outputs(tmp_path):
    """(the CSV-backed compare's output directory, the partition command's stdout)."""
    save_csv(synth_gaussian_mixture(4, 6, 600, 1.0, seed=3), tmp_path / "mix.csv")
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        out = cli(tmp_path, "csv.cfg", CSV_CFG, "compare", "--algos", ALGOS)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            cli(tmp_path, "partition.cfg", CSV_CFG, "partition")
    finally:
        os.chdir(cwd)
    return out, stdout.getvalue()


def runs(tmp_path) -> tuple[dict, str]:
    """(each golden run's output directory by name, the partition command's stdout)."""
    mlp = cli(tmp_path, "mlp.cfg", MLP_CFG, "compare", "--algos", ALGOS)
    csv, partition = csv_outputs(tmp_path)
    quad = cli(tmp_path, "quad.cfg", QUAD_CFG, "compare", "--algos", ALGOS)
    surface = cli(
        tmp_path, "surface.cfg", MLP_CFG, "surface", "--set", "fed.algorithm=fednsam",
        "--ckpt", str(mlp / "fednsam_seed3.ckpt"), "--range", "1.0", "--res", "9",
    )
    return {"mlp": mlp, "csv": csv, "quad": quad, "surface": surface}, partition


def outputs(dirs, partition) -> dict:
    got = {f"{name}/{k}": v for name, out in dirs.items() for k, v in digests(out).items()}
    got["partition/stdout"] = hashlib.sha256(partition.encode()).hexdigest()
    return got


def float_values(dirs) -> dict:
    """The float tier's values, by output.

    Per checkpoint: the norms of theta, momentum and last_delta, then
    theta's first three coordinates. Per row of a ``summary.csv``: every
    value. For the surface: the loss at the grid's centre.
    """
    got = {}
    for name, out in dirs.items():
        if name == "surface":
            values, _, res = read_surface(out / "surface.txt")
            got["surface/centre"] = (float(values[res // 2, res // 2]),)
            continue
        for path in sorted(out.glob("*.ckpt")):
            state = load_checkpoint(path, FedConfig())
            norms = (float(np.linalg.norm(v)) for v in (state.theta, state.momentum, state.last_delta))
            got[f"{name}/{path.name}"] = (*norms, *map(float, state.theta[:3]))
        for line in (out / "summary.csv").read_text().splitlines()[2:]:
            algo, *cells = line.split(",")
            got[f"{name}/summary.csv {algo}"] = tuple(float(c) for c in cells if c)
    return got


def float_mismatches(got: dict, want: dict) -> list[str]:
    """The outputs whose values are not within a relative 1e-12 of the pinned ones, normwise."""
    return sorted(
        k for k in want.keys() | got.keys()
        if k not in got or k not in want or len(got[k]) != len(want[k])
        or np.linalg.norm(np.subtract(got[k], want[k])) > 1e-12 * np.linalg.norm(want[k])
    )


@pytest.fixture(scope="module")
def golden(tmp_path_factory):
    return runs(tmp_path_factory.mktemp("golden"))


def test_every_output_byte_matches_the_golden_digests(golden):
    got = outputs(*golden)
    changed = sorted(k for k in GOLDEN.keys() | got.keys() if GOLDEN.get(k) != got.get(k))
    assert not changed, (
        f"{len(changed)} of {len(GOLDEN)} outputs differ: {changed}; "
        f"pinned on {PINNED_ON}, this run on {current_setup()}"
    )


def test_float_values_match_to_a_relative_1e_12(golden):
    changed = float_mismatches(float_values(golden[0]), FLOATS)
    assert not changed, (
        f"{len(changed)} of {len(FLOATS)} float outputs moved past 1e-12: {changed}; "
        f"pinned on {PINNED_ON}, this run on {current_setup()}"
    )


def test_float_tier_holds_under_another_blas_kernel():
    # the float tier in a child process whose OpenBLAS loads another kernel
    here = pathlib.Path(__file__)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{here}::test_float_values_match_to_a_relative_1e_12"],
        capture_output=True, text=True, timeout=120, cwd=here.parents[1],
        env={**os.environ, "OPENBLAS_CORETYPE": "Haswell"},
    )
    assert done.returncode == 0, done.stdout[-3000:]


def test_float_tier_fails_on_a_relative_1e_9_change_of_lr(tmp_path):
    text = QUAD_CFG.replace("fed.lr = 0.2", f"fed.lr = {0.2 * (1 + 1e-9)!r}")
    got = float_values({"quad": cli(tmp_path, "quad.cfg", text, "compare", "--algos", ALGOS)})
    assert float_mismatches(got, {k: v for k, v in FLOATS.items() if k.startswith("quad/")}) == sorted(got)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        with contextlib.redirect_stdout(sys.stderr):
            dirs, partition = runs(pathlib.Path(tmp))
        for key, value in outputs(dirs, partition).items():
            print(f'    "{key}": "{value}",')
        for key, values in float_values(dirs).items():
            print(f'    "{key}": {values!r},')
    print(current_setup())
