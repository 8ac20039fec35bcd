"""Golden output digests: the sha256 of every byte the CLI writes for fixed inputs.

The inputs: an MLP compare over all six algorithms on generated data and
on the same data read from a CSV file, the ``partition`` command's
standard output for that file, a quadratic compare at full participation
and a loss-surface slice.

A change that claims to keep outputs bit-identical passes this test
unchanged. A change that moves the reference on purpose updates
``GOLDEN`` in the same diff and says how large the move is. Float
results depend on the platform, the BLAS build and the BLAS kernel that
build picks at load time, so the digests name the setup they were
pinned on, and a mismatch reports both setups.
``PYTHONPATH=src python tests/test_golden.py`` prints the current
digests and setup in ``GOLDEN``'s layout.
"""

import contextlib
import ctypes
import glob
import hashlib
import io
import os
import platform

import numpy as np

from fnsm.cli import main
from fnsm.data import save_csv, synth_gaussian_mixture
from fnsm.federation import ALGORITHMS

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


def outputs(tmp_path) -> dict:
    mlp = cli(tmp_path, "mlp.cfg", MLP_CFG, "compare", "--algos", ALGOS)
    csv, partition = csv_outputs(tmp_path)
    quad = cli(tmp_path, "quad.cfg", QUAD_CFG, "compare", "--algos", ALGOS)
    surface = cli(
        tmp_path, "surface.cfg", MLP_CFG, "surface", "--set", "fed.algorithm=fednsam",
        "--ckpt", str(mlp / "fednsam_seed3.ckpt"), "--range", "1.0", "--res", "9",
    )
    return {
        **{f"mlp/{k}": v for k, v in digests(mlp).items()},
        **{f"csv/{k}": v for k, v in digests(csv).items()},
        "partition/stdout": hashlib.sha256(partition.encode()).hexdigest(),
        **{f"quad/{k}": v for k, v in digests(quad).items()},
        **{f"surface/{k}": v for k, v in digests(surface).items()},
    }


def test_every_output_byte_matches_the_golden_digests(tmp_path):
    got = outputs(tmp_path)
    changed = sorted(k for k in GOLDEN.keys() | got.keys() if GOLDEN.get(k) != got.get(k))
    assert not changed, (
        f"{len(changed)} of {len(GOLDEN)} outputs differ: {changed}; "
        f"pinned on {PINNED_ON}, this run on {current_setup()}"
    )


if __name__ == "__main__":
    import contextlib
    import pathlib
    import sys
    import tempfile

    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(sys.stderr):
        got = outputs(pathlib.Path(tmp))
    for key, value in got.items():
        print(f'    "{key}": "{value}",')
    print(current_setup())
