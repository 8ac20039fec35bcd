"""Command-line front end.

Subcommands: run (execute an experiment file, one CSV per seed),
compare (sweep algorithms x seeds and summarize the final window),
surface (slice the loss around a checkpointed model), partition
(print per-client class histograms).

Exit codes: 0 ok; 2 for bad input, that is a ConfigError (experiment
file, override, flag or checkpoint file), a DatasetFormatError (dataset
file), an OSError (a file that cannot be read or written) or a command
line argparse rejects; 3 for a DivergenceError (training went
non-finite). Any other exception is a bug and keeps its traceback.
"""

import argparse
import os
import sys

import numpy as np

from . import __version__
from .config import (
    ConfigError,
    ExperimentSpec,
    build_problem,
    client_data,
    parse_config,
    read_dataset,
)
from .data import Dataset, DatasetFormatError
from .federation import ALGORITHMS, RoundRecord, load_checkpoint, run_experiment
from .local import DivergenceError
from .metrics import loss_surface_slice, write_surface

CSV_COLUMNS = (
    "round,train_loss,test_accuracy,grad_norm_extrapolated,"
    "flatness_distance,global_sharpness,wall_time_ms"
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def write_records(path, records: list[RoundRecord], spec: ExperimentSpec) -> None:
    with open(path, "w", newline="\n") as f:
        f.write(f"# fnsm {__version__} config=sha256:{spec.config_hash()}\n")
        f.write(CSV_COLUMNS + "\n")
        for r in records:
            f.write(
                ",".join(
                    _cell(v)
                    for v in (
                        r.round,
                        r.train_loss,
                        r.test_accuracy,
                        r.grad_norm_extrapolated,
                        r.flatness_distance,
                        r.global_sharpness,
                        r.wall_time_ms,
                    )
                )
                + "\n"
            )


def read_records(path) -> list[RoundRecord]:
    """Parse a metrics CSV back; used by compare and by tests."""
    records = []
    with open(path) as f:
        lines = [ln for ln in f.read().splitlines() if ln and not ln.startswith("#")]
    if not lines or lines[0] != CSV_COLUMNS:
        raise ValueError(f"{path}: unexpected CSV header")
    for ln in lines[1:]:
        cells = ln.split(",")
        vals = [None if c == "" else float(c) for c in cells[1:]]
        records.append(RoundRecord(int(cells[0]), *vals))
    return records


def _run_one(
    spec: ExperimentSpec, algorithm: str, seed: int, out_dir: str, dataset: Dataset | None
) -> str:
    run_spec = spec.for_run(algorithm, seed)
    clients, eval_data, _ = build_problem(run_spec, seed, dataset)
    ckpt = None
    if spec.checkpoint_every > 0:
        ckpt = os.path.join(out_dir, f"{algorithm}_seed{seed}.ckpt")
    records, _ = run_experiment(
        run_spec.fed,
        clients,
        eval_data=eval_data,
        checkpoint_path=ckpt,
        checkpoint_every=spec.checkpoint_every,
    )
    path = os.path.join(out_dir, f"{algorithm}_seed{seed}.csv")
    write_records(path, records, run_spec)
    return path


def _parse(args) -> ExperimentSpec:
    """The experiment file with --set, then --out and --seeds, as overrides."""
    flags = [f"run.out={args.out}"] if args.out else []
    if getattr(args, "seeds", None):
        flags.append(f"run.seeds={args.seeds}")
    return parse_config(args.config, args.set + flags)


def cmd_run(args) -> int:
    spec = _parse(args)
    os.makedirs(spec.out_dir, exist_ok=True)
    dataset = read_dataset(spec)
    for seed in spec.seeds:
        path = _run_one(spec, spec.fed.algorithm, seed, spec.out_dir, dataset)
        print(path)
    return EXIT_OK


def final_window_mean(records: list[RoundRecord], metric: str, window: int = 20):
    """Mean of a metric over the last `window` evaluated rounds."""
    vals = [getattr(r, metric) for r in records if getattr(r, metric) is not None]
    if not vals:
        return None
    return float(np.mean(vals[-window:]))


def cmd_compare(args) -> int:
    spec = _parse(args)
    algos = [a.strip() for a in args.algos.split(",") if a.strip()]
    for a in algos:
        if a not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {a!r}")
    os.makedirs(spec.out_dir, exist_ok=True)
    dataset = read_dataset(spec)
    table = []
    for algo in algos:
        per_seed = {m: [] for m in ("test_accuracy", "flatness_distance", "global_sharpness")}
        for seed in spec.seeds:
            path = _run_one(spec, algo, seed, spec.out_dir, dataset)
            print(path)
            records = read_records(path)
            for m in per_seed:
                per_seed[m].append(final_window_mean(records, m))
        row = [algo]
        for m in ("test_accuracy", "flatness_distance", "global_sharpness"):
            vals = [v for v in per_seed[m] if v is not None]
            if vals:
                row += [repr(float(np.mean(vals))), repr(float(np.std(vals)))]
            else:
                row += ["", ""]
        table.append(row)
    path = os.path.join(spec.out_dir, "summary.csv")
    with open(path, "w", newline="\n") as f:
        f.write(f"# fnsm {__version__} config=sha256:{spec.config_hash()}\n")
        f.write(
            "algo,test_accuracy_mean,test_accuracy_std,"
            "flatness_distance_mean,flatness_distance_std,"
            "global_sharpness_mean,global_sharpness_std\n"
        )
        for row in table:
            f.write(",".join(row) + "\n")
    print(path)
    return EXIT_OK


def cmd_surface(args) -> int:
    spec = _parse(args)
    if args.res < 3 or args.res % 2 == 0:
        raise ConfigError("--res must be odd and >= 3")
    if args.range <= 0:
        raise ConfigError("--range must be positive")
    seed = spec.seeds[0]
    run_spec = spec.for_run(spec.fed.algorithm, seed)
    clients, _, model = build_problem(run_spec, seed)
    try:
        state = load_checkpoint(args.ckpt, run_spec.fed)
    except ValueError as exc:  # load_checkpoint raises it only for a malformed file
        raise ConfigError(f"--ckpt {exc}") from exc
    if state.theta.shape[0] != model.dim:
        raise ConfigError(
            f"checkpoint dimension {state.theta.shape[0]} does not match model dimension {model.dim}"
        )
    grid = loss_surface_slice(clients, state.theta, seed, args.range, args.res)
    os.makedirs(spec.out_dir, exist_ok=True)
    path = os.path.join(spec.out_dir, "surface.txt")
    write_surface(grid, path)
    print(path)
    return EXIT_OK


def cmd_partition(args) -> int:
    spec = _parse(args)
    if spec.model_kind == "quadratic":
        raise ConfigError("partition applies to dataset-backed experiments only")
    seed = spec.seeds[0]
    train, _, shards = client_data(spec, seed)
    print(f"# {train.n} training samples, {train.classes} classes, alpha={spec.alpha}, seed={seed}")
    header = "client  total  " + "  ".join(f"c{k}" for k in range(train.classes))
    print(header)
    for i, idx in enumerate(shards):
        counts = np.bincount(train.labels[idx], minlength=train.classes)
        print(f"{i:6d}  {len(idx):5d}  " + "  ".join(f"{c:>{len(f'c{k}')}d}" for k, c in enumerate(counts)))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="fnsm", description=__doc__.splitlines()[0])
    p.add_argument("--version", action="version", version=f"fnsm {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", required=True, help="experiment file")
        sp.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override a config key (repeatable)")
        sp.add_argument("--out", help="output directory (overrides run.out)")

    sp = sub.add_parser("run", help="execute the experiment for every seed")
    common(sp)
    sp.set_defaults(fn=cmd_run)

    sp = sub.add_parser("compare", help="sweep algorithms and summarize")
    common(sp)
    sp.add_argument("--algos", required=True, help="comma-separated algorithm names")
    sp.add_argument("--seeds", help="comma-separated seeds (defaults to run.seeds)")
    sp.set_defaults(fn=cmd_compare)

    sp = sub.add_parser("surface", help="loss-surface slice around a checkpoint")
    common(sp)
    sp.add_argument("--ckpt", required=True, help="checkpoint file")
    sp.add_argument("--range", type=float, required=True, help="half-width of the slice")
    sp.add_argument("--res", type=int, required=True, help="odd grid resolution")
    sp.set_defaults(fn=cmd_surface)

    sp = sub.add_parser("partition", help="print per-client class histograms")
    common(sp)
    sp.set_defaults(fn=cmd_partition)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, DatasetFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED


if __name__ == "__main__":
    sys.exit(main())
