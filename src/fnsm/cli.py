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

Outputs: every CSV opens with one provenance line, ``# fnsm <version>
config=sha256:<hash>``, then its column names (``_write_csv``). Stale
outputs are cleared through one helper (``_remove``): compare and surface
delete ``summary.csv`` and ``surface.txt`` once their arguments are
valid, so a failure leaves neither file from an earlier command, and a
run that diverges removes its own CSV and checkpoint (the runs before it
keep theirs).
"""

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import __version__
from .config import ConfigError, ExperimentSpec, build_problem, parse_config, read_dataset
from .data import DatasetFormatError
from .federation import ALGORITHMS, RoundRecord, load_checkpoint, run_experiment
from .local import DivergenceError
from .metrics import loss_surface_slice, write_surface

_FIELDS = tuple(f.name for f in dataclasses.fields(RoundRecord))
CSV_COLUMNS = ",".join(_FIELDS)
# final-window metrics that compare reports, as a mean and a std over seeds
SUMMARY_METRICS = ("test_accuracy", "flatness_distance", "global_sharpness")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _write_csv(path, spec: ExperimentSpec, rows) -> None:
    """The provenance line, then each row of cells (the column names first)."""
    with open(path, "w", newline="\n") as f:
        f.write(f"# fnsm {__version__} config=sha256:{spec.config_hash()}\n")
        for row in rows:
            f.write(",".join(row) + "\n")


def _remove(*paths) -> None:
    """Delete whichever of the paths exist (the output rule in the module docstring)."""
    for path in paths:
        if os.path.exists(path):
            os.remove(path)


def write_records(path, records: list[RoundRecord], spec: ExperimentSpec) -> None:
    _write_csv(path, spec, [_FIELDS] + [[_cell(getattr(r, n)) for n in _FIELDS] for r in records])


def read_records(path) -> list[RoundRecord]:
    """Parse a metrics CSV back into its records.

    Comment and blank lines are skipped. A row with too few or too many
    cells, or a cell that is not a number, raises ValueError naming
    ``path:line``.
    """
    records = []
    header = None
    with open(path) as f:
        for lineno, ln in enumerate(f.read().splitlines(), start=1):
            if not ln or ln.startswith("#"):
                continue
            if header is None:
                header = ln
                if ln != CSV_COLUMNS:
                    raise ValueError(f"{path}:{lineno}: unexpected CSV header")
                continue
            cells = ln.split(",")
            if len(cells) != len(_FIELDS):
                raise ValueError(
                    f"{path}:{lineno}: expected {len(_FIELDS)} cells, found {len(cells)}"
                )
            try:
                vals = [None if c == "" else float(c) for c in cells[1:]]
                records.append(RoundRecord(int(cells[0]), **dict(zip(_FIELDS[1:], vals))))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: a cell is not a number") from None
    if header is None:
        raise ValueError(f"{path}: unexpected CSV header")
    return records


def _sweep(spec: ExperimentSpec, algorithms: list[str]) -> list[list[list[RoundRecord]]]:
    """Run each (algorithm, seed) in order, writing and printing its CSV (and
    its checkpoint); return the records by algorithm, then seed. A run that
    diverges leaves neither file; the runs before it keep theirs."""
    os.makedirs(spec.out_dir, exist_ok=True)
    dataset = read_dataset(spec)
    by_algorithm = []
    for algorithm in algorithms:
        runs = []
        for seed in spec.seeds:
            run_spec = spec.for_run(algorithm, seed)
            clients, eval_data, _ = build_problem(run_spec, dataset)
            stem = os.path.join(spec.out_dir, f"{algorithm}_seed{seed}")
            try:
                records, _ = run_experiment(
                    run_spec.fed,
                    clients,
                    eval_data=eval_data,
                    checkpoint_path=stem + ".ckpt" if spec.checkpoint_every > 0 else None,
                    checkpoint_every=spec.checkpoint_every,
                )
            except DivergenceError:
                # a diverged run leaves no file to read, resume from or slice,
                # neither its own checkpoints nor an earlier run's files
                _remove(stem + ".csv", stem + ".ckpt")
                raise
            write_records(stem + ".csv", records, run_spec)
            print(stem + ".csv")
            runs.append(records)
        by_algorithm.append(runs)
    return by_algorithm


def _parse(args) -> ExperimentSpec:
    """The experiment file with --set, then --out and --seeds, as overrides."""
    flags = [f"run.out={args.out}"] if args.out is not None else []
    if getattr(args, "seeds", None) is not None:
        flags.append(f"run.seeds={args.seeds}")
    return parse_config(args.config, args.set + flags)


def cmd_run(args) -> int:
    spec = _parse(args)
    _sweep(spec, [spec.fed.algorithm])
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
    if not algos:
        raise ConfigError(f"--algos {args.algos!r}: name at least one algorithm")
    for i, a in enumerate(algos):
        if a not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {a!r}")
        if a in algos[:i]:
            raise ConfigError(f"--algos names {a!r} twice")
    path = os.path.join(spec.out_dir, "summary.csv")
    _remove(path)
    table = []
    for algo, runs in zip(algos, _sweep(spec, algos)):
        row = [algo]
        for m in SUMMARY_METRICS:
            vals = [v for v in (final_window_mean(r, m) for r in runs) if v is not None]
            if vals:
                row += [repr(float(np.mean(vals))), repr(float(np.std(vals)))]
            else:
                row += ["", ""]
        table.append(row)
    columns = ["algo"] + [f"{m}_{stat}" for m in SUMMARY_METRICS for stat in ("mean", "std")]
    _write_csv(path, spec, [columns] + table)
    print(path)
    return EXIT_OK


def cmd_surface(args) -> int:
    spec = _parse(args)
    if args.res < 3 or args.res % 2 == 0:
        raise ConfigError("--res must be odd and >= 3")
    if not 0 < args.range < float("inf"):
        raise ConfigError("--range must be positive and finite")
    path = os.path.join(spec.out_dir, "surface.txt")
    _remove(path)
    seed = spec.seeds[0]
    run_spec = spec.for_run(spec.fed.algorithm, seed)
    clients, _, model = build_problem(run_spec)
    try:
        state = load_checkpoint(args.ckpt, run_spec.fed)
    except ValueError as exc:  # load_checkpoint raises it only for a malformed file
        raise ConfigError(f"--ckpt {exc}") from exc
    if state.theta.shape[0] != model.dim:
        raise ConfigError(
            f"checkpoint dimension {state.theta.shape[0]} does not match model dimension {model.dim}"
        )
    # a range that overflows the loss is reported below, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        grid = loss_surface_slice(clients, state.theta, seed, args.range, args.res)
    if not np.isfinite(grid.values).all():
        raise ConfigError(
            f"--ckpt {args.ckpt} with --range {args.range!r}: the loss surface is non-finite"
        )
    os.makedirs(spec.out_dir, exist_ok=True)
    write_surface(grid, path)
    print(path)
    return EXIT_OK


def cmd_partition(args) -> int:
    spec = _parse(args)
    if spec.model_kind == "quadratic":
        raise ConfigError("partition applies to dataset-backed experiments only")
    seed = spec.seeds[0]
    clients, _, model = build_problem(spec.for_run(spec.fed.algorithm, seed))
    n = sum(len(c.labels) for c in clients)
    print(f"# {n} training samples, {model.classes} classes, alpha={spec.alpha}, seed={seed}")
    header = "client  total  " + "  ".join(f"c{k}" for k in range(model.classes))
    print(header)
    for c in clients:
        counts = np.bincount(c.labels, minlength=model.classes)
        print(f"{c.client_id:6d}  {len(c.labels):5d}  "
              + "  ".join(f"{count:>{len(f'c{k}')}d}" for k, count in enumerate(counts)))
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
