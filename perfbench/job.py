"""One job of a workload, run in its own process: python3 job.py SPEC REPORT.

SPEC is a JSON file naming the fnsm source tree, the job kind and its
arguments; REPORT is where this process writes its phase times (and, when
traced, its per-layer metrics) as JSON. Times are seconds from just
before ``import fnsm``, so set-up counts the import, as it does for a
user. The only change made to fnsm when untraced is one marker around
each ``run_experiment`` the job calls, which records when the training
phase starts and ends; ``setup_only`` stops the job at the first of them.

Job kinds:
  cli        runs each argv of ``commands`` through ``fnsm.cli.main``
  quadratic  runs ``fnsm.federation.run_experiment`` on the ensemble file
             for each algorithm, and reports the final parameters
"""

import json
import sys
import time
import traceback

from tracer import Tracer


class SetupDone(Exception):
    """Raised at the first round of a setup-only job."""


def main(spec_path: str, report_path: str) -> int:
    with open(spec_path) as f:
        spec = json.load(f)
    sys.path.insert(0, spec["src"])
    report = {"ok": False, "windows": [], "exit_codes": []}
    t0 = time.perf_counter()

    def now():
        return time.perf_counter() - t0

    try:
        import fnsm
        import fnsm.cli
        import fnsm.federation

        report["import_s"] = now()
        tracer = None
        if spec["trace"]:
            tracer = Tracer()
            tracer.install(fnsm)
        _mark_training(fnsm.cli, report, now, spec["setup_only"])
        _mark_training(fnsm.federation, report, now, spec["setup_only"])
        try:
            if spec["kind"] == "cli":
                for argv in spec["commands"]:
                    report["exit_codes"].append(fnsm.cli.main(argv))
            else:
                report["quadratic"] = _quadratic(fnsm, spec)
        except SetupDone:
            pass
        report["end_s"] = now()
        if tracer is not None:
            tracer.restore()
            report["layers"] = tracer.layer_metrics()
        report["ok"] = all(code == 0 for code in report["exit_codes"])
    finally:
        with open(report_path, "w") as f:
            json.dump(report, f)
    return 0 if report["ok"] else 1


def _mark_training(module, report, now, setup_only) -> None:
    """Record (start, end, rounds) of every run_experiment looked up in module."""
    inner = getattr(module, "run_experiment", None)
    if inner is None:
        return

    def run_experiment(*args, **kwargs):
        start = now()
        if setup_only:
            report["windows"].append([start, start, 0])
            raise SetupDone
        result = inner(*args, **kwargs)
        report["windows"].append([start, now(), len(result[0])])
        return result

    module.run_experiment = run_experiment


def _quadratic(fnsm, spec) -> dict:
    import numpy as np

    with open(spec["ensemble"]) as f:
        ens = json.load(f)
    ensemble = [
        fnsm.Quadratic(np.diag(a), c) for a, c in zip(ens["curvatures"], ens["centres"])
    ]
    q = spec["quadratic"]
    out = {}
    for algorithm in q["algorithms"]:
        cfg = fnsm.FedConfig(
            algorithm=algorithm,
            n_clients=len(ensemble),
            participation=len(ensemble),
            rounds=q["rounds"],
            local_steps=1,
            lr0=q["lr"],
            lr_decay=1.0,
            rho=0.0,
            momentum=q["momentum"],
            seed=q["seed"],
            eval_every=q["rounds"],
            track_flatness=False,
            track_sharpness=False,
            track_grad_norm=False,
        )
        records, state = fnsm.federation.run_experiment(cfg, fnsm.quadratic_clients(ensemble))
        out[algorithm] = {
            "theta": state.theta.tolist(),
            "train_loss": records[-1].train_loss,
            "rounds": len(records),
        }
    return out


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1], sys.argv[2]))
    except Exception:
        traceback.print_exc()
        sys.exit(1)
