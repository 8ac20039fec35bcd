"""Throughput benchmark for fnsm.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the jobs import fnsm from
./src. Each job is its own process (perfbench/job.py), so set-up counts
the import and peak memory is the job's own. A run first sets up
SETUP_PROBES times (stopping at the first round), then runs whole jobs
until the next one would end after S seconds, and at least MIN_JOBS of
them. Every job's outputs are checked against perfbench/oracle.py; a job
that exits non-zero or fails a check counts as failed. The last line of
standard output is one JSON object: correct, attempted, failed and the
metrics, end-to-end ones with --trace 0 and per-layer ones with --trace 1.
See perfbench/README.md for the workloads and what each metric means.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

import inputs
import oracle
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_PROBES = 5
MIN_JOBS = 2
JOB_TIMEOUT_S = 60.0
# one BLAS thread per job: with two threads on two shared cores a
# threaded product waits for whichever core is busy elsewhere
JOB_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1")
RTOL = 1e-9  # far above float64 rounding, far below any modelling change
QUAD_TOL = 1e-9

E2E_UNITS = {"rounds_per_s": "1/s", "job_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "fnsm", "__init__.py")):
        print(f"error: no fnsm source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload not in inputs.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    seed = args.seed % 2**63
    work = os.path.join(HERE, "_work", f"{args.workload}-{os.getpid()}")
    try:
        result = _run(args.workload, seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run is still using it
    print(json.dumps(result))
    return 0


def _run(name, seed, seconds, trace, work) -> dict:
    w = inputs.WORKLOADS[name]
    inp = inputs.prepare(name, seed, work)
    checker = Checker(name, w, seed, inp)
    started = time.perf_counter()

    setups = []
    for k in range(SETUP_PROBES):
        job = _run_job(name, w, seed, inp, os.path.join(work, f"probe{k}"), False, True)
        if job["ok"]:
            setups.append(job["setup_s"])

    jobs = []
    while True:
        jobdir = os.path.join(work, f"job{len(jobs)}")
        job = _run_job(name, w, seed, inp, jobdir, trace, False)
        if job["ok"]:
            problems = checker.check(jobdir, job)
            for msg in problems:
                print(f"check failed, job {len(jobs)}: {msg}", file=sys.stderr)
            job["ok"] = not problems
        shutil.rmtree(jobdir, ignore_errors=True)
        jobs.append(job)
        elapsed = time.perf_counter() - started
        typical = statistics.median(j["wall_s"] for j in jobs)
        if len(jobs) >= MIN_JOBS and elapsed + typical > seconds:
            break

    good = [j for j in jobs if j["ok"]]
    setups += [j["setup_s"] for j in good]
    correct = bool(good)
    e2e = {}
    if good:
        e2e = {
            "rounds_per_s": statistics.median(j["rounds"] / j["train_s"] for j in good),
            "job_s": statistics.median(j["job_s"] for j in good),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(j["peak_rss_mb"] for j in good),
        }
    summary = ", ".join(f"{k}={v:.6g} {E2E_UNITS[k]}" for k, v in e2e.items())
    mode = "traced" if trace else "untraced"
    print(f"{name} seed={seed} {mode}: {len(jobs)} jobs, {len(jobs) - len(good)} failed, "
          f"{len(setups)} set-ups; {summary}")
    print("per job: rounds_per_s " + " ".join(f"{j['rounds'] / j['train_s']:.5g}" for j in good)
          + "; job_s " + " ".join(f"{j['job_s']:.5g}" for j in good)
          + "; set-up s " + " ".join(f"{s:.3g}" for s in setups))

    if trace:
        metrics = {}
        if good:
            for key in tracer.EXACT_METRICS:
                seen = {j["layers"][key] for j in good}
                if len(seen) > 1:
                    print(f"count {key} differs between jobs: {sorted(seen)}", file=sys.stderr)
                    correct = False
            metrics = {
                key: {"value": statistics.median(j["layers"][key] for j in good), "unit": unit}
                for key, unit in tracer.LAYER_METRICS.items()
            }
    else:
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()}
    return {"correct": correct, "attempted": len(jobs),
            "failed": len(jobs) - len(good), "metrics": metrics}


def _run_job(name, w, seed, inp, jobdir, trace, setup_only) -> dict:
    """Run one job process; return its phase times, peak memory and status."""
    os.makedirs(jobdir)
    spec = {"src": SRC, "trace": trace, "setup_only": setup_only}
    if name == "quadratic_oracle":
        spec.update(kind="quadratic", ensemble=inp["ensemble"], quadratic={
            "algorithms": list(w["algorithms"]), "rounds": w["rounds"],
            "lr": inp["lr"], "momentum": w["momentum"], "seed": seed})
    else:
        out = ["--config", inp["config"], "--out", jobdir]
        if name == "paper_sweep":
            commands = [["compare", *out, "--algos", ",".join(w["algorithms"])]]
        else:
            s = w["surface"]
            ckpt = os.path.join(jobdir, f"{w['algorithms'][0]}_seed{seed}.ckpt")
            commands = [["run", *out], ["surface", *out, "--ckpt", ckpt,
                                        "--range", repr(s["range"]), "--res", str(s["res"])]]
        spec.update(kind="cli", commands=commands)
    spec_path = os.path.join(jobdir, "spec.json")
    report_path = os.path.join(jobdir, "report.json")
    with open(spec_path, "w") as f:
        json.dump(spec, f)

    log_path = os.path.join(jobdir, "log.txt")
    with open(log_path, "w") as log:
        t = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "job.py"), spec_path, report_path],
            stdout=log, stderr=subprocess.STDOUT, cwd=jobdir, env=JOB_ENV,
        )
        sampler = TreeRss(proc.pid)
        watchdog = threading.Timer(JOB_TIMEOUT_S, _kill, (proc.pid,))
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
            sampler.stop()
        proc.returncode = os.waitstatus_to_exitcode(status)
        wall = time.perf_counter() - t

    job = {"ok": False, "wall_s": wall}
    try:
        with open(report_path) as f:
            report = json.load(f)
    except (OSError, ValueError):
        report = {}
    if proc.returncode != 0 or not report.get("ok"):
        with open(log_path) as f:
            tail = f.read()[-2000:]
        print(f"job in {jobdir} exited {proc.returncode}:\n{tail}", file=sys.stderr)
        return job
    windows = report["windows"]
    # a program that no longer calls run_experiment here: the whole command is training
    first = windows[0][0] if windows else report["import_s"]
    last = windows[-1][1] if windows else report["end_s"]
    job.update(
        ok=True,
        setup_s=first,
        job_s=report["end_s"] - first,
        train_s=last - first,
        peak_rss_mb=max(usage.ru_maxrss * 1024, sampler.peak) / 2**20,
        layers=report.get("layers"),
        quadratic=report.get("quadratic"),
    )
    return job


def _kill(pid) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class TreeRss:
    """Samples the summed resident memory of a process and its descendants."""

    def __init__(self, pid: int, interval: float = 0.05):
        self.pid = pid
        self.peak = 0
        self._done = threading.Event()
        self._thread = threading.Thread(target=self._loop, args=(interval,), daemon=True)
        self._thread.start()

    def _loop(self, interval) -> None:
        while not self._done.wait(interval):
            self.peak = max(self.peak, sum(_rss_bytes(p) for p in _tree(self.pid)))

    def stop(self) -> None:
        self._done.set()
        self._thread.join()


def _tree(pid: int) -> list[int]:
    out, todo = [], [pid]
    while todo:
        p = todo.pop()
        out.append(p)
        try:
            for tid in os.listdir(f"/proc/{p}/task"):
                with open(f"/proc/{p}/task/{tid}/children") as f:
                    todo.extend(int(c) for c in f.read().split())
        except OSError:
            pass
    return out


def _rss_bytes(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return 0


class Checker:
    """Checks one job's outputs against perfbench/oracle.py and the first job."""

    def __init__(self, name, w, seed, inp):
        self.name, self.w, self.seed, self.inp = name, w, seed, inp
        self.first_digests = None
        if name == "quadratic_oracle":
            self.minimiser = oracle.quadratic_minimiser(inp["curvatures"], inp["centres"])
            return
        from fnsm.data import Dataset, DirichletSpec, dirichlet_partition, train_test_split

        # the program's own split and partition of the generated rows
        ds = Dataset(inp["features"], inp["labels"], int(inp["labels"].max()) + 1)
        fed = inputs.FIGURE_FED
        train, test = train_test_split(ds, fed["data.test_fraction"], seed)
        shards = dirichlet_partition(train, DirichletSpec(w["alpha"], fed["fed.n_clients"], seed))
        self.shards = [(train.features[i], train.labels[i]) for i in shards]
        self.test = (test.features, test.labels)
        self.classes = ds.classes
        self.hidden = fed["model.hidden"]

    def check(self, jobdir, job) -> list[str]:
        problems, digests = [], {}
        if self.name == "quadratic_oracle":
            job["rounds"] = self._check_quadratic(job["quadratic"], problems, digests)
        else:
            job["rounds"] = self._check_cli(jobdir, problems, digests)
        if self.first_digests is None:
            self.first_digests = digests
        elif digests != self.first_digests:
            changed = sorted(k for k in digests if digests[k] != self.first_digests.get(k))
            problems.append(f"outputs differ from the first job of this run: {changed}")
        return problems

    def _check_quadratic(self, out, problems, digests) -> int:
        star = self.minimiser
        rounds = 0
        for algo in self.w["algorithms"]:
            res = out[algo]
            theta = np.array(res["theta"])
            rounds += res["rounds"]
            err = float(np.max(np.abs(theta - star)))
            if not err <= QUAD_TOL * max(1.0, float(np.max(np.abs(star)))):
                problems.append(f"{algo}: |theta - closed-form minimiser| = {err:.3g}")
            own = oracle.quadratic_mean_loss(theta, self.inp["curvatures"], self.inp["centres"])
            if res["train_loss"] is None or not oracle.close(own, res["train_loss"], RTOL):
                problems.append(f"{algo}: train_loss {res['train_loss']} vs recomputed {own!r}")
            if res["rounds"] != self.w["rounds"]:
                problems.append(f"{algo}: {res['rounds']} rounds, expected {self.w['rounds']}")
            digests[algo] = hashlib.sha256(theta.tobytes()).hexdigest()
        return rounds

    def _check_cli(self, jobdir, problems, digests) -> int:
        w = self.w
        n_test = len(self.test[1])
        rounds = 0
        theta = None
        for algo in w["algorithms"]:
            csv = os.path.join(jobdir, f"{algo}_seed{self.seed}.csv")
            ckpt = os.path.join(jobdir, f"{algo}_seed{self.seed}.ckpt")
            try:
                rows = oracle.read_records(csv)
                round_index, theta, _, _ = oracle.read_checkpoint(ckpt)
            except (OSError, ValueError) as exc:
                problems.append(f"{algo}: {exc}")
                continue
            rounds += len(rows)
            digests[os.path.basename(csv)] = _digest(csv)
            digests[os.path.basename(ckpt)] = _digest(ckpt)
            problems += [f"{algo}: {m}" for m in self._check_rows(rows)]
            if round_index != w["rounds"]:
                problems.append(f"{algo}: checkpoint at round {round_index}, expected {w['rounds']}")
            last = rows[-1] if rows else {}
            if last.get("train_loss") is None or last.get("test_accuracy") is None:
                problems.append(f"{algo}: last round has no train_loss/test_accuracy")
                continue
            own_loss = oracle.population_loss(theta, self.shards, self.hidden, self.classes)
            if not oracle.close(own_loss, last["train_loss"], RTOL):
                problems.append(f"{algo}: train_loss {last['train_loss']!r} vs recomputed {own_loss!r}")
            own_acc = oracle.mlp_accuracy(theta, *self.test, self.hidden, self.classes)
            if abs(own_acc - last["test_accuracy"]) > 1.0 / n_test + 1e-12:
                problems.append(f"{algo}: test_accuracy {last['test_accuracy']} vs recomputed {own_acc}")
            if not last["test_accuracy"] >= 5.0 / self.classes:
                problems.append(f"{algo}: test_accuracy {last['test_accuracy']} not well above chance")

        summary = os.path.join(jobdir, "summary.csv")
        if self.name == "paper_sweep":
            try:
                table = oracle.read_summary(summary)
            except (OSError, ValueError) as exc:
                problems.append(f"summary: {exc}")
            else:
                if list(table) != list(w["algorithms"]):
                    problems.append(f"summary rows {list(table)}")
                if not all(math.isfinite(v) for row in table.values() for v in row):
                    problems.append("summary has a non-finite value")
                digests["summary.csv"] = _digest(summary)

        if "surface" in w and theta is not None:
            path = os.path.join(jobdir, "surface.txt")
            try:
                values, span, res = oracle.read_surface(path)
            except (OSError, ValueError) as exc:
                problems.append(f"surface: {exc}")
            else:
                digests["surface.txt"] = _digest(path)
                if res != w["surface"]["res"] or span != w["surface"]["range"]:
                    problems.append(f"surface: res {res}, range {span}")
                if not np.isfinite(values).all():
                    problems.append("surface has a non-finite value")
                centre = float(values[res // 2, res // 2])
                own = oracle.population_loss(theta, self.shards, self.hidden, self.classes)
                if not oracle.close(centre, own, RTOL):
                    problems.append(f"surface centre {centre!r} vs population loss {own!r}")
        return rounds

    def _check_rows(self, rows) -> list[str]:
        w = self.w
        if [r["round"] for r in rows] != list(range(w["rounds"])):
            return [f"{len(rows)} rows, expected rounds 0..{w['rounds'] - 1}"]
        metric_keys = ("train_loss", "test_accuracy", "grad_norm_extrapolated",
                       "flatness_distance", "global_sharpness")
        out = []
        for r in rows:
            values = [r[k] for k in metric_keys]
            if r["wall_time_ms"] is not None:
                out.append(f"round {r['round']}: wall_time_ms recorded")
            if (r["round"] + 1) % w["eval_every"] == 0:
                if any(v is None or not math.isfinite(v) for v in values):
                    out.append(f"round {r['round']}: a metric is missing or non-finite: {values}")
                elif r["flatness_distance"] < 0:
                    out.append(f"round {r['round']}: flatness_distance {r['flatness_distance']} < 0")
            elif any(v is not None for v in values):
                out.append(f"round {r['round']}: metrics on a non-evaluation round")
        return out[:5]


def _digest(path) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


if __name__ == "__main__":
    sys.exit(main())
