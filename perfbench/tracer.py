"""Spans around calls into fnsm's public functions, and the per-layer report.

A span wraps one public function under the name its caller looks it up
by: ``federation.local_round`` is the ``local_round`` that
``run_experiment`` calls through the ``fnsm.federation`` namespace, and
``cli.run_experiment`` is the one the command line calls. Each span
records its call count, total time and self time (its duration minus the
time its child spans cover). Spans are kept in memory and summarised once
the job ends; ``Tracer.restore`` puts every patched attribute back.

This module imports nothing from numpy or fnsm at import time, so the
job process can time ``import fnsm`` after importing it.
"""

import importlib
import os
import threading
import time

# (module of fnsm, attribute path looked up there); the span is named
# "<module>.<attribute path>". A lookup the program no longer has is
# skipped, and the metrics built on it read 0.
SPANS = (
    ("models", "Mlp1.grad"),
    ("models", "Mlp1.loss"),
    ("models", "SoftmaxLinear.grad"),
    ("models", "SoftmaxLinear.loss"),
    ("models", "Quadratic.grad"),
    ("models", "Quadratic.loss"),
    ("federation", "local_round"),
    ("federation", "sample_clients"),
    ("federation", "aggregate"),
    ("federation", "server_update"),
    ("federation", "save_checkpoint"),
    ("federation", "accuracy"),
    ("federation", "global_sharpness"),
    ("federation", "extrapolated_grad_norm"),
    ("federation", "flatness_distance"),
    ("federation", "run_experiment"),
    ("federation", "rng_for"),
    ("local", "nsam_perturbation"),
    ("local", "sam_perturbation"),
    ("local", "rng_for"),
    ("metrics", "rng_for"),
    ("data", "rng_for"),
    ("config", "rng_for"),
    ("config", "load_csv"),
    ("config", "train_test_split"),
    ("config", "dirichlet_partition"),
    ("cli", "parse_config"),
    ("cli", "build_problem"),
    ("cli", "run_experiment"),
    ("cli", "write_records"),
    ("cli", "read_records"),
    ("cli", "load_checkpoint"),
    ("cli", "loss_surface_slice"),
    ("cli", "write_surface"),
)

# spans that set the context their model calls are counted under
CONTEXT = {
    "federation.run_experiment": "round",
    "cli.run_experiment": "round",
    "federation.local_round": "local",
    "cli.loss_surface_slice": "surface",
}

# name -> unit of every per-layer metric, in report order
LAYER_METRICS = {
    "models.grad_calls": "count",
    "models.grad_us": "us",
    "models.grad_rows": "count",
    "models.loss_calls": "count",
    "models.loss_us": "us",
    "models.accuracy_s": "s",
    "local.rounds": "count",
    "local.metric_only_rounds": "count",
    "local.useful_share": "ratio",
    "local.s": "s",
    "local.self_s": "s",
    "local.perturbation_s": "s",
    "federation.round_self_s": "s",
    "federation.sample_s": "s",
    "federation.aggregate_s": "s",
    "federation.server_update_s": "s",
    "federation.checkpoint_s": "s",
    "federation.checkpoint_bytes": "B",
    "metrics.sharpness_s": "s",
    "metrics.grad_norm_s": "s",
    "metrics.flatness_s": "s",
    "metrics.model_calls_per_eval": "count",
    "metrics.surface_s": "s",
    "metrics.surface_model_calls": "count",
    "metrics.write_surface_s": "s",
    "data.load_csv_s": "s",
    "data.partition_s": "s",
    "config.parse_s": "s",
    "config.build_problem_calls": "count",
    "config.build_problem_s": "s",
    "cli.write_records_s": "s",
    "cli.read_records_s": "s",
    "rng.streams": "count",
    "rng.s": "s",
}

# metrics that count work; they repeat exactly from job to job
EXACT_METRICS = tuple(
    name for name, unit in LAYER_METRICS.items() if unit in ("count", "B", "ratio")
)


def lookup(package: str, module_name: str, path: str):
    """(owner, attribute) that `path` names in `package.module_name`, or None if gone."""
    try:
        owner = importlib.import_module(f"{package}.{module_name}")
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    if owner is None or attr not in vars(owner):
        return None
    return owner, attr


class _Stat:
    __slots__ = ("calls", "total", "self")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0


class Tracer:
    """Wraps fnsm attributes in timing spans; ``restore`` undoes every patch."""

    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        self.counts: dict[str, int] = {}
        self._patched: list[tuple[object, str, object]] = []
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def install(self, fnsm_pkg) -> None:
        """Wrap every lookup in SPANS that the given fnsm package still has."""
        for module_name, path in SPANS:
            found = lookup(fnsm_pkg.__name__, module_name, path)
            if found is not None:
                self._wrap(*found, f"{module_name}.{path}")

    def _wrap(self, owner, attr: str, name: str) -> None:
        original = vars(owner)[attr]
        stat = self.stats.setdefault(name, _Stat())
        context = CONTEXT.get(name)
        is_model = name.startswith("models.")
        hook = _grad_rows if is_model and attr == "grad" else _HOOKS.get(name)
        tracer = self

        def span(*args, **kwargs):
            stack = tracer._stack()
            ctx = context or (stack[-1][1] if stack else "top")
            if is_model:
                tracer.count(f"model_calls.{ctx}")
            frame = [0.0, ctx]
            stack.append(frame)
            started = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                stack.pop()
                stat.calls += 1
                stat.total += elapsed
                stat.self += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        span.__wrapped__ = original
        setattr(owner, attr, span)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything traced since install."""

        def calls(*names):
            return sum(self.stats[n].calls for n in names if n in self.stats)

        def total(*names):
            return sum(self.stats[n].total for n in names if n in self.stats)

        def self_time(*names):
            return sum(self.stats[n].self for n in names if n in self.stats)

        def matching(prefix, suffix):
            return [n for n in self.stats if n.startswith(prefix) and n.endswith(suffix)]

        grads = matching("models.", ".grad")
        losses = matching("models.", ".loss")
        rngs = matching("", ".rng_for")
        grad_calls, loss_calls = calls(*grads), calls(*losses)
        local_calls = calls("federation.local_round")
        metric_only = self.counts.get("metric_only_rounds", 0)
        eval_rounds = self.counts.get("eval_rounds", 0)
        out = {
            "models.grad_calls": grad_calls,
            "models.grad_us": total(*grads) / grad_calls * 1e6 if grad_calls else 0.0,
            "models.grad_rows": self.counts.get("grad_rows", 0),
            "models.loss_calls": loss_calls,
            "models.loss_us": total(*losses) / loss_calls * 1e6 if loss_calls else 0.0,
            "models.accuracy_s": total("federation.accuracy"),
            "local.rounds": local_calls,
            "local.metric_only_rounds": metric_only,
            "local.useful_share": (local_calls - metric_only) / local_calls if local_calls else 0.0,
            "local.s": total("federation.local_round"),
            "local.self_s": self_time("federation.local_round"),
            "local.perturbation_s": total("local.nsam_perturbation", "local.sam_perturbation"),
            "federation.round_self_s": self_time("federation.run_experiment", "cli.run_experiment"),
            "federation.sample_s": total("federation.sample_clients"),
            "federation.aggregate_s": total("federation.aggregate"),
            "federation.server_update_s": total("federation.server_update"),
            "federation.checkpoint_s": total("federation.save_checkpoint", "cli.load_checkpoint"),
            "federation.checkpoint_bytes": self.counts.get("checkpoint_bytes", 0),
            "metrics.sharpness_s": total("federation.global_sharpness"),
            "metrics.grad_norm_s": total("federation.extrapolated_grad_norm"),
            "metrics.flatness_s": total("federation.flatness_distance"),
            "metrics.model_calls_per_eval": (
                self.counts.get("model_calls.round", 0) / eval_rounds if eval_rounds else 0.0
            ),
            "metrics.surface_s": total("cli.loss_surface_slice"),
            "metrics.surface_model_calls": self.counts.get("model_calls.surface", 0),
            "metrics.write_surface_s": total("cli.write_surface"),
            "data.load_csv_s": total("config.load_csv"),
            "data.partition_s": total("config.train_test_split", "config.dirichlet_partition"),
            "config.parse_s": total("cli.parse_config"),
            "config.build_problem_calls": calls("cli.build_problem"),
            "config.build_problem_s": total("cli.build_problem"),
            "cli.write_records_s": total("cli.write_records"),
            "cli.read_records_s": total("cli.read_records"),
            "rng.streams": calls(*rngs),
            "rng.s": total(*rngs),
        }
        return out


# per-span hooks: (tracer, args, kwargs, result) -> None, run after the call
def _grad_rows(tracer, args, kwargs, result):
    X = args[2] if len(args) > 2 else kwargs.get("X")
    if X is not None:
        tracer.count("grad_rows", len(X))


def _local_round(tracer, args, kwargs, result):
    real = args[3] if len(args) > 3 else kwargs.get("update_client_state", True)
    if not real:
        tracer.count("metric_only_rounds")


def _save_checkpoint(tracer, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    tracer.count("checkpoint_bytes", os.path.getsize(path))


def _run_experiment(tracer, args, kwargs, result):
    records = result[0]
    tracer.count("eval_rounds", sum(1 for r in records if r.train_loss is not None))


_HOOKS = {
    "federation.local_round": _local_round,
    "federation.save_checkpoint": _save_checkpoint,
    "federation.run_experiment": _run_experiment,
    "cli.run_experiment": _run_experiment,
}
