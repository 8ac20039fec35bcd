"""Workload definitions and the inputs the benchmark generates from its seed.

The program receives only these inputs: a CSV written by this module's
own Gaussian-mixture generator and writer, an fnsm experiment file, and,
for the quadratic oracle, an ensemble of diagonal quadratics drawn here.
The same seed always gives the same bytes.
"""

import json
import os

import numpy as np

ALGORITHMS = ("fedavg", "fedavgm", "fedsam", "mofedsam", "fedlesam", "fednsam")

# the acceptance figure configuration of the paper's comparison
FIGURE_FED = {
    "fed.n_clients": 20,
    "fed.participation": 2,
    "fed.local_steps": 20,
    "fed.batch_size": 32,
    "fed.lr": 0.1,
    "fed.lr_decay": 0.998,
    "fed.rho": 0.1,
    "fed.momentum": 0.85,
    "fed.extrapolate": "true",
    "model.kind": "mlp",
    "model.hidden": 32,
    "data.kind": "csv",
    "data.test_fraction": 0.2,
    "metrics.flatness": "true",
    "metrics.sharpness": "true",
    "metrics.grad_norm": "true",
    "metrics.full_flatness": "true",
    "metrics.rho": 0.1,
    # per-round wall time would make the CSV bytes differ between repeats
    "metrics.wall_time": "false",
}

WORKLOADS = {
    "paper_sweep": {
        "data": {"rows": 4000, "dim": 20, "classes": 10, "spread": 1.4},
        "alpha": 0.1,
        "rounds": 100,
        "eval_every": 10,
        "checkpoint_every": 100,
        "algorithms": ALGORITHMS,
    },
    "diagnostics": {
        "data": {"rows": 8000, "dim": 20, "classes": 10, "spread": 1.4},
        "alpha": 0.1,
        "rounds": 50,
        "eval_every": 1,
        "checkpoint_every": 10,
        "algorithms": ("fednsam",),
        "surface": {"range": 1.0, "res": 21},
    },
    "quadratic_oracle": {
        "clients": 20,
        "dim": 10,
        "condition": 50.0,
        "rounds": 2000,
        "momentum": 0.85,
        "algorithms": ("fedavg", "fednsam"),
    },
}


def gaussian_mixture(seed: int, rows: int, dim: int, classes: int, spread: float):
    """Balanced isotropic blobs: class means ~ N(0, I), points mean + spread * N(0, I)."""
    rng = np.random.default_rng([seed, 0x6D6978])
    means = rng.standard_normal((classes, dim))
    labels = np.arange(rows) % classes
    rng.shuffle(labels)
    features = means[labels] + spread * rng.standard_normal((rows, dim))
    return features, labels


def write_csv(path, features: np.ndarray, labels: np.ndarray) -> None:
    """The `f1,...,fdim,label` layout, with floats that round-trip exactly."""
    with open(path, "w", newline="\n") as f:
        for row, label in zip(features.tolist(), labels.tolist()):
            f.write(",".join(map(repr, row)) + f",{label}\n")


def write_config(path, csv_path: str, seed: int, workload: dict, algorithm: str) -> None:
    """An fnsm experiment file for one of the CSV-backed workloads."""
    items = dict(FIGURE_FED)
    items.update({
        "data.csv_path": csv_path,
        "data.alpha": workload["alpha"],
        "fed.algorithm": algorithm,
        "fed.rounds": workload["rounds"],
        "run.eval_every": workload["eval_every"],
        "run.checkpoint_every": workload["checkpoint_every"],
        "run.seeds": seed,
    })
    with open(path, "w", newline="\n") as f:
        for key, value in items.items():
            f.write(f"{key} = {value}\n")


def quadratic_ensemble(seed: int, clients: int, dim: int, condition: float):
    """Diagonal curvatures log-spaced over `condition`, jittered per client, N(0, I) centres.

    Returns (curvatures (clients, dim), centres (clients, dim), lr), with
    lr = 1 / the largest curvature of the averaged objective.
    """
    rng = np.random.default_rng([seed, 0x717561])
    scale = np.logspace(np.log10(1.5 / condition), np.log10(1.5), dim)
    curv = scale * rng.uniform(0.8, 1.2, (clients, dim))
    centres = rng.standard_normal((clients, dim))
    lr = 1.0 / float(curv.mean(axis=0).max())
    return curv, centres, lr


def prepare(workload_name: str, seed: int, work: str) -> dict:
    """Write the workload's inputs under `work`; return what the jobs and checks need."""
    w = WORKLOADS[workload_name]
    os.makedirs(work, exist_ok=True)
    if workload_name == "quadratic_oracle":
        curv, centres, lr = quadratic_ensemble(seed, w["clients"], w["dim"], w["condition"])
        path = os.path.join(work, "ensemble.json")
        with open(path, "w") as f:
            json.dump({"curvatures": curv.tolist(), "centres": centres.tolist()}, f)
        return {"ensemble": path, "curvatures": curv, "centres": centres, "lr": lr}
    d = w["data"]
    features, labels = gaussian_mixture(seed, d["rows"], d["dim"], d["classes"], d["spread"])
    csv_path = os.path.join(work, "data.csv")
    write_csv(csv_path, features, labels)
    config = os.path.join(work, "experiment.cfg")
    write_config(config, csv_path, seed, w, w["algorithms"][-1])
    return {"csv": csv_path, "config": config, "features": features, "labels": labels}
