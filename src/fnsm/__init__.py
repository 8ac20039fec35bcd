"""Deterministic federated-learning optimization lab.

Implements momentum-directed sharpness-aware local training (fednsam)
next to fedavg, fedavgm, fedsam, mofedsam and fedlesam baselines on
desk-scale objectives, plus the flat-minima diagnostics used to compare
them: flatness distance, a global sharpness proxy, extrapolated gradient
norms and 2-D loss-surface slices.
"""

__version__ = "0.1.0"

from .data import (
    Dataset,
    DatasetFormatError,
    DirichletSpec,
    dirichlet_partition,
    load_csv,
    save_csv,
    synth_gaussian_mixture,
    train_test_split,
)
from .federation import (
    ALGORITHMS,
    FedConfig,
    RoundRecord,
    ServerState,
    clients_from_partition,
    load_checkpoint,
    quadratic_clients,
    run_experiment,
    sample_clients,
    save_checkpoint,
    server_update,
)
from .local import (
    ClientState,
    DivergenceError,
    local_round,
    nsam_perturbation,
    sam_perturbation,
)
from .metrics import (
    SurfaceGrid,
    aggregate,
    extrapolated_grad_norm,
    flatness_distance,
    global_sharpness,
    loss_surface_slice,
    read_surface,
    write_surface,
)
from .models import (
    Mlp1,
    Quadratic,
    SoftmaxLinear,
    accuracy,
    grad_check,
    quadratic_ensemble_minimizer,
)
from .rng import rng_for
