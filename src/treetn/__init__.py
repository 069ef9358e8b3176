"""Adaptive-structure tree tensor networks.

Ground-state search for spin Hamiltonians and high-rank tensor
factorization, both with automatic reconnection of the network guided by
the entanglement carried on each bond.
"""

from .errors import InvariantViolation, LoadError, NumericalError, TreetnError
from .factorize import (
    FactorizeConfig,
    TargetTensor,
    embed_environment,
    environment,
    fidelity,
    fidelity_sweep_run,
    normalize_target,
    reconstruct_sweep,
    sequential_svd_to_mpn,
)
from .gss import (
    GssConfig,
    GssResult,
    Observables,
    initialize_ttn,
    one_site_expectations,
    run,
    sweep,
    two_site_correlations,
)
from .linalg import (
    EigenSpectrum,
    SingularSpectrum,
    entanglement_entropy,
    full_eigh,
    full_svd,
    lanczos_lowest,
    truncate_spectrum,
)
from .spinmodel import SpinModel, local_spin_matrices, parse_spin_size
from .state import (
    ReconnectChoice,
    TTNState,
    cooled_temperature,
    decompose_tensor,
    merge_center,
    site_ee,
    to_dense,
)
from .sweeps import (
    SelectionSettings, Stage, StepInfo, SweepReport, run_sweep, schedule
)
from .topology import (
    Topology,
    build_initial_topology,
    build_mpn,
    build_pbt,
    candidate_edge_indices,
    local_two_tensor,
    set_distance,
)

__version__ = "0.1.0"

__all__ = [
    "TreetnError", "LoadError", "InvariantViolation", "NumericalError",
    "SingularSpectrum", "EigenSpectrum", "full_svd", "truncate_spectrum",
    "full_eigh", "lanczos_lowest", "entanglement_entropy",
    "Topology", "set_distance", "candidate_edge_indices", "local_two_tensor",
    "build_mpn", "build_pbt", "build_initial_topology",
    "TTNState", "ReconnectChoice", "merge_center", "decompose_tensor",
    "site_ee", "cooled_temperature", "to_dense",
    "SpinModel", "local_spin_matrices", "parse_spin_size",
    "SelectionSettings", "SweepReport", "StepInfo", "run_sweep", "Stage", "schedule",
    "GssConfig", "GssResult", "Observables", "initialize_ttn", "sweep", "run",
    "one_site_expectations", "two_site_correlations",
    "FactorizeConfig", "TargetTensor", "normalize_target",
    "sequential_svd_to_mpn", "reconstruct_sweep", "environment",
    "embed_environment", "fidelity", "fidelity_sweep_run",
]
