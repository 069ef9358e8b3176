"""High-rank tensor factorization and network reconstruction.

A target tensor is normalized, peeled into a chain network by sequential
SVD, and then improved by sweeps: reconstruction sweeps re-split the local
two-tensor by SVD alone, while fidelity sweeps replace it with the
normalized environment (the target contracted with every other conjugated
isometry), which locally maximizes the overlap with the target.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import InvariantViolation, NumericalError
from .linalg import full_svd, truncate_spectrum
from .state import TTNState, merge_center
from .sweeps import Stage, StepInfo, SweepReport, run_stage, run_sweep
from .topology import build_mpn, set_distance

__all__ = [
    "FactorizeConfig",
    "TargetTensor",
    "normalize_target",
    "sequential_svd_to_mpn",
    "reconstruct_sweep",
    "environment",
    "embed_environment",
    "fidelity",
    "fidelity_sweep_run",
]


@dataclass
class FactorizeConfig:
    """Settings for factorization, reconstruction, and fidelity sweeps."""

    chi_init: int
    opt_mode: int = 0
    t0: float = 0.0
    n_tau: int | None = None
    seed: int = 0
    n_max: int = 10
    eps_s: float = 1e-8
    sigma: float = 0.0
    delta_s: float = 1e-8
    fidelity_enabled: bool = False
    fidelity_opt_mode: int = 0
    fidelity_t0: float = 0.0
    fidelity_n_tau: int | None = None
    fidelity_seed: int = 0
    fidelity_chi_schedule: list[int] = field(default_factory=list)
    fidelity_n_max: list[int] = field(default_factory=list)
    eps_f: float = 1e-10

    def __post_init__(self):
        if not 0.0 <= self.sigma < 1.0:
            raise ValueError("sigma must lie in [0, 1)")
        if self.chi_init < 1:
            raise ValueError("chi_init must be positive")
        if self.n_tau is None:
            self.n_tau = max(1, self.n_max // 2)
        if self.fidelity_enabled:
            if len(self.fidelity_chi_schedule) != len(self.fidelity_n_max):
                raise ValueError("fidelity schedules differ in length")
            if not self.fidelity_chi_schedule:
                raise ValueError("fidelity sweeps need a bond-dimension schedule")
        if self.fidelity_n_tau is None:
            first = self.fidelity_n_max[0] if self.fidelity_n_max else self.n_max
            self.fidelity_n_tau = max(1, first // 2)


@dataclass
class TargetTensor:
    """A normalized dense target plus its original Frobenius norm."""

    data: np.ndarray
    norm: float


def normalize_target(raw: np.ndarray) -> TargetTensor:
    """Scale a tensor to unit Frobenius norm, remembering the factor."""
    raw = np.asarray(raw)
    if raw.ndim < 4:
        raise ValueError(f"need at least 4 tensor legs, got {raw.ndim}")
    if any(d < 2 for d in raw.shape):
        raise ValueError(f"every leg needs dimension >= 2, got shape {raw.shape}")
    if not np.all(np.isfinite(raw.real)) or (
        np.iscomplexobj(raw) and not np.all(np.isfinite(raw.imag))
    ):
        raise NumericalError("non-finite entries in target tensor")
    norm = float(np.linalg.norm(raw))
    if norm == 0.0:
        raise ValueError("target tensor is identically zero")
    return TargetTensor(data=raw / norm, norm=norm)


def sequential_svd_to_mpn(
    target: TargetTensor, chi_init: int, sigma: float = 0.0, delta_s: float = 1e-8
) -> TTNState:
    """Peel the target left-to-right into a chain network.

    After the peel the carried weight is moved back to the chain midpoint so
    the state ends in mixed canonical form with unit norm; the original
    tensor norm is kept on the state for reconstruction output.
    """
    dims = target.data.shape
    n = len(dims)
    topo = build_mpn(n)
    nt = topo.n_tensors
    p = (nt - 1) // 2
    q = p + 1
    tensors: list[np.ndarray] = [None] * nt  # type: ignore[list-item]

    acc = target.data.reshape(dims[0] * dims[1], -1)
    spec, _ = truncate_spectrum(full_svd(acc), chi_init, sigma, delta_s)
    tensors[0] = spec.left_vectors.reshape(dims[0], dims[1], spec.rank)
    acc = spec.values[:, None] * spec.right_vectors
    chi_left = spec.rank
    for t in range(1, nt - 1):
        acc = acc.reshape(chi_left * dims[t + 1], -1)
        spec, _ = truncate_spectrum(full_svd(acc), chi_init, sigma, delta_s)
        tensors[t] = spec.left_vectors.reshape(chi_left, dims[t + 1], spec.rank)
        acc = spec.values[:, None] * spec.right_vectors
        chi_left = spec.rank
    carrier = acc.reshape(chi_left, dims[n - 2], dims[n - 1])

    # move the carried weight from the right end back to the center bond
    for t in range(nt - 1, q - 1, -1):
        if t == nt - 1:
            mat = carrier.reshape(carrier.shape[0], -1)
            spec, _ = truncate_spectrum(full_svd(mat), chi_init, sigma, delta_s)
            tensors[t] = np.moveaxis(
                spec.right_vectors.reshape(spec.rank, dims[n - 2], dims[n - 1]), 0, 2
            )
        else:
            mat = carrier.transpose(0, 2, 1).reshape(carrier.shape[0], -1)
            spec, _ = truncate_spectrum(full_svd(mat), chi_init, sigma, delta_s)
            tensors[t] = np.moveaxis(
                spec.right_vectors.reshape(
                    spec.rank, carrier.shape[2], carrier.shape[1]
                ),
                0,
                2,
            )
        passed = spec.left_vectors * spec.values
        if t == q:
            spec, _ = truncate_spectrum(full_svd(passed), chi_init, sigma, delta_s)
            tensors[p] = np.tensordot(tensors[p], spec.left_vectors, axes=[2, 0])
            tensors[q] = np.tensordot(tensors[q], spec.right_vectors, axes=[2, 1])
            weights = spec.values
        else:
            carrier = np.tensordot(tensors[t - 1], passed, axes=[2, 0])

    return TTNState(
        topology=topo,
        tensors=tensors,
        center_weights=weights,
        norm_scale=target.norm,
    )


def reconstruct_sweep(
    state: TTNState, config: FactorizeConfig, observers=()
) -> tuple[TTNState, list[SweepReport]]:
    """SVD-only sweeps reshaping the network until structure and entropies
    settle. The bond-dimension cap follows the input network."""
    rng = np.random.Generator(np.random.Philox(config.seed))
    stage = Stage(
        max(config.chi_init, 1), config.n_max, config.opt_mode, config.t0, config.n_tau
    )
    sweep = partial(run_sweep, state, observers=observers)
    reports, _ = run_stage(
        stage, sweep, rng, config.eps_s, config.delta_s, config.sigma
    )
    return state, reports


def contract_with_conjugates(
    target: TargetTensor, state: TTNState, exclude: tuple[int, ...], root_bond: int
) -> tuple[np.ndarray, list[int]]:
    """Contract the target with the conjugates of all isometries except
    ``exclude``, leaves first. Returns the result and its leg labels."""
    topo = state.topology
    dist = set_distance(topo, root_bond)
    legs = list(range(topo.n_sites))
    acc = target.data
    order = sorted(
        (i for i in range(topo.n_tensors) if i not in exclude),
        key=lambda i: -dist[topo.edges[i][2]],
    )
    for i in order:
        e1, e2, e3 = topo.edges[i]
        ax1, ax2 = legs.index(e1), legs.index(e2)
        acc = np.tensordot(acc, state.tensors[i].conj(), axes=[[ax1, ax2], [0, 1]])
        legs = [l for k, l in enumerate(legs) if k not in (ax1, ax2)] + [e3]
    return acc, legs


def environment(
    target: TargetTensor, state: TTNState, t: int, t_conn: int
) -> np.ndarray:
    """Environment of the two center tensors: the target contracted with
    every other conjugated isometry, legs ordered (e1(t), e2(t), e1(t'),
    e2(t'))."""
    topo = state.topology
    if topo.edges[t][2] != topo.edges[t_conn][2]:
        raise InvariantViolation("environment tensors must share their third bond")
    root = topo.edges[t][2]
    acc, legs = contract_with_conjugates(target, state, (t, t_conn), root)
    want = [*topo.edges[t][:2], *topo.edges[t_conn][:2]]
    return acc.transpose([legs.index(b) for b in want])


def embed_environment(env: np.ndarray) -> np.ndarray:
    """Normalize the environment into the new center tensor."""
    nrm = float(np.linalg.norm(env))
    if nrm == 0.0:
        raise NumericalError("degenerate environment: state orthogonal to target")
    return env / nrm


def fidelity(target: TargetTensor, state: TTNState) -> float:
    """Overlap magnitude between the normalized target and the network."""
    p, q = state.topology.center_tensors()
    env = environment(target, state, p, q)
    psi = merge_center(state, p, q)
    return float(abs(np.vdot(psi, env)))


def fidelity_sweep_run(
    target: TargetTensor, state: TTNState, config: FactorizeConfig, observers=()
) -> tuple[TTNState, list[list[SweepReport]]]:
    """Staged fidelity-maximizing sweeps with optional reconnection.

    Each step replaces the merged center with the normalized environment;
    the per-bond running fidelity is the environment norm reduced by the
    truncation at the following split. Structure moves only during the first
    stage.
    """
    if not config.fidelity_enabled:
        raise ValueError("fidelity sweeps are disabled in this configuration")
    rng = np.random.Generator(np.random.Philox(config.fidelity_seed))

    def update(psi, info: StepInfo):
        acc, legs = contract_with_conjugates(
            target, state, (info.t, info.t_conn), info.e_new
        )
        env = acc.transpose([legs.index(b) for b in info.merge_bonds])
        nrm = float(np.linalg.norm(env))
        if nrm == 0.0:
            raise NumericalError("degenerate environment: state orthogonal to target")
        return env / nrm, {"fidelity_scale": nrm}

    sweep = partial(run_sweep, state, update_psi=update, observers=observers)
    stage_reports: list[list[SweepReport]] = []
    for m, (chi, n_max) in enumerate(
        zip(config.fidelity_chi_schedule, config.fidelity_n_max)
    ):
        mode = config.fidelity_opt_mode if m == 0 else 0
        stage = Stage(chi, n_max, mode, config.fidelity_t0, config.fidelity_n_tau)
        reports, _ = run_stage(
            stage, sweep, rng, config.eps_s, config.delta_s, config.sigma,
            eps_f=config.eps_f,
        )
        stage_reports.append(reports)
    return state, stage_reports
