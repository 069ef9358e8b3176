"""High-rank tensor factorization and network reconstruction.

A target tensor is normalized, peeled into a chain network by sequential
SVD, and then improved by sweeps: reconstruction sweeps re-split the local
two-tensor by SVD alone, while fidelity sweeps replace it with the
normalized environment (the target contracted with every other conjugated
isometry), which locally maximizes the overlap with the target. Partial
contractions of the target with fixed subtrees are reused between steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from math import prod

import numpy as np

from .errors import ConfigError, InvariantViolation, NumericalError
from .linalg import full_svd, truncate_spectrum
from .state import TTNState, merge_center
from .sweeps import Stage, StepInfo, SweepReport, check_schedule, run_stage, run_sweep
from .topology import build_mpn

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
    """Settings for factorization, reconstruction (one stage, see
    ``reconstruction()``), and fidelity sweeps (``fidelity``, stages that
    obey ``sweeps.check_schedule``; empty when they are off). A broken rule
    raises ``ConfigError`` naming the field, a ``Stage`` field for the
    reconstruction stage."""

    chi_init: int
    opt_mode: int = 0
    t0: float = 0.0
    n_tau: int | None = None
    seed: int = 0
    n_max: int = 10
    eps_s: float = 1e-8
    sigma: float = 0.0
    delta_s: float = 1e-8
    fidelity: list[Stage] = field(default_factory=list)
    fidelity_seed: int = 0
    eps_f: float = 1e-10

    def __post_init__(self):
        if not 0.0 <= self.sigma < 1.0:
            raise ConfigError("sigma", f"must lie in [0, 1), got {self.sigma!r}")
        for name in ("eps_s", "delta_s", "eps_f"):
            if not 0.0 < (value := getattr(self, name)) < np.inf:
                raise ConfigError(name, f"must be positive and finite, got {value!r}")
        self.reconstruction()
        if self.fidelity:
            check_schedule(self.fidelity)

    def reconstruction(self) -> Stage:
        """The one stage of reconstruction sweeps, capped at ``chi_init``."""
        return Stage(self.chi_init, self.n_max, self.opt_mode, self.t0, self.n_tau)


@dataclass
class TargetTensor:
    """A normalized dense target plus its original Frobenius norm.

    ``envs`` memoizes the target contracted with subtrees of a network, keyed
    by the tensor at the subtree's root (see ``contract_with_conjugates``).
    """

    data: np.ndarray
    norm: float
    envs: dict = field(default_factory=dict, repr=False, compare=False)


def normalize_target(raw: np.ndarray) -> TargetTensor:
    """Scale a tensor to unit Frobenius norm, remembering the factor. Single
    precision is promoted to double first."""
    raw = np.asarray(raw)
    if raw.dtype.kind not in "biufc":
        raise ValueError(f"target tensor must be numeric, got dtype {raw.dtype}")
    raw = raw.astype(np.result_type(raw.dtype, np.float64), copy=False)
    if raw.ndim < 4:
        raise ValueError(f"need at least 4 tensor legs, got {raw.ndim}")
    if any(d < 2 for d in raw.shape):
        raise ValueError(f"every leg needs dimension >= 2, got shape {raw.shape}")
    if not np.all(np.isfinite(raw)):
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

    # move the carried weight from the right end back to the center bond; the
    # carrier's legs are (slot 3, slot 1, slot 2) of the tensor it becomes
    for t in range(nt - 1, p, -1):
        mat = carrier.reshape(carrier.shape[0], -1)
        spec, _ = truncate_spectrum(full_svd(mat), chi_init, sigma, delta_s)
        tensors[t] = np.moveaxis(
            spec.right_vectors.reshape(spec.rank, *carrier.shape[1:]), 0, 2
        )
        passed = spec.left_vectors * spec.values
        if t > q:
            carrier = np.tensordot(tensors[t - 1], passed, axes=[2, 0]).transpose(0, 2, 1)
    spec, _ = truncate_spectrum(full_svd(passed), chi_init, sigma, delta_s)
    tensors[p] = np.tensordot(tensors[p], spec.left_vectors, axes=[2, 0])
    tensors[q] = np.tensordot(tensors[q], spec.right_vectors, axes=[2, 1])

    return TTNState(
        topology=topo,
        tensors=tensors,
        center_weights=spec.values,
        norm_scale=target.norm,
    )


def reconstruct_sweep(
    state: TTNState, config: FactorizeConfig, observers=()
) -> tuple[TTNState, list[SweepReport]]:
    """SVD-only sweeps reshaping the network until structure and entropies
    settle. The bond-dimension cap follows the input network."""
    rng = np.random.Generator(np.random.Philox(config.seed))
    sweep = partial(run_sweep, state, observers=observers)
    reports, _ = run_stage(
        config.reconstruction(), sweep, rng, config.eps_s, config.delta_s, config.sigma
    )
    return state, reports


def contract_with_conjugates(
    target: TargetTensor, state: TTNState, pair: tuple[int, int]
) -> tuple[np.ndarray, list[int]]:
    """Contract the target with the conjugates of all isometries except the
    two adjacent tensors of ``pair``. Returns the result and its leg labels,
    the outer bonds of the pair.

    Every other tensor's third bond points towards the pair, so the rest of
    the network splits into the subtrees behind the (up to four) outer
    bonds. The contraction starts from ``T_B``, the target contracted with
    the subtree behind the outer bond ``B`` holding the most sites, and
    folds the other subtrees onto it, leaves first. ``T_b`` is built from
    ``T`` of the larger child of the tensor owning ``b``, with the smaller
    child's subtree and that tensor folded in, and is memoized on the target
    while every isometry of its subtree is the same array with the same
    bonds. Entries larger than a quarter of the target are not kept.
    """
    topo = state.topology
    t, t_conn = pair
    shared = set(topo.edges[t]) & set(topo.edges[t_conn])
    if len(shared) != 1:
        raise InvariantViolation(f"tensors {t},{t_conn} do not share one bond")
    outer = [b for b in (*topo.edges[t], *topo.edges[t_conn]) if b not in shared]
    owners = topo.owners()

    def fold(acc, legs, tensors):
        for i in tensors:
            acc, legs = _absorb(acc, legs, state.tensors[i], topo.edges[i])
        return acc, legs

    def behind(below):
        """``T_b`` for the tensors ``below`` a bond ``b``, children first."""
        if not below:
            return target.data, list(range(topo.n_sites))
        o = below[-1]
        deps = [(state.tensors[i], tuple(topo.edges[i])) for i in below]
        hit = target.envs.get(o)
        if hit is not None and len(hit[0]) == len(deps) and all(
            a is x and e == f for (a, e), (x, f) in zip(hit[0], deps)
        ):
            return hit[1], hit[2]
        big, small = sorted(
            (topo.walk([c], owners) for c in topo.edges[o][:2]), key=len, reverse=True
        )
        acc, legs = fold(*behind(big), small + [o])
        if 4 * acc.size <= target.data.size:
            acc.flags.writeable = False
            target.envs[o] = (deps, acc, legs)
        else:
            target.envs.pop(o, None)
        return acc, legs

    first, *rest = sorted(
        (topo.walk([b], owners, near=pair) for b in outer), key=len, reverse=True
    )
    return fold(*behind(first), [i for below in rest for i in below])


def _absorb(acc, legs, tensor, edges):
    """Contract a conjugated isometry over its first two bonds with one
    matmul; its third bond takes the place of the contracted leg that comes
    first in ``acc``, so along a chain the new leg sits next to the next
    site.

    ``acc`` is viewed as ``(a, d1, b, d2, c)``, the untouched legs merged
    into three runs. Only when ``b > 1`` (legs between the two) is that
    five-axis view copied, to ``(a, d1, d2, b, c)``; ``tensordot`` would
    copy ``acc`` into a transposed layout of all its axes instead. When both
    legs are trailing the product is one right-multiply.
    """
    ax1, ax2 = legs.index(edges[0]), legs.index(edges[1])
    if ax1 > ax2:
        ax1, ax2 = ax2, ax1
        tensor = tensor.transpose(1, 0, 2)
    if np.iscomplexobj(tensor):
        tensor = tensor.conj()
    d1, d2, k = tensor.shape
    shape = acc.shape
    a, b, c = prod(shape[:ax1]), prod(shape[ax1 + 1:ax2]), prod(shape[ax2 + 1:])
    mat = tensor.reshape(d1 * d2, k)
    if b > 1:
        acc = acc.reshape(a, d1, b, d2, c).transpose(0, 1, 3, 2, 4)
    if b * c == 1:
        out = acc.reshape(a, d1 * d2) @ mat
    else:
        out = np.matmul(mat.T, acc.reshape(a, d1 * d2, b * c))
    legs = [*legs[:ax1], edges[2], *legs[ax1 + 1:ax2], *legs[ax2 + 1:]]
    return out.reshape(*shape[:ax1], k, *shape[ax1 + 1:ax2], *shape[ax2 + 1:]), legs


def environment(
    target: TargetTensor,
    state: TTNState,
    t: int,
    t_conn: int,
    bonds: tuple[int, ...] | None = None,
) -> np.ndarray:
    """Environment of two adjacent tensors: the target contracted with every
    other conjugated isometry, legs ordered as ``bonds`` (by default
    (e1(t), e2(t), e1(t'), e2(t')) of the center pair)."""
    acc, legs = contract_with_conjugates(target, state, (t, t_conn))
    if bonds is None:
        bonds = (*state.topology.edges[t][:2], *state.topology.edges[t_conn][:2])
    return acc.transpose([legs.index(b) for b in bonds])


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
    truncation at the following split. Each stage of ``config.fidelity``
    runs to convergence or its sweep limit.
    """
    if not config.fidelity:
        raise ValueError("fidelity sweeps are disabled in this configuration")
    rng = np.random.Generator(np.random.Philox(config.fidelity_seed))

    def update(psi, info: StepInfo):
        env = environment(target, state, info.t, info.t_conn, info.merge_bonds)
        return embed_environment(env), {"fidelity_scale": float(np.linalg.norm(env))}

    sweep = partial(run_sweep, state, update_psi=update, observers=observers)
    stage_reports: list[list[SweepReport]] = []
    for stage in config.fidelity:
        reports, _ = run_stage(
            stage, sweep, rng, config.eps_s, config.delta_s, config.sigma,
            eps_f=config.eps_f,
        )
        stage_reports.append(reports)
    return state, stage_reports
