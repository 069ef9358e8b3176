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
from .linalg import cut_spectrum, full_svd, spectrum_cut
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
        for name in ("seed", "fidelity_seed"):
            if (value := getattr(self, name)) < 0:
                raise ConfigError(name, f"must be non-negative, got {value}")
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
    precision is promoted to double first. When the sum of squares
    overflows, or may have lost bits to underflow, the norm is taken from
    the tensor divided by its largest magnitude instead."""
    raw = np.asarray(raw)
    if raw.dtype.kind not in "biufc":
        raise ValueError(f"target tensor must be numeric, got dtype {raw.dtype}")
    raw = raw.astype(np.result_type(raw.dtype, np.float64), copy=False)
    if raw.ndim < 4:
        raise ValueError(f"need at least 4 tensor legs, got {raw.ndim}")
    if any(d < 2 for d in raw.shape):
        raise ValueError(f"every leg needs dimension >= 2, got shape {raw.shape}")
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(raw))
    # squares below the smallest normal double (~1e-308) lose bits, but
    # their sum cannot shift a norm above 1e-100
    if 1e-100 < norm < np.inf:
        return TargetTensor(data=raw / norm, norm=norm)
    if not np.all(np.isfinite(raw)):
        raise NumericalError("non-finite entries in target tensor")
    scale = float(np.max(np.abs(raw)))
    if scale == 0.0:
        raise ValueError("target tensor is identically zero")
    data = raw / scale
    unit = float(np.linalg.norm(data))
    return TargetTensor(data=data / unit, norm=scale * unit)


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

    def truncated(matrix):
        spec = full_svd(matrix)
        return cut_spectrum(spec, *spectrum_cut(spec.values, chi_init, sigma, delta_s))

    acc = target.data.reshape(dims[0] * dims[1], -1)
    spec = truncated(acc)
    tensors[0] = spec.left_vectors.reshape(dims[0], dims[1], spec.rank)
    acc = spec.values[:, None] * spec.right_vectors
    chi_left = spec.rank
    for t in range(1, nt - 1):
        acc = acc.reshape(chi_left * dims[t + 1], -1)
        spec = truncated(acc)
        tensors[t] = spec.left_vectors.reshape(chi_left, dims[t + 1], spec.rank)
        acc = spec.values[:, None] * spec.right_vectors
        chi_left = spec.rank
    carrier = acc.reshape(chi_left, dims[n - 2], dims[n - 1])

    # move the carried weight from the right end back to the center bond; the
    # carrier's legs are (slot 3, slot 1, slot 2) of the tensor it becomes
    for t in range(nt - 1, p, -1):
        mat = carrier.reshape(carrier.shape[0], -1)
        spec = truncated(mat)
        tensors[t] = np.moveaxis(
            spec.right_vectors.reshape(spec.rank, *carrier.shape[1:]), 0, 2
        )
        passed = spec.left_vectors * spec.values
        if t > q:
            carrier = np.tensordot(tensors[t - 1], passed, axes=[2, 0]).transpose(0, 2, 1)
    spec = truncated(passed)
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
    the subtree behind the outer bond ``B`` holding the most sites, and adds
    each other subtree to it. There is one rule for every contraction: a
    start meets the isometries it still lacks in one product with their
    composite (``_absorb_subtree``). ``T_b`` starts from ``T`` of the larger
    child of the tensor owning ``b`` when that is at most a quarter of the
    target (``_within_bound``), and adds the smaller child's subtree and the
    owner; otherwise it starts from the dense target and adds the whole
    subtree. ``T_b`` is memoized on the target while every isometry of its
    subtree is the same array with the same bonds. Entries larger than a
    quarter of the target are not kept. An entry that holds also gives its
    subtree's walk, so a step walks only the subtrees whose entries changed.
    """
    topo = state.topology
    t, t_conn = pair
    shared = set(topo.edges[t]) & set(topo.edges[t_conn])
    if len(shared) != 1:
        raise InvariantViolation(f"tensors {t},{t_conn} do not share one bond")
    outer = [b for b in (*topo.edges[t], *topo.edges[t_conn]) if b not in shared]
    edges, tensors, envs, n = topo.edges, state.tensors, target.envs, topo.n_sites
    slot3 = [e[2] for e in edges]

    def subtree(b, depth=0):
        """The walk behind the bond ``b``, away from the pair (children
        first, slot 1 before slot 2, the owner last), the owner's entry if
        it holds, else the subtrees behind the owner's two children."""
        if b < n:  # a site
            return [], None, ()
        if depth == len(edges):
            raise InvariantViolation(f"walk passes every tensor by bond {b}: a cycle")
        try:
            o = slot3.index(b)
            o = slot3.index(b, o + 1) if o in pair else o
        except ValueError:
            raise InvariantViolation(f"no tensor outside {pair} points at bond {b}") from None
        hit = envs.get(o)
        if hit and all(tensors[i] is a and edges[i] == e for a, e, i in hit[0]):
            return [i for _, _, i in hit[0]], hit, ()
        kids = subtree(edges[o][0], depth + 1), subtree(edges[o][1], depth + 1)
        return kids[0][0] + kids[1][0] + [o], None, kids

    def behind(node):
        """``T_b`` for the ``subtree`` behind a bond ``b``."""
        below, hit, kids = node
        if not below:
            return target.data, list(range(n))
        if hit:
            return hit[1], hit[2]
        o = below[-1]
        slot = int(len(kids[1][0]) > len(kids[0][0]))
        if _within_bound(topo, target.data.shape, kids[slot][0], tensors[o].shape[slot]):
            acc, legs = behind(kids[slot])
            rest = kids[1 - slot][0] + [o]
        else:
            for i in below:
                envs.pop(i, None)
            acc, legs, rest = target.data, list(range(n)), below
        acc, legs = _absorb_subtree(acc, legs, edges, tensors, rest)
        if 4 * acc.size <= target.data.size:
            acc.flags.writeable = False
            envs[o] = ([(tensors[i], edges[i][:], i) for i in below], acc, legs)
        return acc, legs

    first, *rest = sorted(map(subtree, outer), key=lambda node: len(node[0]), reverse=True)
    acc, legs = behind(first)
    for below, _, _ in rest:
        if below:
            acc, legs = _absorb_subtree(acc, legs, edges, tensors, below)
    return acc, legs


def _within_bound(topo, dims, below, chi):
    """Whether ``T`` of the subtree ``below``, with bond dimension ``chi``,
    is at most a quarter of a target of shape ``dims``; a site's ``T``, the
    target itself, is not."""
    size = prod(dims)
    sites = prod(dims[c] for i in below for c in topo.edges[i][:2] if topo.is_physical(c))
    return 4 * (size // sites * chi) <= size


def _absorb_subtree(acc, legs, edges, tensors, below):
    """Contract the conjugated isometries ``below`` (children first, the
    root last) with each other, then with ``acc`` in one product.

    ``below`` is a subtree, or the top of one whose other tensors ``acc``
    already holds. The composite is a matrix whose columns are the bond
    above the root and whose rows run, in their order in ``acc``, over the
    legs of ``acc`` it contracts: sites, and the bonds into tensors not in
    ``below``. When those legs are one run, ``acc`` is viewed as
    ``(a, s, c)``, the product is one ``matmul`` with no copy, and the bond
    takes the place of the run. Otherwise the legs between them are moved
    in front of them first, which copies ``acc`` once but keeps the last
    run and the legs behind it in place, and the bond takes the place of
    the last run.
    """
    parts = {}
    for i in below:
        e1, e2, e3 = edges[i]
        w, (c1, c2, k), rows, more = tensors[i], tensors[i].shape, [e1], [e2]
        if e1 in parts:
            w1, rows = parts.pop(e1)
            w = (w1 @ w.reshape(c1, c2 * k)).reshape(-1, c2, k)
        if e2 in parts:
            w2, more = parts.pop(e2)
            w = np.matmul(w2, w)
        parts[e3] = (w.reshape(-1, k), rows + more)
    ((w, rows),) = parts.values()
    pos = [legs.index(c) for c in rows]
    if pos != sorted(pos):
        rank = sorted(range(len(pos)), key=pos.__getitem__)
        w = w.reshape(*(acc.shape[p] for p in pos), -1)
        w = w.transpose(*rank, len(rank)).reshape(-1, w.shape[-1])
        pos = sorted(pos)
    if np.iscomplexobj(w):
        w = w.conj()
    lo, hi = pos[0], pos[-1] + 1
    between = [j for j in range(lo, hi) if j not in pos]
    shape = acc.shape
    front = [*range(lo), *between]
    view = acc.transpose(*front, *pos, *range(hi, acc.ndim))
    a = prod(shape[j] for j in front)
    view = view.reshape(a, w.shape[0], -1)
    if view.shape[2] == 1:
        out = view.reshape(a, -1) @ w
    else:
        out = np.matmul(w.T, view)
    legs = [*(legs[j] for j in front), edges[below[-1]][2], *legs[hi:]]
    return out.reshape(*(shape[j] for j in front), w.shape[1], *shape[hi:]), legs


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


def embed_environment(env: np.ndarray) -> tuple[np.ndarray, float]:
    """Normalize the environment into the new center tensor. Returns it and
    the environment norm, the overlap of the embedded state with the
    target. The tensor is C-ordered, so that the split of its first pairing
    hands LAPACK a view."""
    nrm = float(np.linalg.norm(env))
    if nrm == 0.0:
        raise NumericalError("degenerate environment: state orthogonal to target")
    return np.divide(env, nrm, order="C"), nrm


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

    Each step replaces the two tensors with the normalized environment,
    never contracting their merge; the per-bond running fidelity is the
    environment norm reduced by the truncation at the following split.
    Each stage of ``config.fidelity`` runs to convergence or its sweep
    limit.
    """
    if not config.fidelity:
        raise ValueError("fidelity sweeps are disabled in this configuration")
    rng = np.random.Generator(np.random.Philox(config.fidelity_seed))

    def update(merge, info: StepInfo):
        env = environment(target, state, info.t, info.t_conn, info.merge_bonds)
        psi, nrm = embed_environment(env)
        return psi, {"fidelity_scale": nrm}

    sweep = partial(run_sweep, state, update_psi=update, observers=observers)
    stage_reports: list[list[SweepReport]] = []
    for stage in config.fidelity:
        reports, _ = run_stage(
            stage, sweep, rng, config.eps_s, config.delta_s, config.sigma,
            eps_f=config.eps_f,
        )
        stage_reports.append(reports)
    return state, stage_reports
