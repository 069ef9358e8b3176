"""Renormalized-operator machinery for the ground-state engine.

A cache holds, per bond, one array of the renormalized ``z`` and ``+``
operators of every physical site inside the bond's region and, per auxiliary
bond, the intra-region Hamiltonian projected into the kept basis. Lowering
operators come from the conjugate transpose. Single-site
squared operators are renormalized only as part of a block Hamiltonian,
never as standalone matrices, so products survive truncation exactly.

Every Hamiltonian on a set of legs is a ``SuperblockPlan``: the four-leg
superblock of a sweep step, and the two-leg block whose projection through
an isometry becomes the parent's block Hamiltonian. A superblock is solved
in the eigenbases of its legs' block Hamiltonians (``eigenbasis_plan``).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import reduce
from itertools import combinations

import numpy as np

from .errors import InvariantViolation
from .linalg import lapack
from .spinmodel import SpinModel
from .state import TTNState

__all__ = [
    "OperatorCache",
    "init_cache",
    "get_operator",
    "xyz_stack",
    "renormalize_spin",
    "refresh_bond",
    "SuperblockPlan",
    "build_superblock_plan",
    "eigenbasis_plan",
    "rotate_legs",
]


@dataclass
class OperatorCache:
    """Per bond, the ``z`` and ``+`` operators of its sites as one
    ``(len(sites[bond]), 2, d, d)`` array, rows in ascending site order
    (read only in this module); block Hamiltonians per bond whose region has
    terms, each stored and dropped together with its eigenvalues and
    eigenvectors in ``block_eig``."""

    spin_ops: dict[int, np.ndarray] = field(default_factory=dict)
    block_h: dict[int, np.ndarray] = field(default_factory=dict)
    block_eig: dict[int, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)
    sites: dict[int, tuple[int, ...]] = field(default_factory=dict)

    def dimension(self, bond: int) -> int:
        return self.spin_ops[bond].shape[-1]


def init_cache(model: SpinModel) -> OperatorCache:
    """Bare operators and single-site Hamiltonians on the physical bonds."""
    cache = OperatorCache()
    for r in range(model.n_sites):
        cache.spin_ops[r] = model.bare_operators(r)[None]
        cache.sites[r] = (r,)
        h = _site_block(model, cache, r)
        if h is not None:
            cache.block_h[r], cache.block_eig[r] = h, lapack("eigh", h)
    return cache


def get_operator(cache: OperatorCache, bond: int, site: int, kind: str) -> np.ndarray:
    """Fetch or derive a renormalized operator on ``bond`` for ``site``."""
    sites = cache.sites[bond]
    row = bisect_left(sites, site)
    if row == len(sites) or sites[row] != site:
        raise KeyError(f"site {site} is not behind bond {bond}")
    ops = cache.spin_ops[bond]
    if kind == "z":
        return ops[row, 0]
    plus = ops[row, 1]
    if kind == "+":
        return plus
    if kind == "-":
        return plus.conj().T
    if kind == "x":
        return (plus + plus.conj().T) / 2
    if kind == "y":
        return (plus - plus.conj().T) / 2j
    if kind == "z2":
        if bond != site:
            raise InvariantViolation(
                "squared operators are only available on bare bonds"
            )
        return ops[row, 0] @ ops[row, 0]
    raise ValueError(f"unknown operator kind {kind!r}")


def xyz_stack(cache: OperatorCache, bond: int) -> np.ndarray:
    """x, y and z of every site behind ``bond``, ``(3 n, d, d)`` in site
    order, derived from the whole ``+`` stack at once."""
    z, plus = np.moveaxis(cache.spin_ops[bond], 1, 0)
    minus = plus.conj().swapaxes(1, 2)
    xyz = np.stack([(plus + minus) / 2, (plus - minus) / 2j, z], axis=1)
    return xyz.reshape(-1, *z.shape[1:])


def _site_block(model: SpinModel, cache: OperatorCache, site: int):
    terms = model.site_terms.get(site)
    if not terms:
        return None
    dim = model.site_dimension(site)
    h = np.zeros((dim, dim), dtype=model.dtype)
    for kind, coef in terms:
        h += coef * get_operator(cache, site, site, kind)
    return h


def _project(v: np.ndarray, hv: np.ndarray) -> np.ndarray:
    """``v† (H v)`` for an isometry ``v`` and ``hv = H v``, contracted over
    the two child legs; ``hv`` may carry leading batch axes."""
    k = v.shape[2]
    return v.reshape(-1, k).conj().T @ hv.reshape(*hv.shape[:-3], -1, k)


def renormalize_spin(ops: np.ndarray, v: np.ndarray, child_slot: int) -> np.ndarray:
    """Project operators ``(..., d, d)`` on one child leg into the parent
    bond basis, ``v† (op ⊗ 1) v`` or ``v† (1 ⊗ op) v``, in one batched product."""
    if child_slot not in (1, 2):
        raise ValueError(f"child_slot must be 1 or 2, got {child_slot}")
    dim = v.shape[child_slot - 1]
    if ops.shape[-1] != dim:
        raise InvariantViolation(
            f"operator dim {ops.shape[-1]} vs slot-{child_slot} dim {dim}"
        )
    if child_slot == 1:
        hv = (ops @ v.reshape(dim, -1)).reshape(*ops.shape[:-2], *v.shape)
    else:
        hv = ops[..., None, :, :] @ v
    return _project(v, hv)


def _cross_rows(model: SpinModel, sites_a, sites_b):
    """Coupling rows between two disjoint regions, grouped by operator kinds.

    Yields ``(kind_a, kind_b) -> list of (site_a, site_b, coef)`` entries
    oriented so the first kind acts on the first region, in the order of
    ``sites_a`` and then of each site's sorted neighbours.
    """
    groups: dict[tuple[str, str], list[tuple[int, int, complex]]] = {}
    set_b = set(sites_b)
    if set_b.intersection(sites_a):
        raise InvariantViolation("regions overlap; coupling assembly is ambiguous")
    for ia in sites_a:
        for jb in model.neighbours[ia]:
            if jb not in set_b:
                continue
            for k1, k2, coef in model.pair_terms[min(ia, jb), max(ia, jb)]:
                kinds = (k1, k2) if ia < jb else (k2, k1)
                groups.setdefault(kinds, []).append((ia, jb, coef))
    return groups


def refresh_bond(
    cache: OperatorCache, model: SpinModel, state: TTNState, tensor_idx: int
) -> None:
    """Renormalize both children's operator arrays (rows put in site order)
    and the block Hamiltonian through one isometry into its slot-3 bond; the
    block is the two-leg plan of the children, projected, and is dropped
    when no term touches the region."""
    e1, e2, e3 = state.topology.edges[tensor_idx]
    v = state.tensors[tensor_idx]
    sites = cache.sites[e1] + cache.sites[e2]
    cache.spin_ops[e3] = np.concatenate([
        renormalize_spin(cache.spin_ops[e1], v, 1),
        renormalize_spin(cache.spin_ops[e2], v, 2),
    ])[np.argsort(sites)]
    cache.sites[e3] = tuple(sorted(sites))
    plan = build_superblock_plan(model, cache, (e1, e2))
    if plan.single or plan.double:
        h = _project(v, plan.apply(v))
        cache.block_h[e3], cache.block_eig[e3] = h, lapack("eigh", h)
    else:
        cache.block_h.pop(e3, None)
        cache.block_eig.pop(e3, None)


def _apply_axis(phi: np.ndarray, m: np.ndarray, axis: int) -> np.ndarray:
    """``m`` acting on leg ``axis`` of ``phi``: one matmul, no transpose."""
    if axis == phi.ndim - 1:
        return (phi.reshape(-1, phi.shape[-1]) @ m.T).reshape(phi.shape)
    out = np.matmul(m, phi.reshape(math.prod(phi.shape[:axis]), phi.shape[axis], -1))
    return out.reshape(phi.shape)


@dataclass
class SuperblockPlan:
    """Precombined term list for repeatedly applying the superblock
    Hamiltonian to a tensor without forming the dense matrix. Leg ``i`` of
    the tensor is the ``i``-th plan bond; trailing legs are spectators.
    ``levels`` is a diagonal term, one product; a plan that has one as an
    array of the plan legs' shape takes no spectators."""

    single: list[tuple[int, np.ndarray]]
    double: list[tuple[int, int, np.ndarray, np.ndarray]]
    dtype: np.dtype
    levels: np.ndarray | float = 0.0

    def apply(self, phi: np.ndarray) -> np.ndarray:
        out = np.multiply(self.levels, phi, dtype=np.result_type(phi.dtype, self.dtype))
        for axis, m in self.single:
            out += _apply_axis(phi, m, axis)
        for ax_a, ax_b, ma, mb in self.double:
            out += _apply_axis(_apply_axis(phi, mb, ax_b), ma, ax_a)
        return out


def build_superblock_plan(
    model: SpinModel, cache: OperatorCache, leg_bonds
) -> SuperblockPlan:
    """Assemble the Hamiltonian of the regions behind ``leg_bonds``.

    Couplings between two legs are grouped by operator kind; within a group
    the sum over the larger region is folded into a single matrix first, so
    each group costs ``min(g, g')`` two-leg applications.
    """
    single = [
        (axis, cache.block_h[b])
        for axis, b in enumerate(leg_bonds)
        if b in cache.block_h
    ]
    double: list[tuple[int, int, np.ndarray, np.ndarray]] = []
    for ax_a, ax_b in combinations(range(len(leg_bonds)), 2):
        ba, bb = leg_bonds[ax_a], leg_bonds[ax_b]
        groups = _cross_rows(model, cache.sites[ba], cache.sites[bb])
        for kinds, rows in groups.items():
            # side k, the one with fewer sites, keeps one operator per site;
            # the other side's terms with that site fold into one matrix
            k = 0 if len({r[0] for r in rows}) <= len({r[1] for r in rows}) else 1
            f, bonds = 1 - k, (ba, bb)
            for site in sorted({r[k] for r in rows}):
                kept = get_operator(cache, bonds[k], site, kinds[k])
                folded = sum(
                    r[2] * get_operator(cache, bonds[f], r[f], kinds[f])
                    for r in rows
                    if r[k] == site
                )
                double.append((ax_a, ax_b, *((kept, folded) if k == 0 else (folded, kept))))
    return SuperblockPlan(single=single, double=double, dtype=model.dtype)


def eigenbasis_plan(
    cache: OperatorCache, plan: SuperblockPlan, leg_bonds
) -> tuple[SuperblockPlan, np.ndarray, list]:
    """``plan``, built on ``leg_bonds``, as ``B† H B`` in its legs' cached
    block eigenbases ``U``: single terms become eigenvalues summed into
    ``levels``, pair operators on rotated legs ``U† m U`` (one batch per
    leg); a leg without a single term is not rotated. Returns that plan, its
    real diagonal and per leg ``U`` or None, for ``rotate_legs``."""
    bases, values = [None] * len(leg_bonds), [np.zeros(cache.dimension(b)) for b in leg_bonds]
    for axis, _ in plan.single:
        values[axis], bases[axis] = cache.block_eig[leg_bonds[axis]]
    ops = [list(term[2:]) for term in plan.double]
    for axis, u in enumerate(bases):
        slots = [(t, s) for t, term in enumerate(plan.double) for s in (0, 1) if term[s] == axis]
        if u is not None and slots:
            for (t, s), m in zip(slots, u.conj().T @ np.stack([ops[t][s] for t, s in slots]) @ u):
                ops[t][s] = m
    double = [(a, b, *m) for (a, b, _, _), m in zip(plan.double, ops)]
    pairs = {}  # per pair of legs, the summed diagonals of its terms
    for a, b, ma, mb in double:
        pairs[a, b] = pairs.get((a, b), 0) + ma.diagonal()[:, None] * mb.diagonal()
    levels = reduce(np.add.outer, values)
    diagonal = levels.copy()
    for (a, b), pair in pairs.items():
        diagonal += pair.real.reshape([len(v) if k in (a, b) else 1 for k, v in enumerate(values)])
    return SuperblockPlan([], double, plan.dtype, levels), diagonal, bases


def rotate_legs(phi: np.ndarray, bases, back: bool = False) -> np.ndarray:
    """``phi`` with leg ``i`` taken into the basis ``bases[i]`` (``U† phi``),
    or with ``back`` out of it (``U phi``); a leg whose basis is None stays."""
    for axis, u in enumerate(bases):
        if u is not None:
            phi = _apply_axis(phi, u if back else u.conj().T, axis)
    return phi
