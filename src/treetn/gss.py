"""Variational ground-state search with adaptive network structure.

The search initializes tensors leaf-to-root by keeping the lowest block
eigenvectors (degeneracy-aware), solves the origin-bond superblock, then
runs flag-driven two-tensor sweeps with optional structural reconnection,
staged over an ascending bond-dimension schedule. Every superblock is
solved by ``linalg.lanczos_lowest``, Davidson's method, in its legs' block
eigenbases (``operators.eigenbasis_plan``), where the block terms are one
diagonal array and the preconditioner uses that basis's exact diagonal.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import partial
from itertools import combinations

import numpy as np

from .errors import ConfigError, InvariantViolation
from .linalg import LANCZOS_TOL, degenerate_cut, full_eigh, lanczos_lowest
from .operators import (
    OperatorCache,
    build_superblock_plan,
    eigenbasis_plan,
    init_cache,
    refresh_bond,
    rotate_legs,
    xyz_stack,
)
from .spinmodel import SpinModel
from .state import TTNState, decompose_tensor, merge_center
from .sweeps import (
    SelectionSettings, Stage, StepInfo, SweepReport, check_schedule, run_stage,
    run_sweep,
)
from .topology import Topology, build_initial_topology, set_distance

__all__ = [
    "GssConfig",
    "GssResult",
    "StageResult",
    "Observables",
    "initialize_ttn",
    "sweep",
    "run",
    "leg_expectations",
    "leg_pair_correlations",
    "ObservableCollector",
    "CORRELATION_ORDER",
]

# column order of the two-site correlation components
CORRELATION_ORDER = ("xx", "yy", "zz", "yz", "zy", "zx", "xz", "xy", "yx")

# size of the fixed direction mixed into an eigensolver start vector over the
# residual bound its solve stops at: trapped starts escape at 1e4 with the
# default bound, and at 1e3 with 1e-9. ``sweep`` says which starts get it
NOISE_RATIO = 1e4

# read-only normals of the Philox(0x5EED) stream behind that direction. A
# shorter draw is a prefix of a longer one, so every caller reads the same
# values whatever the buffer's length; it is only replaced by a longer draw,
# never written in place
_noise_draw = np.empty(0)


@dataclass
class GssConfig:
    """Numerical settings for one ground-state search; ``stages`` is the
    bond-dimension schedule, built by ``sweeps.schedule`` or obeying
    ``sweeps.check_schedule``. A broken rule raises ``ConfigError`` naming
    the field."""

    chi_init: int
    stages: list[Stage]
    init_tree: str = "mpn"
    seed: int = 0
    eps_e: float = 1e-8
    eps_s: float = 1e-8
    delta_e: float = 1e-8
    delta_s: float = 1e-8

    def __post_init__(self):
        check_schedule(self.stages)
        if self.chi_init < 1:
            raise ConfigError("chi_init", f"must be at least 1, got {self.chi_init}")
        if self.seed < 0:
            raise ConfigError("seed", f"must be non-negative, got {self.seed}")
        for name in ("eps_e", "eps_s", "delta_e", "delta_s"):
            if not 0.0 < (value := getattr(self, name)) < np.inf:
                raise ConfigError(name, f"must be positive and finite, got {value!r}")


@dataclass
class Observables:
    """Single-site moments and two-site correlations from one pass."""

    single: dict[int, tuple[float, float, float]] = field(default_factory=dict)
    pairs: dict[tuple[int, int], dict[str, float]] = field(default_factory=dict)


@dataclass
class StageResult:
    chi: int
    reports: list[SweepReport]
    observables: Observables | None = None
    converged: bool = False

    @property
    def final_report(self) -> SweepReport:
        return self.reports[-1]


@dataclass
class GssResult:
    state: TTNState
    cache: OperatorCache
    stages: list[StageResult]
    initial_energy: float

    @property
    def energy(self) -> float:
        rep = self.stages[-1].final_report
        return rep.energies[self.state.topology.origin]

    @property
    def observables(self) -> Observables | None:
        return self.stages[-1].observables


def degenerate_keep_count(eigenvalues: np.ndarray, chi: int, delta_e: float) -> int:
    """Number of lowest eigenvectors to keep without splitting a multiplet:
    ``linalg.degenerate_cut`` with the absolute gap ``delta_e``. If the walk
    exhausts the spectrum the hard cap wins with a warning."""
    cap = min(chi, len(eigenvalues))
    keep = degenerate_cut(eigenvalues, cap, delta_e, relative=False)
    if keep == 0:
        warnings.warn(
            "degenerate block multiplet exceeds the initial bond dimension; "
            f"keeping {cap} states of a tied group",
            RuntimeWarning,
            stacklevel=2,
        )
        return cap
    return keep


def _perturb(psi: np.ndarray, tol: float) -> np.ndarray:
    """Mix a fixed pseudo-random direction of size ``NOISE_RATIO * tol`` into
    a normalized vector whose solve stops at the residual bound ``tol``.

    Symmetric Hamiltonians trap an exactly symmetric start vector in its
    invariant subspace, where the eigensolver converges to an excited
    sector; a tiny deterministic admixture lets the solver reach the true
    ground state while changing the Rayleigh quotient only at second order.
    """
    global _noise_draw
    n = psi.size
    needed = 2 * n if np.iscomplexobj(psi) else n
    draw = _noise_draw
    if draw.size < needed:
        draw = np.random.Generator(np.random.Philox(0x5EED)).standard_normal(needed)
        draw.flags.writeable = False
        _noise_draw = draw
    noise = draw[:n].reshape(psi.shape)
    if np.iscomplexobj(psi):
        noise = noise + 1j * draw[n:2 * n].reshape(psi.shape)
    noise = noise / np.linalg.norm(noise)
    out = psi + NOISE_RATIO * tol * noise.astype(psi.dtype)
    return out / np.linalg.norm(out)


def _solve(model, cache, legs, start, tol=None):
    """``lanczos_lowest`` on the superblock of ``legs`` from ``start``, in
    its legs' eigenbases; the vector is returned in the original basis."""
    plan = build_superblock_plan(model, cache, legs)
    rotated, diagonal, bases = eigenbasis_plan(cache, plan, legs)
    energy, psi = lanczos_lowest(rotated.apply, rotate_legs(start, bases), diagonal, tol=tol)
    return energy, rotate_legs(psi, bases, back=True)


def initialize_ttn(
    model: SpinModel,
    topology: Topology,
    chi_init: int,
    delta_e: float = 1e-8,
    delta_s: float = 1e-8,
) -> tuple[TTNState, OperatorCache, float]:
    """Real-space renormalization-group initialization.

    Isometries are chosen leaf-to-root as the lowest block-Hamiltonian
    eigenvectors with degeneracy-aware counts; the origin-bond superblock is
    then solved by the preconditioned eigensolver and split by SVD to place
    the center weights.
    Returns the state, the populated operator cache, and the initial energy.
    """
    cache = init_cache(model)
    dist = set_distance(topology, topology.origin)
    state = TTNState(
        topology=topology,
        tensors=[None] * topology.n_tensors,  # type: ignore[list-item]
        center_weights=np.ones(1),
    )
    p, q = topology.center_tensors()
    # leaf to root, the center pair last: its bond is split below, not renormalized
    for i in sorted(
        range(topology.n_tensors),
        key=lambda i: (i in (p, q), -dist[topology.edges[i][2]], topology.edges[i][2]),
    ):
        e1, e2, _ = topology.edges[i]
        d1, d2 = cache.dimension(e1), cache.dimension(e2)
        plan = build_superblock_plan(model, cache, (e1, e2))
        h = plan.apply(np.eye(d1 * d2).reshape(d1, d2, d1 * d2))
        spec = full_eigh(h.reshape(d1 * d2, d1 * d2))
        keep = degenerate_keep_count(spec.eigenvalues, chi_init, delta_e)
        state.tensors[i] = spec.eigenvectors[:, :keep].reshape(d1, d2, keep).astype(model.dtype)
        if i not in (p, q):
            refresh_bond(cache, model, state, i)

    legs = (*topology.edges[p][:2], *topology.edges[q][:2])
    k = min(state.tensors[p].shape[2], state.tensors[q].shape[2])
    phi0 = np.tensordot(
        state.tensors[p][:, :, :k], state.tensors[q][:, :, :k], axes=[2, 2]
    )
    # solved to the default bound, whose floor LANCZOS_TOL sets the noise
    energy, psi = _solve(model, cache, legs, _perturb(phi0 / np.linalg.norm(phi0), LANCZOS_TOL))

    v_p, weights, v_q, _ = decompose_tensor(
        psi, chi_init, mode=0, sigma=0.0, delta_s=delta_s
    )
    state.tensors[p] = v_p
    state.tensors[q] = v_q
    state.center_weights = weights
    return state, cache, energy


def sweep(
    state: TTNState,
    cache: OperatorCache,
    model: SpinModel,
    selection: SelectionSettings,
    observers=(),
) -> SweepReport:
    """One ground-state sweep: cache refreshes plus preconditioned
    eigensolver updates. Each solve starts from the merged tensor, perturbed
    by ``_perturb`` unless ``selection.settled``: a perturbed solve reaches
    the lowest state of its superblock, and after a settled pair of
    perturbed sweeps the merged tensors already are those states, up to the
    convergence tolerances. Each solve stops at the absolute residual
    ``selection.eps_s / 10``, so entropies move by about a tenth of what the
    convergence rule reads, energies by the square of that over the gap."""
    tol = selection.eps_s / 10

    def update(merge, info: StepInfo):
        psi = merge()
        start = psi if selection.settled else _perturb(psi / np.linalg.norm(psi), tol)
        energy, psi = _solve(model, cache, info.merge_bonds, start, tol)
        return psi, {"energy": energy}

    return run_sweep(
        state, selection, update_psi=update,
        prepare_step=partial(refresh_bond, cache, model), observers=observers,
    )


def run(
    model: SpinModel,
    config: GssConfig,
    observers=(),
    want_observables: bool = False,
) -> GssResult:
    """Full staged ground-state search.

    Each stage of ``config.stages`` runs to convergence or its sweep limit
    (``sweeps.schedule`` puts structural selection on the first only). When
    observables are requested, they are collected along every sweep that can
    close its stage (``SelectionSettings.closing``); a stage that converges
    on such a sweep without reconnecting there keeps that sweep's
    observables, so a converged stage computes the same with or without
    them. Any other stage ends with one extra fixed-structure sweep that
    collects them; its solves start unperturbed when the stage converged.
    """
    topology = build_initial_topology(model.n_sites, config.init_tree)
    state, cache, e_init = initialize_ttn(
        model, topology, config.chi_init, config.delta_e, config.delta_s
    )
    rng = np.random.Generator(np.random.Philox(config.seed))
    collector: ObservableCollector | None = None

    def run_one(selection: SelectionSettings) -> SweepReport:
        nonlocal collector
        watch = observers
        if want_observables and selection.closing:
            collector = ObservableCollector(model, cache)
            watch = (*observers, collector.on_step)
        return sweep(state, cache, model, selection, observers=watch)

    stages: list[StageResult] = []
    for stage in config.stages:
        reports, converged = run_stage(
            stage, run_one, rng, config.eps_s, config.delta_s, eps_e=config.eps_e
        )
        observables = None
        if want_observables:
            # a converged stage ended on a closing sweep, which set the collector
            if not converged or collector.reconnected:
                collector = ObservableCollector(model, cache)
                sel = SelectionSettings(
                    stage.chi, eps_s=config.eps_s, delta_s=config.delta_s, settled=converged
                )
                reports.append(sweep(
                    state, cache, model, sel, observers=(*observers, collector.on_step)
                ))
            observables = collector.finish()
        stages.append(StageResult(stage.chi, reports, observables, converged))
    return GssResult(state=state, cache=cache, stages=stages, initial_energy=e_init)


def leg_expectations(psi: np.ndarray, stacks: dict[int, np.ndarray]) -> np.ndarray:
    """``<psi| A (x) B |psi>`` for every operator ``A`` of one stack and ``B``
    of another, or ``<psi|A|psi>`` for every operator of one stack.

    ``stacks`` maps one or two legs of ``psi`` to ``(n, d, d)`` operator
    stacks. The legs' reduced matrix ``rho[i, j, k, l] = sum psi*[.., i, j, ..]
    psi[.., k, l, ..]`` is contracted with each stack in turn, so memory stays
    at ``(d_a d_b)^2`` whatever the stacks hold. The result has one axis per
    leg, in ascending leg order.
    """
    others = [ax for ax in range(psi.ndim) if ax not in stacks]
    out = np.tensordot(psi.conj(), psi, axes=(others, others))
    for n, leg in zip(range(len(stacks), 0, -1), sorted(stacks)):
        out = np.tensordot(out, stacks[leg], axes=((0, n), (1, 2)))
    return out


def _real_parts(values: np.ndarray, describe, mask=True) -> np.ndarray:
    """Real parts of expectation values of Hermitian operators. An entry
    selected by ``mask`` whose imaginary part is above rounding raises,
    named by ``describe(index)``."""
    bad = np.abs(values.imag) > 1e-10 * np.maximum(1.0, np.abs(values.real))
    bad &= mask
    if bad.any():
        index = tuple(int(i) for i in np.argwhere(bad)[0])
        raise InvariantViolation(
            f"{describe(index)} has imaginary part {values.imag[index]:.3e}"
        )
    return values.real


# rows and columns of the 3x3 (x, y, z) block behind each correlation component
_COMPONENT_ROWS = np.array(["xyz".index(c[0]) for c in CORRELATION_ORDER])
_COMPONENT_COLS = np.array(["xyz".index(c[1]) for c in CORRELATION_ORDER])


def _components(block: np.ndarray) -> dict[str, float]:
    return dict(zip(CORRELATION_ORDER, block[_COMPONENT_ROWS, _COMPONENT_COLS].tolist()))


def _moments(psi: np.ndarray, leg: int, stack: np.ndarray, where: str):
    """Spin moments (x, y, z) of one leg from its ``(3, d, d)`` stack."""
    values = leg_expectations(psi, {leg: stack})
    values = _real_parts(values, lambda index: f"<s^{'xyz'[index[0]]}> at {where}")
    return tuple(values.tolist())


def leg_pair_correlations(
    psi: np.ndarray, sites: dict[int, tuple[int, ...]], stacks: dict[int, np.ndarray],
    new: np.ndarray | None = None,
) -> dict[tuple[int, int], dict[str, float]]:
    """Correlations of every site pair split between two legs of ``psi``.

    ``sites`` maps each of the two legs to the sites behind it and
    ``stacks`` to their x, y and z operators stacked in site order, shape
    ``(3 * len(sites), d, d)``. Returns ``{(i, j): components}`` with
    ``i < j``, component ``ab`` meaning ``a`` on site ``i`` and ``b`` on site
    ``j``, for the pairs that the boolean ``new[index_a, index_b]`` selects
    (all by default); only those are checked to be real.
    """
    leg_a, leg_b = sorted(sites)
    sites_a, sites_b = sites[leg_a], sites[leg_b]
    values = leg_expectations(psi, stacks).reshape(len(sites_a), 3, len(sites_b), 3)
    if new is None:
        new = np.ones((len(sites_a), len(sites_b)), dtype=bool)

    def describe(index):
        (i, a), (j, b) = sorted(
            ((sites_a[index[0]], index[1]), (sites_b[index[2]], index[3]))
        )
        return f"<s^{'xyz'[a]} s^{'xyz'[b]}> at sites ({i}, {j})"

    values = _real_parts(values, describe, new[:, None, :, None])
    pairs = {}
    for ia, ib in zip(*np.nonzero(new)):
        i, j = sites_a[ia], sites_b[ib]
        block = values[ia, :, ib, :]
        if i > j:
            # component ab means a on the smaller site
            i, j, block = j, i, block.T
        pairs[i, j] = _components(block)
    return pairs


class ObservableCollector:
    """Gathers one- and two-site expectations along a fixed-structure sweep.

    Each site is measured the first time it appears as a physical leg of the
    center tensor; each pair is measured the first time the two sites fall
    into different legs. The final step at the origin splits every remaining
    pair, so one sweep always achieves full coverage.

    The sweep may reconnect, as the closing sweep of a stage with structural
    selection can: the first reconnecting step sets ``reconnected`` and the
    collector measures nothing more, since its values would no longer come
    from one structure, and ``finish`` refuses the pass.

    A step measures per leg pair, not per site pair: the x, y and z
    operators of every site behind a leg are stacked, and one reduced
    matrix of the two legs gives all their site pairs at once
    (``leg_pair_correlations``). Leg pairs whose site pairs are all measured
    are skipped.
    """

    def __init__(self, model: SpinModel, cache: OperatorCache):
        self.model = model
        self.cache = cache
        self.single: dict[int, tuple[float, float, float]] = {}
        self.pairs: dict[tuple[int, int], dict[str, float]] = {}
        self._measured = np.zeros((model.n_sites, model.n_sites), dtype=bool)
        self.reconnected = False

    def on_step(self, state: TTNState, info: StepInfo):
        # pairing 0 keeps each tensor's bond set; pairings 1 and 2 reconnect
        self.reconnected = self.reconnected or info.choice.pairing != 0
        if self.reconnected:
            return
        psi = merge_center(state, info.t, info.t_conn)
        bonds = info.center_bonds
        topo = state.topology
        stacks: dict[int, np.ndarray] = {}

        def stack(axis):
            if axis not in stacks:
                stacks[axis] = xyz_stack(self.cache, bonds[axis])
            return stacks[axis]

        for axis, b in enumerate(bonds):
            if topo.is_physical(b) and b not in self.single:
                self.single[b] = _moments(psi, axis, stack(axis), f"site {b}")
        for ax_a, ax_b in combinations(range(4), 2):
            sites_a = self.cache.sites[bonds[ax_a]]
            sites_b = self.cache.sites[bonds[ax_b]]
            new = ~self._measured[np.ix_(sites_a, sites_b)]
            if not new.any():
                continue
            self.pairs.update(leg_pair_correlations(
                psi, {ax_a: sites_a, ax_b: sites_b},
                {ax_a: stack(ax_a), ax_b: stack(ax_b)}, new,
            ))
            self._measured[np.ix_(sites_a, sites_b)] = True
            self._measured[np.ix_(sites_b, sites_a)] = True

    def finish(self) -> Observables:
        if self.reconnected:
            raise InvariantViolation("structure changed during an observable pass")
        n = self.model.n_sites
        missing_sites = set(range(n)) - self.single.keys()
        if missing_sites:
            raise InvariantViolation(f"sites never measured: {sorted(missing_sites)}")
        expected = {(i, j) for i in range(n) for j in range(i + 1, n)}
        missing = expected - self.pairs.keys()
        if missing:
            raise InvariantViolation(f"pairs never measured: {sorted(missing)[:5]}")
        extra = self.pairs.keys() - expected
        if extra:
            raise InvariantViolation(f"unexpected pair keys: {sorted(extra)[:5]}")
        return Observables(single=dict(self.single), pairs=dict(self.pairs))
