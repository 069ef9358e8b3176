"""The flag-driven two-tensor sweep walk shared by all update modes.

One sweep starts and ends at the origin bond. Each step moves the canonical
center across the unflagged candidate bond farthest from the origin, read
off the walk's path from the origin (a reconnection never relabels a bond on
it), merges the two adjacent tensors, optionally updates the merged tensor
(eigensolver or environment embedding), and decomposes it back with
structural selection. A bond's flag is raised once the subtree behind it is
complete, which steers the walk over every tensor and back to the origin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, InvariantViolation
from .state import (
    PAIRINGS,
    ReconnectChoice,
    TTNState,
    cooled_temperature,
    decompose_tensor,
    merge_center,
    merge_moving,
    site_ee,
)
from .topology import candidate_edge_indices, local_two_tensor, set_distance, tree_shape

__all__ = [
    "SETTLED_SWEEPS", "SelectionSettings", "SweepReport", "StepInfo", "Stage",
    "schedule", "check_schedule", "run_sweep", "run_stage", "settled",
]

# consecutive settled sweep pairs that end a stage
SETTLED_SWEEPS = 3


@dataclass
class SelectionSettings:
    """Bond dimension cap and structural-selection knobs for one sweep."""

    chi: int
    mode: int = 0
    temperature: float = 0.0
    rng: np.random.Generator | None = None
    eps_s: float = 1e-8
    sigma: float = 0.0
    delta_s: float = 1e-8


@dataclass
class SweepReport:
    """Per-bond quantities recorded along one sweep."""

    energies: dict[int, float] = field(default_factory=dict)
    entropies: dict[int, float] = field(default_factory=dict)
    truncation_errors: dict[int, float] = field(default_factory=dict)
    fidelities: dict[int, float] = field(default_factory=dict)
    structure_snapshot: tuple = ()


@dataclass
class StepInfo:
    """Everything an observer needs about one completed sweep step."""

    t: int
    t_conn: int
    merge_bonds: tuple[int, int, int, int]
    center_bonds: tuple[int, int, int, int]
    choice: ReconnectChoice
    extras: dict


UpdateFn = Callable[[np.ndarray, "StepInfo"], tuple[np.ndarray, dict]]
PrepareFn = Callable[[TTNState, int], None]
Observer = Callable[[TTNState, StepInfo], None]


def run_sweep(
    state: TTNState,
    selection: SelectionSettings,
    update_psi: UpdateFn | None = None,
    prepare_step: PrepareFn | None = None,
    observers: Sequence[Observer] = (),
) -> SweepReport:
    """Execute one full sweep and return the recorded bond quantities.

    ``prepare_step(state, tensor_prev)`` runs before each merge, after
    the previously updated tensor is known (operator-cache refresh hook).
    ``update_psi(psi, info)`` replaces the merged tensor (Lanczos step,
    environment embedding); returning extras ``{"energy": E}`` or
    ``{"fidelity_scale": s}`` records them per bond.
    """
    topo = state.topology
    o_c = topo.origin
    if topo.center != o_c:
        raise InvariantViolation(
            f"sweep must start at the origin bond {o_c}, center is {topo.center}"
        )
    flags = {e: 1 if topo.is_physical(e) else 0 for e in topo.bonds}
    set_distance(topo, o_c)  # the origin is a bond and the tree is connected
    path = [o_c]
    report = SweepReport()

    # two-tensor networks have no walk; one step updates the center pair in place
    static = not candidate_edge_indices(topo, o_c, flags)
    e_c = o_c
    steps = 0
    max_steps = 4 * topo.n_tensors
    walking = True
    while walking:
        steps += 1
        if steps > max_steps:
            raise InvariantViolation(
                f"sweep did not terminate within {max_steps} steps"
            )
        if static:
            t, t_conn = topo.center_tensors()
            e_new = e_c
            psi = merge_center(state, t, t_conn)
            merge_bonds = (*topo.edges[t][:2], *topo.edges[t_conn][:2])
        else:
            e_new, t, t_conn, t_prev = local_two_tensor(topo, e_c, flags, path)
            if prepare_step is not None:
                prepare_step(state, t_prev)
            psi, new_et = merge_moving(state, t, t_conn, e_c, e_new)
            merge_bonds = (new_et[0], new_et[1], *topo.edges[t_conn][:2])
        info = StepInfo(
            t=t,
            t_conn=t_conn,
            merge_bonds=merge_bonds,
            center_bonds=merge_bonds,
            choice=None,
            extras={},
        )
        if update_psi is not None:
            psi, info.extras = update_psi(psi, info)

        _decompose_and_record(
            state, psi, t, t_conn, e_new, merge_bonds, selection, info, report
        )
        for obs in observers:
            obs(state, info)
        e_c = e_new
        # the walk goes on while a child bond of the new center pair is unflagged
        walking = any(flags[c] == 0 for i in (t, t_conn) for c in topo.edges[i][:2])

    if e_c != o_c:
        raise InvariantViolation(
            f"sweep terminated at bond {e_c}, expected the origin {o_c}"
        )
    report.structure_snapshot = topo.snapshot()
    return report


def _decompose_and_record(
    state, psi, t, t_conn, e_new, merge_bonds, selection, info, report
):
    topo = state.topology
    v_left, weights, v_right, choice = decompose_tensor(
        psi,
        selection.chi,
        mode=selection.mode,
        temperature=selection.temperature,
        rng=selection.rng,
        eps_s=selection.eps_s,
        sigma=selection.sigma,
        delta_s=selection.delta_s,
    )
    perm = PAIRINGS[choice.pairing]
    state.tensors[t] = v_left
    state.tensors[t_conn] = v_right
    state.center_weights = weights
    topo.edges[t] = [merge_bonds[perm[0]], merge_bonds[perm[1]], e_new]
    topo.edges[t_conn] = [merge_bonds[perm[2]], merge_bonds[perm[3]], e_new]
    topo.center = e_new

    info.choice = choice
    info.center_bonds = tuple(merge_bonds[p] for p in perm)

    err = choice.truncation_errors[choice.pairing]
    report.entropies[e_new] = choice.selected_entropy
    report.truncation_errors[e_new] = err
    if "energy" in info.extras:
        report.energies[e_new] = info.extras["energy"]
    if "fidelity_scale" in info.extras:
        report.fidelities[e_new] = info.extras["fidelity_scale"] * math.sqrt(
            max(0.0, 1.0 - err)
        )
    # the other half is an isometry: the weighted half has the leg's density matrix
    for axis, bond in enumerate(info.center_bonds):
        if topo.is_physical(bond):
            half = (v_left if axis < 2 else v_right) * weights
            report.entropies[bond] = site_ee(half, axis % 2)


@dataclass
class Stage:
    """One schedule entry: bond-dimension cap, sweep limit, selection mode
    and the annealing of heat-bath selection. The temperature halves every
    ``n_tau`` sweeps, by default every ``max(1, n_max // 2)``. A broken
    rule raises ``ConfigError`` naming the field."""

    chi: int
    n_max: int
    mode: int = 0
    t0: float = 0.0
    n_tau: int | None = None

    def __post_init__(self):
        if self.n_tau is None:
            self.n_tau = max(1, self.n_max // 2)
        if self.mode not in (0, 1, 2):
            raise ConfigError("mode", f"must be 0, 1 or 2, got {self.mode!r}")
        for name, low in (("chi", 1), ("n_max", 1), ("n_tau", 1), ("t0", 0)):
            if (value := getattr(self, name)) < low:
                raise ConfigError(name, f"must be at least {low}, got {value}")


def schedule(
    chis: Sequence[int], limits: Sequence[int], mode: int = 0, t0: float = 0.0,
    n_tau: int | None = None,
) -> list[Stage]:
    """Stages of a schedule: bond dimensions ``chis`` with sweep limits
    ``limits``, one per bond dimension. Structural selection (``mode``,
    ``t0``, ``n_tau``) applies to the first stage only; later stages keep the
    structure fixed. The result obeys ``check_schedule``."""
    if len(chis) != len(limits):
        raise ConfigError(
            None, f"need one sweep limit per bond dimension, got {list(chis)}, {list(limits)}"
        )
    stages = [
        Stage(chi, n_max, mode, t0, n_tau) if i == 0 else Stage(chi, n_max)
        for i, (chi, n_max) in enumerate(zip(chis, limits))
    ]
    check_schedule(stages)
    return stages


def check_schedule(stages: Sequence[Stage]) -> None:
    """The rules of every stage list: ``Stage`` records, at least one,
    strictly ascending in bond dimension, and structural selection on the
    first stage only. A broken rule raises ``ConfigError``."""
    if not stages or not all(isinstance(s, Stage) for s in stages):
        raise ConfigError(None, f"a schedule needs one or more Stage records, got {stages!r}")
    chis = [s.chi for s in stages]
    if any(b <= a for a, b in zip(chis, chis[1:])):
        raise ConfigError("chi", f"must strictly ascend, got {chis}")
    if any(s.mode != 0 for s in stages[1:]):
        raise ConfigError(
            "mode", f"must be 0 after the first stage, got {[s.mode for s in stages]}"
        )


def settled(
    prev: SweepReport,
    cur: SweepReport,
    eps_s: float,
    eps_e: float = 0.0,
    eps_f: float = 0.0,
) -> bool:
    """Whether two consecutive sweeps agree: same tree shape (``tree_shape``
    of the snapshots, so child-slot order does not count), and every bond
    quantity both recorded within its tolerance (energies relative to their
    magnitude, entropies and fidelities absolute)."""
    return (
        tree_shape(prev.structure_snapshot) == tree_shape(cur.structure_snapshot)
        and _agree(prev.entropies, cur.entropies, eps_s)
        and _agree(prev.energies, cur.energies, eps_e, relative=True)
        and _agree(prev.fidelities, cur.fidelities, eps_f)
    )


def _agree(a: dict, b: dict, tol: float, relative: bool = False) -> bool:
    return all(
        abs(b[k] - a[k]) <= (tol * max(abs(a[k]), abs(b[k])) if relative else tol)
        for k in a.keys() & b.keys()
    )


def run_stage(
    stage: Stage,
    sweep: Callable[[SelectionSettings], SweepReport],
    rng: np.random.Generator | None,
    eps_s: float,
    delta_s: float,
    sigma: float = 0.0,
    eps_e: float = 0.0,
    eps_f: float = 0.0,
) -> tuple[list[SweepReport], bool]:
    """Sweep at the stage's bond dimension until ``SETTLED_SWEEPS``
    consecutive pairs of reports are ``settled`` or ``stage.n_max`` sweeps
    have run. Returns the reports and whether the stage converged.

    ``sweep(selection)`` runs one sweep. Under heat-bath selection (mode 1)
    the temperature of sweep ``n`` is ``cooled_temperature(t0, n, n_tau)``.
    """
    reports: list[SweepReport] = []
    streak = 0
    for n in range(stage.n_max):
        temperature = 0.0
        if stage.mode == 1 and stage.t0 > 0.0:
            temperature = cooled_temperature(stage.t0, n, stage.n_tau)
        selection = SelectionSettings(
            stage.chi, stage.mode, temperature, rng, eps_s, sigma, delta_s
        )
        reports.append(sweep(selection))
        if len(reports) > 1 and settled(reports[-2], reports[-1], eps_s, eps_e, eps_f):
            streak += 1
            if streak == SETTLED_SWEEPS:
                return reports, True
        else:
            streak = 0
    return reports, False
