"""Tree tensor network states in mixed canonical form.

Tensors are 3-index arrays ``v[i1, i2, i3]`` satisfying the isometric
condition: contracting the first two indices of ``v`` with its conjugate
yields the identity on the third. The singular-value vector lives on the
canonical center bond and sums to one in square.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation
from .linalg import cut_spectrum, entanglement_entropy, full_svd, spectrum_cut
from .topology import Topology, subtree_sites

__all__ = [
    "TTNState",
    "ReconnectChoice",
    "PAIRINGS",
    "merge_center",
    "merge_moving",
    "moved_edges",
    "decompose_tensor",
    "site_ee",
    "cooled_temperature",
    "selection_probabilities",
    "isometry_defect",
    "audit_state",
    "to_dense",
    "dense_bipartition_entropy",
]

# the three ways to split the merged 4-leg tensor (p1 p2 q1 q2):
# axis groupings of the left factor; the right factor takes the rest
PAIRINGS = ((0, 1, 2, 3), (0, 3, 1, 2), (0, 2, 1, 3))


@dataclass
class ReconnectChoice:
    """Outcome of a structural selection among the three pairings; the
    entropy and error of a pairing that was not evaluated read ``nan``."""

    pairing: int
    entropies: tuple[float, float, float]
    truncation_errors: tuple[float, float, float]
    selected_entropy: float
    probabilities: tuple[float, float, float] | None = None


@dataclass
class TTNState:
    """Isometric tensors plus the center singular values and topology."""

    topology: Topology
    tensors: list[np.ndarray]
    center_weights: np.ndarray
    norm_scale: float = 1.0

    def bond_dimensions(self) -> dict[int, int]:
        dims: dict[int, int] = {}
        for i, (e, t) in enumerate(zip(self.topology.edges, self.tensors)):
            if t.ndim != 3:
                raise InvariantViolation(f"tensor has {t.ndim} legs, want 3", tensor=i)
            for label, d in zip(e, t.shape):
                prev = dims.get(label)
                if prev is not None and prev != d:
                    raise InvariantViolation(
                        f"bond {label} carries dims {prev} and {d}", tensor=i
                    )
                dims[label] = d
        return dims

    def max_bond_dimension(self) -> int:
        return max(max(t.shape) for t in self.tensors)

    def copy(self) -> "TTNState":
        return TTNState(
            topology=self.topology.copy(),
            tensors=[t.copy() for t in self.tensors],
            center_weights=self.center_weights.copy(),
            norm_scale=self.norm_scale,
        )


def cooled_temperature(t0: float, n: int, n_tau: int) -> float:
    """Annealed selection temperature, halved every ``n_tau`` sweeps."""
    if t0 < 0:
        raise ValueError("temperature must be non-negative")
    if n_tau < 1:
        raise ValueError("decay interval must be at least 1")
    return float(2.0 ** (-n / n_tau) * t0)


def merge_center(state: TTNState, t: int, t_conn: int) -> np.ndarray:
    """Contract the two center tensors with the weights on the shared bond.

    Returns a 4-leg tensor indexed by (e1(t), e2(t), e1(t'), e2(t')).
    """
    et, ec = state.topology.edges[t], state.topology.edges[t_conn]
    if et[2] != ec[2] or et[2] != state.topology.center:
        raise InvariantViolation(
            f"tensors {t},{t_conn} do not share the canonical center"
        )
    a = state.tensors[t] * state.center_weights
    return np.tensordot(a, state.tensors[t_conn], axes=[2, 2])


def moved_edges(
    topology: Topology, t: int, t_conn: int, e_c: int, e_new: int
) -> list[int]:
    """The bond triple of ``t`` once the center moves from ``e_c`` to
    ``e_new``.

    ``t`` is a center tensor (slot 3 = ``e_c``) holding ``e_new`` in a child
    slot; ``t_conn`` is the tensor pointing at ``t`` through ``e_new``. The
    child slot of ``t`` that held ``e_new`` is taken over by ``e_c``.
    """
    et = topology.edges[t]
    if et[2] != e_c:
        raise InvariantViolation(f"tensor {t} does not point at bond {e_c}")
    if topology.edges[t_conn][2] != e_new:
        raise InvariantViolation(f"tensor {t_conn} does not point at bond {e_new}")
    if et[0] == e_new:
        return [e_c, et[1], e_new]
    if et[1] == e_new:
        return [et[0], e_c, e_new]
    raise InvariantViolation(f"bond {e_new} is not a child of tensor {t}")


def merge_moving(state: TTNState, t: int, t_conn: int, e_c: int, e_new: int) -> np.ndarray:
    """Contract across ``e_new`` while absorbing the weights on ``e_c``.

    The merged tensor is indexed by the post-move legs (e1(t), e2(t),
    e1(t'), e2(t')), the triple of ``t`` being ``moved_edges``.
    """
    new_et = moved_edges(state.topology, t, t_conn, e_c, e_new)
    weighted = state.tensors[t] * state.center_weights
    if new_et[0] == e_c:
        psi = np.tensordot(weighted, state.tensors[t_conn], axes=[0, 2])
        # axes now (e2(t), e_c, e1(t'), e2(t')) -> bring e_c first
        return psi.transpose(1, 0, 2, 3)
    return np.tensordot(weighted, state.tensors[t_conn], axes=[1, 2])


def selection_probabilities(entropies, temperature: float) -> np.ndarray:
    """Heat-bath weights proportional to exp(-S / T), normalized to one."""
    s = np.asarray(entropies, dtype=float)
    w = np.exp(-(s - s.min()) / temperature)
    return w / w.sum()


def _choose_pairing(
    entropies: list[float],
    trunc_errors: list[float],
    mode: int,
    temperature: float,
    rng: np.random.Generator | None,
    eps_s: float,
) -> tuple[int, tuple[float, float, float] | None]:
    if mode == 0:
        return 0, None
    if mode not in (1, 2):
        raise ValueError(f"unknown structure-selection mode {mode}")
    if mode == 1 and temperature > 0.0:
        if rng is None:
            raise ValueError("stochastic selection requires a random generator")
        probs = selection_probabilities(entropies, temperature)
        return int(rng.choice(3, p=probs)), tuple(probs)
    # least entanglement among all pairings (mode 1) or among those tied in
    # least truncation error (mode 2); pairing 0 is kept within eps_s of it
    errors = trunc_errors if mode == 2 else [0.0] * 3
    low = min(errors)
    tied = [k for k in range(3) if errors[k] - low < 1e-13]
    best = min(tied, key=entropies.__getitem__)
    if 0 in tied and entropies[0] - entropies[best] < eps_s:
        return 0, None
    return best, None


def decompose_tensor(
    psi: np.ndarray,
    chi: int,
    mode: int = 0,
    temperature: float = 0.0,
    rng: np.random.Generator | None = None,
    eps_s: float = 1e-8,
    sigma: float = 0.0,
    delta_s: float = 1e-8,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, ReconnectChoice]:
    """Split a normalized 4-leg tensor into two isometries and weights.

    The kept structure is chosen by ``mode`` (0: keep the original split, 1:
    least entanglement, 2: least truncation error). With ``mode == 1`` and a
    positive temperature the pairing is sampled with heat-bath
    probabilities. Mode 0 runs one full SVD, of pairing 0; pairings 1 and 2
    are not evaluated and their entropies and errors are ``nan``. Modes 1 and
    2 compare pairing 0's full SVD with the singular values of pairings 1 and
    2, then run a full SVD of a chosen pairing other than 0, whose entropy
    and error replace the values-only ones. Mode 1, which chooses by entropy,
    takes those values from Gram matrices; mode 2 runs values-only SVDs,
    because its degeneracy-aware cut reads the small values. The kept
    spectrum is truncated to ``chi`` values (degeneracy-aware) and rescaled.

    Returns ``(v_left, weights, v_right, choice)`` where the left isometry
    carries the pairing's first two legs and the right one the other two.
    """
    if chi < 1:
        raise ValueError(f"bond dimension must be positive, got {chi}")
    if psi.ndim != 4:
        raise ValueError(f"expected a 4-leg tensor, got ndim={psi.ndim}")

    dims = psi.shape

    def split(pairing, vectors=True):
        perm = PAIRINGS[pairing]
        mat = psi.transpose(perm).reshape(dims[perm[0]] * dims[perm[1]], -1)
        return full_svd(mat, vectors=vectors, gram=not vectors and mode == 1)

    spec = split(0)
    spectra = [spec.values] + [split(k, vectors=False) for k in (1, 2) if mode != 0]
    entropies = [math.nan] * 3
    trunc_errors = [math.nan] * 3
    cuts = []
    for k, values in enumerate(spectra):
        entropies[k] = entanglement_entropy(values)
        cuts.append(spectrum_cut(values, chi, sigma, delta_s))
        trunc_errors[k] = 1.0 - cuts[k][1]

    pairing, probs = _choose_pairing(
        entropies, trunc_errors, mode, temperature, rng, eps_s
    )
    cut = cuts[0]
    if pairing != 0:
        spec = split(pairing)
        entropies[pairing] = entanglement_entropy(spec.values)
        cut = spectrum_cut(spec.values, chi, sigma, delta_s)
        trunc_errors[pairing] = 1.0 - cut[1]
    kept = cut_spectrum(spec, *cut)
    perm = PAIRINGS[pairing]
    chi_kept = kept.rank
    v_left = kept.left_vectors.reshape(dims[perm[0]], dims[perm[1]], chi_kept)
    v_right = kept.right_vectors.reshape(chi_kept, dims[perm[2]], dims[perm[3]])
    choice = ReconnectChoice(
        pairing=pairing,
        entropies=tuple(entropies),
        truncation_errors=tuple(trunc_errors),
        selected_entropy=entanglement_entropy(kept.values),
        probabilities=probs,
    )
    return v_left, kept.values, v_right.transpose(1, 2, 0), choice


def site_ee(psi: np.ndarray, leg: int) -> float:
    """Entanglement entropy of one leg of a normalized tensor.

    Diagonalizes the single-leg reduced density matrix obtained by tracing
    all other legs.
    """
    if not 0 <= leg < psi.ndim:
        raise ValueError(f"leg {leg} out of range for ndim={psi.ndim}")
    # the two transposed copies and the product that tensordot over the
    # other legs makes, without its argument handling: the same bits
    others = [a for a in range(psi.ndim) if a != leg]
    d = psi.shape[leg]
    rho = np.dot(
        psi.transpose([leg, *others]).reshape(d, -1),
        psi.conj().transpose([*others, leg]).reshape(-1, d),
    )
    lam = np.linalg.eigvalsh(rho)
    lam = lam[lam > 0.0]
    if lam.size == 0:
        return 0.0
    return float(-(lam * np.log(lam)).sum())


def isometry_defect(tensor: np.ndarray) -> float:
    """Largest deviation from the isometric condition on the third leg."""
    w = tensor.reshape(-1, tensor.shape[2])
    gram = w.conj().T @ w
    return float(np.max(np.abs(gram - np.eye(tensor.shape[2]))))


def audit_state(
    state: TTNState,
    iso_tol: float = 1e-10,
    weight_tol: float = 1e-12,
    tensors: list[int] | None = None,
) -> None:
    """Check isometric conditions and weight normalization.

    ``tensors`` restricts the isometry check to a subset (used per sweep
    step, where only two tensors changed). A non-finite value fails every
    check.
    """
    indices = range(len(state.tensors)) if tensors is None else tensors
    for i in indices:
        defect = isometry_defect(state.tensors[i])
        if not defect <= iso_tol:
            raise InvariantViolation(
                f"tensor {i} isometry defect {defect:.3e}", tensor=i
            )
    w = state.center_weights
    if not abs(float(np.sum(w**2)) - 1.0) <= weight_tol:
        raise InvariantViolation("center weights do not square-sum to one")
    if np.any(np.diff(w) > 1e-14):
        raise InvariantViolation("center weights are not sorted descending")
    dims = state.bond_dimensions()
    if len(w) != dims[state.topology.center]:
        raise InvariantViolation("center weight count does not match bond dimension")


def to_dense(state: TTNState) -> np.ndarray:
    """Contract the full network into a dense array with site-ordered legs."""
    topo = state.topology
    p, q = topo.center_tensors()
    # contract the center pair, then fold in each tensor on its slot-3 leg,
    # parents first
    acc = merge_center(state, p, q)
    legs = [*topo.edges[p][:2], *topo.edges[q][:2]]
    for i in reversed(topo.walk(legs, topo.owners())):
        ax = legs.index(topo.edges[i][2])
        acc = np.tensordot(acc, state.tensors[i], axes=[ax, 2])
        legs.pop(ax)
        legs.extend(topo.edges[i][:2])
    return acc.transpose([legs.index(s) for s in range(topo.n_sites)])


def dense_bipartition_entropy(
    dense: np.ndarray, sites_a: tuple[int, ...]
) -> float:
    """Entanglement entropy of a site bipartition of a dense state."""
    n = dense.ndim
    a = sorted(sites_a)
    b = [s for s in range(n) if s not in sites_a]
    mat = dense.transpose(a + b).reshape(
        int(np.prod([dense.shape[s] for s in a])), -1
    )
    vals = np.linalg.svd(mat, compute_uv=False)
    return entanglement_entropy(vals)


def state_bond_entropy_dense(state: TTNState, bond: int) -> float:
    """Oracle: bond entropy from a dense bipartition SVD of the full state."""
    topo = state.topology
    if topo.is_physical(bond):
        sites = (bond,)
    else:
        owners = topo.tensors_of_bond(bond)
        sites = subtree_sites(topo, bond, owners[0])
    return dense_bipartition_entropy(to_dense(state), sites)
