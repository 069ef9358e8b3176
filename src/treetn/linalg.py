"""Dense linear-algebra kernels: SVD with degeneracy-aware truncation,
Hermitian diagonalization, and a Lanczos lowest-eigenpair solver.

All routines are pure functions of their inputs and safe to call
concurrently on distinct data.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg.lapack import dstebz, dstein

from .errors import NumericalError

__all__ = [
    "SingularSpectrum",
    "EigenSpectrum",
    "full_svd",
    "spectrum_cut",
    "truncate_spectrum",
    "full_eigh",
    "lanczos_lowest",
    "entanglement_entropy",
]

LANCZOS_MAX_KRYLOV = 200  # Krylov vectors per restart
LANCZOS_TOL = 1e-12  # residual bound, relative to max(1, |E|)
LANCZOS_RESTARTS = 10
HERMITIAN_TOL = 1e-10  # asymmetry accepted by full_eigh, relative to max(1, max|A|)
KRYLOV_ROWS = 32  # rows of a fresh Krylov basis; it doubles when full
ZERO_FLOOR = 1e-14  # relative size below which singular values count as rank noise


@dataclass
class SingularSpectrum:
    """Result of a full SVD: A = left_vectors @ diag(values) @ right_vectors.

    ``values`` is sorted descending; the columns of ``left_vectors`` and the
    rows of ``right_vectors`` are orthonormal.
    """

    values: np.ndarray
    left_vectors: np.ndarray
    right_vectors: np.ndarray

    @property
    def rank(self) -> int:
        return len(self.values)

    def reconstruct(self) -> np.ndarray:
        return (self.left_vectors * self.values) @ self.right_vectors


@dataclass
class EigenSpectrum:
    """Result of a full Hermitian diagonalization, eigenvalues ascending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def full_svd(matrix: np.ndarray, vectors: bool = True) -> SingularSpectrum | np.ndarray:
    """Full singular value decomposition of a 2-index array; with
    ``vectors=False`` only the singular values, sorted descending."""
    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={matrix.ndim}")
    if not np.all(np.isfinite(matrix)):
        raise NumericalError("non-finite entries in SVD input")
    if not vectors:
        return np.linalg.svd(matrix, compute_uv=False)
    u, s, vh = np.linalg.svd(matrix, full_matrices=False)
    return SingularSpectrum(values=s, left_vectors=u, right_vectors=vh)


def degenerate_cut(values: np.ndarray, keep: int, delta: float) -> int:
    """Move a cut boundary down so it does not split a degenerate multiplet.

    ``values`` are sorted descending. The boundary sits between index
    ``keep - 1`` (last kept) and ``keep`` (first dropped); while the relative
    gap there is below ``delta`` the last kept value is dropped as well.
    Returns 0 when the walk exhausts the spectrum (multiplet does not fit).
    """
    if keep >= len(values):
        return len(values)
    while keep > 0:
        prev = values[keep - 1]
        if prev == 0.0:
            keep -= 1
            continue
        if abs(values[keep] - prev) / abs(prev) < delta:
            keep -= 1
        else:
            break
    return keep


def spectrum_cut(
    values: np.ndarray, chi_max: int, sigma: float = 0.0, delta_s: float = 0.0
) -> tuple[int, float, bool]:
    """Where ``truncate_spectrum`` cuts a descending spectrum, silently:
    the kept count, the truncation error ``1 - sum(kept D^2)``, and whether
    a multiplet tied within ``delta_s`` straddles the cap (the cap wins)."""
    if chi_max < 1:
        raise ValueError(f"chi_max must be positive, got {chi_max}")
    keep = min(chi_max, len(values))
    # numerical zeros (relative ~1e-14) are rank noise and always dropped
    above = np.count_nonzero(values > max(sigma, ZERO_FLOOR) * values[0])
    keep = min(keep, max(above, 1))
    walked = degenerate_cut(values, keep, delta_s) if delta_s > 0.0 else keep
    keep = walked or keep
    return keep, 1.0 - float(np.sum(values[:keep] ** 2)), walked == 0


def truncate_spectrum(
    spec: SingularSpectrum,
    chi_max: int,
    sigma: float = 0.0,
    delta_s: float = 0.0,
) -> tuple[SingularSpectrum, float]:
    """Truncate a singular spectrum to at most ``chi_max`` values.

    Values with ``D_i / D_1 <= sigma`` are dropped. If the cut would split a
    multiplet whose relative internal gaps are below ``delta_s``, the cut
    moves down so the whole multiplet is discarded together; when the
    multiplet cannot be kept whole under ``chi_max`` the hard cap wins and a
    warning is emitted. Kept values are rescaled to unit sum of squares.

    Returns the truncated spectrum and the truncation error
    ``1 - sum(kept D^2)`` evaluated on the pre-rescaling values.
    """
    keep, error, straddles = spectrum_cut(spec.values, chi_max, sigma, delta_s)
    if straddles:
        warnings.warn(
            "degenerate multiplet straddles the bond-dimension cap; "
            f"keeping {keep} of a tied group",
            RuntimeWarning,
            stacklevel=2,
        )
    kept = spec.values[:keep]
    weight = float(np.sum(kept**2))
    truncated = SingularSpectrum(
        values=kept / np.sqrt(weight) if weight > 0.0 else kept,
        left_vectors=spec.left_vectors[:, :keep],
        right_vectors=spec.right_vectors[:keep, :],
    )
    return truncated, error


def full_eigh(hermitian: np.ndarray) -> EigenSpectrum:
    """Full diagonalization of a Hermitian matrix, eigenvalues ascending."""
    hermitian = np.asarray(hermitian)
    if hermitian.ndim != 2 or hermitian.shape[0] != hermitian.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {hermitian.shape}")
    if not np.all(np.isfinite(hermitian)):
        raise NumericalError("non-finite entries in eigh input")
    scale = max(1.0, float(np.max(np.abs(hermitian))))
    if np.max(np.abs(hermitian - hermitian.conj().T)) > HERMITIAN_TOL * scale:
        raise NumericalError("matrix is not Hermitian within tolerance")
    vals, vecs = np.linalg.eigh(hermitian)
    return EigenSpectrum(eigenvalues=vals, eigenvectors=vecs)


def entanglement_entropy(singular_values: np.ndarray) -> float:
    """Von Neumann entropy -sum(D^2 ln D^2) of a Schmidt spectrum.

    Zero values contribute nothing (0 ln 0 := 0).
    """
    w = np.asarray(singular_values, dtype=float) ** 2
    w = w[w > 0.0]
    if w.size == 0:
        return 0.0
    return float(-np.sum(w * np.log(w)))


def lanczos_lowest(
    apply: Callable[[np.ndarray], np.ndarray], init: np.ndarray
) -> tuple[float, np.ndarray]:
    """Lowest eigenpair of a Hermitian operator given by its action.

    ``apply`` maps an array to an array of the same shape; ``init`` must be
    normalized. The Krylov basis is fully reorthogonalized, so results are
    deterministic. A breakdown with a small residual signals an exact
    invariant subspace and returns the current best pair. Restarts from the
    current best vector, at most ``LANCZOS_RESTARTS`` times, until the
    residual satisfies ``|H v - E v| <= LANCZOS_TOL * max(1, |E|)``.
    """
    vec = np.asarray(init)
    dim = vec.size
    if dim == 0:
        raise ValueError("empty initial vector")
    nrm = np.linalg.norm(vec)
    if not np.isfinite(nrm) or nrm == 0.0:
        raise ValueError("initial vector must be normalized and finite")
    vec = vec / nrm

    for _ in range(LANCZOS_RESTARTS):
        energy, vec, residual = _lanczos_cycle(apply, vec, min(LANCZOS_MAX_KRYLOV, dim))
        if residual <= LANCZOS_TOL * max(1.0, abs(energy)):
            return energy, vec
    warnings.warn(
        f"Lanczos residual {residual:.3e} above tolerance after "
        f"{LANCZOS_RESTARTS} restarts",
        RuntimeWarning,
        stacklevel=2,
    )
    return energy, vec


def _lanczos_cycle(apply, v0, max_krylov):
    """One restarted Lanczos pass; returns (energy, vector, residual norm).
    The Krylov vectors are rows of one array that doubles when full and turns
    complex when a product does; reorthogonalization and the Ritz vector are
    matrix-vector products on it."""
    shape = v0.shape
    w = _apply_checked(apply, v0, v0.dtype).ravel()
    basis = np.empty((min(max_krylov, KRYLOV_ROWS), w.size), np.result_type(v0, w))
    basis[0] = v0.ravel()
    alphas = [float(np.vdot(basis[0], w).real)]
    betas: list[float] = []
    w -= alphas[0] * basis[0]

    s = np.array([1.0])
    for k in range(1, max_krylov):
        w = _reorthogonalize(basis[:k], w)
        beta = float(np.linalg.norm(w))
        if beta < 1e-14:
            # invariant subspace: the tridiagonal problem is exact
            break
        if k == len(basis) or not np.can_cast(w.dtype, basis.dtype):
            grown = np.empty((min(2 * k, max_krylov), w.size), np.result_type(basis, w))
            grown[:k] = basis[:k]
            basis = grown
        np.divide(w, beta, out=basis[k])
        betas.append(beta)
        w = _apply_checked(apply, basis[k].reshape(shape), basis.dtype).ravel()
        alphas.append(float(np.vdot(basis[k], w).real))
        w -= alphas[-1] * basis[k]
        w -= beta * basis[k - 1]

        theta, s = _tridiag_ground(alphas, betas)
        # residual estimate |beta_{k+1} s_k| of the current Ritz pair
        if np.linalg.norm(w) * abs(s[-1]) <= 0.5 * LANCZOS_TOL * max(1.0, abs(theta)):
            break

    vec = (s @ basis[: len(s)]).reshape(shape)
    vec = vec / np.linalg.norm(vec)
    hv = _apply_checked(apply, vec, vec.dtype)
    energy = float(np.vdot(vec, hv).real)
    residual = float(np.linalg.norm(hv - energy * vec))
    return energy, vec, residual


def _reorthogonalize(basis: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Remove the span of the orthonormal rows of ``basis`` from ``w`` in
    place by classical Gram-Schmidt, repeated once when the pass cancelled
    more than ``1 - 1/sqrt(2)`` of the norm (Daniel-Gragg-Kaufman-Stewart)."""
    before = np.linalg.norm(w)
    for _ in range(2):
        w -= (basis @ w.conj()).conj() @ basis
        after = np.linalg.norm(w)
        if after > before / np.sqrt(2):
            break
        before = after
    return w


def _tridiag_ground(alphas, betas):
    """Lowest eigenpair of the symmetric tridiagonal matrix with diagonal
    ``alphas`` and off-diagonal ``betas`` (at least one), by the LAPACK
    bisection and inverse-iteration calls that
    ``scipy.linalg.eigh_tridiagonal(select="i", select_range=(0, 0))`` makes,
    without its argument checks; the coefficients come from checked, finite
    operator products."""
    d, e = np.asarray(alphas), np.asarray(betas)
    # range 2 selects by index, here the first; tolerance 0 is LAPACK's default
    m, w, iblock, isplit, info = dstebz(d, e, 2, 0.0, 1.0, 1, 1, 0.0, "B")
    if info == 0:
        vecs, info = dstein(d, e, w[:m], iblock, isplit)
    if info != 0:
        raise NumericalError(f"tridiagonal eigensolver failed with LAPACK info {info}")
    return float(w[0]), vecs[:, 0]


def _apply_checked(apply, v, dtype):
    """``apply(v)`` as an array the caller may update in place with values
    of ``dtype``: a result that is read-only, shares memory with ``v`` or
    cannot hold ``dtype`` is copied."""
    out = np.asarray(apply(v))
    if out.shape != v.shape:
        raise ValueError(f"operator changed shape {v.shape} -> {out.shape}")
    if not np.all(np.isfinite(out)):
        raise NumericalError("operator application produced non-finite values")
    if (not out.flags.writeable or np.may_share_memory(out, v)
            or not np.can_cast(dtype, out.dtype)):
        out = out.astype(np.result_type(out, dtype))
    return out
