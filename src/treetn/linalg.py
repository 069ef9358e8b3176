"""Dense linear-algebra kernels: SVD with degeneracy-aware truncation,
Hermitian diagonalization, and a Davidson lowest-eigenpair solver.

All routines are pure functions of their inputs and safe to call
concurrently on distinct data.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg.lapack import dsyevr, zheevr

from .errors import NumericalError

__all__ = [
    "SingularSpectrum",
    "EigenSpectrum",
    "full_svd",
    "spectrum_cut",
    "cut_spectrum",
    "full_eigh",
    "lanczos_lowest",
    "entanglement_entropy",
]

LANCZOS_MAX_KRYLOV = 200  # basis vectors per restart
LANCZOS_TOL = 1e-12  # residual bound, relative to max(1, |E|)
LANCZOS_RESTARTS = 10
HERMITIAN_TOL = 1e-10  # asymmetry accepted by full_eigh, relative to max(1, max|A|)
KRYLOV_ROWS = 32  # rows of a fresh basis; it doubles when full
DAVIDSON_FLOOR = 1e-1  # least size of a preconditioner denominator |D - E|
SPAN_TOL = 1e-10  # share of its norm a new direction must keep outside the basis
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


@dataclass
class EigenSpectrum:
    """Result of a full Hermitian diagonalization, eigenvalues ascending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def lapack(routine: str, matrix: np.ndarray, shape: tuple | None = None, **kwargs):
    """``np.linalg.<routine>(matrix, **kwargs)``, with a LAPACK failure
    raised as ``NumericalError`` naming the routine and ``shape``, by
    default the matrix shape."""
    try:
        return getattr(np.linalg, routine)(matrix, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"{routine} of a {shape or matrix.shape} matrix failed: {exc}"
        ) from exc


def full_svd(
    matrix: np.ndarray, vectors: bool = True, gram: bool = False, checked: bool = False
) -> SingularSpectrum | np.ndarray:
    """Full singular value decomposition of a 2-index array; with
    ``vectors=False`` only the singular values, sorted descending. A wide
    matrix is factored through its plain transpose, which LAPACK does
    faster (``A.T = U S Vh`` gives ``A = Vh.T S U.T``, the R-SVD route of
    Chan, ACM TOMS 8, 72 (1982)). ``checked=True`` skips the check for
    non-finite entries, which the caller has made.

    ``gram=True`` (values only) takes them from the eigenvalues of the
    smaller Gram matrix instead, at about half the cost. Their squares are
    exact to rounding relative to the largest square, so values below about
    1e-8 of the largest are noise: fine for entropies and truncation errors,
    not for a cut that compares small values."""
    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={matrix.ndim}")
    if not checked and not np.isfinite(matrix).all():
        raise NumericalError("non-finite entries in SVD input")
    if gram:
        if vectors:
            raise ValueError("a Gram spectrum has no singular vectors")
        squares = lapack("eigvalsh", gram_matrix(matrix))
        return np.sqrt(np.maximum(squares[::-1], 0.0))
    wide = matrix.shape[0] < matrix.shape[1]
    tall = matrix.T if wide else matrix
    if not vectors:
        return lapack("svd", tall, matrix.shape, compute_uv=False)
    u, s, vh = lapack("svd", tall, matrix.shape, full_matrices=False)
    if wide:
        u, vh = vh.T, u.T
    return SingularSpectrum(values=s, left_vectors=u, right_vectors=vh)


def gram_matrix(matrix: np.ndarray) -> np.ndarray:
    """The smaller of ``A A†`` and ``A† A``; its eigenvalues are the squared
    singular values of ``A``."""
    h = matrix.conj().T
    return matrix @ h if matrix.shape[0] <= matrix.shape[1] else h @ matrix


def degenerate_cut(
    values: np.ndarray, keep: int, delta: float, relative: bool = True
) -> int:
    """Move a cut boundary down so it does not split a degenerate multiplet.

    ``values`` are sorted, descending singular values or ascending
    eigenvalues. The boundary sits between index ``keep - 1`` (last kept)
    and ``keep`` (first dropped); while the gap there is below ``delta`` the
    last kept value is dropped as well. The gap is ``|values[keep] -
    values[keep - 1]|``, divided by ``|values[keep - 1]|`` when ``relative``
    (a zero last kept value counts as tied). Returns 0 when the walk
    exhausts the spectrum (multiplet does not fit).
    """
    if keep >= len(values):
        return len(values)
    while keep > 0:
        prev = values[keep - 1]
        gap = abs(values[keep] - prev)
        if relative:
            gap = gap / abs(prev) if prev != 0.0 else 0.0
        if not gap < delta:
            break
        keep -= 1
    return keep


def spectrum_cut(
    values: np.ndarray, chi_max: int, sigma: float = 0.0, delta_s: float = 0.0,
    squares: np.ndarray | None = None,
) -> tuple[int, float, bool]:
    """Where to cut a descending singular spectrum to at most ``chi_max``
    values, silently.

    Values with ``D_i / D_1 <= sigma`` are dropped. If the cut would split a
    multiplet whose relative internal gaps are below ``delta_s``, it moves
    down so the whole multiplet is dropped together; when the multiplet
    cannot be kept whole under ``chi_max`` the hard cap wins. Returns the
    kept count, the kept weight ``sum(kept D^2)`` (the truncation error is
    one minus it), and whether a multiplet straddles the cap. ``squares``
    are the values squared; ``cut_spectrum`` applies the cut."""
    if chi_max < 1:
        raise ValueError(f"chi_max must be positive, got {chi_max}")
    keep = min(chi_max, len(values))
    # numerical zeros (relative ~1e-14) are rank noise and always dropped;
    # the values are sorted, so they lie behind the last kept one
    floor = max(sigma, ZERO_FLOOR) * values[0]
    if not values[keep - 1] > floor:
        keep = max(np.count_nonzero(values > floor), 1)
    walked = degenerate_cut(values, keep, delta_s)
    keep = walked or keep
    squares = values**2 if squares is None else squares
    return keep, float(np.add.reduce(squares[:keep])), walked == 0


def cut_spectrum(
    spec: SingularSpectrum, keep: int, weight: float, straddles: bool
) -> SingularSpectrum:
    """The first ``keep`` values and vectors of ``spec``, the values
    rescaled to unit sum of squares by their ``weight``; ``(keep, weight,
    straddles)`` is a ``spectrum_cut``. A straddling multiplet warns."""
    if straddles:
        warnings.warn(
            "degenerate multiplet straddles the bond-dimension cap; "
            f"keeping {keep} of a tied group",
            RuntimeWarning,
            stacklevel=3,
        )
    kept = spec.values[:keep]
    return SingularSpectrum(
        values=kept / math.sqrt(weight) if weight > 0.0 else kept,
        left_vectors=spec.left_vectors[:, :keep],
        right_vectors=spec.right_vectors[:keep, :],
    )


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
    vals, vecs = lapack("eigh", hermitian)
    return EigenSpectrum(eigenvalues=vals, eigenvectors=vecs)


def entanglement_entropy(singular_values: np.ndarray, squares=None) -> float:
    """Von Neumann entropy -sum(D^2 ln D^2) of a Schmidt spectrum, from its
    ``squares`` D^2 if the caller has them.

    Zero values contribute nothing (0 ln 0 := 0).
    """
    w = np.asarray(singular_values, dtype=float) ** 2 if squares is None else squares
    w = w[w > 0.0]
    if w.size == 0:
        return 0.0
    return float(-np.add.reduce(w * np.log(w)))


def lanczos_lowest(
    apply: Callable[[np.ndarray], np.ndarray],
    init: np.ndarray,
    diagonal: np.ndarray | None = None,
    tol: float | None = None,
) -> tuple[float, np.ndarray]:
    """Lowest eigenpair of a Hermitian operator given by its action, by
    Davidson's method.

    ``apply`` maps an array to an array of the same shape; ``init`` is any
    finite non-zero array, normalized here. Each new basis vector is the
    residual ``r`` of the current Ritz pair ``(E, v)``, divided elementwise
    by ``|D - E|`` floored at ``DAVIDSON_FLOOR`` when the operator's real
    diagonal ``D`` (an array of ``init``'s shape) is given; without it the
    basis spans the Lanczos Krylov space. The denominator is positive, so
    the new vector always keeps part of ``r``, which is orthogonal to the
    basis. The basis is fully orthogonalized, so results are deterministic;
    a residual that adds no direction signals an invariant subspace and
    ends the pass. Restarts from the current best vector, at most
    ``LANCZOS_RESTARTS`` times, until the residual satisfies
    ``|H v - E v| <= max(tol, LANCZOS_TOL * max(1, |E|))``. An absolute
    ``tol`` loosens the default relative bound, which stays as a floor: a
    residual below the operator's rounding is never reached. The energy
    error is then at most ``|H v - E v|^2 / gap``, the angle
    ``|H v - E v| / gap``.
    """
    vec = np.asarray(init)
    dim = vec.size
    if dim == 0:
        raise ValueError("empty initial vector")
    nrm = np.linalg.norm(vec)
    if not np.isfinite(nrm) or nrm == 0.0:
        raise ValueError("initial vector must be finite and non-zero")
    vec = vec / nrm
    if diagonal is not None:
        if np.shape(diagonal) != vec.shape:
            raise ValueError(f"diagonal shape {np.shape(diagonal)} vs vector {vec.shape}")
        diagonal = np.ravel(diagonal).astype(float, copy=False)

    for _ in range(LANCZOS_RESTARTS):
        energy, vec, residual, bound = _davidson_cycle(
            apply, vec, min(LANCZOS_MAX_KRYLOV, dim), diagonal, tol or 0.0
        )
        if residual <= bound:
            return energy, vec
    warnings.warn(
        f"Lanczos residual {residual:.2e} above {bound:.2e} after "
        f"{LANCZOS_RESTARTS} restarts",
        RuntimeWarning,
        stacklevel=2,
    )
    return energy, vec


def _davidson_cycle(apply, v0, max_basis, diagonal, tol):
    """One restarted Davidson pass; returns (energy, vector, residual norm,
    ``lanczos_lowest``'s bound on that norm at this energy).
    The basis vectors and their products are rows of two arrays that double
    when full and turn complex when a product does; each product adds one
    row to the projected matrix, and the residual of its lowest pair is
    formed from the stored products in reused buffers."""
    shape = v0.shape
    hv = _apply_checked(apply, v0).ravel()
    dtype = np.result_type(v0, hv)
    rows = min(max_basis, KRYLOV_ROWS)
    basis = np.empty((rows, hv.size), dtype)
    products = np.empty((rows, hv.size), dtype)
    basis[0] = v0.ravel()
    products[0] = hv
    proj = np.empty((max_basis, max_basis), dtype)
    ritz = np.empty(hv.size, dtype)
    resid = np.empty(hv.size, dtype)
    denom = None if diagonal is None else np.empty(hv.size)

    k = 1
    while True:
        # row k - 1 of V† H V's lower triangle, the only one LAPACK reads
        proj[k - 1, :k] = basis[:k] @ products[k - 1].conj()
        theta, s = _projected_ground(proj[:k, :k])
        np.dot(s, basis[:k], out=ritz)
        np.dot(s, products[:k], out=resid)
        resid -= theta * ritz
        residual = float(np.linalg.norm(resid))
        bound = max(tol, LANCZOS_TOL * max(1.0, abs(theta)))
        if residual <= bound or k == max_basis:
            break
        if k == len(basis):
            basis, products = (_grown(a, min(2 * k, max_basis)) for a in (basis, products))
        w = basis[k]
        if diagonal is None:
            w[...] = resid
        else:
            np.subtract(diagonal, theta, out=denom)
            np.maximum(np.abs(denom, out=denom), DAVIDSON_FLOOR, out=denom)
            np.divide(resid, denom, out=w)
        before = np.linalg.norm(w)
        after = np.linalg.norm(_reorthogonalize(basis[:k], w))
        if not after > SPAN_TOL * before:
            break  # the residual adds no direction: the subspace is invariant
        w /= after
        hv = _apply_checked(apply, basis[k].reshape(shape)).ravel()
        if not np.can_cast(hv.dtype, basis.dtype):
            basis, products, proj, ritz, resid = (
                a.astype(hv.dtype) for a in (basis, products, proj, ritz, resid))
        products[k] = hv
        k += 1
    return theta, ritz.reshape(shape) / np.linalg.norm(ritz), residual, bound


def _grown(a, rows):
    """A copy of the full row array ``a`` with room for ``rows`` rows."""
    out = np.empty((rows, a.shape[1]), a.dtype)
    out[: len(a)] = a
    return out


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


def _projected_ground(proj):
    """Lowest eigenpair of the small Hermitian projected matrix by one LAPACK
    call (``?syevr`` / ``?heevr``, first eigenvalue by index), reading only
    its lower triangle."""
    name, solve = ("zheevr", zheevr) if np.iscomplexobj(proj) else ("dsyevr", dsyevr)
    w, z, _, _, info = solve(proj, compute_v=1, range="I", il=1, iu=1, lower=1)
    if info != 0:
        raise NumericalError(f"{name} failed with LAPACK info {info}")
    return float(w[0]), z[:, 0]


def _apply_checked(apply, v):
    """``apply(v)`` as an array of ``v``'s shape with finite entries."""
    out = np.asarray(apply(v))
    if out.shape != v.shape:
        raise ValueError(f"operator changed shape {v.shape} -> {out.shape}")
    if not np.all(np.isfinite(out)):
        raise NumericalError("operator application produced non-finite values")
    return out
