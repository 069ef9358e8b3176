"""Tests for the dense linear-algebra kernels."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

from treetn import linalg

from treetn.errors import NumericalError
from treetn.linalg import (
    _projected_ground,
    _reorthogonalize,
    cut_spectrum,
    entanglement_entropy,
    full_eigh,
    full_svd,
    lanczos_lowest,
    spectrum_cut,
)
from treetn.spinmodel import local_spin_matrices


class TestFullSvd:
    def test_identity(self):
        spec = full_svd(np.eye(2))
        np.testing.assert_allclose(spec.values, [1.0, 1.0])
        np.testing.assert_allclose(np.abs(spec.left_vectors), np.eye(2), atol=1e-14)
        np.testing.assert_allclose(np.abs(spec.right_vectors), np.eye(2), atol=1e-14)

    def test_rank_one(self, rng):
        a = rng.standard_normal(5)
        b = rng.standard_normal(7)
        spec = full_svd(np.outer(a, b))
        assert spec.values[0] == pytest.approx(
            np.linalg.norm(a) * np.linalg.norm(b), rel=1e-12
        )
        assert np.all(spec.values[1:] < 1e-12 * spec.values[0])

    def test_random_reconstruction(self, rng):
        m = rng.standard_normal((8, 6))
        spec = full_svd(m)
        product = (spec.left_vectors * spec.values) @ spec.right_vectors
        err = np.linalg.norm(product - m) / np.linalg.norm(m)
        assert err < 1e-10

    def test_complex_reconstruction(self, rng):
        m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        spec = full_svd(m)
        product = (spec.left_vectors * spec.values) @ spec.right_vectors
        assert np.linalg.norm(product - m) < 1e-10 * np.linalg.norm(m)

    def test_orthonormal_columns(self, rng):
        spec = full_svd(rng.standard_normal((9, 4)))
        u, vh = spec.left_vectors, spec.right_vectors
        np.testing.assert_allclose(u.conj().T @ u, np.eye(4), atol=1e-12)
        np.testing.assert_allclose(vh @ vh.conj().T, np.eye(4), atol=1e-12)

    def test_non_finite_rejected(self):
        m = np.ones((3, 3))
        m[1, 1] = np.nan
        with pytest.raises(NumericalError):
            full_svd(m)
        with pytest.raises(NumericalError):
            full_svd(m, vectors=False, gram=True)

    @pytest.mark.parametrize("shape", [(6, 9), (9, 6), (7, 7)])
    @pytest.mark.parametrize("complex_", [False, True])
    def test_gram_values_match_svd(self, rng, shape, complex_):
        m = rng.standard_normal(shape)
        if complex_:
            m = m + 1j * rng.standard_normal(shape)
        values = full_svd(m, vectors=False, gram=True)
        assert values.shape == (min(shape),)
        assert np.all(np.diff(values) <= 0.0)
        np.testing.assert_allclose(
            values**2, np.linalg.svd(m, compute_uv=False) ** 2,
            rtol=0, atol=1e-13 * values[0] ** 2,
        )

    def test_gram_rank_deficient_values_are_real(self, rng):
        # rounding can leave tiny negative Gram eigenvalues; they read as zero
        m = np.outer(rng.standard_normal(8), rng.standard_normal(5))
        values = full_svd(m, vectors=False, gram=True)
        assert np.isrealobj(values) and np.all(values >= 0.0)
        assert np.all(values[1:] < 1e-7 * values[0])

    def test_gram_has_no_vectors(self):
        with pytest.raises(ValueError, match="no singular vectors"):
            full_svd(np.eye(2), gram=True)

    SHAPES = [(3, 17), (17, 3), (9, 9), (16, 256), (256, 16)]

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_matches_numpy(self, rng, shape, dtype):
        """Wide, tall and square, real and complex: the values agree with
        numpy's, the vectors are orthonormal and rebuild the matrix."""
        m = rng.standard_normal(shape)
        if dtype is complex:
            m = m + 1j * rng.standard_normal(shape)
        ref = np.linalg.svd(m, compute_uv=False)
        spec = full_svd(m)
        only = full_svd(m, vectors=False)
        for values in (spec.values, only):
            np.testing.assert_allclose(values, ref, rtol=1e-13, atol=0.0)
        u, vh = spec.left_vectors, spec.right_vectors
        k = min(shape)
        assert u.shape == (shape[0], k) and vh.shape == (k, shape[1])
        np.testing.assert_allclose(u.conj().T @ u, np.eye(k), rtol=0.0, atol=1e-13)
        np.testing.assert_allclose(vh @ vh.conj().T, np.eye(k), rtol=0.0, atol=1e-13)
        np.testing.assert_allclose((u * spec.values) @ vh, m, rtol=0.0,
                                   atol=1e-13 * ref[0])

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("vectors", [True, False])
    def test_lapack_never_sees_a_wide_matrix(self, monkeypatch, rng, shape, vectors):
        """A wide matrix reaches LAPACK as its transpose."""
        svd = np.linalg.svd
        seen = []

        def tall_only(a, *args, **kwargs):
            seen.append(a.shape)
            assert a.shape[0] >= a.shape[1], f"LAPACK handed a wide {a.shape} matrix"
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", tall_only)
        full_svd(rng.standard_normal(shape), vectors=vectors)
        assert seen == [tuple(sorted(shape, reverse=True))]


class TestTruncateSpectrum:
    """The cut of every decomposition: ``spectrum_cut`` finds it and
    ``cut_spectrum`` applies it."""

    def test_no_weight_lost(self):
        spec = full_svd(np.diag([1.0, 0.0, 0.0]))
        keep, weight, straddles = spectrum_cut(spec.values, chi_max=1)
        kept = cut_spectrum(spec, keep, weight, straddles)
        np.testing.assert_allclose(kept.values, [1.0])
        assert 1.0 - weight == pytest.approx(0.0, abs=1e-14)

    def test_exact_degenerate_pair_under_hard_cap(self):
        spec = full_svd(np.diag([2**-0.5, 2**-0.5]))
        keep, weight, straddles = spectrum_cut(spec.values, chi_max=1, delta_s=1e-8)
        assert straddles
        with pytest.warns(RuntimeWarning, match="straddles the bond-dimension cap"):
            kept = cut_spectrum(spec, keep, weight, straddles)
        assert kept.rank == 1
        assert 1.0 - weight == pytest.approx(0.5, abs=1e-12)

    def test_hand_evaluated_four_vector(self):
        values = np.array([0.9, 0.3, 0.3 * (1 - 1e-9), 0.1])
        keep, weight, straddles = spectrum_cut(values, chi_max=3, delta_s=1e-8)
        # the internal near-degenerate pair sits strictly inside the kept set
        assert (keep, straddles) == (3, False)
        assert weight == pytest.approx(float(np.sum(values[:3] ** 2)), abs=1e-14)

    def test_cut_moves_down_through_multiplet(self):
        values = np.array([0.8, 0.4, 0.4 * (1 - 1e-12), 0.2])
        keep, weight, straddles = spectrum_cut(values, chi_max=2, delta_s=1e-8)
        assert (keep, straddles) == (1, False)
        assert 1.0 - weight == pytest.approx(1.0 - 0.64, abs=1e-12)

    def test_gap_kinds_of_the_walk(self):
        # a gap of 1e-9 between values near 1e-3 is tied absolutely, not relatively
        values = np.array([1.0, 1e-3, 1e-3 - 1e-9, 1e-4])
        assert linalg.degenerate_cut(values, 2, 1e-8) == 2
        assert linalg.degenerate_cut(values, 2, 1e-8, relative=False) == 1
        # ascending eigenvalues walk the same way
        assert linalg.degenerate_cut(-values, 2, 1e-8, relative=False) == 1
        # a zero last kept value counts as tied under the relative gap
        assert linalg.degenerate_cut(np.array([1.0, 0.0, 0.0]), 2, 1e-8) == 1

    def test_sigma_cutoff(self):
        values = np.array([1.0, 0.5, 1e-5, 1e-7])
        assert spectrum_cut(values, chi_max=4, sigma=1e-4)[0] == 2

    def test_rescaled_to_unit_weight(self):
        spec = full_svd(np.diag([0.8, 0.5, 0.2]))
        kept = cut_spectrum(spec, *spectrum_cut(spec.values, chi_max=2))
        assert kept.rank == 2
        assert float(np.sum(kept.values**2)) == pytest.approx(1.0, abs=1e-14)

    def test_zero_chi_rejected(self):
        with pytest.raises(ValueError):
            spectrum_cut(np.ones(2), chi_max=0)

    @given(
        n_values=st.integers(2, 12),
        chi=st.integers(1, 12),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_error_matches_dropped_weight(self, n_values, chi, seed):
        rng = np.random.default_rng(seed)
        values = np.sort(rng.random(n_values))[::-1] + 1e-3
        values = values / np.linalg.norm(values)
        spec = full_svd(np.diag(values))
        keep, weight, straddles = spectrum_cut(spec.values, chi_max=chi, delta_s=1e-13)
        kept = cut_spectrum(spec, keep, weight, straddles)
        pre = spec.values[: kept.rank]
        assert 1.0 - weight == pytest.approx(1.0 - float(np.sum(pre**2)), abs=1e-14)

class TestFullEigh:
    def test_two_spin_heisenberg(self):
        sz, sp, sx, sy = local_spin_matrices(0.5)
        h = np.kron(sx, sx) + np.kron(sy, sy).real + np.kron(sz, sz)
        spec = full_eigh(h)
        np.testing.assert_allclose(
            spec.eigenvalues, [-0.75, 0.25, 0.25, 0.25], atol=1e-12
        )

    def test_diagonal(self):
        spec = full_eigh(np.diag([3.0, 1.0, 2.0]))
        np.testing.assert_allclose(spec.eigenvalues, [1.0, 2.0, 3.0])

    def test_random_residual(self, rng):
        a = rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10))
        h = (a + a.conj().T) / 2
        spec = full_eigh(h)
        resid = h @ spec.eigenvectors - spec.eigenvectors * spec.eigenvalues
        assert np.max(np.abs(resid)) < 1e-10 * np.max(np.abs(h))

    def test_non_hermitian_rejected(self, rng):
        m = rng.standard_normal((4, 4))
        m[0, 1] += 1.0
        m[1, 0] -= 1.0
        with pytest.raises(NumericalError):
            full_eigh(m)

    def test_imaginary_inf_rejected(self):
        m = np.eye(3, dtype=complex)
        m[0, 1] = complex(0.0, np.inf)
        with pytest.raises(NumericalError, match="non-finite"):
            full_eigh(m)


def failing(name):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError(f"{name} did not converge")
    return fail


class TestLapackFailures:
    """A LAPACK failure inside numpy leaves as a ``NumericalError`` that
    names the routine and the shape of the matrix it was given."""

    @pytest.mark.parametrize("routine, call, shape", [
        ("svd", lambda m: full_svd(m), r"\(3, 5\)"),
        ("svd", lambda m: full_svd(m, vectors=False), r"\(3, 5\)"),
        ("eigvalsh", lambda m: full_svd(m, vectors=False, gram=True), r"\(3, 3\)"),
        ("eigh", lambda m: full_eigh(m[:, :3] @ m[:, :3].T), r"\(3, 3\)"),
    ])
    def test_failure_named(self, monkeypatch, rng, routine, call, shape):
        monkeypatch.setattr(np.linalg, routine, failing(routine))
        with pytest.raises(NumericalError, match=rf"{routine} of a {shape} matrix failed: "
                                                 rf"{routine} did not converge") as info:
            call(rng.standard_normal((3, 5)))
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


class TestEntanglementEntropy:
    def test_pure(self):
        assert entanglement_entropy(np.array([1.0])) == 0.0

    def test_bell(self):
        s = entanglement_entropy(np.array([2**-0.5, 2**-0.5]))
        assert s == pytest.approx(np.log(2), abs=1e-14)

    def test_zero_values_ignored(self):
        s = entanglement_entropy(np.array([1.0, 0.0, 0.0]))
        assert s == 0.0


class TestLanczos:
    def test_diagonal_three(self):
        h = np.diag([-1.0, 0.0, 3.0])
        init = np.ones(3) / np.sqrt(3)
        energy, vec = lanczos_lowest(lambda v: h @ v, init)
        assert energy == pytest.approx(-1.0, abs=1e-12)
        assert abs(vec[0]) == pytest.approx(1.0, abs=1e-9)

    def test_exact_eigenvector_breakdown(self):
        h = np.diag([-2.0, 1.0, 4.0])
        calls = []

        def apply(v):
            calls.append(1)
            return h @ v

        init = np.array([1.0, 0.0, 0.0])
        energy, vec = lanczos_lowest(apply, init)
        assert energy == pytest.approx(-2.0, abs=1e-13)
        # breakdown detected after the residual of the start vector vanishes
        assert len(calls) <= 3

    def test_two_spin_heisenberg_singlet(self, rng):
        sz, sp, sx, sy = local_spin_matrices(0.5)
        h = np.kron(sx, sx) + np.kron(sy, sy).real + np.kron(sz, sz)
        init = rng.standard_normal(4)
        init /= np.linalg.norm(init)
        energy, _ = lanczos_lowest(lambda v: h @ v, init)
        assert energy == pytest.approx(-0.75, abs=1e-11)

    def test_variational_bound(self, rng):
        a = rng.standard_normal((30, 30))
        h = (a + a.T) / 2
        init = rng.standard_normal(30)
        init /= np.linalg.norm(init)
        rq = float(init @ h @ init)
        energy, _ = lanczos_lowest(lambda v: h @ v, init)
        assert energy <= rq + 1e-12

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("dim", [1, 2, 5, 17, 64])
    def test_matches_eigh_lowest(self, seed, dim):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        h = (a + a.conj().T) / 2
        exact = full_eigh(h).eigenvalues[0]
        init = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        init /= np.linalg.norm(init)
        energy, vec = lanczos_lowest(lambda v: h @ v, init)
        assert energy == pytest.approx(exact, abs=1e-9)
        resid = np.linalg.norm(h @ vec - energy * vec)
        assert resid <= 1e-12 * max(1.0, abs(energy)) * 10

    def test_complex_operator_from_real_start(self, rng):
        """The operator returns a real array while its product is real; here
        the first product is real and later ones complex, so the Krylov basis
        must turn complex on the way."""
        dim = 40
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        h = (a + a.conj().T) / 2
        h[:, 0] = h[:, 0].real
        h[0, :] = h[:, 0]
        dtypes = []

        def apply(v):
            out = h @ v
            out = out if np.any(out.imag) else out.real
            dtypes.append(out.dtype)
            return out

        init = np.zeros(dim)
        init[0] = 1.0
        with warnings.catch_warnings():
            # storing a complex vector in a real basis would drop its imaginary part
            warnings.simplefilter("error", np.exceptions.ComplexWarning)
            energy, vec = lanczos_lowest(apply, init)
        assert dtypes[0] == float and dtypes[-1] == complex
        assert np.iscomplexobj(vec)
        assert energy == pytest.approx(full_eigh(h).eigenvalues[0], abs=1e-10)
        assert np.linalg.norm(h @ vec - energy * vec) <= 1e-11 * max(1.0, abs(energy))

    def test_exact_eigenvector_start_complex(self, rng):
        """A start vector that is an exact eigenvector has a zero residual:
        the residual comes from the stored product, so the product of the
        start vector is the only one."""
        dim = 30
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        h = (a + a.conj().T) / 2
        h[0, :] = h[:, 0] = 0.0
        h[0, 0] = -50.0
        calls = []

        def apply(v):
            calls.append(1)
            return h @ v

        init = np.zeros(dim, dtype=complex)
        init[0] = 1j
        energy, vec = lanczos_lowest(apply, init)
        assert energy == -50.0
        assert abs(vec[0]) == pytest.approx(1.0, abs=1e-15)
        assert len(calls) == 1

    def test_near_degenerate_ground_pair(self, rng):
        dim = 60
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        lam = np.concatenate([[-1.0, -1.0 + 1e-9], np.linspace(0.0, 2.0, dim - 2)])
        h = (q * lam) @ q.T
        init = rng.standard_normal(dim)
        init /= np.linalg.norm(init)
        energy, vec = lanczos_lowest(lambda v: h @ v, init)
        assert -1.0 - 1e-12 <= energy <= -1.0 + 1e-9 + 1e-12
        # the Ritz vector lies in the two-dimensional ground space
        assert np.linalg.norm(q[:, :2].T @ vec) == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.norm(h @ vec - energy * vec) <= 1e-11

    def test_pinned_apply_count(self):
        """The number of operator applications on a fixed problem, pinned so
        that a change that grows the Krylov size shows. The spectrum has a
        small gap, so the basis outgrows its first allocation; the residual
        crosses the threshold with a margin of 25% or more on either side of
        the last step (1.31 and 0.71 times the threshold)."""
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.standard_normal((400, 400)))
        lam = np.concatenate([[-2.0, -1.9], rng.uniform(-1.8, 2.0, 398)])
        h = (q * lam) @ q.T
        init = rng.standard_normal(400)
        init /= np.linalg.norm(init)
        calls = []

        def apply(v):
            calls.append(1)
            return h @ v

        energy, _ = lanczos_lowest(apply, init)
        assert energy == pytest.approx(-2.0, abs=1e-12)
        assert len(calls) == 69

    def test_reorthogonalize_second_pass(self, rng):
        """A vector almost inside the span loses nearly all of its norm in
        the first pass; the second pass restores orthogonality to rounding."""
        basis = np.linalg.qr(rng.standard_normal((50, 5)))[0].T
        w = rng.standard_normal(5) @ basis + 1e-10 * rng.standard_normal(50)
        out = _reorthogonalize(basis, w)
        assert np.linalg.norm(basis @ out) <= 1e-14 * np.linalg.norm(out)

    def test_non_finite_apply_rejected(self):
        def apply(v):
            return v * np.nan

        with pytest.raises(NumericalError):
            lanczos_lowest(apply, np.array([1.0, 0.0]))


def counted(h):
    """``h @ v`` as an operator, with the list of its calls."""
    calls = []

    def apply(v):
        calls.append(1)
        return h @ v

    return apply, calls


def lower_in_buffer(matrix):
    """The lower triangle of ``matrix`` as the solver stores a projected
    matrix: the leading block of a larger buffer, every other entry NaN."""
    k = len(matrix)
    buffer = np.full((k + 3, k + 3), np.nan, matrix.dtype)
    lower = np.tril_indices(k)
    buffer[lower] = matrix[lower]
    return buffer[:k, :k]


def random_hermitian(rng, dim, complex_):
    a = rng.standard_normal((dim, dim))
    if complex_:
        a = a + 1j * rng.standard_normal((dim, dim))
    return (a + a.conj().T) / 2


class TestPreconditioned:
    """The solver given the operator's diagonal (Davidson's method)."""

    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("dim", [1, 2, 5, 17, 64])
    def test_matches_eigh_lowest(self, seed, dim, complex_):
        rng = np.random.default_rng(seed)
        h = random_hermitian(rng, dim, complex_)
        init = random_hermitian(rng, dim, complex_)[0]
        init /= np.linalg.norm(init)
        energy, vec = lanczos_lowest(lambda v: h @ v, init, np.diag(h).real)
        assert energy == pytest.approx(full_eigh(h).eigenvalues[0], abs=1e-9)
        assert np.linalg.norm(h @ vec - energy * vec) <= 1e-11 * max(1.0, abs(energy))

    @pytest.mark.parametrize("dim", [3, 50])
    def test_diagonal_matrix(self, rng, dim):
        """On a diagonal matrix the preconditioned residual is the Ritz
        vector with the sign of ``D - E`` on each entry: it splits the
        entries below the Ritz value from those above. With signed
        denominators it would be the Ritz vector itself, plus the floored
        entries, which are exact eigenvectors; at ``dim=50`` that form ends
        on an excited state."""
        d = np.concatenate([[-1.0], rng.uniform(0.0, 3.0, dim - 1)])
        h = np.diag(d)
        init = np.ones(dim) / np.sqrt(dim)
        apply, calls = counted(h)
        energy, vec = lanczos_lowest(apply, init, d)
        plain, plain_calls = counted(h)
        lanczos_lowest(plain, init)
        assert np.isfinite(energy) and np.all(np.isfinite(vec))
        assert energy == pytest.approx(-1.0, abs=1e-12)
        assert abs(vec[0]) == pytest.approx(1.0, abs=1e-9)
        assert len(calls) < len(plain_calls)

    def test_exact_eigenvector_start(self, rng):
        """The start's diagonal entry equals its energy, so the denominator
        there is exactly zero; the residual vanishes first and one product
        is made."""
        h = random_hermitian(rng, 30, True)
        h[0, :] = h[:, 0] = 0.0
        h[0, 0] = -50.0
        init = np.zeros(30, dtype=complex)
        init[0] = 1j
        apply, calls = counted(h)
        energy, vec = lanczos_lowest(apply, init, np.diag(h).real)
        assert energy == -50.0
        assert np.all(np.isfinite(vec)) and abs(vec[0]) == pytest.approx(1.0, abs=1e-15)
        assert len(calls) == 1

    def test_near_degenerate_ground_pair(self, rng):
        dim = 60
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        lam = np.concatenate([[-1.0, -1.0 + 1e-9], np.linspace(0.0, 2.0, dim - 2)])
        h = (q * lam) @ q.T
        init = rng.standard_normal(dim)
        init /= np.linalg.norm(init)
        energy, vec = lanczos_lowest(lambda v: h @ v, init, np.diag(h))
        assert -1.0 - 1e-12 <= energy <= -1.0 + 1e-9 + 1e-12
        # the Ritz vector lies in the two-dimensional ground space
        assert np.linalg.norm(q[:, :2].T @ vec) == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.norm(h @ vec - energy * vec) <= 1e-11

    def test_complex_operator_from_real_start(self, rng):
        """Products turn complex after a real first one: the basis, the
        products and the projected matrix turn complex together."""
        h = random_hermitian(rng, 40, True)
        h[:, 0] = h[:, 0].real
        h[0, :] = h[:, 0]

        def apply(v):
            out = h @ v
            return out if np.any(out.imag) else out.real

        init = np.zeros(40)
        init[0] = 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error", np.exceptions.ComplexWarning)
            energy, vec = lanczos_lowest(apply, init, np.diag(h).real)
        assert energy == pytest.approx(full_eigh(h).eigenvalues[0], abs=1e-10)
        assert np.linalg.norm(h @ vec - energy * vec) <= 1e-11 * max(1.0, abs(energy))

    def test_pinned_apply_count(self):
        """The preconditioned count on a fixed problem, pinned like the
        plain one: a diagonal with a gap at the bottom plus a dense
        perturbation. The plain solver takes 95 products here. The residual
        crosses the threshold with a margin of 15% or more on either side
        of the last step (1.18 and 0.56 times the threshold)."""
        rng = np.random.default_rng(7)
        d = np.concatenate([[-2.0, -1.9], rng.uniform(-1.8, 2.0, 398)])
        a = rng.standard_normal((400, 400))
        h = np.diag(d) + (a + a.T) / 40
        init = rng.standard_normal(400)
        init /= np.linalg.norm(init)
        apply, calls = counted(h)
        energy, _ = lanczos_lowest(apply, init, np.diag(h))
        assert energy == pytest.approx(full_eigh(h).eigenvalues[0], abs=1e-12)
        assert len(calls) == 59

    def test_diagonal_shape_checked(self):
        with pytest.raises(ValueError, match="diagonal shape"):
            lanczos_lowest(lambda v: v, np.ones((2, 2)) / 2, np.zeros(4))

    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("k", [1, 2, 3, 8, 30])
    def test_projected_ground_matches_eigh(self, rng, k, complex_):
        """Only the lower triangle is read: the solver fills no other, so
        the upper one here holds NaN, as a slice of a larger buffer."""
        proj = random_hermitian(rng, k, complex_)
        theta, s = _projected_ground(lower_in_buffer(proj))
        vals = np.linalg.eigvalsh(proj)
        assert theta == pytest.approx(vals[0], abs=1e-13)
        assert np.linalg.norm(s) == pytest.approx(1.0, abs=1e-13)
        assert np.linalg.norm(proj @ s - theta * s) <= 1e-12

    @pytest.mark.parametrize("name", ["dsyevr", "zheevr"])
    def test_projected_lapack_failure_raises_numerical_error(self, monkeypatch, name):
        def failing(a, **kwargs):
            n = len(a)
            return np.zeros(n), np.zeros((n, 1), a.dtype), 0, np.zeros(0, np.int32), 1

        monkeypatch.setattr(linalg, name, failing)
        proj = random_hermitian(np.random.default_rng(0), 3, name == "zheevr")
        with pytest.raises(NumericalError, match=f"{name} failed with LAPACK info 1"):
            _projected_ground(proj)


class TestTridiagGround:
    """The projected solve on a tridiagonal matrix, the form the loop's
    projected matrix takes without a diagonal in exact arithmetic, against
    scipy's tridiagonal solver. ``?syevr`` asked for one eigenvalue runs the
    same bisection and inverse iteration (``stebz``, ``stein``), and its
    Householder reduction leaves a tridiagonal matrix as it is, so the
    results agree bit for bit, also for a complex matrix with real
    entries."""

    @staticmethod
    def assert_same_as_scipy(alphas, betas):
        vals, vecs = eigh_tridiagonal(alphas, betas, select="i", select_range=(0, 0))
        for dtype in (float, complex):
            value, vector = _projected_ground(
                lower_in_buffer(np.diag(alphas) + np.diag(betas, -1).astype(dtype)))
            assert value == vals[0]
            np.testing.assert_array_equal(vector, vecs[:, 0])

    @pytest.mark.parametrize("k", range(2, 61))
    def test_bit_identical_to_eigh_tridiagonal(self, k):
        rng = np.random.default_rng(1000 + k)
        self.assert_same_as_scipy(rng.standard_normal(k), np.abs(rng.standard_normal(k - 1)))

    @pytest.mark.parametrize("k", [2, 7, 30])
    def test_tied_diagonal(self, k):
        rng = np.random.default_rng(k)
        self.assert_same_as_scipy(np.full(k, -0.75), np.abs(rng.standard_normal(k - 1)))
        self.assert_same_as_scipy(np.full(k, 2.0), np.full(k - 1, 0.5))

    @pytest.mark.parametrize("k", [2, 9, 40])
    def test_betas_near_breakdown(self, k):
        rng = np.random.default_rng(50 + k)
        betas = 1e-14 * rng.uniform(0.5, 2.0, k - 1)
        self.assert_same_as_scipy(rng.standard_normal(k), betas)
        self.assert_same_as_scipy(np.zeros(k), betas)


class TestInPlaceUpdates:
    def test_read_only_product(self):
        """A read-only product is only read: the solver stores a copy of
        every product and updates its own buffers in place."""
        h = np.diag([1.0, -2.0, 3.0, 0.5])

        def apply(v):
            out = h @ v
            out.flags.writeable = False
            return out

        energy, vec = lanczos_lowest(apply, np.full(4, 0.5))
        assert energy == pytest.approx(-2.0, abs=1e-12)
        assert abs(vec[1]) == pytest.approx(1.0, abs=1e-12)
