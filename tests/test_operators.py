"""Tests for renormalized operators, block Hamiltonians, and the
superblock application."""

import numpy as np
import pytest

from conftest import heisenberg_chain, random_isometry
from treetn.benchmarks import dense_hamiltonian
from treetn.errors import InvariantViolation
from treetn.linalg import full_eigh
from treetn.operators import (
    _apply_axis,
    build_block_interaction,
    build_block_two_child,
    build_superblock_plan,
    init_cache,
    project_block_h,
    refresh_bond,
)
from treetn.operators import renormalize_spin
from treetn.spinmodel import SpinModel, local_spin_matrices
from treetn.state import TTNState
from treetn.topology import build_mpn


class TestRenormalizeSpin:
    def test_identity_isometry_slot1(self, rng):
        op = rng.standard_normal((3, 3))
        v = np.eye(6).reshape(3, 2, 6)
        out = renormalize_spin(op, v, child_slot=1)
        np.testing.assert_allclose(out, np.kron(op, np.eye(2)), atol=1e-13)

    def test_identity_isometry_slot2(self, rng):
        op = rng.standard_normal((2, 2))
        v = np.eye(6).reshape(3, 2, 6)
        out = renormalize_spin(op, v, child_slot=2)
        np.testing.assert_allclose(out, np.kron(np.eye(3), op), atol=1e-13)

    def test_identity_operator_maps_to_identity(self, rng):
        v = random_isometry(rng, 3, 4, 5)
        out = renormalize_spin(np.eye(3), v, child_slot=1)
        np.testing.assert_allclose(out, np.eye(5), atol=1e-12)

    def test_hermiticity_preserved(self, rng):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        op = (a + a.conj().T) / 2
        v = random_isometry(rng, 4, 3, 6, complex_=True)
        out = renormalize_spin(op, v, child_slot=1)
        assert np.max(np.abs(out - out.conj().T)) < 1e-12

    def test_two_level_composition(self, rng):
        """Renormalizing through two isometries equals renormalizing once
        through their contraction."""
        v1 = random_isometry(rng, 2, 3, 4)
        v2 = random_isometry(rng, 4, 2, 5)
        op = rng.standard_normal((2, 2))
        op = op + op.T
        once = renormalize_spin(renormalize_spin(op, v1, 1), v2, 1)
        merged = np.tensordot(v1, v2, axes=[2, 0])  # (2, 3, 2, 5)
        big = np.einsum("aecd,ab,becf->df", merged.conj(), op, merged)
        np.testing.assert_allclose(once, big, atol=1e-12)

    def test_dimension_mismatch(self, rng):
        v = random_isometry(rng, 3, 2, 4)
        with pytest.raises(InvariantViolation):
            renormalize_spin(np.eye(5), v, child_slot=1)


class TestBlockInteraction:
    def test_two_single_sites_heisenberg(self):
        model = SpinModel(
            n_sites=4,
            spin_sizes=[0.5] * 4,
            exchange_rows=[(0, 1, 1.0, 1.0)],
        )
        cache = init_cache(model)
        h = build_block_interaction(model, cache, 0, 1)
        vals = full_eigh(h).eigenvalues
        np.testing.assert_allclose(vals, [-0.75, 0.25, 0.25, 0.25], atol=1e-12)

    def test_no_cross_coupling_zero(self):
        model = SpinModel(
            n_sites=4, spin_sizes=[0.5] * 4, exchange_rows=[(0, 1, 1.0, 1.0)]
        )
        cache = init_cache(model)
        assert not np.any(build_block_interaction(model, cache, 2, 3))

    def test_four_site_split_matches_dense_cross(self, rng):
        model = heisenberg_chain(4, delta=0.7)
        cache = init_cache(model)
        # renormalize {0,1}->bond 4 and {2,3}->bond 5 with full unitaries
        topo = build_mpn(4)
        topo.edges[1][2] = 5  # give the right tensor its own bond for this test
        v = random_isometry(rng, 2, 2, 4)
        w = random_isometry(rng, 2, 2, 4)
        state = TTNState(
            topology=topo, tensors=[v, w], center_weights=np.ones(1)
        )
        # the audit-facing topology is irrelevant here; refresh both regions
        cache.sites[4] = (0, 1)
        cache.sites[5] = (2, 3)
        from treetn.operators import renormalize_spin as rs

        cache.spin_ops[4] = {
            r: {k: rs(cache.spin_ops[r][r][k], v, slot) for k in ("z", "+")}
            for slot, r in ((1, 0), (2, 1))
        }
        cache.spin_ops[5] = {
            r: {k: rs(cache.spin_ops[r][r][k], w, slot) for k in ("z", "+")}
            for slot, r in ((1, 2), (2, 3))
        }
        h = build_block_interaction(model, cache, 4, 5)
        # dense oracle: only the (1,2) coupling crosses the cut
        sz, sp, sx, sy = local_spin_matrices(0.5)
        eye = np.eye(2)
        cross = 1.0 * (
            np.kron(np.kron(eye, sx), np.kron(sx, eye))
            + np.kron(np.kron(eye, sy), np.kron(sy, eye)).real
            + 0.7 * np.kron(np.kron(eye, sz), np.kron(sz, eye))
        )
        u_full = np.kron(v.reshape(4, 4), w.reshape(4, 4))
        expected = u_full.conj().T @ cross @ u_full
        np.testing.assert_allclose(h, expected, atol=1e-11)


class TestProjectBlockH:
    def test_full_isometry_preserves_spectrum(self, rng):
        h = rng.standard_normal((6, 6))
        h = h + h.T
        v = random_isometry(rng, 2, 3, 6)
        proj = project_block_h(h, v)
        np.testing.assert_allclose(
            np.sort(np.linalg.eigvalsh(proj)), np.sort(np.linalg.eigvalsh(h)), atol=1e-11
        )

    def test_spectral_projection(self, rng):
        h = rng.standard_normal((8, 8))
        h = h + h.T
        spec = full_eigh(h)
        v = spec.eigenvectors[:, :3].reshape(2, 4, 3)
        proj = project_block_h(h, v)
        np.testing.assert_allclose(
            np.linalg.eigvalsh(proj), spec.eigenvalues[:3], atol=1e-11
        )

    def test_interlacing(self, rng):
        h = rng.standard_normal((12, 12))
        h = h + h.T
        full = np.linalg.eigvalsh(h)
        v = random_isometry(rng, 3, 4, 5)
        proj_vals = np.linalg.eigvalsh(project_block_h(h, v))
        for k, lam in enumerate(proj_vals):
            assert full[k] - 1e-12 <= lam <= full[k + 12 - 5] + 1e-12

    def test_hermitian_output(self, rng):
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        h = (a + a.conj().T) / 2
        v = random_isometry(rng, 2, 3, 4, complex_=True)
        proj = project_block_h(h, v)
        assert np.max(np.abs(proj - proj.conj().T)) < 1e-12


def dense_plan_matrix(model, cache, legs):
    dims = [cache.dimension(b) for b in legs]
    dim = int(np.prod(dims))
    plan = build_superblock_plan(model, cache, legs)
    cols = []
    for k in range(dim):
        e = np.zeros(dim, dtype=model.dtype)
        e[k] = 1.0
        cols.append(plan.apply(e.reshape(dims)).ravel())
    return np.stack(cols, axis=1)


def reference_apply_axis(phi, m, axis):
    """The contraction the matmul kernel replaces: contract, then move the
    new leg back into place."""
    return np.moveaxis(np.tensordot(m, phi, axes=[[1], [axis]]), 0, axis)


class TestApplyAxis:
    @pytest.mark.parametrize("axis", range(4))
    @pytest.mark.parametrize("complex_phi", [False, True])
    @pytest.mark.parametrize("complex_m", [False, True])
    def test_matches_tensordot(self, rng, axis, complex_phi, complex_m):
        shape = (3, 5, 2, 7)

        def draw(*dims, complex_):
            a = rng.standard_normal(dims)
            return a + 1j * rng.standard_normal(dims) if complex_ else a

        phi = draw(*shape, complex_=complex_phi)
        m = draw(shape[axis], shape[axis], complex_=complex_m)
        out = _apply_axis(phi, m, axis)
        assert out.shape == shape
        np.testing.assert_allclose(out, reference_apply_axis(phi, m, axis), atol=1e-13)

    def test_non_contiguous_input(self, rng):
        phi = rng.standard_normal((7, 2, 5, 3)).transpose(3, 2, 1, 0)
        m = rng.standard_normal((5, 5))
        np.testing.assert_allclose(
            _apply_axis(phi, m, 1), reference_apply_axis(phi, m, 1), atol=1e-13
        )


class TestApplySuperblock:
    def test_zero_model(self, rng):
        model = SpinModel(n_sites=4, spin_sizes=[0.5] * 4)
        cache = init_cache(model)
        plan = build_superblock_plan(model, cache, (0, 1, 2, 3))
        phi = rng.standard_normal((2, 2, 2, 2))
        np.testing.assert_allclose(plan.apply(phi), 0.0, atol=1e-15)

    def test_bare_superblock_matches_dense(self):
        model = SpinModel(
            n_sites=4,
            spin_sizes=[0.5] * 4,
            exchange_rows=[(i, j, 1.0, 0.6) for i in range(4) for j in range(i + 1, 4)],
            field_tables={"z": {i: 0.1 * i for i in range(4)}, "x": {0: 0.3}},
            sia_table={1: 0.2},
        )
        cache = init_cache(model)
        h = dense_plan_matrix(model, cache, (0, 1, 2, 3))
        np.testing.assert_allclose(h, dense_hamiltonian(model).toarray(), atol=1e-12)

    def test_unequal_legs_complex_matches_dense(self):
        """Mixed spin sizes give legs of dimension 2, 3, 2 and 4; the x- and
        z-axis DM terms make the Hamiltonian complex."""
        model = SpinModel(
            n_sites=4,
            spin_sizes=[0.5, 1.0, 0.5, 1.5],
            exchange_type="XYZ",
            exchange_rows=[
                (i, j, 1.0, 0.7 - 0.1 * j, 0.4 + 0.1 * i)
                for i in range(4) for j in range(i + 1, 4)
            ],
            field_tables={"x": {1: 0.3}, "z": {i: 0.1 * i for i in range(4)}},
            sia_table={3: 0.25},
            dm_tables={"z": [(0, 2, 0.4)], "x": [(1, 3, -0.3)]},
        )
        assert model.dtype == complex
        cache = init_cache(model)
        assert [cache.dimension(b) for b in range(4)] == [2, 3, 2, 4]
        h = dense_plan_matrix(model, cache, (0, 1, 2, 3))
        np.testing.assert_allclose(h, dense_hamiltonian(model).toarray(), atol=1e-12)

    def test_renormalized_superblock_spectrum(self):
        """After full-rank renormalization the superblock spectrum equals the
        exact spectrum (mixed term types, complex field)."""
        model = SpinModel(
            n_sites=6,
            spin_sizes=[0.5] * 6,
            exchange_type="XYZ",
            exchange_rows=[(i, i + 1, 1.0, 0.6, 0.3) for i in range(5)],
            field_tables={"y": {i: 0.2 for i in range(6)}},
            dm_tables={"z": [(0, 3, 0.4)]},
        )
        from treetn.gss import initialize_ttn

        topo = build_mpn(6)
        state, cache, _ = initialize_ttn(model, topo, 8)
        p, q = topo.center_tensors()
        legs = (*topo.edges[p][:2], *topo.edges[q][:2])
        h = dense_plan_matrix(model, cache, legs)
        got = np.linalg.eigvalsh(h)
        want = np.linalg.eigvalsh(dense_hamiltonian(model).toarray())
        np.testing.assert_allclose(got, want[: len(got)], atol=1e-10)

    def test_expectation_real(self, rng):
        model = SpinModel(
            n_sites=4,
            spin_sizes=[0.5] * 4,
            exchange_rows=[(0, 1, 1.0, 1.0), (1, 2, 1.0, 1.0), (2, 3, 1.0, 1.0)],
            dm_tables={"x": [(0, 2, 0.5)]},
        )
        cache = init_cache(model)
        plan = build_superblock_plan(model, cache, (0, 1, 2, 3))
        phi = rng.standard_normal((2, 2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2, 2))
        phi /= np.linalg.norm(phi)
        val = np.vdot(phi, plan.apply(phi))
        assert abs(val.imag) < 1e-10

    def test_assembly_additive_in_rows(self):
        base_rows = [(0, 1, 1.0, 0.5), (1, 2, 0.8, 1.0), (0, 3, 0.3, 0.2)]
        model_all = SpinModel(n_sites=4, spin_sizes=[0.5] * 4, exchange_rows=base_rows)
        model_less = SpinModel(
            n_sites=4, spin_sizes=[0.5] * 4, exchange_rows=base_rows[:-1]
        )
        model_one = SpinModel(
            n_sites=4, spin_sizes=[0.5] * 4, exchange_rows=[base_rows[-1]]
        )
        h_all = dense_plan_matrix(model_all, init_cache(model_all), (0, 1, 2, 3))
        h_less = dense_plan_matrix(model_less, init_cache(model_less), (0, 1, 2, 3))
        h_one = dense_plan_matrix(model_one, init_cache(model_one), (0, 1, 2, 3))
        np.testing.assert_allclose(h_all - h_less, h_one, atol=1e-12)


class TestRefreshBond:
    def test_region_sites_union(self, rng):
        model = heisenberg_chain(6)
        cache = init_cache(model)
        topo = build_mpn(6)
        state = TTNState(
            topology=topo,
            tensors=[random_isometry(rng, 2, 2, 3)] + [None] * 3,
            center_weights=np.ones(1),
        )
        refresh_bond(cache, model, state, 0)
        e3 = topo.edges[0][2]
        assert cache.sites[e3] == (0, 1)
        assert set(cache.spin_ops[e3]) == {0, 1}

    def test_block_hamiltonian_projected(self, rng):
        model = heisenberg_chain(6)
        cache = init_cache(model)
        topo = build_mpn(6)
        v = random_isometry(rng, 2, 2, 4)
        state = TTNState(
            topology=topo, tensors=[v] + [None] * 3, center_weights=np.ones(1)
        )
        refresh_bond(cache, model, state, 0)
        h2 = build_block_two_child(model, cache, 0, 1)
        expected = project_block_h(h2, v)
        np.testing.assert_allclose(cache.block_h[topo.edges[0][2]], expected, atol=1e-12)
