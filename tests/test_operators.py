"""Tests for renormalized operators, block Hamiltonians, and the
superblock application."""

from functools import reduce

import numpy as np
import pytest

from conftest import heisenberg_chain, random_isometry
from treetn.benchmarks import dense_hamiltonian
from treetn.errors import InvariantViolation
from treetn.gss import initialize_ttn
from treetn.linalg import full_eigh
from treetn.operators import (
    _apply_axis,
    _cross_rows,
    build_superblock_plan,
    eigenbasis_plan,
    init_cache,
    refresh_bond,
    renormalize_spin,
    rotate_legs,
)
from treetn.spinmodel import SpinModel, local_spin_matrices
from treetn.state import TTNState
from treetn.topology import Topology, build_mpn


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
        with pytest.raises(InvariantViolation):
            renormalize_spin(np.eye(3), v, child_slot=2)

    def test_bad_slot(self, rng):
        v = random_isometry(rng, 2, 2, 3)
        with pytest.raises(ValueError):
            renormalize_spin(np.eye(2), v, child_slot=3)

    @pytest.mark.parametrize("slot", [1, 2])
    @pytest.mark.parametrize("complex_", [False, True])
    def test_matches_einsum_reference(self, rng, slot, complex_):
        v = random_isometry(rng, 3, 4, 5, complex_=complex_)
        d = v.shape[slot - 1]
        op = rng.standard_normal((d, d))
        if complex_:
            op = op + 1j * rng.standard_normal((d, d))
        spec = "aec,ab,bed->cd" if slot == 1 else "eac,ab,ebd->cd"
        want = np.einsum(spec, v.conj(), op, v)
        np.testing.assert_allclose(renormalize_spin(op, v, slot), want, atol=1e-13)

    @pytest.mark.parametrize("slot", [1, 2])
    @pytest.mark.parametrize("complex_", [False, True])
    def test_batched_stack_matches_kron(self, rng, slot, complex_):
        """A ``(n, 2, d, d)`` stack is projected matrix by matrix as
        ``v† (op ⊗ 1) v`` or ``v† (1 ⊗ op) v``."""
        v = random_isometry(rng, 3, 4, 5, complex_=complex_)
        d = v.shape[slot - 1]
        ops = rng.standard_normal((4, 2, d, d))
        if complex_:
            ops = ops + 1j * rng.standard_normal(ops.shape)
        w = v.reshape(12, 5)
        out = renormalize_spin(ops, v, slot)
        assert out.shape == (4, 2, 5, 5)
        for idx in np.ndindex(4, 2):
            big = np.kron(ops[idx], np.eye(4)) if slot == 1 else np.kron(np.eye(3), ops[idx])
            np.testing.assert_allclose(out[idx], w.conj().T @ big @ w, atol=1e-13)


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


def region_hamiltonian(model, sites):
    """Dense Hamiltonian of the terms inside ``sites`` (site order kept),
    from the exact-diagonalization oracle on the restricted model."""
    index = {s: k for k, s in enumerate(sites)}

    def inside(rows):
        return [(index[i], index[j], *rest) for i, j, *rest in rows
                if i in index and j in index]

    sub = SpinModel(
        n_sites=len(sites),
        spin_sizes=[model.spin_sizes[s] for s in sites],
        exchange_type=model.exchange_type,
        exchange_rows=inside(model.exchange_rows),
        field_tables={
            axis: {index[i]: h for i, h in table.items() if i in index}
            for axis, table in model.field_tables.items()
        },
        sia_table={index[i]: d for i, d in model.sia_table.items() if i in index},
        dm_tables={axis: inside(rows) for axis, rows in model.dm_tables.items()},
        sod_tables={axis: inside(rows) for axis, rows in model.sod_tables.items()},
    )
    return dense_hamiltonian(sub).toarray()


class TestBlockInteraction:
    """The two-leg plan: both child blocks plus every cross coupling."""

    def test_two_single_sites_heisenberg(self):
        model = SpinModel(
            n_sites=4,
            spin_sizes=[0.5] * 4,
            exchange_rows=[(0, 1, 1.0, 1.0)],
        )
        cache = init_cache(model)
        h = dense_plan_matrix(model, cache, (0, 1))
        vals = full_eigh(h).eigenvalues
        np.testing.assert_allclose(vals, [-0.75, 0.25, 0.25, 0.25], atol=1e-12)

    def test_no_cross_coupling_zero(self):
        model = SpinModel(
            n_sites=4, spin_sizes=[0.5] * 4, exchange_rows=[(0, 1, 1.0, 1.0)]
        )
        cache = init_cache(model)
        plan = build_superblock_plan(model, cache, (2, 3))
        assert not plan.single and not plan.double
        assert not np.any(dense_plan_matrix(model, cache, (2, 3)))

    def test_four_site_split_matches_dense_cross(self, rng):
        model = heisenberg_chain(4, delta=0.7)
        cache = init_cache(model)
        # renormalize {0,1}->bond 4 and {2,3}->bond 5 with full unitaries;
        # no block Hamiltonians are stored, so the plan holds the cut only
        v = random_isometry(rng, 2, 2, 4)
        w = random_isometry(rng, 2, 2, 4)
        cache.sites[4] = (0, 1)
        cache.sites[5] = (2, 3)
        cache.spin_ops[4] = np.concatenate(
            [renormalize_spin(cache.spin_ops[0], v, 1), renormalize_spin(cache.spin_ops[1], v, 2)]
        )
        cache.spin_ops[5] = np.concatenate(
            [renormalize_spin(cache.spin_ops[2], w, 1), renormalize_spin(cache.spin_ops[3], w, 2)]
        )
        h = dense_plan_matrix(model, cache, (4, 5))
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


def refreshed_chain(model, tensors):
    """An MPN whose first tensors are ``tensors``, refreshed in order from
    the left end; returns the cache and the topology."""
    topo = build_mpn(model.n_sites)
    state = TTNState(
        topology=topo,
        tensors=list(tensors) + [None] * (topo.n_tensors - len(tensors)),
        center_weights=np.ones(1),
    )
    cache = init_cache(model)
    for i in range(len(tensors)):
        refresh_bond(cache, model, state, i)
    return cache, topo


def field_chain(n=6):
    return SpinModel(
        n_sites=n,
        spin_sizes=[0.5] * n,
        exchange_rows=[(i, i + 1, 1.0, 0.6) for i in range(n - 1)] + [(0, 2, 0.3, 1.0)],
        field_tables={"z": {i: 0.1 * (i + 1) for i in range(n)}, "x": {1: 0.4}},
    )


class TestProjectBlockH:
    """``refresh_bond`` stores ``v† H_region v`` for the region below a bond."""

    def test_full_isometry_preserves_spectrum(self, rng):
        model = field_chain()
        cache, topo = refreshed_chain(model, [random_isometry(rng, 2, 2, 4)])
        np.testing.assert_allclose(
            np.linalg.eigvalsh(cache.block_h[topo.edges[0][2]]),
            np.linalg.eigvalsh(region_hamiltonian(model, (0, 1))),
            atol=1e-12,
        )

    def test_spectral_projection(self):
        model = field_chain()
        spec = full_eigh(region_hamiltonian(model, (0, 1)))
        v = spec.eigenvectors[:, :3].reshape(2, 2, 3)
        cache, topo = refreshed_chain(model, [v])
        np.testing.assert_allclose(
            np.linalg.eigvalsh(cache.block_h[topo.edges[0][2]]),
            spec.eigenvalues[:3],
            atol=1e-12,
        )

    def test_interlacing(self, rng):
        """Two levels: a full unitary on {0, 1}, then a rank-5 isometry onto
        {0, 1, 2}; the result is the dense projection and interlaces."""
        model = field_chain()
        v0 = random_isometry(rng, 2, 2, 4)
        v1 = random_isometry(rng, 4, 2, 5)
        cache, topo = refreshed_chain(model, [v0, v1])
        got = cache.block_h[topo.edges[1][2]]
        h = region_hamiltonian(model, (0, 1, 2))
        w = np.kron(v0.reshape(4, 4), np.eye(2)) @ v1.reshape(8, 5)
        np.testing.assert_allclose(got, w.conj().T @ h @ w, atol=1e-12)
        full = np.linalg.eigvalsh(h)
        for k, lam in enumerate(np.linalg.eigvalsh(got)):
            assert full[k] - 1e-12 <= lam <= full[k + 8 - 5] + 1e-12

    def test_hermitian_output(self, rng):
        model = SpinModel(
            n_sites=4,
            spin_sizes=[0.5] * 4,
            exchange_rows=[(0, 1, 1.0, 0.5)],
            dm_tables={"z": [(0, 1, 0.7)]},
        )
        assert model.dtype == complex
        cache, topo = refreshed_chain(model, [random_isometry(rng, 2, 2, 3, complex_=True)])
        proj = cache.block_h[topo.edges[0][2]]
        assert np.max(np.abs(proj - proj.conj().T)) < 1e-12

    def test_unequal_spins_complex_matches_dense(self, rng):
        """Spins 1/2, 1 and 3/2 under XYZ exchange, a y field and DM terms:
        two complex levels against the dense projection."""
        model = SpinModel(
            n_sites=6,
            spin_sizes=[0.5, 1.0, 1.5, 0.5, 1.0, 0.5],
            exchange_type="XYZ",
            exchange_rows=[(i, i + 1, 1.0, 0.7, 0.4 + 0.1 * i) for i in range(5)],
            field_tables={"y": {1: 0.3}, "z": {2: -0.2}},
            sia_table={2: 0.25},
            dm_tables={"z": [(0, 2, 0.4)], "x": [(1, 2, -0.3)]},
        )
        assert model.dtype == complex
        v0 = random_isometry(rng, 2, 3, 6, complex_=True)
        v1 = random_isometry(rng, 6, 4, 10, complex_=True)
        cache, topo = refreshed_chain(model, [v0, v1])
        h = region_hamiltonian(model, (0, 1, 2))
        w = np.kron(v0.reshape(6, 6), np.eye(4)) @ v1.reshape(24, 10)
        np.testing.assert_allclose(
            cache.block_h[topo.edges[1][2]], w.conj().T @ h @ w, atol=1e-12
        )


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


def scanned_cross_rows(model, sites_a, sites_b):
    """The former O(|A||B|) scan of every site pair, kept as the oracle."""
    groups = {}
    for ia in sites_a:
        for jb in sites_b:
            key = (ia, jb) if ia < jb else (jb, ia)
            for k1, k2, coef in model.pair_terms.get(key, ()):
                kinds = (k1, k2) if ia < jb else (k2, k1)
                groups.setdefault(kinds, []).append((ia, jb, coef))
    return groups


class TestCrossRows:
    def test_matches_pair_scan(self, rng):
        n = 12
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]

        def draw_rows(count, columns):
            picked = rng.choice(len(pairs), size=count, replace=False)
            return [
                (*pairs[k], *map(float, rng.standard_normal(columns)))
                for k in sorted(picked)
            ]

        model = SpinModel(
            n_sites=n,
            spin_sizes=list(rng.choice([0.5, 1.0, 1.5], size=n)),
            exchange_type="XYZ",
            exchange_rows=draw_rows(20, 3),
            dm_tables={axis: draw_rows(8, 1) for axis in "xyz"},
        )
        assert model.dtype == complex
        for _ in range(200):
            sites = rng.permutation(n)
            k = rng.integers(1, n)
            m = rng.integers(k + 1, n + 1)
            region_a = tuple(sorted(sites[:k].tolist()))
            region_b = tuple(sorted(sites[k:m].tolist()))
            got = _cross_rows(model, region_a, region_b)
            want = scanned_cross_rows(model, region_a, region_b)
            assert list(got) == list(want)
            assert got == want

    def test_overlap_rejected(self):
        with pytest.raises(InvariantViolation, match="overlap"):
            _cross_rows(heisenberg_chain(4), (0, 1), (1, 2))


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


def plan_matrix(plan, dims):
    """The plan's dense matrix, one column per unit tensor."""
    dim = int(np.prod(dims))
    units = np.eye(dim, dtype=plan.dtype).reshape(dim, *dims)
    return np.stack([plan.apply(e).ravel() for e in units], axis=1)


def leg_product(bases, dims):
    """``B``, the Kronecker product of per-leg bases, identity where a leg
    has none."""
    return reduce(np.kron, [np.eye(d) if u is None else u for u, d in zip(bases, dims)])


def complex_center():
    """The renormalized center superblock of a model with a y field and DM
    terms, whose leg operators are complex: model, cache and legs."""
    model = SpinModel(
        n_sites=6,
        spin_sizes=[0.5, 1.0, 0.5, 0.5, 1.0, 0.5],
        exchange_type="XYZ",
        exchange_rows=[(i, i + 1, 1.0, 0.6, 0.3) for i in range(5)] + [(1, 4, 0.5, 0.2, 0.1)],
        field_tables={"y": {i: 0.2 for i in range(6)}},
        dm_tables={"z": [(0, 3, 0.4)], "x": [(2, 5, -0.3)]},
    )
    assert model.dtype == complex
    topo = build_mpn(6)
    _, cache, _ = initialize_ttn(model, topo, 8)
    p, q = topo.center_tensors()
    return model, cache, (*topo.edges[p][:2], *topo.edges[q][:2])


def real_two_leg(rng):
    """The region of sites 0-2 of a field chain, then site 3."""
    model = field_chain()
    cache, topo = refreshed_chain(
        model, [random_isometry(rng, 2, 2, 3), random_isometry(rng, 3, 2, 5)]
    )
    return model, cache, (topo.edges[1][2], 3)


class TestEigenbasisPlan:
    """A superblock in its legs' block eigenbases: ``B† H B`` with the block
    terms as one diagonal array."""

    @pytest.fixture(params=["real_two_leg", "complex_four_leg"])
    def case(self, request, rng):
        model, cache, legs = real_two_leg(rng) if request.param == "real_two_leg" else complex_center()
        plan = build_superblock_plan(model, cache, legs)
        assert plan.single and plan.double
        dims = [cache.dimension(b) for b in legs]
        return plan, *eigenbasis_plan(cache, plan, legs), dims

    def test_matrix_is_rotated_hamiltonian(self, case):
        plan, rotated, _, bases, dims = case
        assert rotated.single == [] and len(rotated.double) == len(plan.double)
        b = leg_product(bases, dims)
        want = b.conj().T @ plan_matrix(plan, dims) @ b
        np.testing.assert_allclose(plan_matrix(rotated, dims), want, atol=1e-12)

    def test_diagonal_is_real_diagonal(self, case):
        _, rotated, diagonal, _, dims = case
        assert diagonal.shape == tuple(dims) and diagonal.dtype == float
        h = plan_matrix(rotated, dims)
        np.testing.assert_allclose(diagonal.ravel(), np.diag(h).real, atol=1e-12)
        assert np.max(np.abs(np.diag(h).imag)) < 1e-12

    def test_rotation_round_trip(self, case, rng):
        plan, _, _, bases, dims = case
        phi = rng.standard_normal(dims).astype(plan.dtype)
        if plan.dtype == complex:
            phi += 1j * rng.standard_normal(dims)
        inside = rotate_legs(phi, bases)
        b = leg_product(bases, dims)
        np.testing.assert_allclose(inside.ravel(), b.conj().T @ phi.ravel(), atol=1e-12)
        np.testing.assert_allclose(rotate_legs(inside, bases, back=True), phi, atol=1e-12)

    def test_leg_without_single_term_unrotated(self, rng):
        """Without fields a bare site has no block: its leg keeps its basis
        and its pair operators, while the region's leg is rotated."""
        model = heisenberg_chain(6)
        cache, topo = refreshed_chain(model, [random_isometry(rng, 2, 2, 4)])
        legs = (topo.edges[0][2], 2)
        plan = build_superblock_plan(model, cache, legs)
        assert [axis for axis, _ in plan.single] == [0]
        rotated, _, bases = eigenbasis_plan(cache, plan, legs)
        assert bases[0] is not None and bases[1] is None
        for (_, _, ma, mb), (_, _, ra, rb) in zip(plan.double, rotated.double):
            assert rb is mb and not np.allclose(ra, ma)
        b = leg_product(bases, [4, 2])
        want = b.conj().T @ plan_matrix(plan, [4, 2]) @ b
        np.testing.assert_allclose(plan_matrix(rotated, [4, 2]), want, atol=1e-12)


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
        assert cache.spin_ops[e3].shape == (2, 2, 3, 3)

    def test_rows_follow_site_order(self, rng):
        """The slot-1 child holds the higher sites: the rows of the parent's
        operator array still follow the ascending sites."""
        spins = [0.5, 1.0, 0.5, 1.0, 0.5, 0.5]
        model = SpinModel(
            n_sites=6, spin_sizes=spins, exchange_rows=[(i, i + 1, 1.0, 0.7) for i in range(5)]
        )
        # bond 6 holds sites (2, 3); tensor 1 puts it in slot 1 and site 1 in slot 2
        topo = Topology(n_sites=6, edges=[[2, 3, 6], [6, 1, 7], [0, 7, 8], [4, 5, 8]], center=8)
        v0 = random_isometry(rng, 2, 3, 5)
        v1 = random_isometry(rng, 5, 3, 7)
        state = TTNState(topology=topo, tensors=[v0, v1, None, None], center_weights=np.ones(1))
        cache = init_cache(model)
        refresh_bond(cache, model, state, 0)
        refresh_bond(cache, model, state, 1)
        assert cache.sites[7] == (1, 2, 3)
        want = {
            1: renormalize_spin(model.bare_operators(1), v1, 2),
            2: renormalize_spin(renormalize_spin(model.bare_operators(2), v0, 1), v1, 1),
            3: renormalize_spin(renormalize_spin(model.bare_operators(3), v0, 2), v1, 1),
        }
        assert cache.spin_ops[7].shape == (3, 2, 7, 7)
        for row, site in enumerate(cache.sites[7]):
            np.testing.assert_allclose(cache.spin_ops[7][row], want[site], atol=1e-13)

    def test_block_hamiltonian_projected(self, rng):
        model = heisenberg_chain(6)
        v = random_isometry(rng, 2, 2, 4)
        cache, topo = refreshed_chain(model, [v])
        w = v.reshape(4, 4)
        expected = w.conj().T @ region_hamiltonian(model, (0, 1)) @ w
        np.testing.assert_allclose(cache.block_h[topo.edges[0][2]], expected, atol=1e-12)

    def test_no_terms_drops_block(self, rng):
        """A region no term touches keeps no block Hamiltonian, even where a
        stale one was stored before."""
        model = SpinModel(n_sites=6, spin_sizes=[0.5] * 6, exchange_rows=[(3, 4, 1.0, 1.0)])
        topo = build_mpn(6)
        cache = init_cache(model)
        e3 = topo.edges[0][2]
        cache.block_h[e3], cache.block_eig[e3] = np.eye(3), (np.ones(3), np.eye(3))
        state = TTNState(
            topology=topo,
            tensors=[random_isometry(rng, 2, 2, 3)] + [None] * 3,
            center_weights=np.ones(1),
        )
        refresh_bond(cache, model, state, 0)
        assert e3 not in cache.block_h and e3 not in cache.block_eig

    def test_field_only_region_keeps_block(self, rng):
        model = SpinModel(n_sites=6, spin_sizes=[0.5] * 6, field_tables={"z": {1: 0.5}})
        v = random_isometry(rng, 2, 2, 3)
        cache, topo = refreshed_chain(model, [v])
        w = v.reshape(4, 3)
        expected = w.conj().T @ region_hamiltonian(model, (0, 1)) @ w
        np.testing.assert_allclose(cache.block_h[topo.edges[0][2]], expected, atol=1e-12)

    def test_eigenbasis_replaced_with_block(self, rng):
        """Refreshing a bond through a new isometry replaces its block's
        eigendecomposition as well: the superblock built next is rotated by
        the new block's eigenvectors, never by the old ones."""
        model = field_chain()
        cache, topo = refreshed_chain(model, [random_isometry(rng, 2, 2, 3)])
        e3 = topo.edges[0][2]
        stale = cache.block_h[e3]
        state = TTNState(
            topology=topo,
            tensors=[random_isometry(rng, 2, 2, 3)] + [None] * (topo.n_tensors - 1),
            center_weights=np.ones(1),
        )
        refresh_bond(cache, model, state, 0)
        h = cache.block_h[e3]
        assert not np.allclose(h, stale)
        values, vectors = cache.block_eig[e3]
        np.testing.assert_allclose(vectors.conj().T @ h @ vectors, np.diag(values), atol=1e-12)
        legs = (e3, 2)
        plan = build_superblock_plan(model, cache, legs)
        rotated, _, bases = eigenbasis_plan(cache, plan, legs)
        b = leg_product(bases, [3, 2])
        want = b.conj().T @ plan_matrix(plan, [3, 2]) @ b
        np.testing.assert_allclose(plan_matrix(rotated, [3, 2]), want, atol=1e-12)
