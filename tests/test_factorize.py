"""Tests for tensor factorization, reconstruction, and fidelity sweeps."""

import numpy as np
import pytest

from conftest import AuditObserver, leaf_partitions
from treetn import factorize
from treetn.benchmarks import balanced_tree_edges, gen_multivariate_normal
from treetn.errors import NumericalError
from treetn.factorize import (
    FactorizeConfig,
    embed_environment,
    environment,
    fidelity,
    fidelity_sweep_run,
    normalize_target,
    reconstruct_sweep,
    sequential_svd_to_mpn,
)
from treetn.state import audit_state, merge_center, to_dense
from treetn.sweeps import schedule
from treetn.topology import audit_topology, set_distance


def rainbow_target(n):
    """Nested maximally entangled pairs (i, n-1-i)."""
    psi = np.zeros((2,) * n)
    it = np.ndindex(*(2,) * (n // 2))
    for bits in it:
        idx = tuple(bits) + tuple(reversed(bits))
        psi[idx] = 1.0
    return normalize_target(psi)


def full_rebuild(target, state, pair):
    """Reference environment contraction without memoization: the whole
    target contracted with every isometry outside ``pair``, farthest from
    the pair's shared bond first. Returns the result and its leg labels."""
    topo = state.topology
    (root,) = set(topo.edges[pair[0]]) & set(topo.edges[pair[1]])
    dist = set_distance(topo, root)
    legs = list(range(topo.n_sites))
    acc = target.data
    order = sorted(
        (i for i in range(topo.n_tensors) if i not in pair),
        key=lambda i: -dist[topo.edges[i][2]],
    )
    for i in order:
        e1, e2, e3 = topo.edges[i]
        ax1, ax2 = legs.index(e1), legs.index(e2)
        acc = np.tensordot(acc, state.tensors[i].conj(), axes=[[ax1, ax2], [0, 1]])
        legs = [l for k, l in enumerate(legs) if k not in (ax1, ax2)] + [e3]
    return acc, legs


def assert_matches_full_rebuild(target, state, pair, acc, legs):
    ref, ref_legs = full_rebuild(target, state, pair)
    assert sorted(legs) == sorted(ref_legs)
    np.testing.assert_allclose(
        acc, ref.transpose([ref_legs.index(b) for b in legs]), rtol=0, atol=1e-12
    )


def assert_entries_bounded(target):
    assert all(4 * acc.size <= target.data.size for _, acc, _ in target.envs.values())


class TestNormalizeTarget:
    def test_unit_unchanged(self, rng):
        raw = rng.standard_normal((2,) * 4)
        raw /= np.linalg.norm(raw)
        t = normalize_target(raw)
        assert t.norm == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(t.data, raw, atol=1e-14)

    def test_scale_recorded(self, rng):
        raw = rng.standard_normal((2,) * 4)
        raw /= np.linalg.norm(raw)
        t = normalize_target(7.0 * raw)
        assert t.norm == pytest.approx(7.0, rel=1e-12)
        np.testing.assert_allclose(t.data, raw, atol=1e-12)

    def test_random_unit_output(self, rng):
        t = normalize_target(rng.standard_normal((2,) * 6) * 13.7)
        assert np.linalg.norm(t.data) == pytest.approx(1.0, abs=1e-14)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            normalize_target(np.zeros((2,) * 4))

    def test_small_legs_rejected(self):
        with pytest.raises(ValueError):
            normalize_target(np.ones((2, 1, 2, 2)))

    def test_imaginary_inf_rejected(self):
        raw = np.ones((2,) * 4, dtype=complex)
        raw[0, 1, 0, 1] = complex(1.0, np.inf)
        with pytest.raises(NumericalError, match="non-finite"):
            normalize_target(raw)

    @pytest.mark.parametrize("dtype", ["<U3", "S3", object])
    def test_non_numeric_rejected(self, dtype):
        raw = np.full((2,) * 4, "abc", dtype=dtype)
        with pytest.raises(ValueError, match="dtype"):
            normalize_target(raw)

    @pytest.mark.parametrize(
        "dtype, promoted",
        [(np.float32, np.float64), (np.complex64, np.complex128)],
    )
    def test_promoted_to_double(self, rng, dtype, promoted):
        raw = rng.integers(-3, 4, size=(2,) * 4).astype(dtype)
        raw[0, 0, 0, 0] = 5
        t = normalize_target(raw)
        assert t.data.dtype == promoted
        np.testing.assert_allclose(
            t.data, raw.astype(promoted) / np.linalg.norm(raw.astype(promoted)),
            rtol=0, atol=1e-15,
        )

    def test_single_precision_exact_chain_has_unit_fidelity(self, rng):
        t = normalize_target(rng.standard_normal((2,) * 8).astype(np.float32))
        state = sequential_svd_to_mpn(t, 16)
        assert abs(fidelity(t, state) - 1.0) <= 1e-12


class TestFactorizeConfig:
    @pytest.mark.parametrize("name", ["eps_s", "delta_s", "eps_f"])
    @pytest.mark.parametrize("value", [-1.0, 0.0, np.nan, np.inf])
    def test_bad_threshold_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            FactorizeConfig(chi_init=4, **{name: value})


class TestSequentialSvd:
    def test_product_all_trivial_bonds(self):
        t = normalize_target(np.ones((2,) * 6))
        state = sequential_svd_to_mpn(t, 8)
        audit_topology(state.topology)
        audit_state(state)
        dims = state.bond_dimensions()
        assert all(dims[b] == 1 for b in state.topology.auxiliary_bonds())

    def test_random_exact(self, rng):
        t = normalize_target(rng.standard_normal((2,) * 6))
        state = sequential_svd_to_mpn(t, 8)
        assert fidelity(t, state) == pytest.approx(1.0, abs=1e-10)
        np.testing.assert_allclose(to_dense(state), t.data, atol=1e-10)

    def test_complex_target(self, rng):
        raw = rng.standard_normal((2,) * 5) + 1j * rng.standard_normal((2,) * 5)
        t = normalize_target(raw)
        state = sequential_svd_to_mpn(t, 8)
        assert fidelity(t, state) == pytest.approx(1.0, abs=1e-10)

    def test_rainbow_middle_rank(self):
        t = rainbow_target(6)
        # oracle: exact rank of the half-half matricization by dense SVD
        mat = t.data.reshape(8, 8)
        oracle_rank = int(np.sum(np.linalg.svd(mat, compute_uv=False) > 1e-12))
        state = sequential_svd_to_mpn(t, 16)
        dims = state.bond_dimensions()
        assert dims[state.topology.center] == oracle_rank

    def test_truncation_cap_respected(self, rng):
        t = normalize_target(rng.standard_normal((2,) * 8))
        state = sequential_svd_to_mpn(t, 3)
        assert state.max_bond_dimension() <= 3
        audit_state(state)

    def test_mixed_leg_dimensions(self, rng):
        t = normalize_target(rng.standard_normal((2, 3, 2, 4, 2)))
        state = sequential_svd_to_mpn(t, 24)
        np.testing.assert_allclose(to_dense(state), t.data, atol=1e-10)


class TestReconstructSweep:
    def test_fixed_point_topology(self, rng):
        t = normalize_target(rng.standard_normal((2,) * 6))
        state = sequential_svd_to_mpn(t, 8)
        cfg = FactorizeConfig(chi_init=8, opt_mode=1, n_max=6)
        state, reports = reconstruct_sweep(state, cfg)
        shape = state.topology.shape_snapshot()
        state, reports2 = reconstruct_sweep(state, cfg)
        assert state.topology.shape_snapshot() == shape

    def test_rainbow_reduces_peak_entropy(self):
        t = rainbow_target(6)
        state = sequential_svd_to_mpn(t, 8)
        cfg0 = FactorizeConfig(chi_init=8, opt_mode=0, n_max=1)
        _, base_reports = reconstruct_sweep(state.copy(), cfg0)
        base_max = max(
            base_reports[-1].entropies[b]
            for b in state.topology.auxiliary_bonds()
        )
        cfg = FactorizeConfig(chi_init=8, opt_mode=1, n_max=10)
        audit = AuditObserver()
        state, reports = reconstruct_sweep(state, cfg, observers=[audit])
        new_max = max(
            reports[-1].entropies[b] for b in state.topology.auxiliary_bonds()
        )
        assert new_max < base_max - 0.5
        assert fidelity(t, state) == pytest.approx(1.0, abs=1e-10)

    def test_mode0_entropies_invariant(self, rng):
        t = normalize_target(rng.standard_normal((2,) * 6))
        state = sequential_svd_to_mpn(t, 8)
        cfg = FactorizeConfig(chi_init=8, opt_mode=0, n_max=2)
        state, reports = reconstruct_sweep(state, cfg)
        first, last = reports[0], reports[-1]
        for b in first.entropies:
            assert last.entropies[b] == pytest.approx(first.entropies[b], abs=1e-12)

    def test_tree_correlated_density_recovers_grouping(self):
        edges = balanced_tree_edges(4)
        tensor = gen_multivariate_normal(4, 2, 0.2, edges)
        t = normalize_target(tensor)
        state = sequential_svd_to_mpn(t, 16)
        cfg = FactorizeConfig(chi_init=16, opt_mode=1, n_max=20)
        state, _ = reconstruct_sweep(state, cfg)
        parts = leaf_partitions(state.topology)
        bits = {v: frozenset(range(2 * v, 2 * v + 2)) for v in range(4)}
        for v in range(4):
            assert bits[v] in parts, f"variable {v} bits not a subtree"


class TestEnvironment:
    def test_self_consistency(self, rng):
        t = normalize_target(rng.standard_normal((2,) * 6))
        state = sequential_svd_to_mpn(t, 8)
        p, q = state.topology.center_tensors()
        env = environment(t, state, p, q)
        np.testing.assert_allclose(env, merge_center(state, p, q), atol=1e-12)

    def test_inner_product_matches_dense(self, rng):
        t = normalize_target(rng.standard_normal((2,) * 6))
        state = sequential_svd_to_mpn(t, 3)
        p, q = state.topology.center_tensors()
        env = environment(t, state, p, q)
        via_env = complex(np.vdot(merge_center(state, p, q), env))
        dense = complex(np.vdot(to_dense(state), t.data))
        assert via_env == pytest.approx(dense, abs=1e-10)

    def test_embedding_scale_invariant(self, rng):
        env = rng.standard_normal((2, 2, 2, 2))
        np.testing.assert_allclose(
            embed_environment(env), embed_environment(3.7 * env), atol=1e-14
        )

    def test_embedding_unit_norm(self, rng):
        out = embed_environment(rng.standard_normal((2, 2, 2, 2)))
        assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-14)

    def test_zero_environment_rejected(self):
        with pytest.raises(NumericalError):
            embed_environment(np.zeros((2, 2, 2, 2)))

    def test_embedding_locally_maximizes_overlap(self, rng):
        """The post-embedding overlap equals the environment norm, which
        bounds any unit center tensor's overlap at fixed surroundings."""
        for seed in range(5):
            gen = np.random.default_rng(seed)
            t = normalize_target(gen.standard_normal((2,) * 6))
            state = sequential_svd_to_mpn(t, 2)
            p, q = state.topology.center_tensors()
            env = environment(t, state, p, q)
            f_before = abs(np.vdot(merge_center(state, p, q), env))
            assert f_before <= np.linalg.norm(env) + 1e-12


def absorb_reference(acc, legs, tensor, edges):
    """The contraction as ``tensordot`` does it: the isometry's third bond
    becomes the last leg."""
    ax1, ax2 = legs.index(edges[0]), legs.index(edges[1])
    out = np.tensordot(acc, tensor.conj(), axes=[[ax1, ax2], [0, 1]])
    return out, [l for k, l in enumerate(legs) if k not in (ax1, ax2)] + [edges[2]]


class TestAbsorb:
    """``_absorb`` on every layout of the two contracted legs, against
    ``tensordot`` with the old leg order."""

    # accumulator shape, its leg labels, and the isometry's bonds; sites have
    # dimension 2 or 3 and the auxiliary bonds (labels >= 20) 1, 4 or 8
    LAYOUTS = {
        "adjacent-front": ((2, 3, 4, 2, 8), [0, 1, 20, 3, 21], (0, 1, 30)),
        "adjacent-middle": ((2, 3, 4, 2, 8), [0, 1, 20, 3, 21], (20, 3, 30)),
        "adjacent-back": ((2, 3, 4, 2, 8), [0, 1, 20, 3, 21], (3, 21, 30)),
        "reversed-front": ((2, 3, 4, 2, 8), [0, 1, 20, 3, 21], (1, 0, 30)),
        "reversed-middle": ((2, 3, 4, 2, 8), [0, 1, 20, 3, 21], (3, 20, 30)),
        "reversed-back": ((2, 3, 4, 2, 8), [0, 1, 20, 3, 21], (21, 3, 30)),
        "apart": ((2, 3, 4, 2, 8), [0, 1, 20, 3, 21], (1, 3, 30)),
        "apart-reversed": ((2, 3, 4, 2, 8), [0, 1, 20, 3, 21], (21, 1, 30)),
        "apart-ends": ((2, 3, 4, 2, 8), [0, 1, 20, 3, 21], (0, 21, 30)),
        "apart-over-unit-bond": ((3, 1, 2, 4, 2), [0, 20, 1, 21, 2], (0, 1, 30)),
        "only-two-legs": ((4, 8), [20, 21], (21, 20, 30)),
        "chi-legs-apart": ((2, 8, 3, 4, 2, 2), [0, 20, 1, 21, 2, 3], (20, 21, 30)),
    }

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("acc_complex", [False, True])
    @pytest.mark.parametrize("tensor_complex", [False, True])
    def test_matches_tensordot(self, rng, layout, acc_complex, tensor_complex):
        shape, legs, edges = self.LAYOUTS[layout]
        dims = dict(zip(legs, shape))
        acc = rng.standard_normal(shape)
        tensor = rng.standard_normal((dims[edges[0]], dims[edges[1]], 5))
        if acc_complex:
            acc = acc + 1j * rng.standard_normal(shape)
        if tensor_complex:
            tensor = tensor + 1j * rng.standard_normal(tensor.shape)
        acc.flags.writeable = False
        before = acc.copy()

        out, out_legs = factorize._absorb(acc, list(legs), tensor, edges)
        ref, ref_legs = absorb_reference(acc, legs, tensor, edges)

        np.testing.assert_array_equal(acc, before)
        assert out.ndim == len(out_legs) == len(legs) - 1
        assert sorted(out_legs) == sorted(ref_legs)
        dims[edges[2]] = 5
        assert out.shape == tuple(dims[l] for l in out_legs)
        # the new leg takes the place of the contracted leg that came first
        assert out_legs.index(edges[2]) == min(legs.index(edges[0]), legs.index(edges[1]))
        assert out.dtype == ref.dtype
        np.testing.assert_allclose(
            out.transpose([out_legs.index(l) for l in ref_legs]), ref, rtol=0, atol=1e-12
        )


class TestFidelity:
    def test_exact_state(self, rng):
        t = normalize_target(rng.standard_normal((2,) * 6))
        state = sequential_svd_to_mpn(t, 8)
        assert fidelity(t, state) == pytest.approx(1.0, abs=1e-10)

    def test_orthogonal_target(self, rng):
        base = np.zeros((2,) * 6)
        base[0] = rng.standard_normal((2,) * 5)
        state = sequential_svd_to_mpn(normalize_target(base), 8)
        orth = np.zeros((2,) * 6)
        orth[1] = rng.standard_normal((2,) * 5)
        assert fidelity(normalize_target(orth), state) == pytest.approx(0.0, abs=1e-12)

    def test_gram_identity_with_dense_difference(self, rng):
        t = normalize_target(rng.standard_normal((2,) * 6))
        state = sequential_svd_to_mpn(t, 3)
        f = fidelity(t, state)
        dense = to_dense(state)
        overlap = complex(np.vdot(dense, t.data))
        phase = overlap / abs(overlap)
        diff = np.linalg.norm(t.data - phase * dense) ** 2
        assert diff == pytest.approx(2 - 2 * f, abs=1e-8)


class TestFidelitySweeps:
    def test_full_rank_reaches_unity(self, rng):
        t = normalize_target(rng.standard_normal((2,) * 6))
        state = sequential_svd_to_mpn(t, 2)
        cfg = FactorizeConfig(chi_init=2, fidelity=schedule([2, 4, 8], [6, 6, 6]))
        state, _ = fidelity_sweep_run(t, state, cfg)
        assert fidelity(t, state) >= 1 - 1e-8

    def test_disabled_config_rejected(self, rng):
        t = normalize_target(rng.standard_normal((2,) * 4))
        state = sequential_svd_to_mpn(t, 2)
        cfg = FactorizeConfig(chi_init=2)
        with pytest.raises(ValueError):
            fidelity_sweep_run(t, state, cfg)

    def test_fixed_structure_fidelity_monotone(self, rng):
        t = normalize_target(rng.standard_normal((2,) * 6))
        state = sequential_svd_to_mpn(t, 3)
        history = [fidelity(t, state)]
        cfg = FactorizeConfig(chi_init=3, fidelity=schedule([3], [1], mode=0))
        for _ in range(4):
            state, _ = fidelity_sweep_run(t, state, cfg)
            history.append(fidelity(t, state))
        # monotone up to per-step truncation noise
        for a, b in zip(history, history[1:]):
            assert b >= a - 1e-9

    def test_structure_optimization_helps_rainbow(self):
        t = rainbow_target(6)
        mpn = sequential_svd_to_mpn(t, 2)
        fixed_cfg = FactorizeConfig(chi_init=2, fidelity=schedule([2], [8], mode=0))
        opt_cfg = FactorizeConfig(chi_init=2, fidelity=schedule([2], [8], mode=1))
        fixed_state, _ = fidelity_sweep_run(t, mpn.copy(), fixed_cfg)
        opt_state, _ = fidelity_sweep_run(t, mpn.copy(), opt_cfg)
        f_fixed = fidelity(t, fixed_state)
        f_opt = fidelity(t, opt_state)
        assert f_opt >= 1 - 1e-8
        assert f_opt > f_fixed + 0.05


class TestCachedEnvironment:
    """The memoized environment against the full rebuild from the target."""

    @pytest.mark.parametrize(
        "n, mode, t0, seed, complex_",
        [
            (8, 1, 0.5, 0, False),
            (9, 2, 0.0, 1, False),
            (10, 1, 1.0, 2, False),
            (10, 2, 0.0, 3, False),
            (8, 1, 0.5, 4, True),
        ],
    )
    def test_every_step_matches_full_rebuild(
        self, monkeypatch, n, mode, t0, seed, complex_
    ):
        gen = np.random.default_rng(seed)
        raw = gen.standard_normal((2,) * n)
        if complex_:
            raw = raw + 1j * gen.standard_normal((2,) * n)
        t = normalize_target(raw)
        state = sequential_svd_to_mpn(t, 2)
        cached = factorize.contract_with_conjugates
        calls = []

        def checked(target, st, pair):
            acc, legs = cached(target, st, pair)
            assert_matches_full_rebuild(target, st, pair, acc, legs)
            calls.append(pair)
            return acc, legs

        monkeypatch.setattr(factorize, "contract_with_conjugates", checked)
        pairings = []
        cfg = FactorizeConfig(
            chi_init=2,
            fidelity=schedule([2, 4], [4, 2], mode=mode, t0=t0),
            fidelity_seed=seed,
        )
        fidelity_sweep_run(
            t, state, cfg, observers=[lambda s, info: pairings.append(info.choice.pairing)]
        )
        assert len(calls) == len(pairings) > 0
        assert any(p != 0 for p in pairings), "no reconnection happened"
        assert t.envs, "nothing was memoized"
        assert_entries_bounded(t)

    def test_unchanged_network_reuses_entries(self, rng):
        t = normalize_target(rng.standard_normal((2,) * 10))
        state = sequential_svd_to_mpn(t, 4)
        p, q = state.topology.center_tensors()
        first = environment(t, state, p, q)
        entries = {o: entry[1] for o, entry in t.envs.items()}
        assert entries
        second = environment(t, state, p, q)
        assert all(t.envs[o][1] is acc for o, acc in entries.items())
        np.testing.assert_array_equal(first, second)

    @pytest.mark.parametrize("change", ["array", "edges"])
    def test_changed_leaf_is_not_reused(self, rng, change):
        t = normalize_target(rng.standard_normal((2,) * 10))
        state = sequential_svd_to_mpn(t, 4)
        p, q = state.topology.center_tensors()
        environment(t, state, p, q)
        assert t.envs
        # the leaf of a memoized subtree gets a fresh same-shape array, or
        # its two sites swapped without touching the array
        deps = next(iter(t.envs.values()))[0]
        leaf = next(i for i, v in enumerate(state.tensors) if v is deps[0][0])
        if change == "array":
            state.tensors[leaf] = rng.standard_normal(state.tensors[leaf].shape)
        else:
            e1, e2, e3 = state.topology.edges[leaf]
            state.topology.edges[leaf] = [e2, e1, e3]
        acc, legs = factorize.contract_with_conjugates(t, state, (p, q))
        assert_matches_full_rebuild(t, state, (p, q), acc, legs)
        assert_entries_bounded(t)

    def test_entries_are_read_only(self, rng):
        t = normalize_target(rng.standard_normal((2,) * 10))
        state = sequential_svd_to_mpn(t, 4)
        environment(t, state, *state.topology.center_tensors())
        assert t.envs
        assert not any(acc.flags.writeable for _, acc, _ in t.envs.values())
