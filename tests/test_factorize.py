"""Tests for tensor factorization, reconstruction, and fidelity sweeps."""

import numpy as np
import pytest

from conftest import AuditObserver, leaf_partitions
from treetn import factorize
from treetn.benchmarks import balanced_tree_edges, gen_multivariate_normal
from treetn.errors import ConfigError, InvariantViolation, NumericalError
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
from treetn.topology import Topology, audit_topology, set_distance, tree_shape


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
    order = sorted(
        (i for i in range(topo.n_tensors) if i not in pair),
        key=lambda i: -dist[topo.edges[i][2]],
    )
    return absorb_reference(
        target.data,
        list(range(topo.n_sites)),
        [state.tensors[i] for i in order],
        [topo.edges[i] for i in order],
    )


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
        with pytest.raises(ValueError, match="identically zero"):
            normalize_target(np.zeros((2,) * 4))

    @pytest.mark.parametrize("scale", [1e200, 1e-160, 1e-170])
    def test_extreme_scale_normalized(self, rng, scale):
        # the squares of these entries overflow, lose bits, or vanish
        raw = rng.standard_normal((2,) * 8)
        raw /= np.linalg.norm(raw)
        t = normalize_target(raw * scale)
        assert t.norm == pytest.approx(scale, rel=1e-12)
        np.testing.assert_allclose(t.data, raw, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        raw = np.ones((2,) * 4)
        raw[1, 0, 1, 0] = bad
        with pytest.raises(NumericalError, match="non-finite"):
            normalize_target(raw)

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

    @pytest.mark.parametrize("name", ["seed", "fidelity_seed"])
    def test_negative_seed_rejected(self, name):
        with pytest.raises(ConfigError, match=f"^{name} must be non-negative, got -1$"):
            FactorizeConfig(chi_init=4, **{name: -1})


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
        shape = tree_shape(state.topology.edges)
        state, reports2 = reconstruct_sweep(state, cfg)
        assert tree_shape(state.topology.edges) == shape

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
            embed_environment(env)[0], embed_environment(3.7 * env)[0], atol=1e-14
        )

    def test_embedding_unit_norm(self, rng):
        env = rng.standard_normal((2, 2, 2, 2))
        out, nrm = embed_environment(env)
        assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-14)
        assert nrm == float(np.linalg.norm(env))

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


def absorb_reference(acc, legs, tensors, edges):
    """The contraction as ``tensordot`` does it, one conjugated isometry at
    a time in the order given: each third bond becomes the last leg."""
    for tensor, (e1, e2, e3) in zip(tensors, edges):
        ax1, ax2 = legs.index(e1), legs.index(e2)
        acc = np.tensordot(acc, tensor.conj(), axes=[[ax1, ax2], [0, 1]])
        legs = [l for k, l in enumerate(legs) if k not in (ax1, ax2)] + [e3]
    return acc, legs


class TestAbsorb:
    """``_absorb_subtree`` on one isometry over every layout of its two legs,
    and on subtrees whose rows include bonds of the partial contraction,
    against ``tensordot``."""

    # accumulator shape, its leg labels, and the bonds of the isometries,
    # children first; sites have dimension 2 or 3, the partial's auxiliary
    # bonds (labels 20-29) 1, 4 or 8, and new bonds (labels >= 30) 3, 5 or 6
    LAYOUTS = {
        "adjacent-front": ((2, 3, 4, 2, 8), [0, 1, 20, 3, 21], [(0, 1, 30)]),
        "adjacent-middle": ((2, 3, 4, 2, 8), [0, 1, 20, 3, 21], [(20, 3, 30)]),
        "adjacent-back": ((2, 3, 4, 2, 8), [0, 1, 20, 3, 21], [(3, 21, 30)]),
        "reversed-front": ((2, 3, 4, 2, 8), [0, 1, 20, 3, 21], [(1, 0, 30)]),
        "reversed-middle": ((2, 3, 4, 2, 8), [0, 1, 20, 3, 21], [(3, 20, 30)]),
        "reversed-back": ((2, 3, 4, 2, 8), [0, 1, 20, 3, 21], [(21, 3, 30)]),
        "apart": ((2, 3, 4, 2, 8), [0, 1, 20, 3, 21], [(1, 3, 30)]),
        "apart-reversed": ((2, 3, 4, 2, 8), [0, 1, 20, 3, 21], [(21, 1, 30)]),
        "apart-ends": ((2, 3, 4, 2, 8), [0, 1, 20, 3, 21], [(0, 21, 30)]),
        "apart-over-unit-bond": ((3, 1, 2, 4, 2), [0, 20, 1, 21, 2], [(0, 1, 30)]),
        "only-two-legs": ((4, 8), [20, 21], [(21, 20, 30)]),
        "chi-legs-apart": ((2, 8, 3, 4, 2, 2), [0, 20, 1, 21, 2, 3], [(20, 21, 30)]),
        # the owner of a child whose subtree the partial holds: the child's
        # bond is a row like a site
        "bond-then-run": ((2, 4, 3, 2, 8), [0, 20, 1, 2, 21], [(1, 2, 30), (20, 30, 31)]),
        "run-then-bond": ((2, 3, 2, 4, 8), [0, 1, 2, 20, 21], [(1, 2, 30), (30, 20, 31)]),
        "bond-apart": ((4, 2, 3, 8, 2), [20, 0, 1, 21, 2], [(0, 2, 30), (20, 30, 31)]),
        "bond-reversed": ((4, 3, 2, 2, 8), [20, 1, 2, 0, 21], [(2, 1, 30), (30, 20, 31)]),
        "two-bonds": ((2, 4, 3, 2, 8), [0, 20, 1, 2, 21], [(20, 1, 30), (30, 21, 31)]),
        "bond-under-root": (
            (2, 3, 4, 2, 8, 3),
            [0, 1, 20, 3, 21, 2],
            [(0, 1, 30), (3, 21, 31), (30, 31, 32)],
        ),
    }
    NEW = {30: 5, 31: 6, 32: 3}

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("acc_complex", [False, True])
    @pytest.mark.parametrize("tensor_complex", [False, True])
    def test_matches_tensordot(self, rng, layout, acc_complex, tensor_complex):
        shape, legs, edges = self.LAYOUTS[layout]
        dims = {**dict(zip(legs, shape)), **self.NEW}
        acc = rng.standard_normal(shape)
        if acc_complex:
            acc = acc + 1j * rng.standard_normal(shape)
        tensors = []
        for e in edges:
            tensor = rng.standard_normal(tuple(dims[b] for b in e))
            if tensor_complex:
                tensor = tensor + 1j * rng.standard_normal(tensor.shape)
            tensors.append(tensor)
        acc.flags.writeable = False
        before = acc.copy()

        below = list(range(len(edges)))
        out, out_legs = factorize._absorb_subtree(acc, list(legs), edges, tensors, below)
        ref, ref_legs = absorb_reference(acc, legs, tensors, edges)

        np.testing.assert_array_equal(acc, before)
        assert sorted(out_legs) == sorted(ref_legs)
        assert out.shape == tuple(dims[l] for l in out_legs)
        # the untouched legs keep their order, and the new bond goes after
        # the legs between the rows, in place of the last run of rows
        new = edges[-1][2]
        rows = [l for l in legs if l not in out_legs]
        assert [l for l in out_legs if l != new] == [l for l in legs if l in out_legs]
        assert out_legs.index(new) == max(map(legs.index, rows)) + 1 - len(rows)
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

    # reconnection spreads subtrees of three and more isometries over sites
    # that are not adjacent in the target
    SPREAD = (10, 1, 0.5, 5, False)

    @pytest.mark.parametrize(
        "n, mode, t0, seed, complex_",
        [
            (8, 1, 0.5, 0, False),
            (9, 2, 0.0, 1, False),
            (10, 1, 1.0, 2, False),
            (10, 2, 0.0, 3, False),
            (8, 1, 0.5, 4, True),
            pytest.param(*SPREAD, id="composites-over-sites-apart"),
            # a tuple gives the leg dimensions
            pytest.param((3,) * 7, 1, 0.5, 2, False, id="legs-of-dimension-3"),
        ],
    )
    def test_every_step_matches_full_rebuild(
        self, monkeypatch, n, mode, t0, seed, complex_
    ):
        shape = (2,) * n if isinstance(n, int) else n
        gen = np.random.default_rng(seed)
        raw = gen.standard_normal(shape)
        if complex_:
            raw = raw + 1j * gen.standard_normal(shape)
        t = normalize_target(raw)
        state = sequential_svd_to_mpn(t, 2)
        cached = factorize.contract_with_conjugates
        calls = []

        def checked(target, st, pair):
            acc, legs = cached(target, st, pair)
            assert_matches_full_rebuild(target, st, pair, acc, legs)
            calls.append(pair)
            return acc, legs

        composite = factorize._absorb_subtree
        spread = []

        def recorded(acc, legs, edges, tensors, below):
            inner = {edges[i][2] for i in below}
            pos = sorted(legs.index(c) for i in below for c in edges[i][:2] if c not in inner)
            spread.append(len(below) >= 3 and pos[-1] - pos[0] >= len(pos))
            return composite(acc, legs, edges, tensors, below)

        monkeypatch.setattr(factorize, "contract_with_conjugates", checked)
        monkeypatch.setattr(factorize, "_absorb_subtree", recorded)
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
        assert spread, "no subtree met the target as one composite"
        if (n, mode, t0, seed, complex_) == self.SPREAD:
            assert any(spread)

    def test_one_product_per_contraction(self, monkeypatch):
        """Each environment calls the kernel once per ``T_b`` it computes
        and once per other non-empty outer subtree, whatever their sizes:
        nothing is folded onto a partial one isometry at a time. A computed
        ``T_b`` is a memo miss, and each miss weighs its start once
        (``_within_bound``)."""
        gen = np.random.default_rng(7)
        t = normalize_target(gen.standard_normal((2,) * 12))
        state = sequential_svd_to_mpn(t, 2)
        calls = {}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        contract = factorize.contract_with_conjugates
        envs = []

        def checked(target, st, pair):
            calls.update(kernel=0, bound=0)
            out = contract(target, st, pair)
            topo = st.topology
            outer = set(topo.edges[pair[0]]) ^ set(topo.edges[pair[1]])
            subtrees = sum(not topo.is_physical(b) for b in outer)
            misses = calls["bound"]
            assert calls["kernel"] == misses + max(subtrees - 1, 0)
            envs.append(misses)
            return out

        monkeypatch.setattr(factorize, "contract_with_conjugates", checked)
        monkeypatch.setattr(factorize, "_absorb_subtree", counted("kernel", factorize._absorb_subtree))
        monkeypatch.setattr(factorize, "_within_bound", counted("bound", factorize._within_bound))
        pairings = []
        cfg = FactorizeConfig(
            chi_init=2, fidelity=schedule([2, 4, 8], [3, 2, 2], mode=1, t0=0.5), fidelity_seed=7
        )
        fidelity_sweep_run(
            t, state, cfg, observers=[lambda s, info: pairings.append(info.choice.pairing)]
        )
        assert any(p != 0 for p in pairings), "no reconnection happened"
        assert len(envs) == len(pairings)
        assert any(m > 1 for m in envs), "no environment rebuilt a chain of entries"
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

    def test_step_walks_only_changed_subtrees(self, monkeypatch, rng):
        """An environment builds no owner map and no walk of the whole
        tree; with every entry holding, it searches no subtree behind the
        owner of an entry."""
        t = normalize_target(rng.standard_normal((2,) * 12))
        state = sequential_svd_to_mpn(t, 4)
        p, q = state.topology.center_tensors()
        first, legs = factorize.contract_with_conjugates(t, state, (p, q))

        def whole_tree(*args, **kwargs):
            raise AssertionError("whole-tree bookkeeping")

        monkeypatch.setattr(Topology, "owners", whole_tree)
        monkeypatch.setattr(Topology, "walk", whole_tree)
        searched = []
        monkeypatch.setattr(factorize, "_within_bound", lambda *args: searched.append(args))
        again, again_legs = factorize.contract_with_conjugates(t, state, (p, q))
        assert again_legs == legs and not searched
        np.testing.assert_array_equal(again, first)

    def test_missing_owner_names_the_bond(self, rng):
        t = normalize_target(rng.standard_normal((2,) * 8))
        state = sequential_svd_to_mpn(t, 2)
        edges = state.topology.edges
        p, q = state.topology.center_tensors()
        leaf = next(i for i, e in enumerate(edges) if i not in (p, q) and e[0] < 8 and e[1] < 8)
        edges[leaf] = [*edges[leaf][:2], 99]
        with pytest.raises(InvariantViolation, match="points at bond"):
            factorize.contract_with_conjugates(t, state, (p, q))

    def test_entries_are_read_only(self, rng):
        t = normalize_target(rng.standard_normal((2,) * 10))
        state = sequential_svd_to_mpn(t, 4)
        environment(t, state, *state.topology.center_tensors())
        assert t.envs
        assert not any(acc.flags.writeable for _, acc, _ in t.envs.values())
