"""Tests for initialization, sweeps, staged runs, and observables."""

import numpy as np
import pytest

from conftest import AuditObserver, heisenberg_chain, leaf_partitions
from treetn.benchmarks import ed_oracle, hierarchical_chain_model
from treetn import gss
from treetn.factorize import FactorizeConfig
from treetn.gss import (
    GssConfig,
    degenerate_keep_count,
    initialize_ttn,
    one_site_expectations,
    run,
    sweep,
    two_site_correlations,
)
from treetn.linalg import full_eigh
from treetn.spinmodel import SpinModel, local_spin_matrices
from treetn.state import audit_state, state_bond_entropy_dense
from treetn.sweeps import ScheduleError, SelectionSettings, Stage, schedule
from treetn.topology import audit_topology, build_mpn, build_pbt


class TestDegenerateKeep:
    def test_singlet_triplet_block(self):
        sz, sp, sx, sy = local_spin_matrices(0.5)
        h = np.kron(sx, sx) + np.kron(sy, sy).real + np.kron(sz, sz)
        vals = full_eigh(h).eigenvalues
        assert degenerate_keep_count(vals, chi=2, delta_e=1e-8) == 1
        assert degenerate_keep_count(vals, chi=3, delta_e=1e-8) == 1
        assert degenerate_keep_count(vals, chi=4, delta_e=1e-8) == 4

    def test_non_degenerate_keeps_cap(self):
        vals = np.array([0.0, 1.0, 2.0, 3.0])
        assert degenerate_keep_count(vals, chi=2, delta_e=1e-8) == 2

    def test_fully_tied_spectrum_warns(self):
        vals = np.zeros(4)
        with pytest.warns(RuntimeWarning):
            assert degenerate_keep_count(vals, chi=2, delta_e=1e-8) == 2


def perturb_fresh(psi):
    """The Lanczos start perturbation drawn from a fresh generator."""
    rng = np.random.Generator(np.random.Philox(0x5EED))
    noise = rng.standard_normal(psi.shape)
    if np.iscomplexobj(psi):
        noise = noise + 1j * rng.standard_normal(psi.shape)
    noise /= np.linalg.norm(noise)
    out = psi + gss.LANCZOS_NOISE * noise.astype(psi.dtype)
    return out / np.linalg.norm(out)


class TestPerturb:
    # small, large (the buffer grows), then small again (a prefix of it)
    SHAPES = [(1, 1, 1, 1), (2, 3, 2, 2), (16, 16, 16, 16), (4, 1, 3, 2), (2, 2)]

    @pytest.mark.parametrize("complex_", [False, True])
    def test_bit_identical_to_fresh_generator(self, rng, complex_):
        for shape in self.SHAPES:
            psi = rng.standard_normal(shape)
            if complex_:
                psi = psi + 1j * rng.standard_normal(shape)
            psi /= np.linalg.norm(psi)
            out = gss._perturb(psi)
            assert out.dtype == psi.dtype
            np.testing.assert_array_equal(out, perturb_fresh(psi))

    def test_noise_buffer_is_read_only(self):
        gss._perturb(np.ones((3, 2, 2)) / np.sqrt(12))
        assert not gss._noise_draw.flags.writeable


class TestInitializeTtn:
    def test_n4_energy_exact(self):
        model = heisenberg_chain(4)
        state, cache, energy = initialize_ttn(model, build_mpn(4), chi_init=4)
        ed = ed_oracle(model)
        assert energy == pytest.approx(ed.energy, abs=1e-10)
        audit_state(state)
        audit_topology(state.topology)

    def test_field_only_product_state(self):
        model = SpinModel(
            n_sites=6,
            spin_sizes=[0.5] * 6,
            field_tables={"z": {i: 1.0 + 0.1 * i for i in range(6)}},
        )
        state, cache, energy = initialize_ttn(model, build_mpn(6), chi_init=4)
        assert energy == pytest.approx(-sum(0.5 * (1.0 + 0.1 * i) for i in range(6)))
        rep = sweep(state, cache, model, SelectionSettings(chi=4))
        assert all(s == pytest.approx(0.0, abs=1e-10) for s in rep.entropies.values())

    def test_rsrg_respects_multiplets(self):
        # pair blocks of the Heisenberg ladder rungs keep only the singlet
        model = SpinModel(
            n_sites=4,
            spin_sizes=[0.5] * 4,
            exchange_rows=[(0, 1, 1.0, 1.0), (2, 3, 1.0, 1.0)],
        )
        state, _, _ = initialize_ttn(model, build_mpn(4), chi_init=2)
        assert state.tensors[0].shape[2] == 1
        assert state.tensors[1].shape[2] == 1


class TestSweepWalk:
    def test_n4_single_step(self):
        model = heisenberg_chain(4)
        state, cache, _ = initialize_ttn(model, build_mpn(4), chi_init=4)
        audit = AuditObserver()
        rep = sweep(state, cache, model, SelectionSettings(chi=4), observers=[audit])
        assert audit.steps == 1
        assert set(rep.energies) == {state.topology.origin}

    def test_every_auxiliary_bond_visited(self):
        model = heisenberg_chain(8)
        state, cache, _ = initialize_ttn(model, build_mpn(8), chi_init=4)
        rep = sweep(state, cache, model, SelectionSettings(chi=8))
        assert set(rep.energies) == set(state.topology.auxiliary_bonds())
        assert set(rep.entropies) == set(state.topology.bonds)

    def test_mode0_snapshot_unchanged(self):
        model = heisenberg_chain(7)
        state, cache, _ = initialize_ttn(model, build_mpn(7), chi_init=4)
        before = state.topology.snapshot()
        sweep(state, cache, model, SelectionSettings(chi=8, mode=0))
        assert state.topology.snapshot() == before

    def test_energy_not_above_merged_rayleigh(self):
        model = heisenberg_chain(6, delta=0.4)
        state, cache, _ = initialize_ttn(model, build_mpn(6), chi_init=2)
        seen = []

        def obs(st, info):
            seen.append(info.extras["energy"])

        sweep(state, cache, model, SelectionSettings(chi=8), observers=[obs])
        # successive Lanczos energies never rise when nothing is truncated
        assert all(b <= a + 1e-10 for a, b in zip(seen, seen[1:]))


class TestRun:
    def test_single_stage_single_sweep(self):
        model = heisenberg_chain(6)
        cfg = GssConfig(chi_init=4, stages=schedule([8], [1]))
        res = run(model, cfg)
        assert len(res.stages) == 1
        assert len(res.stages[0].reports) == 1

    def test_converged_fixed_point_stops_early(self):
        model = heisenberg_chain(6)
        cfg = GssConfig(chi_init=8, stages=schedule([8], [20]))
        res = run(model, cfg)
        assert res.stages[0].converged
        assert len(res.stages[0].reports) < 20

    def test_zero_energy_hamiltonian(self):
        rows = [(i, i + 1, 0.0, 0.0) for i in range(5)]
        model = SpinModel(n_sites=6, spin_sizes=[0.5] * 6, exchange_rows=rows)
        cfg = GssConfig(chi_init=4, stages=schedule([4], [6]))
        res = run(model, cfg)
        assert res.energy == 0.0
        assert res.stages[0].converged

    def test_two_stage_schedule(self):
        model = heisenberg_chain(8, delta=0.5)
        cfg = GssConfig(chi_init=4, stages=schedule([4, 16], [4, 6]))
        res = run(model, cfg)
        ed = ed_oracle(model)
        assert res.energy == pytest.approx(ed.energy, rel=1e-9)

    @pytest.mark.parametrize("name", ["eps_e", "eps_s", "delta_e", "delta_s"])
    @pytest.mark.parametrize("value", [-1.0, 0.0, np.nan, np.inf])
    def test_bad_threshold_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            GssConfig(chi_init=4, stages=schedule([8], [2]), **{name: value})

    @pytest.mark.parametrize(
        "build",
        [
            lambda: GssConfig(chi_init=4, stages=schedule([8, 4], [2, 2])),
            lambda: GssConfig(chi_init=4, stages=schedule([8, 8], [2, 2])),
            lambda: FactorizeConfig(chi_init=4, fidelity=schedule([8, 4], [2, 2], mode=2)),
            lambda: GssConfig(chi_init=4, stages=schedule([4, 8], [2])),
            lambda: GssConfig(chi_init=4, stages=schedule([], [])),
            # stage lists built by hand obey the same rules
            lambda: GssConfig(chi_init=4, stages=[]),
            lambda: GssConfig(chi_init=4, stages=[Stage(8, 2), Stage(4, 2)]),
            lambda: GssConfig(chi_init=4, stages=[Stage(4, 2), Stage(8, 2, mode=1)]),
            lambda: GssConfig(chi_init=4, stages=[(4, 2)]),
            lambda: FactorizeConfig(chi_init=4, fidelity=[Stage(8, 2), Stage(4, 2)]),
            lambda: FactorizeConfig(chi_init=4, fidelity=[Stage(4, 2), Stage(8, 2, mode=2)]),
        ],
        ids=["gss-descending", "gss-repeated", "fidelity-descending",
             "length-mismatch", "empty", "hand-empty", "hand-descending",
             "hand-late-selection", "hand-not-a-stage", "fidelity-hand-descending",
             "fidelity-hand-late-selection"],
    )
    def test_bad_schedule_rejected(self, build):
        with pytest.raises(ScheduleError):
            build()

    @pytest.mark.parametrize("chi_init", [0, -2])
    def test_nonpositive_chi_init_rejected(self, chi_init):
        with pytest.raises(ValueError, match="chi_init"):
            GssConfig(chi_init=chi_init, stages=schedule([8], [2]))

    def test_structure_recovery_small_hierarchical(self):
        model = hierarchical_chain_model(3, 1.0, 0.5)  # 8 sites
        cfg = GssConfig(chi_init=4, stages=schedule([8], [20], mode=1))
        res = run(model, cfg)
        assert leaf_partitions(res.state.topology) == leaf_partitions(build_pbt(8))
        ed = ed_oracle(model)
        assert res.energy == pytest.approx(ed.energy, rel=1e-8)

    def test_random_model_matches_ed(self):
        rng = np.random.default_rng(11)
        rows = [(i, i + 1, 1.0, float(rng.uniform(0, 1.5))) for i in range(7)]
        model = SpinModel(
            n_sites=8,
            spin_sizes=[0.5] * 8,
            exchange_rows=rows,
            field_tables={"z": {i: float(rng.uniform(-0.4, 0.4)) for i in range(8)}},
        )
        cfg = GssConfig(chi_init=8, stages=schedule([16], [12]))
        res = run(model, cfg)
        ed = ed_oracle(model)
        assert res.energy == pytest.approx(ed.energy, rel=1e-8)

    def test_reported_entropies_match_dense(self):
        model = heisenberg_chain(8, delta=0.3)
        cfg = GssConfig(chi_init=4, stages=schedule([16], [10]), eps_s=1e-10)
        res = run(model, cfg)
        rep = res.stages[-1].final_report
        for b in rep.entropies:
            dense = state_bond_entropy_dense(res.state, b)
            assert rep.entropies[b] == pytest.approx(dense, abs=1e-8)


class TestExpectationFunctions:
    def test_polarized_product(self):
        psi = np.zeros((2, 2, 2, 2))
        psi[0, 0, 0, 0] = 1.0  # all spins up
        for leg in range(4):
            sx, sy, sz = one_site_expectations(psi, leg, 0.5)
            assert (sx, sy, sz) == pytest.approx((0.0, 0.0, 0.5), abs=1e-14)

    def test_singlet_pair(self):
        psi = np.zeros((2, 2, 1, 1))
        psi[0, 1, 0, 0] = 2**-0.5
        psi[1, 0, 0, 0] = -(2**-0.5)
        for leg in (0, 1):
            moments = one_site_expectations(psi, leg, 0.5)
            assert moments == pytest.approx((0.0, 0.0, 0.0), abs=1e-14)
        sz, sp, sx, sy = local_spin_matrices(0.5)
        ops = {"x": sx, "y": sy, "z": sz}
        comps = two_site_correlations(psi, 0, ops, 1, ops)
        assert comps["zz"] == pytest.approx(-0.25, abs=1e-14)
        assert comps["xx"] == pytest.approx(-0.25, abs=1e-14)
        assert comps["yy"] == pytest.approx(-0.25, abs=1e-14)
        assert comps["xy"] == pytest.approx(0.0, abs=1e-14)

    def test_uncorrelated_product_factorizes(self, rng):
        a = rng.standard_normal(2)
        b = rng.standard_normal(2)
        psi = np.einsum("a,b->ab", a, b).reshape(2, 2, 1, 1)
        psi /= np.linalg.norm(psi)
        sz, sp, sx, sy = local_spin_matrices(0.5)
        ops = {"x": sx, "y": sy, "z": sz}
        single_0 = one_site_expectations(psi, 0, 0.5)
        single_1 = one_site_expectations(psi, 1, 0.5)
        comps = two_site_correlations(psi, 0, ops, 1, ops)
        for comp in ("xx", "zz", "xz", "zx"):
            a_idx = "xyz".index(comp[0])
            b_idx = "xyz".index(comp[1])
            assert comps[comp] == pytest.approx(
                single_0[a_idx] * single_1[b_idx], abs=1e-12
            )


class TestObservablePass:
    def test_full_coverage_and_ed_match(self):
        model = heisenberg_chain(6, delta=0.8)
        cfg = GssConfig(chi_init=8, stages=schedule([8], [8]))
        res = run(model, cfg, want_observables=True)
        obs = res.observables
        ed = ed_oracle(model)
        assert set(obs.single) == set(range(6))
        assert set(obs.pairs) == {(i, j) for i in range(6) for j in range(i + 1, 6)}
        for i in range(6):
            np.testing.assert_allclose(
                obs.single[i], ed.single_site(i), atol=1e-8
            )
        for (i, j), comps in obs.pairs.items():
            ed_comps = ed.correlation(i, j)
            for c, v in comps.items():
                assert v == pytest.approx(ed_comps[c], abs=1e-8)

    def test_stage_observables_written_per_stage(self):
        model = heisenberg_chain(6)
        cfg = GssConfig(chi_init=4, stages=schedule([4, 8], [3, 3]))
        res = run(model, cfg, want_observables=True)
        assert all(stage.observables is not None for stage in res.stages)
