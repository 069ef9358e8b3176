"""Tests for initialization, sweeps, staged runs, and observables."""

from itertools import combinations
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import AuditObserver, heisenberg_chain, leaf_partitions
from treetn.benchmarks import ed_oracle, hierarchical_chain_model
from treetn import gss, sweeps
from treetn import state as state_module
from treetn.errors import ConfigError, InvariantViolation
from treetn.factorize import FactorizeConfig
from treetn.gss import (
    GssConfig,
    degenerate_keep_count,
    initialize_ttn,
    leg_pair_correlations,
    run,
    sweep,
)
from treetn.linalg import full_eigh, lanczos_lowest
from treetn.operators import get_operator
from treetn.spinmodel import SpinModel, local_spin_matrices
from treetn.state import audit_state, merge_center, state_bond_entropy_dense
from treetn.sweeps import SelectionSettings, Stage, schedule
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

    @pytest.mark.parametrize("preconditioned", [True, False])
    def test_start_escapes_decoupled_sector(self, preconditioned):
        """Two decoupled 30-state sectors (the first leg labels them) and a
        start at the exact ground state of the higher one: the operator
        never leaves that sector, so only the noise reaches the lower
        ground, with or without the diagonal."""
        rng = np.random.default_rng(11)
        a, b = rng.standard_normal((2, 30, 30))
        blocks = np.stack([(a + a.T) / 2, (b + b.T) / 2 + 3.0])
        lows = [full_eigh(block) for block in blocks]
        assert lows[0].eigenvalues[0] < lows[1].eigenvalues[0]

        def apply(psi):
            return np.einsum("sij,sj->si", blocks, psi)

        diagonal = np.stack([np.diag(block) for block in blocks]) if preconditioned else None
        start = np.zeros((2, 30))
        start[1] = lows[1].eigenvectors[:, 0]
        energy, vec = lanczos_lowest(apply, gss._perturb(start), diagonal)
        assert energy == pytest.approx(lows[0].eigenvalues[0], abs=1e-10)
        assert np.linalg.norm(vec[0]) == pytest.approx(1.0, abs=1e-9)
        trapped, _ = lanczos_lowest(apply, start, diagonal)
        assert trapped == pytest.approx(lows[1].eigenvalues[0], abs=1e-10)

    # chi_init 1 cuts the tied pair of the strong antiferromagnetic bond
    @pytest.mark.filterwarnings("ignore:degenerate multiplet straddles")
    def test_run_escapes_magnetized_start(self):
        """Two ferromagnetic bonds joined by a strong antiferromagnetic one,
        in a small field: at bond dimension 1 each ferromagnetic block keeps
        its all-up state, so the search starts at S^z = 2, which the
        Hamiltonian conserves while the ground state has S^z = 1. Only the
        start-vector noise leads the sweeps out of that sector."""
        model = SpinModel(
            n_sites=4,
            spin_sizes=[0.5] * 4,
            exchange_rows=[(0, 1, -1.0, 1.0), (1, 2, 5.0, 1.0), (2, 3, -1.0, 1.0)],
            field_tables={"z": {i: 0.1 for i in range(4)}},
        )
        result = run(model, GssConfig(chi_init=1, stages=schedule([4], [4])))
        assert result.energy == pytest.approx(ed_oracle(model).energy, abs=1e-9)


def traced_solves(monkeypatch):
    """``[perturbed starts, solves]`` per phase of a ``gss.run``: entry 0 is
    the initialization, then one entry per sweep, observable sweeps
    included."""
    log = [[0, 0]]
    perturb, solve, walk = gss._perturb, gss.lanczos_lowest, gss.run_sweep

    def counted_perturb(psi):
        log[-1][0] += 1
        return perturb(psi)

    def counted_solve(*args, **kwargs):
        log[-1][1] += 1
        return solve(*args, **kwargs)

    def marked_sweep(*args, **kwargs):
        log.append([0, 0])
        return walk(*args, **kwargs)

    monkeypatch.setattr(gss, "_perturb", counted_perturb)
    monkeypatch.setattr(gss, "lanczos_lowest", counted_solve)
    monkeypatch.setattr(gss, "run_sweep", marked_sweep)
    return log


def scripted_settled(monkeypatch, answers):
    """Make ``sweeps.settled`` answer from ``answers`` in order, one per
    compared pair."""
    answers = iter(answers)
    monkeypatch.setattr(sweeps, "settled", lambda *args, **kwargs: next(answers))


class TestNoisePolicy:
    """Solves start from a perturbed vector until their stage settles: each
    sweep that follows a settled pair of the current streak, and the
    observable sweep of a converged stage, solve from the unperturbed
    merged tensor. A converged stage measures in its closing sweep, so it
    runs no observable sweep unless that one reconnected."""

    def test_perturbed_up_to_first_settled_pair(self, monkeypatch):
        model = heisenberg_chain(8)
        cfg = GssConfig(chi_init=4, stages=schedule([8], [20]))
        log = traced_solves(monkeypatch)
        res = run(model, cfg, want_observables=True)
        (stage,) = res.stages
        reports = stage.reports  # the closing sweep measured; no observable sweep
        pairs = [sweeps.settled(a, b, cfg.eps_s, cfg.eps_e)
                 for a, b in zip(reports, reports[1:])]
        first = pairs.index(True)
        # the streak never resets, so the stage ends SETTLED_SWEEPS pairs on
        assert stage.converged and all(pairs[first:])
        assert len(pairs) == first + sweeps.SETTLED_SWEEPS
        assert log[0] == [1, 1]  # the initialization
        assert len(log) == 1 + len(reports)
        solves = [n for _, n in log[1:]]
        assert all(n > 0 for n in solves)
        # sweeps 0 .. first + 1 end the first settled pair; later ones run
        # without noise
        expected = [n if k <= first + 1 else 0 for k, n in enumerate(solves)]
        assert [p for p, _ in log[1:]] == expected
        assert res.energy == pytest.approx(ed_oracle(model).energy, abs=1e-9)

    def test_unsettled_stage_perturbs_every_solve(self, monkeypatch):
        scripted_settled(monkeypatch, [False] * 3)
        log = traced_solves(monkeypatch)
        res = run(heisenberg_chain(6), GssConfig(chi_init=4, stages=schedule([8], [4])),
                  want_observables=True)
        assert not res.stages[0].converged
        assert len(log) == 1 + 4 + 1
        assert all(p == n > 0 for p, n in log)

    def test_reset_streak_brings_noise_back(self, monkeypatch):
        # pairs (0,1) settle, (1,2) do not, then (2,3), (3,4), (4,5) settle
        scripted_settled(monkeypatch, [True, False, True, True, True])
        log = traced_solves(monkeypatch)
        res = run(heisenberg_chain(6), GssConfig(chi_init=4, stages=schedule([8], [10])),
                  want_observables=True)
        assert res.stages[0].converged
        noisy = [p == n > 0 for p, n in log[1:]]
        quiet = [p == 0 < n for p, n in log[1:]]
        # six sweeps: the sixth closes the stage and measures there
        assert noisy == [True, True, False, True, False, False]
        assert quiet == [not x for x in noisy]

    def test_bare_sweep_perturbs(self, monkeypatch):
        """A sweep called with default settings is not known to be settled."""
        model = heisenberg_chain(6)
        state, cache, _ = initialize_ttn(model, build_mpn(6), chi_init=4)
        log = traced_solves(monkeypatch)
        sweep(state, cache, model, SelectionSettings(chi=4))
        sweep(state, cache, model, SelectionSettings(chi=4, settled=True))
        (noisy, solves), (quiet, again) = log[1:]
        assert noisy == solves == again > 0
        assert quiet == 0


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
        with pytest.raises(ConfigError):
            build()

    @pytest.mark.parametrize("chi_init", [0, -2])
    def test_nonpositive_chi_init_rejected(self, chi_init):
        with pytest.raises(ValueError, match="chi_init"):
            GssConfig(chi_init=chi_init, stages=schedule([8], [2]))

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="^seed must be non-negative, got -1$"):
            GssConfig(chi_init=4, stages=schedule([8], [2]), seed=-1)

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


def spin_stack(spin_size):
    """The (x, y, z) stack of one site's spin matrices."""
    sz, _, sx, sy = local_spin_matrices(spin_size)
    return np.stack([sx, sy, sz])


def one_pair(psi, stack_0, stack_1, legs=(0, 1)):
    """Correlation components between site 0 on ``legs[0]`` and site 1 on
    ``legs[1]``."""
    sites = {legs[0]: (0,), legs[1]: (1,)}
    return leg_pair_correlations(psi, sites, {legs[0]: stack_0, legs[1]: stack_1})[0, 1]


class TestExpectationFunctions:
    def test_polarized_product(self):
        psi = np.zeros((2, 2, 2, 2))
        psi[0, 0, 0, 0] = 1.0  # all spins up
        for leg in range(4):
            sx, sy, sz = gss._moments(psi, leg, spin_stack(0.5), f"leg {leg}")
            assert (sx, sy, sz) == pytest.approx((0.0, 0.0, 0.5), abs=1e-14)

    def test_singlet_pair(self):
        psi = np.zeros((2, 2, 1, 1))
        psi[0, 1, 0, 0] = 2**-0.5
        psi[1, 0, 0, 0] = -(2**-0.5)
        stack = spin_stack(0.5)
        for leg in (0, 1):
            moments = gss._moments(psi, leg, stack, f"leg {leg}")
            assert moments == pytest.approx((0.0, 0.0, 0.0), abs=1e-14)
        comps = one_pair(psi, stack, stack)
        assert comps["zz"] == pytest.approx(-0.25, abs=1e-14)
        assert comps["xx"] == pytest.approx(-0.25, abs=1e-14)
        assert comps["yy"] == pytest.approx(-0.25, abs=1e-14)
        assert comps["xy"] == pytest.approx(0.0, abs=1e-14)

    def test_uncorrelated_product_factorizes(self, rng):
        a = rng.standard_normal(2)
        b = rng.standard_normal(2)
        psi = np.einsum("a,b->ab", a, b).reshape(2, 2, 1, 1)
        psi /= np.linalg.norm(psi)
        stack = spin_stack(0.5)
        single_0 = gss._moments(psi, 0, stack, "leg 0")
        single_1 = gss._moments(psi, 1, stack, "leg 1")
        comps = one_pair(psi, stack, stack)
        for comp in ("xx", "zz", "xz", "zx"):
            a_idx = "xyz".index(comp[0])
            b_idx = "xyz".index(comp[1])
            assert comps[comp] == pytest.approx(
                single_0[a_idx] * single_1[b_idx], abs=1e-12
            )


def dense_expectation(psi, legs_ops):
    """``<psi| A (x) B |psi>`` by one einsum over a four-leg tensor;
    ``legs_ops`` maps each leg to the operator acting on it."""
    bra = "ijkl"
    ket = list(bra)
    terms, operands = [bra], [psi.conj()]
    for leg, op in legs_ops.items():
        ket[leg] = "mnop"[leg]
        terms.append(bra[leg] + ket[leg])
        operands.append(op)
    subscripts = ",".join([*terms, "".join(ket)]) + "->"
    return complex(np.einsum(subscripts, *operands, psi))


def random_hermitian(rng, d):
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (m + m.conj().T) / 2


class TestLegPairKernel:
    """``leg_pair_correlations`` against a dense einsum of every pair."""

    SHAPE = (2, 3, 4, 5)
    # labels behind each leg; a later leg often holds the smaller site
    SITES = {0: (6, 1), 1: (3,), 2: (0, 7, 4), 3: (5, 2)}

    @pytest.fixture
    def psi(self, rng):
        psi = rng.standard_normal(self.SHAPE) + 1j * rng.standard_normal(self.SHAPE)
        return psi / np.linalg.norm(psi)

    @pytest.fixture
    def ops(self, rng):
        return {
            site: {k: random_hermitian(rng, self.SHAPE[leg]) for k in "xyz"}
            for leg, sites in self.SITES.items()
            for site in sites
        }

    @staticmethod
    def xyz(site_ops):
        return np.stack([site_ops["x"], site_ops["y"], site_ops["z"]])

    def stack(self, ops, leg):
        return np.concatenate([self.xyz(ops[r]) for r in self.SITES[leg]])

    @pytest.mark.parametrize("legs", [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    def test_matches_dense_einsum(self, psi, ops, legs):
        leg_a, leg_b = legs
        sites = {leg: self.SITES[leg] for leg in legs}
        stacks = {leg: self.stack(ops, leg) for leg in legs}
        pairs = leg_pair_correlations(psi, sites, stacks)
        expected = {tuple(sorted((ra, rb))) for ra in sites[leg_a] for rb in sites[leg_b]}
        assert set(pairs) == expected
        assert any(ra > rb for ra in sites[leg_a] for rb in sites[leg_b])
        leg_of = {r: leg for leg in legs for r in sites[leg]}
        for (i, j), comps in pairs.items():
            assert i < j
            assert list(comps) == list(gss.CORRELATION_ORDER)
            for comp, value in comps.items():
                a, b = comp
                dense = dense_expectation(
                    psi, {leg_of[i]: ops[i][a], leg_of[j]: ops[j][b]}
                )
                assert abs(dense.imag) < 1e-13
                assert value == pytest.approx(dense.real, abs=1e-13)

    def test_selected_pairs_only(self, psi, ops):
        sites = {1: self.SITES[1], 2: self.SITES[2]}
        stacks = {leg: self.stack(ops, leg) for leg in sites}
        new = np.array([[True, False, True]])
        pairs = leg_pair_correlations(psi, sites, stacks, new)
        assert set(pairs) == {(0, 3), (3, 4)}
        assert pairs == {
            key: value
            for key, value in leg_pair_correlations(psi, sites, stacks).items()
            if key in pairs
        }

    def test_one_pair_and_moments_match_dense_einsum(self, psi, ops):
        # one pair with the smaller site on the later leg
        comps = one_pair(psi, self.xyz(ops[5]), self.xyz(ops[3]), legs=(3, 1))
        assert list(comps) == list(gss.CORRELATION_ORDER)
        for comp, value in comps.items():
            dense = dense_expectation(psi, {3: ops[5][comp[0]], 1: ops[3][comp[1]]})
            assert value == pytest.approx(dense.real, abs=1e-13)
        moments = gss._moments(psi, 1, spin_stack(1.0), "leg 1")
        sx, sy, sz = spin_stack(1.0)
        dense = [dense_expectation(psi, {1: op}).real for op in (sx, sy, sz)]
        assert moments == pytest.approx(dense, abs=1e-13)

    def test_non_hermitian_operator_names_the_pair(self, psi, ops):
        sites = {0: self.SITES[0], 3: self.SITES[3]}
        stacks = {leg: self.stack(ops, leg) for leg in sites}
        # site 2, behind the later leg, gets a non-Hermitian y
        stacks[3][3 + 1] = stacks[3][3 + 1] + 0.5j * np.eye(self.SHAPE[3])
        # the first pair checked is site 6 (x) with site 2 (y), named in site order
        with pytest.raises(InvariantViolation, match=r"<s\^y s\^x> at sites \(2, 6\)"):
            leg_pair_correlations(psi, sites, stacks)
        # one pair names its own sites, here 0 and 1
        bad = self.xyz({**ops[2], "z": 1j * ops[2]["z"]})
        with pytest.raises(InvariantViolation, match=r"<s\^z s\^.> at sites \(0, 1\)"):
            one_pair(psi, bad, self.xyz(ops[1]), legs=(3, 0))
        with pytest.raises(InvariantViolation, match=r"<s\^y> at leg 2 has"):
            gss._moments(psi, 2, np.stack([ops[0]["x"], 1j * ops[0]["y"], ops[0]["z"]]), "leg 2")


class TestCollectorErrors:
    """An imaginary expectation value names the site or site pair; a step
    that reconnects is not measured, and the pass is refused at its end."""

    def collector_step(self, corrupt, measured_singles, pairing=0):
        model = heisenberg_chain(6)
        state, cache, _ = initialize_ttn(model, build_mpn(6), chi_init=4)
        t, t_conn = state.topology.center_tensors()
        bonds = (*state.topology.edges[t][:2], *state.topology.edges[t_conn][:2])
        assert bonds[1] == 2 and state.topology.is_physical(2)
        assert cache.sites[2] == (2,)
        ops = cache.spin_ops[2].astype(complex)
        ops[0, 0] += corrupt  # the z row of site 2
        cache.spin_ops[2] = ops
        collector = gss.ObservableCollector(model, cache)
        if measured_singles:
            collector.single = {r: (0.0, 0.0, 0.0) for r in range(6)}
        info = SimpleNamespace(
            t=t, t_conn=t_conn, center_bonds=bonds, choice=SimpleNamespace(pairing=pairing)
        )
        collector.on_step(state, info)
        return collector

    def test_one_site_moment_names_the_site(self):
        with pytest.raises(InvariantViolation, match=r"<s\^z> at site 2 has imaginary"):
            self.collector_step(0.3j * np.eye(2), measured_singles=False)

    def test_correlation_names_the_pair(self):
        sz, _, sx, _ = local_spin_matrices(0.5)
        with pytest.raises(InvariantViolation, match=r"<s\^x s\^z> at sites \(0, 2\)"):
            self.collector_step(0.3j * (np.eye(2) + sx), measured_singles=True)

    @pytest.mark.parametrize("pairing", [1, 2])
    def test_reconnecting_step_is_refused(self, pairing):
        collector = self.collector_step(0.0, measured_singles=False, pairing=pairing)
        assert collector.reconnected and not collector.single and not collector.pairs
        with pytest.raises(InvariantViolation, match="structure changed during an observable pass"):
            collector.finish()


class PerPairReference:
    """Every site and pair measured the first time a step splits it, by the
    per-pair formula: two operator products on the whole center tensor."""

    def __init__(self, cache):
        self.cache = cache
        self.single = {}
        self.pairs = {}

    def on_step(self, state, info):
        psi = merge_center(state, info.t, info.t_conn)
        bonds = info.center_bonds

        def op(axis, site, kind):
            return get_operator(self.cache, bonds[axis], site, kind)

        def applied(phi, m, axis):
            return np.moveaxis(np.tensordot(m, phi, axes=(1, axis)), 0, axis)

        for axis, b in enumerate(bonds):
            if state.topology.is_physical(b) and b not in self.single:
                self.single[b] = tuple(
                    np.vdot(psi, applied(psi, op(axis, b, k), axis)).real for k in "xyz"
                )
        for ax_a, ax_b in combinations(range(4), 2):
            for ra in self.cache.sites[bonds[ax_a]]:
                for rb in self.cache.sites[bonds[ax_b]]:
                    (i, ax_i), (j, ax_j) = sorted(((ra, ax_a), (rb, ax_b)))
                    if (i, j) in self.pairs:
                        continue
                    self.pairs[i, j] = {
                        comp: np.vdot(psi, applied(
                            applied(psi, op(ax_j, j, comp[1]), ax_j), op(ax_i, i, comp[0]), ax_i
                        )).real
                        for comp in gss.CORRELATION_ORDER
                    }


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

    def test_leg_pairs_match_per_pair_formula_at_n64(self, monkeypatch):
        """Legs holding many sites: every pair of a 64-site chain agrees with
        the per-pair formula evaluated on the same steps."""
        references = []

        class Checked(gss.ObservableCollector):
            def __init__(self, model, cache):
                super().__init__(model, cache)
                references.append(PerPairReference(cache))

            def on_step(self, state, info):
                references[-1].on_step(state, info)
                super().on_step(state, info)

        monkeypatch.setattr(gss, "ObservableCollector", Checked)
        model = heisenberg_chain(64)
        cfg = GssConfig(chi_init=8, stages=schedule([8], [1]))
        obs = run(model, cfg, want_observables=True).observables
        (ref,) = references
        assert len(obs.pairs) == len(ref.pairs) == 2016
        assert set(obs.single) == set(ref.single) == set(range(64))
        for site, moments in obs.single.items():
            np.testing.assert_allclose(moments, ref.single[site], rtol=0, atol=1e-13)
        worst = max(
            abs(comps[c] - ref.pairs[key][c]) for key, comps in obs.pairs.items() for c in comps
        )
        assert worst <= 1e-13


def run_record(result):
    """Everything a run computes but its observables, for bit-for-bit
    comparison."""
    reports = [
        [(r.energies, r.entropies, r.truncation_errors, r.structure_snapshot)
         for r in stage.reports]
        for stage in result.stages
    ]
    state = result.state
    return (reports, [s.converged for s in result.stages], result.energy,
            [t.tobytes() for t in state.tensors], state.center_weights.tobytes(),
            state.topology.snapshot())


def fixed_structure_pass(model, cfg, result, settled):
    """The fixed-structure observable sweep, run after the fact on a
    single-stage run made without observables."""
    collector = gss.ObservableCollector(model, result.cache)
    selection = SelectionSettings(
        cfg.stages[-1].chi, eps_s=cfg.eps_s, delta_s=cfg.delta_s, settled=settled
    )
    report = sweep(result.state, result.cache, model, selection,
                   observers=[collector.on_step])
    result.stages[-1].reports.append(report)
    return collector.finish()


def assert_same_observables(a, b):
    assert a.single == b.single
    assert a.pairs == b.pairs


class TestClosingSweepObservables:
    """A stage that converges measures along its closing sweep and runs no
    further sweep; a stage that hits its limit, or whose closing sweep
    reconnected, ends with the fixed-structure observable sweep."""

    def test_converged_run_computes_the_same_with_or_without(self):
        model = hierarchical_chain_model(3, 1.0, 0.5)
        cfg = GssConfig(chi_init=4, stages=schedule([4, 16], [20, 20], mode=1))
        bare = run(model, cfg)
        measured = run(model, cfg, want_observables=True)
        assert all(stage.converged for stage in bare.stages)
        assert run_record(measured) == run_record(bare)
        assert all(stage.observables is not None for stage in measured.stages)
        ed = ed_oracle(model)
        for (i, j), comps in measured.observables.pairs.items():
            for c, v in comps.items():
                assert v == pytest.approx(ed.correlation(i, j)[c], abs=1e-8)

    def test_stage_at_its_limit_keeps_the_observable_sweep(self, monkeypatch):
        model = heisenberg_chain(8)
        cfg = GssConfig(chi_init=4, stages=schedule([8], [2]))
        log = traced_solves(monkeypatch)
        measured = run(model, cfg, want_observables=True)
        assert not measured.stages[0].converged
        assert len(measured.stages[0].reports) == 3
        assert all(p == n > 0 for p, n in log)  # the observable sweep is perturbed
        bare = run(model, cfg)
        reference = fixed_structure_pass(model, cfg, bare, settled=False)
        assert run_record(measured) == run_record(bare)
        assert_same_observables(measured.observables, reference)

    def test_stage_settling_on_its_last_sweep_keeps_its_observables(self, monkeypatch):
        """A stage scripted to settle on sweep ``n_max`` is converged, and
        its observables are the ones measured along that closing sweep."""
        model = heisenberg_chain(8)
        cfg = GssConfig(chi_init=4, stages=schedule([8], [4]))
        references = []
        walk = gss.sweep

        def closing_sweep(state, cache, model, selection, observers=()):
            if selection.closing:
                references.append(gss.ObservableCollector(model, cache))
                observers = (*observers, references[-1].on_step)
            return walk(state, cache, model, selection, observers=observers)

        monkeypatch.setattr(gss, "sweep", closing_sweep)
        scripted_settled(monkeypatch, [True] * sweeps.SETTLED_SWEEPS)
        (stage,) = run(model, cfg, want_observables=True).stages
        assert stage.converged and len(stage.reports) == cfg.stages[0].n_max
        (reference,) = references
        assert_same_observables(stage.observables, reference.finish())

    def test_reconnecting_closing_sweep_falls_back(self, monkeypatch):
        """The first step of every closing sweep is forced to reconnect and
        the stage is scripted to converge on it: its observables come from
        the fixed-structure sweep that follows, solved unperturbed."""
        model = heisenberg_chain(8)
        cfg = GssConfig(chi_init=4, stages=schedule([8], [10]))
        # one entry per sweep: a closing sweep whose first step is still to come
        closing = [False]
        walk, choose = gss.sweep, state_module._choose_pairing

        def marked_sweep(*args, **kwargs):
            closing.append(args[3].closing)
            return walk(*args, **kwargs)

        def forced_choice(*args):
            pairing, probs = choose(*args)
            if closing[-1]:
                closing[-1] = False
                return 1, probs
            return pairing, probs

        monkeypatch.setattr(gss, "sweep", marked_sweep)
        monkeypatch.setattr(state_module, "_choose_pairing", forced_choice)
        scripted_settled(monkeypatch, [True] * sweeps.SETTLED_SWEEPS)
        log = traced_solves(monkeypatch)
        measured = run(model, cfg, want_observables=True)
        (stage,) = measured.stages
        assert stage.converged and len(stage.reports) == sweeps.SETTLED_SWEEPS + 2
        assert [p > 0 for p, _ in log[1:]] == [True, True, False, False, False]
        reconnected = stage.reports[-2].structure_snapshot
        assert reconnected != stage.reports[-3].structure_snapshot

        scripted_settled(monkeypatch, [True] * sweeps.SETTLED_SWEEPS)
        closing[:] = [False]
        bare = run(model, cfg)
        reference = fixed_structure_pass(model, cfg, bare, settled=True)
        assert run_record(measured) == run_record(bare)
        assert_same_observables(measured.observables, reference)
