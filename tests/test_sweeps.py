"""Tests for the sweep walk, the staged sweeps (`run_stage`) and their
convergence rule (`settled`)."""

import numpy as np
import pytest

from conftest import AuditObserver, heisenberg_chain, leaf_partitions, random_isometry
from treetn import gss, sweeps
from treetn.benchmarks import ed_oracle, hierarchical_chain_model
from treetn.errors import ConfigError
from treetn.factorize import (
    FactorizeConfig, fidelity_sweep_run, normalize_target, reconstruct_sweep,
    sequential_svd_to_mpn,
)
from treetn.state import TTNState, cooled_temperature, merge_center, site_ee
from treetn.sweeps import (
    SETTLED_SWEEPS, SelectionSettings, Stage, SweepReport, run_stage,
    run_sweep, schedule, settled,
)
from treetn.topology import build_mpn, build_pbt, candidate_edge_indices, set_distance

CHAIN = ((0, 1, 6), (6, 2, 7), (8, 3, 7), (4, 5, 8))
# the same tree with the child slots of two tensors swapped
SWAPPED = ((1, 0, 6), (6, 2, 7), (3, 8, 7), (4, 5, 8))
RECONNECTED = ((0, 2, 6), (6, 1, 7), (8, 3, 7), (4, 5, 8))


def report(energy=-1.0, entropy=0.5, fidelity=None, structure=CHAIN):
    return SweepReport(
        energies={7: energy},
        entropies={7: entropy},
        fidelities={} if fidelity is None else {7: fidelity},
        structure_snapshot=structure,
    )


def scripted(reports):
    """A fake sweep returning the given reports in order and recording the
    selection settings it was called with."""
    calls = []

    def sweep(selection):
        calls.append(selection)
        return reports[len(calls) - 1]

    return sweep, calls


def drive(reports, **stage):
    sweep, calls = scripted(reports)
    stage = Stage(chi=4, n_max=len(reports), **stage)
    out, converged = run_stage(
        stage, sweep, None, eps_s=1e-8, delta_s=1e-8, eps_e=1e-8, eps_f=1e-10
    )
    return out, converged, calls


class TestRunStage:
    def test_stops_after_three_settled_pairs(self):
        assert SETTLED_SWEEPS == 3
        reports = [report(structure=RECONNECTED)] + [report() for _ in range(9)]
        out, converged, _ = drive(reports)
        # pair (0, 1) differs in structure; pairs (1, 2), (2, 3), (3, 4) settle
        assert converged
        assert len(out) == 5

    def test_slot_order_flips_converge(self):
        reports = [report(structure=s) for s in [CHAIN, SWAPPED] * 5]
        out, converged, _ = drive(reports)
        assert converged
        assert len(out) == SETTLED_SWEEPS + 1

    def test_sweep_limit_without_three_pairs(self):
        out, converged, _ = drive([report() for _ in range(3)])
        assert not converged
        assert len(out) == 3

    @pytest.mark.parametrize(
        "quantity, before, after", [("energy", -1.0, -2.0), ("fidelity", 0.5, 0.6)]
    )
    def test_disagreement_resets_count(self, quantity, before, after):
        values = [before] * 3 + [after] * 5
        out, converged, _ = drive([report(**{quantity: v}) for v in values])
        # settled, settled, reset by the jump, then three settled pairs
        assert converged
        assert len(out) == 7

    def test_settled_flag_follows_streak(self):
        # pairs (0,1) and (1,2) settle, (2,3) does not, then three settle
        values = [-1.0] * 3 + [-2.0] * 5
        out, converged, calls = drive([report(energy=v) for v in values])
        assert converged and len(out) == 7
        assert [c.settled for c in calls] == [False, False, True, True, False, True, True]
        # sweeps entered one settled pair short of the end; sweep 3 does not close
        assert [c.closing for c in calls] == [False, False, False, True, False, False, True]

    def test_settling_on_the_last_allowed_sweep_converges(self):
        out, converged, calls = drive([report() for _ in range(4)])
        assert converged and len(out) == 4 == SETTLED_SWEEPS + 1
        assert calls[-1].closing

    def test_zero_energies_settle(self):
        out, converged, _ = drive([report(energy=0.0) for _ in range(6)])
        assert converged
        assert len(out) == 4

    @pytest.mark.parametrize(
        "mode, t0, annealed",
        [(1, 0.8, True), (1, 0.0, False), (0, 0.8, False), (2, 0.8, False)],
    )
    def test_cooled_temperature_per_sweep(self, mode, t0, annealed):
        structures = [CHAIN, RECONNECTED] * 3  # never settles
        reports = [report(structure=s) for s in structures]
        _, converged, calls = drive(reports, mode=mode, t0=t0, n_tau=2)
        assert not converged
        expected = [
            cooled_temperature(t0, n, 2) if annealed else 0.0
            for n in range(len(reports))
        ]
        assert [c.temperature for c in calls] == expected
        assert all(c.chi == 4 and c.mode == mode for c in calls)


class TestSettled:
    def test_entropy_tolerance(self):
        assert settled(report(entropy=0.5), report(entropy=0.5 + 1e-9), eps_s=1e-8)
        assert not settled(report(entropy=0.5), report(entropy=0.6), eps_s=1e-8)

    def test_energy_relative_and_zero_safe(self):
        assert settled(report(energy=0.0), report(energy=0.0), 1e-8, eps_e=1e-8)
        assert not settled(report(energy=0.0), report(energy=1e-12), 1e-8, eps_e=1e-8)
        assert settled(report(energy=-1e6), report(energy=-1e6 - 1e-3), 1e-8, eps_e=1e-8)

    def test_structure_is_the_tree_shape(self):
        assert settled(report(), report(structure=SWAPPED), 1e-8, eps_e=1e-8)
        assert not settled(report(), report(structure=RECONNECTED), 1e-8, eps_e=1e-8)

    def test_only_shared_bonds_compared(self):
        other = SweepReport(
            energies={9: -3.0}, entropies={7: 0.5}, structure_snapshot=CHAIN
        )
        assert settled(report(), other, 1e-8, eps_e=1e-8)


def random_chain(rng, n_sites, chi):
    """A chain network of random isometries with random descending center
    weights; bond dimensions grow from both ends up to ``chi``."""
    topo = build_mpn(n_sites)
    dims = dict.fromkeys(range(n_sites), 2)
    p = (topo.n_tensors - 1) // 2
    for t in [*range(p + 1), *range(topo.n_tensors - 1, p, -1)]:
        e1, e2, e3 = topo.edges[t]
        dims[e3] = min(chi, dims[e1] * dims[e2], dims.get(e3, chi))
    tensors = [random_isometry(rng, dims[a], dims[b], dims[c]) for a, b, c in topo.edges]
    weights = np.sort(rng.random(dims[topo.center]))[::-1]
    return TTNState(topo, tensors, weights / np.linalg.norm(weights))


class TestStagesEndEarly:
    """Stages whose tree shape and bond quantities have settled stop before
    their sweep limit, in gss and in bundle reconstruction."""

    def test_hierarchical_chain_ground_state(self):
        model = hierarchical_chain_model(4, 1.0, 0.5)
        config = gss.GssConfig(chi_init=4, stages=schedule([16], [8], mode=1))
        result = gss.run(model, config, want_observables=True)
        stage = result.stages[0]
        assert stage.converged and len(stage.reports) < 8
        assert abs(result.energy - ed_oracle(model, n_states=1).energy) < 1e-6
        assert leaf_partitions(result.state.topology) == leaf_partitions(build_pbt(16))

    def test_random_chain_reconstruction(self, rng):
        state = random_chain(rng, 16, 4)
        config = FactorizeConfig(chi_init=4, opt_mode=1, n_max=10)
        _, reports = reconstruct_sweep(state, config, observers=[AuditObserver()])
        # on this chain the child-slot order flips from one sweep to the next
        assert reports[0].structure_snapshot != reports[1].structure_snapshot
        assert len(reports) < config.n_max


class TestSchedule:
    def test_selection_on_first_stage_only(self):
        stages = schedule([4, 8, 16], [6, 3, 1], mode=1, t0=0.5)
        assert [(s.chi, s.n_max, s.mode, s.t0) for s in stages] == [
            (4, 6, 1, 0.5), (8, 3, 0, 0.0), (16, 1, 0, 0.0)
        ]
        # the annealing interval defaults to half the stage's sweep limit
        assert [s.n_tau for s in stages] == [3, 1, 1]

    @pytest.mark.parametrize(
        "fields, bad",
        [
            ({"chi": 0, "n_max": 2}, "chi"),
            ({"chi": 4, "n_max": 0}, "n_max"),
            ({"chi": 4, "n_max": 2, "n_tau": 0}, "n_tau"),
            ({"chi": 4, "n_max": 2, "t0": -0.1}, "t0"),
            ({"chi": 8, "n_max": 4, "mode": 3}, "mode"),
            ({"chi": 8, "n_max": 4, "mode": -1}, "mode"),
            # NaN compares false with every bound
            ({"chi": 4, "n_max": 2, "t0": float("nan")}, "t0"),
            ({"chi": 4, "n_max": 2, "t0": float("inf")}, "t0"),
        ],
    )
    def test_stage_rejects(self, fields, bad):
        with pytest.raises(ConfigError, match=bad) as err:
            Stage(**fields)
        assert err.value.field == bad
        assert str(err.value) == f"{bad} {err.value.problem}"

    def test_whole_schedule_rule_names_no_field(self):
        with pytest.raises(ConfigError) as err:
            schedule([4, 8], [2])
        assert err.value.field is None
        assert str(err.value) == err.value.problem



class TestSiteEntropies:
    @pytest.mark.parametrize("mode", [0, 2])
    def test_match_merged_center(self, rng, mode):
        """A physical leg's entropy, taken from the weighted half that holds
        it, equals the one of the merged center after a truncating split."""
        dims = (2, 3, 2, 2, 3, 2)
        target = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
        state = sequential_svd_to_mpn(normalize_target(target), chi_init=4)
        merged = {}

        def update(merge, info):
            shape = merge().shape
            new = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            return new / np.linalg.norm(new), {}

        def observe(state, info):
            psi = merge_center(state, info.t, info.t_conn)
            for axis, bond in enumerate(info.center_bonds):
                if state.topology.is_physical(bond):
                    merged[bond] = site_ee(psi, axis)
            assert info.choice.truncation_errors[info.choice.pairing] > 1e-3

        report = run_sweep(
            state, SelectionSettings(chi=2, mode=mode), update_psi=update,
            observers=[observe],
        )
        assert sorted(merged) == list(range(len(dims)))
        for bond, entropy in merged.items():
            assert report.entropies[bond] == pytest.approx(entropy, abs=1e-12)


def quantics_cosine(bits=8):
    """A sum of cosines on a 2^bits grid, one leg per bit."""
    x = np.arange(2**bits) / 2**bits
    return (np.cos(2 * np.pi * 3 * x) + 0.5 * np.cos(2 * np.pi * 11 * x + 0.3)).reshape(
        (2,) * bits
    )


class TestMergeOnDemand:
    """A step contracts the merged tensor only for an update that reads it:
    the fidelity update embeds the environment instead, so a fidelity sweep
    merges nothing, while reconstruction and ground-state sweeps merge once
    per step."""

    @pytest.fixture
    def merges(self, monkeypatch):
        calls = []
        for name in ("merge_moving", "merge_center"):
            def counted(*args, _merge=getattr(sweeps, name), _name=name):
                calls.append(_name)
                return _merge(*args)

            monkeypatch.setattr(sweeps, name, counted)
        return calls

    def test_fidelity_sweeps_merge_nothing(self, merges):
        target = normalize_target(quantics_cosine())
        state = sequential_svd_to_mpn(target, chi_init=2)
        config = FactorizeConfig(chi_init=2, fidelity=schedule([2, 4], [3, 2], mode=2))
        audit = AuditObserver()
        fidelity_sweep_run(target, state, config, observers=[audit])
        assert audit.steps > 0 and merges == []

    def test_reconstruction_merges_once_per_step(self, merges):
        state = sequential_svd_to_mpn(normalize_target(quantics_cosine()), chi_init=2)
        audit = AuditObserver()
        reconstruct_sweep(state, FactorizeConfig(chi_init=2, opt_mode=2, n_max=3), [audit])
        assert audit.steps > 0 and len(merges) == audit.steps

    def test_ground_state_search_merges_once_per_step(self, merges):
        config = gss.GssConfig(chi_init=4, stages=schedule([4], [3], mode=1))
        audit = AuditObserver()
        gss.run(heisenberg_chain(8), config, observers=[audit])
        assert audit.steps > 0 and len(merges) == audit.steps


def record_pairing(pairings):
    return lambda state, info: pairings.append(info.choice.pairing)


class TestWalkOracle:
    """The walk's path-ranked step against the candidate of largest BFS
    distance from the origin, smallest label first, on runs that reconnect."""

    @pytest.fixture
    def checked(self, monkeypatch):
        steps, walk = [], sweeps.local_two_tensor

        def local_two_tensor(topo, e_c, flags, path):
            dist = set_distance(topo, path[0])
            assert path[-1] == e_c and [dist[b] for b in path] == list(range(len(path)))
            cands = candidate_edge_indices(topo, e_c, flags)
            expected = max(cands, key=lambda c: (dist[c], -c))
            out = walk(topo, e_c, flags, path)
            assert out[0] == expected
            steps.append(out)
            return out

        monkeypatch.setattr(sweeps, "local_two_tensor", local_two_tensor)
        return steps

    def test_heat_bath_reconstruction(self, checked, rng):
        dims = (2,) * 12
        target = normalize_target(rng.standard_normal(dims))
        state = sequential_svd_to_mpn(target, chi_init=8)
        audit, pairings = AuditObserver(), []
        config = FactorizeConfig(chi_init=8, opt_mode=1, t0=0.2, n_max=4, seed=3)
        reconstruct_sweep(state, config, observers=[audit, record_pairing(pairings)])
        assert len(checked) == audit.steps == len(pairings)
        assert audit.stochastic_steps > 0 and any(pairings)

    def test_pbt_ground_state_search(self, checked):
        config = gss.GssConfig(
            chi_init=4, stages=schedule([4], [3], mode=1, t0=0.3), init_tree="pbt"
        )
        audit, pairings = AuditObserver(), []
        gss.run(heisenberg_chain(8), config, observers=[audit, record_pairing(pairings)])
        assert len(checked) == audit.steps == len(pairings) and any(pairings)
