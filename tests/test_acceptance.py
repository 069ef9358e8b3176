"""Acceptance suite: one test per acceptance criterion, each printing a
PASS line with its headline numbers when it completes.

Criterion 3 (paper-scale hierarchical chain) is an extended tier gated by
TREETN_EXTENDED=1, about five minutes for both couplings; it asserts the
reference entropy bands, a converged stage and, at alpha=0.5, the perfect
binary tree.
"""

import os
import time

import numpy as np
import pytest

from conftest import AuditObserver, leaf_partitions
from treetn.benchmarks import (
    balanced_tree_edges,
    ed_oracle,
    gen_multivariate_normal,
    gen_quantics_function,
    hierarchical_chain_model,
)
from treetn.factorize import (
    FactorizeConfig,
    fidelity,
    fidelity_sweep_run,
    normalize_target,
    reconstruct_sweep,
    sequential_svd_to_mpn,
)
from treetn.fileio import (
    OutputFlags,
    RunManifest,
    load_tensor_bundle,
    save_tensor_bundle,
    write_gss_outputs,
)
from treetn.gss import GssConfig, run
from treetn.sweeps import schedule
from treetn.spinmodel import SpinModel
from treetn.state import state_bond_entropy_dense, to_dense
from treetn.topology import build_pbt


def representable_at(ed_vector, dims, chi: int) -> bool:
    """True when every contiguous bipartition of the exact ground state
    carries less than 1e-10 weight beyond the first ``chi`` Schmidt values.
    Keeps the equivalence check meaningful: the criterion's bond dimension
    is meant to represent these states essentially exactly."""
    psi = ed_vector.reshape(dims)
    for k in range(1, len(dims) - 1):
        mat = psi.reshape(int(np.prod(dims[: k + 1])), -1)
        svals = np.linalg.svd(mat, compute_uv=False)
        if float(np.sum(svals[chi:] ** 2)) > 1e-10:
            return False
    return True


def random_acceptance_model(index: int):
    """Deterministic random model family: XXZ/XYZ exchange, fields, and
    single-ion anisotropy over 4..10 sites with mixed spins up to 3/2.
    Resamples until the spectrum is safely gapped (so observables are
    well-defined) and the ground state is representable at the criterion's
    bond dimension."""
    for salt in range(50):
        rng = np.random.default_rng(7_000 + 97 * index + salt)
        n = int(rng.integers(4, 11))
        spins = []
        dim = 1
        for _ in range(n):
            s = float(rng.choice([0.5, 1.0, 1.5], p=[0.7, 0.2, 0.1]))
            if dim * int(2 * s + 1) > 4096:
                s = 0.5
            spins.append(s)
            dim *= int(2 * s + 1)
        use_xyz = index % 4 == 1
        rows = []
        for i in range(n - 1):
            j_c = float(rng.uniform(0.5, 1.5))
            if use_xyz:
                rows.append(
                    (i, i + 1, j_c, float(rng.uniform(0.3, 1.2)), float(rng.uniform(0.3, 1.2)))
                )
            else:
                rows.append((i, i + 1, j_c, float(rng.uniform(0.0, 1.2))))
        if n >= 6 and rng.random() < 0.5:
            extra = (0, n - 1, 0.4, 0.8) if not use_xyz else (0, n - 1, 0.4, 0.5, 0.6)
            rows.append(extra)
        fields = {"z": {i: float(rng.uniform(-0.4, 0.4)) for i in range(n)}}
        if rng.random() < 0.6:
            fields["x"] = {i: float(rng.uniform(-0.3, 0.3)) for i in range(n)}
        if index % 5 == 2:
            fields["y"] = {i: float(rng.uniform(-0.3, 0.3)) for i in range(n)}
        sia = {}
        if any(s >= 1.0 for s in spins) and rng.random() < 0.7:
            sia = {i: float(rng.uniform(-0.3, 0.3)) for i in range(n) if spins[i] >= 1.0}
        model = SpinModel(
            n_sites=n,
            spin_sizes=spins,
            exchange_type="XYZ" if use_xyz else "XXZ",
            exchange_rows=rows,
            field_tables=fields,
            sia_table=sia,
        )
        ed = ed_oracle(model, n_states=2)
        if ed.gap <= 1e-3 * max(1.0, abs(ed.energy)):
            continue
        chi = 2 ** ((n + 1) // 2)
        dims = [model.site_dimension(i) for i in range(n)]
        if representable_at(ed.vector, dims, chi):
            return model, ed
    raise RuntimeError(f"no suitable model found for index {index}")


class TestCriterion1EdEquivalence:
    def test_twenty_random_models(self):
        start = time.time()
        audit = AuditObserver()
        families = set()
        worst = {"energy": 0.0, "single": 0.0, "pair": 0.0, "ee": 0.0}
        for index in range(20):
            model, ed = random_acceptance_model(index)
            families.add((model.exchange_type, model.dtype == np.dtype(complex)))
            chi = 2 ** ((model.n_sites + 1) // 2)
            cfg = GssConfig(
                chi_init=min(chi, 8),
                stages=schedule([chi], [20]),
                eps_e=1e-10,
                eps_s=1e-10,
            )
            res = run(model, cfg, observers=[audit], want_observables=True)
            rel = abs(1.0 - res.energy / ed.energy)
            worst["energy"] = max(worst["energy"], rel)
            assert rel < 1e-8, f"model {index}: energy off by {rel:.2e}"
            obs = res.observables
            for i in range(model.n_sites):
                err = max(abs(np.array(obs.single[i]) - np.array(ed.single_site(i))))
                worst["single"] = max(worst["single"], err)
                assert err < 1e-6, f"model {index}: site {i} moment off by {err:.2e}"
            for (i, j), comps in obs.pairs.items():
                ed_comps = ed.correlation(i, j)
                err = max(abs(comps[c] - ed_comps[c]) for c in comps)
                worst["pair"] = max(worst["pair"], err)
                assert err < 1e-6, f"model {index}: pair {(i, j)} off by {err:.2e}"
            # criterion 6 tie-in: reported entropies against dense bipartitions
            rep = res.stages[-1].final_report
            for b, s in rep.entropies.items():
                err = abs(s - state_bond_entropy_dense(res.state, b))
                worst["ee"] = max(worst["ee"], err)
                assert err < 1e-8, f"model {index}: bond {b} entropy off by {err:.2e}"
        elapsed = time.time() - start
        assert elapsed < 600, f"criterion 1 exceeded its 10-minute budget: {elapsed:.0f}s"
        assert ("XYZ", False) in families or ("XYZ", True) in families
        assert any(cplx for _, cplx in families)
        print(
            f"criterion 1: PASS - 20 models, worst energy {worst['energy']:.2e}, "
            f"single {worst['single']:.2e}, pair {worst['pair']:.2e}, "
            f"entropy-vs-dense {worst['ee']:.2e}, {elapsed:.0f}s"
        )


class TestCriterion2HierarchicalDesk:
    def test_pbt_recovery_n16(self):
        start = time.time()
        model = hierarchical_chain_model(4, 1.0, 0.5)
        audit = AuditObserver()
        cfg = GssConfig(chi_init=4, stages=schedule([16], [30], mode=1))
        res = run(model, cfg, observers=[audit])
        assert leaf_partitions(res.state.topology) == leaf_partitions(build_pbt(16))
        ed = ed_oracle(model, n_states=1)
        rel = abs(1.0 - res.energy / ed.energy)
        assert rel < 1e-6
        elapsed = time.time() - start
        assert elapsed < 300, f"criterion 2 exceeded its 5-minute budget: {elapsed:.0f}s"
        print(
            f"criterion 2: PASS - perfect binary tree recovered, "
            f"energy rel err {rel:.2e}, {elapsed:.0f}s"
        )


@pytest.mark.skipif(
    os.environ.get("TREETN_EXTENDED") != "1",
    reason="extended tier: set TREETN_EXTENDED=1 (about 5 min)",
)
class TestCriterion3HierarchicalPaperScale:
    TARGETS = {0.5: (0.1110, 0.01, 0.0618, 0.005), 1.0: (0.9977, 0.01, 0.9065, 0.01)}

    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_bond_entropies_n256(self, alpha):
        start = time.time()
        model = hierarchical_chain_model(8, 1.0, alpha)
        cfg = GssConfig(
            chi_init=4,
            stages=schedule([20], [50], mode=1),
            delta_e=1e-11,
            delta_s=1e-10,
        )
        res = run(model, cfg, observers=[AuditObserver()])
        rep = res.stages[-1].final_report
        aux = [
            rep.entropies[b]
            for b in res.state.topology.auxiliary_bonds()
            if b in rep.entropies
        ]
        max_ee, avg_ee = max(aux), float(np.mean(aux))
        target_max, tol_max, target_avg, tol_avg = self.TARGETS[alpha]
        assert res.stages[-1].converged, f"alpha={alpha}: stage hit its sweep limit"
        assert abs(max_ee - target_max) <= tol_max, (
            f"alpha={alpha}: max entropy {max_ee:.4f} outside {target_max}+-{tol_max}"
        )
        assert abs(avg_ee - target_avg) <= tol_avg, (
            f"alpha={alpha}: average entropy {avg_ee:.4f} outside {target_avg}+-{tol_avg}"
        )
        if alpha == 0.5:
            # at alpha=1 the chain is uniform: there is no hierarchy to find
            assert leaf_partitions(res.state.topology) == leaf_partitions(build_pbt(256))
        print(
            f"criterion 3 (alpha={alpha}): PASS - max {max_ee:.4f} avg {avg_ee:.4f}, "
            f"{len(res.stages[-1].reports)} sweeps, {time.time() - start:.0f}s"
        )


class TestCriterion4QuanticsCompression:
    def test_fidelity_and_entropy_orderings(self):
        start = time.time()
        target = normalize_target(gen_quantics_function(30, 6, seed=0))
        audit = AuditObserver()
        results = {}
        for chi in (4, 8):
            outcomes = {}
            for mode, label in ((0, "mpn"), (1, "ttn")):
                state = sequential_svd_to_mpn(target, chi)
                cfg = FactorizeConfig(
                    chi_init=chi, fidelity=schedule([chi], [8], mode=mode)
                )
                state, _ = fidelity_sweep_run(target, state, cfg, observers=[audit])
                cfg_report = FactorizeConfig(chi_init=chi, opt_mode=0, n_max=1)
                _, reports = reconstruct_sweep(state, cfg_report)
                all_ee = list(reports[-1].entropies.values())
                outcomes[label] = (fidelity(target, state), float(np.mean(all_ee)))
            results[chi] = outcomes
            f_ttn, s_ttn = outcomes["ttn"]
            f_mpn, s_mpn = outcomes["mpn"]
            assert f_ttn >= f_mpn - 1e-12, f"chi={chi}: fidelity ordering violated"
            assert s_ttn <= s_mpn + 1e-12, f"chi={chi}: entropy ordering violated"

        # structure recovery: a staged run with truncation-error selection
        # isolates each variable's bit legs into one connected subtree
        state = sequential_svd_to_mpn(target, 4)
        cfg = FactorizeConfig(
            chi_init=4,
            eps_s=1e-14,
            fidelity=schedule([4, 8, 16], [10, 10, 10], mode=2),
        )
        opt_state, _ = fidelity_sweep_run(target, state, cfg, observers=[audit])
        parts = leaf_partitions(opt_state.topology)
        for v in range(3):
            bits = frozenset(range(6 * v, 6 * v + 6))
            assert bits in parts, f"variable {v} legs are not a connected subtree"

        full_rank = sequential_svd_to_mpn(target, 512)
        f_full = fidelity(target, full_rank)
        assert f_full >= 1 - 1e-8

        elapsed = time.time() - start
        assert elapsed < 900, f"criterion 4 exceeded its 15-minute budget: {elapsed:.0f}s"
        summary = ", ".join(
            f"chi={chi}: F {results[chi]['ttn'][0]:.5f}/{results[chi]['mpn'][0]:.5f} "
            f"S {results[chi]['ttn'][1]:.4f}/{results[chi]['mpn'][1]:.4f}"
            for chi in results
        )
        print(
            f"criterion 4: PASS - optimized/chain {summary}, "
            f"full-rank F {f_full:.10f}, {elapsed:.0f}s"
        )


class TestCriterion5NormalReconstruction:
    def test_tree_recovery(self):
        start = time.time()
        edges = balanced_tree_edges(4)
        tensor = gen_multivariate_normal(4, 3, 0.2, edges)
        target = normalize_target(tensor)
        state = sequential_svd_to_mpn(target, 16)
        base_cfg = FactorizeConfig(chi_init=16, opt_mode=0, n_max=1)
        _, base_reports = reconstruct_sweep(state.copy(), base_cfg)
        aux0 = [
            base_reports[-1].entropies[b]
            for b in state.topology.auxiliary_bonds()
        ]
        audit = AuditObserver()
        cfg = FactorizeConfig(chi_init=16, opt_mode=1, n_max=20)
        state, reports = reconstruct_sweep(state, cfg, observers=[audit])
        aux1 = [
            reports[-1].entropies[b]
            for b in state.topology.auxiliary_bonds()
            if b in reports[-1].entropies
        ]
        parts = leaf_partitions(state.topology)
        for v in range(4):
            bits = frozenset(range(3 * v, 3 * v + 3))
            assert bits in parts, f"variable {v} bits not grouped as a subtree"
        paired = frozenset(range(6))  # generating tree joins variables (0,1)
        assert paired in parts, "variable pairing of the generating tree not recovered"
        assert float(np.mean(aux1)) < float(np.mean(aux0)), "entropy did not decrease"
        elapsed = time.time() - start
        assert elapsed < 300, f"criterion 5 exceeded its 5-minute budget: {elapsed:.0f}s"
        print(
            f"criterion 5: PASS - generating tree recovered, mean auxiliary "
            f"entropy {np.mean(aux0):.4f} -> {np.mean(aux1):.4f}, {elapsed:.0f}s"
        )


class TestCriterion6InvariantSuite:
    def test_stochastic_selection_probabilities(self):
        model = hierarchical_chain_model(3, 1.0, 0.5)
        audit = AuditObserver()
        cfg = GssConfig(
            chi_init=4,
            stages=schedule([8], [6], mode=1, t0=0.5, n_tau=3),
            seed=0,
        )
        run(model, cfg, observers=[audit])
        assert audit.stochastic_steps > 0
        print(
            f"criterion 6: PASS - audits on {audit.steps} steps, "
            f"{audit.stochastic_steps} heat-bath selections with unit "
            f"probability sums"
        )

    def test_stochastic_selection_reproducible(self):
        model = hierarchical_chain_model(3, 1.0, 0.5)

        def pairings():
            seen = []
            cfg = GssConfig(
                chi_init=4,
                stages=schedule([8], [4], mode=1, t0=0.8, n_tau=2),
                seed=123,
            )
            run(model, cfg, observers=[lambda s, i: seen.append(i.choice.pairing)])
            return seen

        assert pairings() == pairings()


class TestCriterion7FileContracts:
    def test_golden_formats_and_round_trip(self, tmp_path, rng):
        model = SpinModel(
            n_sites=4,
            spin_sizes=[0.5] * 4,
            exchange_rows=[(0, 1, 1.0, 0.5), (1, 2, 1.0, 0.5), (2, 3, 1.0, 0.5)],
        )
        cfg = GssConfig(chi_init=4, stages=schedule([4, 8], [3, 3]))
        result = run(model, cfg, want_observables=True)
        flags = OutputFlags(directory=tmp_path / "out", single_site=True, two_site=True)
        manifest = RunManifest(out_dir=flags.directory)
        write_gss_outputs(manifest, result.state, result.stages, flags)

        for m in (1, 2):
            stage = flags.directory / f"run{m}"
            basic = (stage / "basic.csv").read_text().splitlines()
            assert basic[0] == "node1,node2,entanglement_entropy,energy,truncation_error"
            assert len(basic) == 1 + 5
            assert (stage / "graph.dat").read_text() == "0 1 4\n2 3 4\n"
            single = (stage / "single_site.csv").read_text().splitlines()
            assert single[0] == "i,sx,sy,sz"
            assert all(len(ln.split(",")) == 4 for ln in single)
            two = (stage / "two_site.csv").read_text().splitlines()
            assert two[0] == "i,j,xx,yy,zz,yz,zy,zx,xz,xy,yx"
            assert all(len(ln.split(",")) == 11 for ln in two[1:])

        raw = rng.standard_normal((2,) * 6) * 2.5
        state = sequential_svd_to_mpn(normalize_target(raw), 8)
        save_tensor_bundle(tmp_path / "bundle", state)
        back = load_tensor_bundle(tmp_path / "bundle")
        err = np.max(np.abs(to_dense(back) * back.norm_scale - raw))
        assert err < 1e-12
        print(
            f"criterion 7: PASS - run{{m}} layout, csv schemas, graph.dat, "
            f"bundle round-trip err {err:.1e}"
        )
