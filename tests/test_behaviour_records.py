"""Seeded behaviour records of the three sweep workflows (ground-state
search, fidelity sweeps and bundle reconstruction), recomputed and
compared with the committed copies under ``tests/records``.

Each record holds, per sweep, the tree shape, the origin energy or
fidelity (none in a reconstruction) and every bond entropy; per step, the
chosen pairing; and the sweeps per stage and the smallest pairing margin,
how far the closest structural decision sat from flipping. A record under
truncation-error selection (mode 2) also keeps its smallest tie margin,
the gss record the final stage's single-site moments and pair
correlations, and the reconstruction record the overlap of the final
network with the input one. A change that
alters behaviour on purpose regenerates the records it alters, by name,
and gives the reason in CHANGES.md:

    PYTHONPATH=src python tests/test_behaviour_records.py gss_h16_seed5

Without names every record is rewritten. An unknown name rewrites none and
exits non-zero.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from treetn import factorize
from treetn.benchmarks import gen_quantics_function, hierarchical_chain_model
from treetn.gss import GssConfig, run
from treetn.state import TTNState, to_dense
from treetn.sweeps import schedule
from treetn.topology import build_mpn, tree_shape

RECORDS = Path(__file__).parent / "records"
ENERGY_RTOL = 1e-13
ENTROPY_ATOL = 1e-10
OBSERVABLE_ATOL = 1e-10
TIE = 1e-13  # truncation errors closer than this to the least one tie (mode 2)


class ChoiceLog:
    """Observer keeping each step's chosen pairing and, for a step that
    compared all three pairings, its margins. Under zero-temperature
    selection pairing 0 competes with its entropy less ``eps_s``, among
    all pairings (mode 1) or among those whose truncation error ties the
    least one (mode 2). A pairing that mode 1 ruled out by its Rényi-2
    entropy (entropy ``nan``) does not compete, and a step with one adds
    no margin, as a step under mode 0 adds none. The pairing margin is the
    runner-up's score less the winner's, taken when two or more pairings
    compete. In mode 2 the tie comes first: its margin is how far the
    closest error gap sits from ``TIE``."""

    def __init__(self, eps_s: float, mode: int = 1):
        self.eps_s = eps_s
        self.mode = mode
        self.pairings: list[int] = []
        self.margins: list[float] = []
        self.tie_margins: list[float] = []

    def __call__(self, state, info):
        choice = info.choice
        self.pairings.append(choice.pairing)
        if any(math.isnan(e) for e in choice.entropies):
            return
        competing = range(3)
        if self.mode == 2:
            low = min(choice.truncation_errors)
            gaps = [e - low for e in choice.truncation_errors]
            self.tie_margins.append(min(abs(g - TIE) for g in gaps))
            competing = [k for k in competing if gaps[k] < TIE]
        scores = sorted(choice.entropies[k] - (self.eps_s if k == 0 else 0.0)
                        for k in competing)
        if len(scores) > 1:
            self.margins.append(scores[1] - scores[0])


def _record(stage_reports, origin, quantity, log: ChoiceLog, inputs: str) -> dict:
    field = {"energy": "energies", "fidelity": "fidelities"}.get(quantity)
    margins = {"smallest_pairing_margin": min(log.margins)}
    if log.tie_margins:
        margins["smallest_tie_margin"] = min(log.tie_margins)
    return {
        "inputs": inputs,
        "sweeps_per_stage": [len(reports) for reports in stage_reports],
        **margins,
        "sweeps": [
            {
                "tree_shape": [list(t) for t in tree_shape(r.structure_snapshot)],
                **({quantity: getattr(r, field)[origin]} if field else {}),
                "entropies": {str(b): s for b, s in sorted(r.entropies.items())},
            }
            for reports in stage_reports for r in reports
        ],
        "pairings": log.pairings,
    }


def gss_record() -> dict:
    """``gss`` on the N=16 hierarchical chain, chi 4 then 16, entropy
    selection (mode 1) on the first stage, seed 5, with observables: the
    final stage's moments ``<s^x>, <s^y>, <s^z>`` per site and the nine
    correlation components of all 120 site pairs."""
    model = hierarchical_chain_model(4, 1.0, 0.5)
    config = GssConfig(chi_init=4, stages=schedule([4, 16], [20, 20], mode=1), seed=5)
    log = ChoiceLog(config.eps_s)
    result = run(model, config, observers=[log], want_observables=True)
    inputs = ("hierarchical_chain_model(4, 1.0, 0.5); chi_init 4; "
              "stages [4, 16] x 20 sweeps; mode 1; seed 5")
    record = _record([s.reports for s in result.stages], result.state.topology.origin,
                     "energy", log, inputs)
    obs = result.observables
    record["observables"] = {
        "single": {str(i): list(m) for i, m in sorted(obs.single.items())},
        "pairs": {f"{i},{j}": c for (i, j), c in sorted(obs.pairs.items())},
    }
    return record


def ft_record() -> dict:
    """``ft`` on the 12-leg quantics cosine tensor: sequential SVD at chi 4,
    then fidelity stages at chi 4 and 8 with entropy selection (mode 1)."""
    target = factorize.normalize_target(gen_quantics_function(30, 4, seed=0))
    config = factorize.FactorizeConfig(chi_init=4, fidelity=schedule([4, 8], [10, 10], mode=1))
    state = factorize.sequential_svd_to_mpn(target, config.chi_init, config.sigma,
                                            config.delta_s)
    log = ChoiceLog(config.eps_s)
    state, stage_reports = factorize.fidelity_sweep_run(target, state, config,
                                                        observers=[log])
    inputs = ("gen_quantics_function(30, 4, seed=0); chi_init 4; "
              "fidelity stages [4, 8] x 10 sweeps; mode 1")
    return _record(stage_reports, state.topology.origin, "fidelity", log, inputs)


def ft_mode2_record() -> dict:
    """``ft`` on the 12-leg quantics cosine tensor of seed 1: sequential SVD
    at chi 4, then fidelity stages at chi 8 and 16 with truncation-error
    selection (mode 2), each settling before its 20-sweep limit. Of seeds
    0-2 it has the largest smallest pairing margin; their tie margins all
    sit within 2e-15 of ``TIE``, set by errors of untruncated pairings."""
    target = factorize.normalize_target(gen_quantics_function(30, 4, seed=1))
    config = factorize.FactorizeConfig(chi_init=4, fidelity=schedule([8, 16], [20, 20], mode=2))
    state = factorize.sequential_svd_to_mpn(target, config.chi_init, config.sigma,
                                            config.delta_s)
    log = ChoiceLog(config.eps_s, mode=2)
    state, stage_reports = factorize.fidelity_sweep_run(target, state, config,
                                                        observers=[log])
    inputs = ("gen_quantics_function(30, 4, seed=1); chi_init 4; "
              "fidelity stages [8, 16] x 20 sweeps; mode 2")
    return _record(stage_reports, state.topology.origin, "fidelity", log, inputs)


def chain_bundle(n_sites: int, chi: int, seed: int) -> TTNState:
    """A chain network of random isometries (QR of Gaussian matrices), bond
    dimensions capped at ``chi``, with random descending center weights."""
    rng = np.random.Generator(np.random.Philox(seed))
    topo = build_mpn(n_sites)
    dims = {b: 2 for b in range(n_sites)}
    p = (topo.n_tensors - 1) // 2
    # bond dimensions grow from both chain ends towards the center pair
    for t in [*range(p + 1), *range(topo.n_tensors - 1, p, -1)]:
        e1, e2, e3 = topo.edges[t]
        dims[e3] = min(chi, dims[e1] * dims[e2], dims.get(e3, chi))
    tensors = []
    for e1, e2, e3 in topo.edges:
        q, _ = np.linalg.qr(rng.standard_normal((dims[e1] * dims[e2], dims[e3])))
        tensors.append(q.reshape(dims[e1], dims[e2], dims[e3]))
    w = np.sort(rng.random(dims[topo.center]))[::-1]
    return TTNState(topology=topo, tensors=tensors, center_weights=w / np.linalg.norm(w))


def rebuild_record() -> dict:
    """The reconstruction ``ft`` runs on a bundle: a 12-site chain bundle of
    bond dimension 8, reshaped at chi 6 with entropy selection (mode 1); it
    settles after 5 of 20 sweeps. Of 12 and 16 sites, chi 4 and 6, bundle
    bond dimensions 8 and 16 and seeds 0-5, it has the largest smallest
    pairing margin."""
    state = chain_bundle(12, 8, seed=5)
    before = to_dense(state)
    config = factorize.FactorizeConfig(chi_init=6, opt_mode=1, n_max=20)
    log = ChoiceLog(config.eps_s)
    state, reports = factorize.reconstruct_sweep(state, config, observers=[log])
    inputs = "chain_bundle(12, 8, seed=5); chi 6; 20 sweeps; mode 1"
    record = _record([reports], state.topology.origin, None, log, inputs)
    record["overlap"] = abs(complex(np.vdot(before, to_dense(state))))
    return record


BUILDERS = {
    "gss_h16_seed5": (gss_record, "energy"),
    "ft_quantics_b4": (ft_record, "fidelity"),
    "ft_quantics_mode2": (ft_mode2_record, "fidelity"),
    "rebuild_chain12": (rebuild_record, None),
}


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_record_reproduces(name):
    build, quantity = BUILDERS[name]
    stored = json.loads((RECORDS / f"{name}.json").read_text())
    fresh = json.loads(json.dumps(build()))
    assert fresh["sweeps_per_stage"] == stored["sweeps_per_stage"]
    assert fresh["pairings"] == stored["pairings"]
    for k, (new, old) in enumerate(zip(fresh["sweeps"], stored["sweeps"])):
        where = f"sweep {k}"
        assert new["tree_shape"] == old["tree_shape"], where
        if quantity:
            assert new[quantity] == pytest.approx(old[quantity], rel=ENERGY_RTOL, abs=0.0), where
        assert new["entropies"].keys() == old["entropies"].keys(), where
        for bond, s in old["entropies"].items():
            assert new["entropies"][bond] == pytest.approx(s, rel=0.0, abs=ENTROPY_ATOL), (
                f"{where}, bond {bond}")
    assert fresh.keys() == stored.keys()
    if "overlap" in stored:
        assert fresh["overlap"] == pytest.approx(stored["overlap"], rel=ENERGY_RTOL, abs=0.0)
    if "observables" in stored:
        new, old = fresh["observables"], stored["observables"]
        assert new["single"].keys() == old["single"].keys()
        assert new["pairs"].keys() == old["pairs"].keys()
        for site, moments in old["single"].items():
            assert new["single"][site] == pytest.approx(moments, rel=0.0, abs=OBSERVABLE_ATOL), (
                f"site {site}")
        for pair, components in old["pairs"].items():
            assert new["pairs"][pair] == pytest.approx(components, rel=0.0, abs=OBSERVABLE_ATOL), (
                f"pair {pair}")


if __name__ == "__main__":
    names = sys.argv[1:] or list(BUILDERS)
    unknown = [name for name in names if name not in BUILDERS]
    if unknown:
        sys.exit(f"unknown record {', '.join(unknown)}; known: {', '.join(BUILDERS)}")
    RECORDS.mkdir(exist_ok=True)
    for name in names:
        record = BUILDERS[name][0]()
        (RECORDS / f"{name}.json").write_text(json.dumps(record, indent=1) + "\n")
        print(f"{name}: sweeps {record['sweeps_per_stage']}, "
              f"smallest pairing margin {record['smallest_pairing_margin']:.3e}"
              + (f", tie margin {record['smallest_tie_margin']:.3e}"
                 if "smallest_tie_margin" in record else ""))
