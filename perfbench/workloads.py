"""The four benchmark workloads: seeded inputs, the timed workflow, checks.

Each workload writes its inputs as files (a YAML config plus couplings, a
dense ``.npy`` target or a tensor bundle) and then runs them through the
same public calls the ``gss`` and ``ft`` commands make. The workflow is
timed from reading the input to writing the outputs; an observer passed to
the sweeps stamps every completed step. Correctness checks run on the
results afterwards, outside the timed region.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from treetn import factorize, fileio, gss
from treetn.benchmarks import ed_oracle
from treetn.state import audit_state, to_dense
from treetn.topology import audit_topology, build_mpn, build_pbt, subtree_sites


@dataclass(frozen=True)
class Spec:
    name: str
    kind: str  # "gss", "ft-tensor" or "ft-bundle"
    sweep_limits: tuple[int, ...]
    why: str
    inputs: int = 1  # seeded inputs per run; passes cycle through them


# BENCHMARK.json lists the first two; the others run only when asked for
# by name (see README.md for why they were left out)
WORKLOADS = {
    w.name: w
    for w in (
        Spec("gss-h16", "gss", (8,),
             "N=16 hierarchical chain, chi 4 to 16, with the observable pass: "
             "Lanczos and superblock apply do most of the work"),
        # the structure found, and with it the cost of a pass, differs from
        # one wave-vector draw to the next, so a run averages over four
        Spec("ft-quantics", "ft-tensor", (10, 10, 10),
             "staged fidelity sweeps on 18-leg seeded cosine tensors: the "
             "environment is rebuilt from the dense target each step", inputs=4),
        Spec("gss-h256", "gss", (1,),
             "N=256 hierarchical chain, chi 8, one sweep: operator refresh "
             "re-renormalizes whole regions each step; Lanczos is a minor share"),
        Spec("ft-rebuild-n256", "ft-bundle", (10,),
             "reconstruction of a seeded random 256-site chain bundle: topology "
             "walk and decomposition dominate; the only bundle load"),
    )
}

HIERARCHY_ALPHA = 0.5
QUANTICS_WAVES, QUANTICS_BITS, QUANTICS_VARS = 30, 6, 3
BUNDLE_SITES, BUNDLE_CHI = 256, 8


# -- seeded inputs ----------------------------------------------------------


def hierarchical_rows(depth: int, alpha: float):
    """Heisenberg bonds (i, i+1) of level h, i = 2^h (2k+1) - 1, strength alpha^h."""
    rows = []
    for h in range(depth):
        for k in range(2 ** (depth - h - 1)):
            i = 2**h * (2 * k + 1) - 1
            rows.append((i, i + 1, alpha**h, 1.0))
    return sorted(rows)


def quantics_tensor(rng: np.random.Generator) -> np.ndarray:
    """Sum of cos(j k_j . x) over random wave vectors k_j, x on a 2^bits grid
    per variable, each variable spread over its bits, most significant first."""
    waves = rng.standard_normal((QUANTICS_WAVES, QUANTICS_VARS))
    grid = np.arange(2**QUANTICS_BITS) / 2**QUANTICS_BITS
    axes = np.meshgrid(*([grid] * QUANTICS_VARS), indexing="ij")
    out = np.zeros((2**QUANTICS_BITS,) * QUANTICS_VARS)
    for j, k in enumerate(waves, 1):
        out += np.cos(j * sum(k[a] * axes[a] for a in range(QUANTICS_VARS)))
    return out.reshape((2,) * (QUANTICS_VARS * QUANTICS_BITS))


def write_random_chain_bundle(directory: Path, rng: np.random.Generator) -> None:
    """A chain network of random isometries (QR of Gaussian matrices) with
    random descending center weights, in the tensor-bundle file format."""
    topo = build_mpn(BUNDLE_SITES)
    dims = {b: 2 for b in range(BUNDLE_SITES)}
    p = (topo.n_tensors - 1) // 2
    # bond dimensions grow from both chain ends towards the center pair
    for t in [*range(p + 1), *range(topo.n_tensors - 1, p, -1)]:
        e1, e2, e3 = topo.edges[t]
        dims[e3] = min(BUNDLE_CHI, dims[e1] * dims[e2], dims.get(e3, BUNDLE_CHI))
    directory.mkdir(parents=True)
    for t, (e1, e2, e3) in enumerate(topo.edges):
        q, _ = np.linalg.qr(rng.standard_normal((dims[e1] * dims[e2], dims[e3])))
        np.save(directory / f"isometry{t}.npy", q.reshape(dims[e1], dims[e2], dims[e3]))
    w = np.sort(rng.random(dims[topo.center]))[::-1]
    np.save(directory / "singular_values.npy", w / np.linalg.norm(w))
    np.save(directory / "norm.npy", np.array(1.0))
    (directory / "graph.dat").write_text(topo.to_graph_lines())


def make_inputs(spec: Spec, seed: int, workdir: Path) -> list[Path]:
    """Write the workload's inputs, one directory each; return the config paths."""
    rng = np.random.Generator(np.random.Philox(seed))
    paths = []
    for k in range(spec.inputs):
        directory = workdir / f"input{k}"
        directory.mkdir(parents=True)
        path = directory / "input.yml"
        config = _write_input(spec, seed, rng, directory)
        path.write_text(yaml.safe_dump(config, sort_keys=False))
        paths.append(path)
    return paths


def _write_input(spec: Spec, seed: int, rng: np.random.Generator, directory: Path) -> dict:
    """Write one input's data files and return its config."""
    if spec.kind == "gss":
        n, chi_init, chi, obs = {
            "gss-h16": (16, 4, 16, 1),
            "gss-h256": (256, 8, 8, 0),
        }[spec.name]
        depth = n.bit_length() - 1
        rows = hierarchical_rows(depth, HIERARCHY_ALPHA)
        (directory / "couplings.dat").write_text(
            "".join(f"{i} {j} {c!r} {d!r}\n" for i, j, c, d in rows)
        )
        config = {
            "system": {"N": n, "spin_size": "1/2",
                       "model": {"type": "XXZ", "file": "couplings.dat"}},
            "numerics": {
                "init_tree": 0,
                "initial_bond_dimension": chi_init,
                # zero-temperature selection draws nothing from this seed
                "opt_structure": {"type": 1, "seed": seed},
                "max_bond_dimensions": [chi],
                "max_num_sweeps": list(spec.sweep_limits),
            },
            "output": {"dir": "results", "single_site": obs, "two_site": obs},
        }
    elif spec.kind == "ft-tensor":
        np.save(directory / "tensor.npy", quantics_tensor(rng))
        config = {
            "target": {"tensor": "tensor.npy"},
            "numerics": {
                "initial_bond_dimension": 4,
                "opt_structure": {"type": 0},
                "entanglement_convergence_threshold": 1e-14,
                "fidelity": {
                    "opt_structure": {"type": 2},
                    "max_bond_dimensions": [4, 8, 16],
                    "max_num_sweeps": list(spec.sweep_limits),
                },
            },
            "output": {"dir": "results", "tensors": 1},
        }
    else:
        write_random_chain_bundle(directory / "bundle", rng)
        config = {
            "target": {"tensors": "bundle"},
            "numerics": {
                "initial_bond_dimension": BUNDLE_CHI,
                "opt_structure": {"type": 1},
                "max_sweep_num": spec.sweep_limits[0],
            },
            "output": {"dir": "results", "tensors": 0},
        }
    return config


# -- the timed workflow -----------------------------------------------------


class StepClock:
    """Observer stamping each completed sweep step."""

    def __init__(self):
        self.stamps: list[float] = []
        self.reconnects = 0

    def __call__(self, state, info) -> None:
        self.stamps.append(time.perf_counter())
        self.reconnects += info.choice.pairing != 0


@dataclass
class Rep:
    """One pass through a workflow: timings, quality numbers, and what the
    checks need."""

    setup_s: float
    solve_s: float
    wall_s: float
    clock: StepClock
    state: object
    final_report: object
    sweeps_run: int
    stages_converged: list[bool]
    mean_aux_entropy: float
    config_path: Path
    out_dir: Path
    energy_per_site: float | None = None
    infidelity: float | None = None
    extras: dict = field(default_factory=dict)

    def step_intervals_ms(self) -> list[float]:
        """Latency of every step but the first, which also covers set-up
        of the solver (initialization, the sequential SVD)."""
        return list(np.diff(self.clock.stamps) * 1e3)


def mean_aux_entropy(topology, report) -> float:
    vals = [report.entropies[b] for b in topology.auxiliary_bonds() if b in report.entropies]
    return float(np.mean(vals))


def _manifest(config_path: Path, out_dir: Path, n_stages: int):
    # pass only the fields RunManifest declares, so that dropping its unused
    # bookkeeping fields does not break the benchmark
    names = {f.name for f in dataclasses.fields(fileio.RunManifest)}
    values = {"command": "gss", "config_path": config_path, "out_dir": out_dir,
              "n_stages": n_stages}
    return fileio.RunManifest(**{k: v for k, v in values.items() if k in names})


def setup(spec: Spec, config_path: Path, tracer):
    """Read the input and build the model or target: everything before the
    first solver call."""
    if spec.kind == "gss":
        model, config, flags = fileio.parse_gss_config(config_path)
        flags.directory.mkdir(parents=True, exist_ok=True)
        return model, config, flags
    target_spec, config, flags = fileio.parse_ft_config(config_path)
    flags.directory.mkdir(parents=True, exist_ok=True)
    if spec.kind == "ft-tensor":
        with tracer.span("fileio.load"):
            raw = np.load(target_spec.path)
        return factorize.normalize_target(raw), config, flags
    return fileio.load_tensor_bundle(target_spec.path), config, flags


def run_once(spec: Spec, config_path: Path, tracer) -> Rep:
    clock = StepClock()
    t0 = time.perf_counter()
    subject, config, flags = setup(spec, config_path, tracer)
    t1 = time.perf_counter()
    extras: dict = {}
    if spec.kind == "gss":
        result = gss.run(subject, config, observers=[clock],
                         want_observables=flags.single_site or flags.two_site)
        t2 = time.perf_counter()
        manifest = _manifest(config_path, flags.directory, len(result.stages))
        fileio.write_gss_outputs(manifest, result.state, result.stages, flags)
        state, report = result.state, result.stages[-1].final_report
        stage_lengths = [len(s.reports) for s in result.stages]
        converged = [s.converged for s in result.stages]
        extras.update(model=subject, result=result)
        quality = {"energy_per_site": result.energy / subject.n_sites}
    elif spec.kind == "ft-tensor":
        target = subject
        state = factorize.sequential_svd_to_mpn(target, config.chi_init, config.sigma,
                                                config.delta_s)
        state, stage_reports = factorize.fidelity_sweep_run(target, state, config,
                                                            observers=[clock])
        fid = factorize.fidelity(target, state)
        t2 = time.perf_counter()
        report = stage_reports[-1][-1]
        fileio.write_ft_outputs(flags.directory, state, report, flags, True)
        stage_lengths = [len(r) for r in stage_reports]
        converged = [n < limit for n, limit in zip(stage_lengths, spec.sweep_limits)]
        extras.update(target=target, fidelity=fid)
        quality = {"infidelity": 1.0 - fid}
    else:
        state = subject
        config.chi_init = state.max_bond_dimension()
        state, reports = factorize.reconstruct_sweep(state, config, observers=[clock])
        t2 = time.perf_counter()
        report = reports[-1]
        fileio.write_ft_outputs(flags.directory, state, report, flags, False)
        stage_lengths = [len(reports)]
        converged = [len(reports) < spec.sweep_limits[0]]
        quality = {}
    t3 = time.perf_counter()
    return Rep(
        setup_s=t1 - t0,
        solve_s=t2 - t1,
        wall_s=t3 - t0,
        clock=clock,
        state=state,
        final_report=report,
        sweeps_run=sum(stage_lengths),
        stages_converged=converged,
        mean_aux_entropy=mean_aux_entropy(state.topology, report),
        config_path=config_path,
        out_dir=flags.directory,
        extras=extras,
        **quality,
    )


def _nbytes(obj) -> int:
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, dict):
        return sum(_nbytes(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(_nbytes(v) for v in obj)
    if dataclasses.is_dataclass(obj):
        return sum(_nbytes(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    return 0


def cache_bytes(rep: Rep) -> int:
    """Bytes of every array the renormalized-operator cache holds at the end
    of a gss run, whatever its layout."""
    result = rep.extras.get("result")
    return _nbytes(result.cache) if result is not None else 0


def bytes_written(rep: Rep) -> int:
    return sum(p.stat().st_size for p in rep.out_dir.rglob("*") if p.is_file())


# -- correctness checks ------------------------------------------------------


def leaf_partitions(topology) -> set[frozenset]:
    """The smaller site set of each auxiliary-bond bipartition."""
    full = frozenset(range(topology.n_sites))
    parts = set()
    for b in topology.auxiliary_bonds():
        side = frozenset(subtree_sites(topology, b, topology.tensors_of_bond(b)[0]))
        parts.add(min(side, full - side, key=lambda s: (len(s), sorted(s))))
    return parts


def variables_grouped(topology) -> int:
    """How many quantics variables have their bit legs in one subtree.

    Measured rather than checked: the staged run groups all three variables
    for some wave-vector seeds and not for others.
    """
    parts = leaf_partitions(topology)
    return sum(frozenset(range(QUANTICS_BITS * v, QUANTICS_BITS * (v + 1))) in parts
               for v in range(QUANTICS_VARS))


def _audits(state) -> None:
    audit_topology(state.topology)
    audit_state(state)


def checks(spec: Spec, reps: list[Rep]):
    """Yield (name, predicate) pairs for the passes over each input; the
    caller runs and counts them."""
    by_input: dict[Path, list[Rep]] = {}
    for rep in reps:
        by_input.setdefault(rep.config_path, []).append(rep)
    for k, group in enumerate(by_input.values()):
        tag = f" (input {k})" if spec.inputs > 1 else ""
        for name, predicate in _checks(spec, group):
            yield name + tag, predicate


def _checks(spec: Spec, reps: list[Rep]):
    last = reps[-1]
    config_path = last.config_path
    signature = [(r.sweeps_run, r.energy_per_site, r.infidelity, r.mean_aux_entropy,
                  r.state.topology.snapshot()) for r in reps]
    yield "repeats are identical", lambda: all(s == signature[0] for s in signature)
    if spec.kind == "gss":
        result = last.extras["result"]
        if spec.name == "gss-h16":
            model = last.extras["model"]

            def energy_matches_ed():
                exact = ed_oracle(model, n_states=1).energy
                return abs(1.0 - result.energy / exact) < 1e-6

            yield "energy within 1e-6 of exact diagonalization", energy_matches_ed
            yield "perfect-binary-tree partitions recovered", lambda: (
                leaf_partitions(last.state.topology) == leaf_partitions(build_pbt(16)))
            obs = result.observables
            yield "observables cover all sites and pairs", lambda: (
                sorted(obs.single) == list(range(16))
                and sorted(obs.pairs) == [(i, j) for i in range(16) for j in range(i + 1, 16)])
        else:
            yield "final state passes the audits", lambda: _audits(last.state) is None
            yield "energy not above the initial energy", lambda: (
                result.energy <= result.initial_energy)
    elif spec.kind == "ft-tensor":
        target = last.extras["target"]
        fid = last.extras["fidelity"]
        origin = last.state.topology.origin
        yield "sweep fidelity matches fidelity()", lambda: (
            abs(last.final_report.fidelities[origin] - fid) < 1e-10)
        yield "fidelity matches the dense overlap", lambda: (
            abs(abs(np.vdot(target.data, to_dense(last.state))) - fid) < 1e-10)

        def bundle_reloads():
            back = fileio.load_tensor_bundle(last.out_dir)
            return np.max(np.abs(to_dense(back) - to_dense(last.state))) < 1e-12

        yield "saved bundle reloads to the same tensor", bundle_reloads
    else:
        yield "final state passes the audits", lambda: _audits(last.state) is None

        def entropy_not_above_input():
            _, config, _ = fileio.parse_ft_config(config_path)
            state = fileio.load_tensor_bundle(config_path.parent / "bundle")
            frozen = dataclasses.replace(config, chi_init=state.max_bond_dimension(),
                                         opt_mode=0, n_max=1)
            state, reports = factorize.reconstruct_sweep(state, frozen)
            before = mean_aux_entropy(state.topology, reports[-1])
            return last.mean_aux_entropy <= before

        yield "mean auxiliary entropy not above the input's", entropy_not_above_input
