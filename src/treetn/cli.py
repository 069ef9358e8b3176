"""Command-line entry points: gss, ft, and bench."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import yaml

from . import benchmarks
from .errors import LoadError, TreetnError
from .factorize import (
    fidelity,
    fidelity_sweep_run,
    normalize_target,
    reconstruct_sweep,
    sequential_svd_to_mpn,
)
from .fileio import (
    RunManifest,
    load_array,
    load_tensor_bundle,
    parse_ft_config,
    parse_gss_config,
    write_ft_outputs,
    write_gss_outputs,
)
from .gss import run as gss_run
from .state import audit_state
from .topology import audit_topology


def _run_command(prog: str, description: str, argv, body) -> int:
    """Parse a command's YAML input path and ``--verify``, then run
    ``body(config_path)``, which returns the final state; ``--verify``
    audits it. A failed run prints one error line and returns 1."""
    parser = argparse.ArgumentParser(prog=prog, description=description)
    parser.add_argument("config", type=str, help="path to the YAML input file")
    parser.add_argument(
        "--verify", action="store_true", help="run the invariant audit after the run"
    )
    args = parser.parse_args(argv)
    try:
        state = body(args.config)
        if args.verify:
            audit_topology(state.topology)
            audit_state(state)
            print("invariant audit passed")
    except (TreetnError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def gss_main(argv=None) -> int:
    return _run_command("gss", "Variational ground-state search", argv, _gss)


def _gss(config_path):
    model, config, flags = parse_gss_config(config_path)
    flags.directory.mkdir(parents=True, exist_ok=True)
    result = gss_run(model, config, want_observables=flags.single_site or flags.two_site)
    write_gss_outputs(
        RunManifest(out_dir=flags.directory), result.state, result.stages, flags
    )
    for m, (stage, res) in enumerate(zip(config.stages, result.stages), 1):
        # the sweeps that ran: a converged stage measures in its closing
        # sweep, and needs an observable sweep only if that one reconnected
        end = (f"converged after {len(res.reports)} sweeps" if res.converged
               else f"hit the sweep limit {stage.n_max}")
        print(f"stage {m} (chi {stage.chi}): {end}")
    print(f"energy: {result.energy:.12e}")
    return result.state


def ft_main(argv=None) -> int:
    return _run_command("ft", "Tensor factorization / network reconstruction", argv, _ft)


def _ft(config_path):
    target_spec, config, flags = parse_ft_config(config_path)
    flags.directory.mkdir(parents=True, exist_ok=True)
    if target_spec.kind == "tensor":
        target = normalize_target(load_array(target_spec.path))
        state = sequential_svd_to_mpn(target, config.chi_init, config.sigma, config.delta_s)
        reports = []
        if config.opt_mode in (1, 2):
            state, reports = reconstruct_sweep(state, config)
        if config.fidelity:
            state, stage_reports = fidelity_sweep_run(target, state, config)
            reports = [r for stage in stage_reports for r in stage]
        if not reports:
            # fixed-structure networks still need one report for outputs
            frozen = replace(config, opt_mode=0, n_max=1, fidelity=[])
            state, reports = reconstruct_sweep(state, frozen)
        print(f"fidelity: {fidelity(target, state):.12e}")
    else:
        if config.fidelity:
            raise LoadError(
                "numerics.fidelity needs a dense target (target.tensor); "
                "network reconstruction takes no fidelity sweeps"
            )
        state = load_tensor_bundle(target_spec.path)
        if config.opt_mode not in (1, 2):
            raise LoadError(
                "network reconstruction requires opt_structure.type 1 or 2"
            )
        state, reports = reconstruct_sweep(state, config)
    # a network reconstruction has refused a fidelity block above
    write_ft_outputs(flags.directory, state, reports[-1], flags, bool(config.fidelity))
    return state


def bench_main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench", description="Emit benchmark inputs into a workspace directory"
    )
    sub = parser.add_subparsers(dest="which", required=True)

    p_h = sub.add_parser("hierarchical", help="layered-coupling spin chain")
    p_h.add_argument("--out", type=str, required=True)
    p_h.add_argument("--depth", type=int, default=4)
    p_h.add_argument("--alpha", type=float, default=0.5)
    p_h.add_argument("--coupling", type=float, default=1.0)
    p_h.add_argument("--chi", type=int, default=16)
    p_h.add_argument("--sweeps", type=int, default=30)

    p_q = sub.add_parser("quantics", help="three-variable cosine-sum tensor")
    p_q.add_argument("--out", type=str, required=True)
    p_q.add_argument("--bits", type=int, default=6)
    p_q.add_argument("--waves", type=int, default=30)
    p_q.add_argument("--seed", type=int, default=0)
    p_q.add_argument("--chi", type=int, default=4)

    p_n = sub.add_parser("normal", help="tree-correlated normal density tensor")
    p_n.add_argument("--out", type=str, required=True)
    p_n.add_argument("--vars", type=int, default=4)
    p_n.add_argument("--bits", type=int, default=3)
    p_n.add_argument("--rho", type=float, default=0.2)
    p_n.add_argument("--chi", type=int, default=16)

    args = parser.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        if args.which == "hierarchical":
            _emit_hierarchical(out, args)
        elif args.which == "quantics":
            _emit_quantics(out, args)
        else:
            _emit_normal(out, args)
    except (TreetnError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"benchmark inputs written to {out}")
    return 0


def _emit_hierarchical(out: Path, args) -> None:
    rows = benchmarks.gen_hierarchical_chain(args.depth, args.coupling, args.alpha)
    lines = [f"{i} {j} {c} {d}" for i, j, c, d in rows]
    (out / "couplings.dat").write_text("\n".join(lines) + "\n")
    config = {
        "system": {
            "N": 2**args.depth,
            "spin_size": "1/2",
            "model": {"type": "XXZ", "file": "couplings.dat"},
        },
        "numerics": {
            "init_tree": 0,
            "initial_bond_dimension": min(args.chi, 4),
            "opt_structure": {"type": 1},
            "max_bond_dimensions": [args.chi],
            "max_num_sweeps": [args.sweeps],
        },
        "output": {"dir": "results", "single_site": 0, "two_site": 0},
    }
    (out / "input.yml").write_text(yaml.safe_dump(config, sort_keys=False))


def _emit_quantics(out: Path, args) -> None:
    tensor = benchmarks.gen_quantics_function(args.waves, args.bits, seed=args.seed)
    np.save(out / "tensor.npy", tensor)
    config = {
        "target": {"tensor": "tensor.npy"},
        "numerics": {
            "initial_bond_dimension": args.chi,
            "opt_structure": {"type": 0},
            "max_sweep_num": 10,
            "fidelity": {
                "opt_structure": {"type": 1},
                "max_bond_dimensions": [args.chi, 2 * args.chi, 4 * args.chi],
                "max_num_sweeps": [10, 10, 10],
                "convergence_threshold": 1e-10,
            },
        },
        "output": {"dir": "results", "tensors": 1},
    }
    (out / "input.yml").write_text(yaml.safe_dump(config, sort_keys=False))


def _emit_normal(out: Path, args) -> None:
    edges = benchmarks.balanced_tree_edges(args.vars)
    tensor = benchmarks.gen_multivariate_normal(args.vars, args.bits, args.rho, edges)
    np.save(out / "tensor.npy", tensor)
    config = {
        "target": {"tensor": "tensor.npy"},
        "numerics": {
            "initial_bond_dimension": args.chi,
            "opt_structure": {"type": 1},
            "max_sweep_num": 20,
        },
        "output": {"dir": "results", "tensors": 0},
    }
    (out / "input.yml").write_text(yaml.safe_dump(config, sort_keys=False))


if __name__ == "__main__":
    sys.exit(gss_main())
