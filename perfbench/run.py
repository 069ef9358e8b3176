"""Run one treetn benchmark workload and print its metrics.

    python3 perfbench/run.py --workload gss-h16 --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. The run writes its seeded inputs, sets up several times, then
repeats the whole workflow for ``--seconds`` and reports medians. With
``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run. Correctness checks run after the timed passes. The last line of
standard output is one JSON object; the lines above it, and a record under
``perfbench/_work/``, give the metrics with units, the checks, the seed and
the environment.
"""

from __future__ import annotations

import argparse
import ctypes
import ctypes.util
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BLAS_THREADS = 1  # small matrices; one thread keeps runs repeatable
# glibc's allocator returns large freed blocks to the system and raises its
# thresholds only as the process runs, so passes differed by up to a million
# page faults (and 40% in wall time) depending on how far that had got. Start
# every run at the thresholds a long-running process ends up with instead.
MMAP_THRESHOLD = 32 << 20  # the largest value glibc accepts on 64-bit
TRIM_THRESHOLD = 1 << 30


def _pin_environment() -> str:
    """Pin BLAS threads and the allocator thresholds before numpy loads;
    return a description of the allocator setting."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    libc = ctypes.CDLL(ctypes.util.find_library("c"))
    mallopt = getattr(libc, "mallopt", None)
    # M_TRIM_THRESHOLD = -1, M_MMAP_THRESHOLD = -3
    if mallopt and mallopt(-3, MMAP_THRESHOLD) and mallopt(-1, TRIM_THRESHOLD):
        return f"glibc mmap_threshold={MMAP_THRESHOLD} trim_threshold={TRIM_THRESHOLD}"
    return "default"


HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
SETUP_REPEATS = 10  # before and again after the timed passes


def _import_program():
    """Import treetn from this checkout's sources, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "treetn" / "__init__.py").is_file():
        raise SystemExit(f"error: no treetn sources under {src}; run from a checkout")
    sys.path.insert(0, str(src))
    import treetn

    if Path(treetn.__file__).resolve().parent != (src / "treetn").resolve():
        raise SystemExit(f"error: imported treetn from {treetn.__file__}, not {src}")


def environment(allocator: str) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas_threads": BLAS_THREADS,
        "allocator": allocator,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def calibration_s() -> float:
    """Median time of a fixed dense kernel (SVD plus matmul, seeded 256x256),
    to tell drift in machine speed apart from a change in the program."""
    import numpy as np

    a = np.random.Generator(np.random.Philox(0)).standard_normal((256, 256))
    times = []
    for _ in range(7):
        t = time.perf_counter()
        np.linalg.svd(a)
        a @ a
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def percentile(values, q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(reps, setup_times, peak_rss_mb) -> dict:
    steps = [x for r in reps for x in r.step_intervals_ms()]
    return {
        "wall_s": statistics.median(r.wall_s for r in reps),
        "setup_s": statistics.median(setup_times),
        "steps_per_s": statistics.median(len(r.clock.stamps) / r.solve_s for r in reps),
        "step_ms_p50": percentile(steps, 50),
        "step_ms_p90": percentile(steps, 90),
        "peak_rss_mb": peak_rss_mb,
        "sweeps_run": statistics.median(r.sweeps_run for r in reps),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    allocator = _pin_environment()
    _import_program()
    import workloads
    from tracing import Tracer, layer_metrics

    spec = workloads.WORKLOADS.get(args.workload)
    if spec is None:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    env = environment(allocator)
    calibration = calibration_s()
    workdir = WORK / f"{spec.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    config_paths = workloads.make_inputs(spec, args.seed, workdir)

    def run_pass(index):
        return workloads.run_once(spec, config_paths[index % len(config_paths)], tracer)

    tracer = Tracer()
    setup_times = []

    def time_setups():
        for i in range(SETUP_REPEATS):
            t = time.perf_counter()
            workloads.setup(spec, config_paths[i % len(config_paths)], tracer)
            setup_times.append(time.perf_counter() - t)

    time_setups()
    # peak RSS of the first pass, before later passes can add fragmentation
    start = time.perf_counter()
    first = run_pass(0)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    reps, layer_rows = [first], []
    if args.trace:  # the first pass is the untraced reference; start over
        reps = []
        tracer.install()
        start = time.perf_counter()
    try:
        # start another pass only if a typical one still ends inside --seconds
        while not reps or (time.perf_counter() - start + statistics.median(
                r.wall_s for r in [first, *reps]) <= args.seconds):
            tracer.reset()
            rep = run_pass(len(reps))
            reps.append(rep)
            if args.trace:
                row = layer_metrics(tracer.span_table(), tracer.counts)
                row.update({
                    "sweeps.steps": len(rep.clock.stamps),
                    "sweeps.converged_frac": (sum(rep.stages_converged)
                                              / len(rep.stages_converged)),
                    "state.reconnect_frac": rep.clock.reconnects / len(rep.clock.stamps),
                    "state.mean_aux_entropy": rep.mean_aux_entropy,
                    "operators.cache_bytes": workloads.cache_bytes(rep),
                    "fileio.bytes_written": workloads.bytes_written(rep),
                    "trace.wall_s": rep.wall_s,
                })
                layer_rows.append(row)
    finally:
        tracer.uninstall()
    # set up again after the passes, so that the median spans the run
    time_setups()
    setup_times += [r.setup_s for r in reps]

    results = []
    checked = [first, *reps] if args.trace else reps
    for name, predicate in workloads.checks(spec, checked):
        try:
            ok, detail = bool(predicate()), ""
        except Exception as exc:  # a failed check is counted, not fatal
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        results.append({"check": name, "ok": ok, "detail": detail})
    failed = sum(not r["ok"] for r in results)

    # quality numbers of the last pass over each input, in input order
    lasts = list({r.config_path: r for r in reps}.values())
    quality = {
        "energy_per_site": [r.energy_per_site for r in lasts],
        "infidelity": [r.infidelity for r in lasts],
        "mean_aux_entropy": [r.mean_aux_entropy for r in lasts],
        "sweeps_run": [r.sweeps_run for r in lasts],
        "stages_converged": [r.stages_converged for r in lasts],
        "variables_grouped": [workloads.variables_grouped(r.state.topology)
                              for r in lasts] if spec.kind == "ft-tensor" else None,
        "check_fail_frac": failed / len(results),
    }
    if args.trace:
        metrics = {k: statistics.median(row[k] for row in layer_rows) for k in layer_rows[0]}
        # the first traced pass ran the same input as the untraced one
        metrics["trace.overhead_frac"] = reps[0].wall_s / first.wall_s - 1.0
        tracer.write_spans(workdir / "spans.jsonl")
    else:
        metrics = end_to_end(reps, setup_times, peak_rss_mb)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = bench["per_layer" if args.trace else "end_to_end"]

    record = {
        "workload": spec.name, "why": spec.why, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "timed_reps": len(reps),
        "pass_wall_s": [r.wall_s for r in reps],
        "step_samples": sum(len(r.clock.stamps) - 1 for r in reps),
        "calibration_s": calibration, "environment": env, "quality": quality,
        "checks": results,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }
    if args.trace:
        record["span_table"] = tracer.span_table()
        record["missing_wrap_targets"] = tracer.missing
    (workdir / "record.json").write_text(json.dumps(record, indent=1, default=str))

    print(f"workload {spec.name} (seed {args.seed}, trace {args.trace}): {spec.why}")
    print(f"environment {json.dumps(env)}; calibration {calibration * 1e3:.2f} ms")
    print(f"timed passes {len(reps)}; step samples {record['step_samples']}")
    for k, v in quality.items():
        if v is not None and v != [None] * len(lasts):
            print(f"  {k} = {v}")
    for r in results:
        print(f"  check {'PASS' if r['ok'] else 'FAIL'}: {r['check']} {r['detail']}")
    for k, v in record["metrics"].items():
        print(f"  {k} = {v['value']:.6g} {v['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
