"""Spans and counters around the calls into each treetn layer.

Tracing works from the benchmark's side only: ``Tracer.install`` replaces
functions on the treetn modules, as bound in their callers, with wrappers
that record a span (name, start, end, parent) and any counters, and
``Tracer.uninstall`` puts the originals back. Nothing inside ``src/`` is
changed. Spans stay in memory until ``write_spans`` is called at exit.

A span's self time is its duration minus the time covered by its direct
children; a layer's self time is the sum over the spans of that layer.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import warnings
from contextlib import contextmanager
from pathlib import Path

# (module or class, attribute, span name). The module is the one through
# which the callers look the name up; a call made through another module's
# binding of the same function is not spanned.
TARGETS = (
    ("treetn.fileio", "parse_gss_config", "fileio.parse"),
    ("treetn.fileio", "parse_ft_config", "fileio.parse"),
    ("treetn.fileio", "load_tensor_bundle", "fileio.load"),
    ("treetn.fileio", "write_gss_outputs", "fileio.write"),
    ("treetn.fileio", "write_ft_outputs", "fileio.write"),
    ("treetn.fileio", "SpinModel", "spinmodel.build"),
    ("treetn.gss", "run", "gss.run"),
    ("treetn.gss", "initialize_ttn", "gss.init"),
    ("treetn.gss", "build_initial_topology", "topology"),
    ("treetn.gss", "set_distance", "topology"),
    ("treetn.gss", "full_eigh", "linalg.eigh"),
    ("treetn.gss", "lanczos_lowest", "linalg.lanczos"),
    ("treetn.gss", "decompose_tensor", "state.decompose"),
    ("treetn.gss", "refresh_bond", "operators.refresh"),
    ("treetn.gss", "build_superblock_plan", "operators.plan"),
    ("treetn.gss", "run_sweep", "sweeps.run_sweep"),
    ("treetn.gss.ObservableCollector", "on_step", "gss.observables"),
    ("treetn.gss.ObservableCollector", "finish", "gss.observables"),
    ("treetn.operators.SuperblockPlan", "apply", "operators.apply"),
    ("treetn.sweeps", "decompose_tensor", "state.decompose"),
    ("treetn.sweeps", "merge_moving", "state.merge"),
    ("treetn.sweeps", "merge_center", "state.merge"),
    ("treetn.sweeps", "site_ee", "state.site_ee"),
    ("treetn.sweeps", "set_distance", "topology"),
    ("treetn.sweeps", "candidate_edge_indices", "topology"),
    ("treetn.sweeps", "local_two_tensor", "topology"),
    ("treetn.state", "full_svd", "linalg.svd"),
    ("treetn.factorize", "full_svd", "linalg.svd"),
    ("treetn.factorize", "build_mpn", "topology"),
    ("treetn.factorize", "set_distance", "topology"),
    ("treetn.factorize", "merge_center", "state.merge"),
    ("treetn.factorize", "run_sweep", "sweeps.run_sweep"),
    ("treetn.factorize", "normalize_target", "factorize.normalize"),
    ("treetn.factorize", "sequential_svd_to_mpn", "factorize.seqsvd"),
    ("treetn.factorize", "reconstruct_sweep", "factorize.reconstruct"),
    ("treetn.factorize", "contract_with_conjugates", "factorize.env"),
    ("treetn.factorize", "fidelity", "factorize.fidelity"),
    ("treetn.factorize", "fidelity_sweep_run", "factorize.fidelity_sweeps"),
)

# called tens of thousands of times per run on gss-h256; counted, not spanned
COUNTED = (("treetn.operators", "renormalize_spin", "operators.renormalize_calls"),)

# layers whose spans have children, so that self time differs from the
# inclusive time; topology and spinmodel spans have none
SELF_TIMED = ("sweeps", "gss", "linalg", "operators", "state", "factorize", "fileio")


def layer_of(span_name: str) -> str:
    return span_name.split(".")[0]


def _resolve(path: str):
    """The module or class named by a dotted path."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(path)


class Tracer:
    """In-memory span recorder with per-call counters.

    When not installed, ``span`` is a no-op, so the workloads run the same
    code with tracing on or off.
    """

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.installed: list[tuple[object, str, object]] = []
        self.missing: list[str] = []  # targets the program no longer has

    # -- recording ---------------------------------------------------------

    def _enter(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        idx = len(self.spans) - 1
        self.stack.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def add(self, key: str, value: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    @contextmanager
    def span(self, name: str):
        if not self.installed:
            yield
            return
        idx = self._enter(name)
        try:
            yield
        finally:
            self._exit(idx)

    def reset(self) -> None:
        self.spans = []
        self.stack = []
        self.counts = {}

    # -- installation ------------------------------------------------------

    def _wrap(self, name: str, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            idx = tracer._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._exit(idx)
            if after is not None:
                after(args, kwargs, out)
            return out

        return wrapped

    def _wrap_sweep(self, fn):
        """Also span the prepare and update callables handed to run_sweep."""
        tracer = self

        @functools.wraps(fn)
        def run_sweep(state, selection, update_psi=None, prepare_step=None, observers=()):
            if update_psi is not None:
                update_psi = tracer._wrap("sweeps.update", update_psi)
            if prepare_step is not None:
                prepare_step = tracer._wrap("sweeps.prepare", prepare_step)
            return fn(state, selection, update_psi, prepare_step, observers)

        return self._wrap("sweeps.run_sweep", run_sweep)

    def _wrap_lanczos(self, fn):
        """Count Lanczos calls and residual warnings; re-emit the warnings."""
        tracer = self

        @functools.wraps(fn)
        def lanczos(*args, **kwargs):
            tracer.add("linalg.lanczos_calls")
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                out = fn(*args, **kwargs)
            for w in caught:
                if "Lanczos residual" in str(w.message):
                    tracer.add("linalg.lanczos_warnings")
                warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
            return out

        return self._wrap("linalg.lanczos", lanczos)

    def _after(self, name: str, attr: str):
        """Counters and computed sizes recorded after a traced call."""
        if attr == "set_distance":
            return lambda args, kwargs, out: self.add("topology.set_distance_calls")
        if name == "linalg.svd":
            def svd(args, kwargs, out):
                m, n = args[0].shape
                m, n = max(m, n), min(m, n)
                self.add("linalg.svd_calls")
                # Golub-Van Loan R-SVD count for singular values and vectors
                self.add("linalg.svd_flops", 6 * m * n * n + 20 * n**3)
            return svd
        if name == "operators.apply":
            def apply(args, kwargs, out):
                plan = args[0]
                self.add("linalg.matvecs")
                self.add("operators.apply_terms", len(plan.single) + 2 * len(plan.double))
            return apply
        if name == "factorize.env":
            def env(args, kwargs, out):
                self.add("factorize.env_calls")
                self.add("factorize.env_bytes", args[0].data.nbytes + out[0].nbytes)
            return env
        if name in ("operators.refresh", "state.decompose"):
            return lambda args, kwargs, out: self.add(name + "_calls")
        return None

    def install(self) -> None:
        if self.installed:
            raise RuntimeError("tracer already installed")
        for path, attr, name in TARGETS:
            try:
                owner = _resolve(path)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{path}.{attr}")
                continue
            if name == "sweeps.run_sweep":
                wrapper = self._wrap_sweep(original)
            elif name == "linalg.lanczos":
                wrapper = self._wrap_lanczos(original)
            else:
                wrapper = self._wrap(name, original, self._after(name, attr))
            self.installed.append((owner, attr, original))
            setattr(owner, attr, wrapper)
        for path, attr, key in COUNTED:
            try:
                owner = _resolve(path)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{path}.{attr}")
                continue

            def counted(*args, _fn=original, _key=key, **kwargs):
                self.add(_key)
                return _fn(*args, **kwargs)

            self.installed.append((owner, attr, original))
            setattr(owner, attr, functools.wraps(original)(counted))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.installed):
            setattr(owner, attr, original)
        self.installed = []

    # -- reduction ---------------------------------------------------------

    def span_table(self) -> dict[str, dict[str, float]]:
        """Calls, inclusive time and self time per span name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        table: dict[str, dict[str, float]] = {}
        for (name, start, end, _), covered in zip(self.spans, child_time):
            row = table.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["incl_s"] += end - start
            row["self_s"] += end - start - covered
        return table

    def write_spans(self, path: Path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")


def layer_metrics(table: dict[str, dict[str, float]], counts: dict[str, float]) -> dict:
    """Per-layer metrics of one traced repetition, before the workload adds
    what only it knows (steps, stages, cache size, bytes written)."""

    def incl(*names):
        return sum(table.get(n, {}).get("incl_s", 0.0) for n in names)

    def self_of(layer):
        return sum(r["self_s"] for n, r in table.items() if layer_of(n) == layer)

    applies = counts.get("linalg.matvecs", 0)
    out = {
        "sweeps.run_sweep_s": incl("sweeps.run_sweep"),
        "sweeps.prepare_s": incl("sweeps.prepare"),
        "sweeps.update_s": incl("sweeps.update"),
        "gss.init_s": incl("gss.init"),
        "gss.observables_s": incl("gss.observables"),
        "linalg.lanczos_s": incl("linalg.lanczos"),
        "linalg.lanczos_calls": counts.get("linalg.lanczos_calls", 0),
        "linalg.matvecs": applies,
        "linalg.lanczos_warnings": counts.get("linalg.lanczos_warnings", 0),
        "linalg.svd_s": incl("linalg.svd"),
        "linalg.svd_calls": counts.get("linalg.svd_calls", 0),
        "linalg.svd_flops": counts.get("linalg.svd_flops", 0),
        "linalg.eigh_s": incl("linalg.eigh"),
        "operators.apply_s": incl("operators.apply"),
        "operators.apply_terms": counts.get("operators.apply_terms", 0) / applies if applies else 0,
        "operators.plan_s": incl("operators.plan"),
        "operators.refresh_s": incl("operators.refresh"),
        "operators.refresh_calls": counts.get("operators.refresh_calls", 0),
        "operators.renormalize_calls": counts.get("operators.renormalize_calls", 0),
        "state.decompose_s": incl("state.decompose"),
        "state.decompose_calls": counts.get("state.decompose_calls", 0),
        "state.merge_s": incl("state.merge"),
        "state.site_ee_s": incl("state.site_ee"),
        "topology.s": incl("topology"),
        "topology.set_distance_calls": counts.get("topology.set_distance_calls", 0),
        "factorize.env_s": incl("factorize.env"),
        "factorize.env_calls": counts.get("factorize.env_calls", 0),
        "factorize.env_bytes": counts.get("factorize.env_bytes", 0),
        "factorize.seqsvd_s": incl("factorize.seqsvd"),
        "factorize.fidelity_s": incl("factorize.fidelity"),
        "fileio.parse_s": incl("fileio.parse"),
        "fileio.load_s": incl("fileio.load"),
        "fileio.write_s": incl("fileio.write"),
        "spinmodel.build_s": incl("spinmodel.build"),
    }
    for layer in SELF_TIMED:
        out[f"{layer}.self_s"] = self_of(layer)
    return out
