"""Configuration parsing and output artifacts.

Configs are YAML with ``system``/``numerics``/``output`` sections for the
ground-state search and ``target``/``numerics``/``output`` for the
factorization command. Data tables arrive as whitespace-separated ``.dat``
files. Outputs: ``basic.csv`` (per-bond quantities), ``graph.dat`` (the
bond-label triples), optional ``single_site.csv`` / ``two_site.csv``, and an
optional tensor bundle (``isometry{i}.npy``, ``singular_values.npy``,
``norm.npy``).
"""

from __future__ import annotations

import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np
import yaml

from .errors import ConfigError, InvariantViolation, LoadError
from .factorize import FactorizeConfig
from .gss import CORRELATION_ORDER, GssConfig, Observables, StageResult
from .spinmodel import SpinModel, parse_spin_size
from .state import TTNState, audit_state
from .sweeps import Stage, SweepReport, schedule
from .topology import Topology, audit_topology

__all__ = [
    "OutputFlags",
    "RunManifest",
    "TargetSpec",
    "parse_gss_config",
    "parse_ft_config",
    "write_gss_outputs",
    "write_ft_outputs",
    "save_tensor_bundle",
    "load_tensor_bundle",
    "load_array",
]

GSS_DEFAULT_THRESHOLD = 1e-8
_REQUIRED = object()  # default of a config key that must be present

# YAML keys of the settings-record fields, relative to the section read: gss
# ``numerics`` and a ``fidelity`` block share SCHEDULE_KEYS, and ft
# ``numerics`` holds the one reconstruction stage; None stands for a rule on
# a whole schedule
SCHEDULE_KEYS = {
    "chi": "max_bond_dimensions", "n_max": "max_num_sweeps",
    None: "max_bond_dimensions/max_num_sweeps",
    "mode": "opt_structure.type", "t0": "opt_structure.temperature",
    "n_tau": "opt_structure.tau", "chi_init": "initial_bond_dimension",
    "eps_e": "energy_convergence_threshold", "eps_s": "entanglement_convergence_threshold",
    "delta_e": "energy_degeneracy_threshold", "delta_s": "entanglement_degeneracy_threshold",
}
FT_KEYS = {
    "chi": "initial_bond_dimension", "n_max": "max_sweep_num",
    "mode": "opt_structure.type", "t0": "opt_structure.temperature",
    "n_tau": "opt_structure.tau", "sigma": "max_truncated_singularvalue",
    "eps_s": "entanglement_convergence_threshold", "delta_s": "entanglement_degeneracy_threshold",
    "eps_f": "fidelity.convergence_threshold",
}


@dataclass
class OutputFlags:
    directory: Path
    single_site: bool = False
    two_site: bool = False
    tensors: bool = False


@dataclass
class RunManifest:
    out_dir: Path

    def stage_dir(self, m: int) -> Path:
        return self.out_dir / f"run{m}"


@dataclass
class TargetSpec:
    kind: str  # "tensor" or "ttn"
    path: Path


class _Section:
    """One mapping of a YAML config, read key by key. Each read types its
    value and names the key's full path in any ``LoadError``; ``close()``
    warns about every key that no read asked for."""

    def __init__(self, data, name: str, where: str | None = None):
        self.data, self.name, self.where, self.asked = data, name, where or name, set()
        if not isinstance(data, dict):
            raise LoadError(f"{self.where} must be a mapping, got {data!r}")

    def __contains__(self, key) -> bool:
        return key in self.data

    def path(self, key: str) -> str:
        return f"{self.name}.{key}" if self.name else key

    def get(self, key: str, default=_REQUIRED):
        """The raw value under ``key``, or ``default`` when it is absent."""
        self.asked.add(key)
        if key in self.data:
            return self.data[key]
        if default is _REQUIRED:
            raise LoadError(f"missing required key {self.path(key)}")
        return default

    def section(self, key: str, required: bool = False) -> _Section:
        """The mapping under ``key``; an optional one that is absent or blank
        reads as empty."""
        value = self.get(key, _REQUIRED if required else None)
        return _Section({} if value is None else value, self.path(key))

    def scalar(self, key: str, kind, default=_REQUIRED):
        """The value under ``key`` read as ``kind``, or ``default`` when it is
        absent."""
        value = self.get(key, default)
        if key not in self.data:
            return value
        try:
            return kind(value)
        except (TypeError, ValueError):
            what = "an integer" if kind is int else "a number"
            raise LoadError(f"{self.path(key)} must be {what}, got {value!r}") from None

    def ints(self, key: str) -> list[int]:
        """The required list of integers under ``key``."""
        value = self.get(key)
        if not isinstance(value, list):
            raise LoadError(f"{self.path(key)} must be a list of integers, got {value!r}")
        try:
            return [int(v) for v in value]
        except (TypeError, ValueError) as exc:
            raise LoadError(f"{self.path(key)}: {exc}") from exc

    def close(self) -> None:
        for key in self.data:
            if key not in self.asked:
                warnings.warn(f"unknown key {key!r} in {self.where}", stacklevel=2)


@contextmanager
def _keyed(where: str, keys: dict):
    """Turn a settings record's ``ConfigError`` into a ``LoadError`` naming
    the YAML key ``keys`` gives its field, in the section ``where``."""
    try:
        yield
    except ConfigError as exc:
        sep = ": " if exc.field is None else " "
        raise LoadError(f"{where}.{keys[exc.field]}{sep}{exc.problem}") from exc


def _load_yaml(path: Path) -> _Section:
    try:
        with open(path) as fh:
            data = yaml.safe_load(fh)
    except OSError as exc:
        raise LoadError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise LoadError(f"malformed YAML in {path}: {exc}") from exc
    return _Section(data, "", f"config {path}")


def _read_rows(path: Path, n_cols: int, kinds, what: str, n_sites: int | None = None):
    """The rows of a whitespace-separated table. With ``n_sites``, the first
    column is a site in ``0..n_sites-1`` that no other row names."""
    rows, sites = [], set()
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        raise LoadError(f"cannot read {what} file {path}: {exc}") from exc
    for ln, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != n_cols:
            raise LoadError(
                f"{what} {path}:{ln}: expected {n_cols} columns, got {len(parts)}"
            )
        try:
            row = tuple(kind(p) for kind, p in zip(kinds, parts))
        except (ValueError, LoadError) as exc:
            raise LoadError(f"{what} {path}:{ln}: {exc}") from exc
        if n_sites is not None and (row[0] in sites or not 0 <= row[0] < n_sites):
            problem = "is given twice" if row[0] in sites else f"lies outside 0..{n_sites - 1}"
            raise LoadError(f"{what} {path}:{ln}: site {row[0]} {problem}")
        sites.add(row[0])
        rows.append(row)
    return rows


def _names_file(value) -> bool:
    """Whether a site-table value is a file name: a string but no fraction."""
    if not isinstance(value, str):
        return False
    try:
        Fraction(value)
    except (ValueError, ZeroDivisionError):
        return True
    return False


def _site_table(section: _Section, key: str, n: int, base: Path, kind=float) -> dict:
    """Per-site values under ``key``: one value for every site, or a
    two-column ``site value`` file named relative to ``base`` whose rows each
    name a different site in ``0..n-1``. A string names the file unless it
    reads as a fraction."""
    if not _names_file(section.get(key)):
        return dict.fromkeys(range(n), section.scalar(key, kind))
    return dict(_read_rows(base / section.get(key), 2, (int, kind), section.path(key), n))


def _opt_structure(parent: _Section) -> dict:
    """The ``Stage`` selection fields and the seed of the ``opt_structure``
    block of ``parent``."""
    opt = parent.section("opt_structure")
    fields = {
        "mode": opt.scalar("type", int, 0),
        "t0": opt.scalar("temperature", float, 0.0),
        "n_tau": opt.scalar("tau", int, None),
        "seed": opt.scalar("seed", int, 0),
    }
    opt.close()
    return fields


def _schedule(section: _Section) -> tuple[list[Stage], int]:
    """The stages of a schedule section (gss ``numerics`` or ``fidelity``)
    and the seed of its ``opt_structure`` block."""
    opt = _opt_structure(section)
    chis, limits = section.ints("max_bond_dimensions"), section.ints("max_num_sweeps")
    with _keyed(section.name, SCHEDULE_KEYS):
        stages = schedule(chis, limits, opt["mode"], opt["t0"], opt["n_tau"])
    return stages, opt["seed"]


def parse_gss_config(path) -> tuple[SpinModel, GssConfig, OutputFlags]:
    """Load a ground-state-search configuration and its model tables."""
    path = Path(path)
    base = path.parent
    root = _load_yaml(path)
    system = root.section("system", required=True)
    numerics = root.section("numerics", required=True)
    output = root.section("output")
    root.close()
    if "total_magnetization" in system or "total_magnetization" in numerics:
        raise LoadError(
            "magnetization-sector targeting is not supported by this package"
        )

    n = system.scalar("N", int)
    if n < 4:
        raise LoadError(f"system.N must be at least 4, got {n}")
    spins = _site_table(system, "spin_size", n, base, parse_spin_size)
    if len(spins) < n:
        missing = sorted(set(range(n)) - spins.keys())
        raise LoadError(f"system.spin_size: spin sizes missing for sites {missing}")
    model_sec = system.section("model", required=True)
    exchange_type = str(model_sec.get("type")).upper()
    n_cols = 4 if exchange_type == "XXZ" else 5
    exchange_rows = _read_rows(base / str(model_sec.get("file")), n_cols,
                               (int, int) + (float,) * (n_cols - 2), "exchange couplings")
    model_sec.close()

    field_tables = {}
    for axis in "xyz":
        key = f"MF_{axis.upper()}"
        if key in system:
            field_tables[axis] = _site_table(system, key, n, base)
    sia = _site_table(system, "SIA", n, base) if "SIA" in system else {}
    dm_tables = {}
    sod_tables = {}
    for axis in "xyz":
        key = f"DM_{axis.upper()}"
        if key in system:
            dm_tables[axis] = _read_rows(base / str(system.get(key)), 3, (int, int, float), key)
        key = f"SOD_{axis.upper()}"
        if key in system:
            sod_tables[axis] = _read_rows(base / str(system.get(key)), 3, (int, int, float), key)
    system.close()

    model = SpinModel(
        n_sites=n,
        spin_sizes=[spins[i] for i in range(n)],
        exchange_type=exchange_type,
        exchange_rows=exchange_rows,
        field_tables=field_tables,
        sia_table=sia,
        dm_tables=dm_tables,
        sod_tables=sod_tables,
    )

    stages, seed = _schedule(numerics)
    init_tree = numerics.scalar("init_tree", int, 0)
    if init_tree not in (0, 1):
        raise LoadError(f"numerics.init_tree must be 0 or 1, got {init_tree}")
    thresholds = {
        name: numerics.scalar(SCHEDULE_KEYS[name], float, GSS_DEFAULT_THRESHOLD)
        for name in ("eps_e", "eps_s", "delta_e", "delta_s")
    }
    with _keyed("numerics", SCHEDULE_KEYS):
        config = GssConfig(
            chi_init=numerics.scalar("initial_bond_dimension", int),
            stages=stages,
            init_tree="pbt" if init_tree == 1 else "mpn",
            seed=seed,
            **thresholds,
        )
    numerics.close()

    flags = OutputFlags(
        directory=base / str(output.get("dir", "output")),
        single_site=bool(output.scalar("single_site", int, 0)),
        two_site=bool(output.scalar("two_site", int, 0)),
    )
    output.close()
    return model, config, flags


def parse_ft_config(path) -> tuple[TargetSpec, FactorizeConfig, OutputFlags]:
    """Load a factorization / reconstruction configuration."""
    path = Path(path)
    base = path.parent
    root = _load_yaml(path)
    target_sec = root.section("target", required=True)
    numerics = root.section("numerics", required=True)
    output = root.section("output")
    root.close()

    if ("tensor" in target_sec) == ("tensors" in target_sec):
        raise LoadError("specify exactly one of target.tensor and target.tensors")
    kind, key = ("tensor", "tensor") if "tensor" in target_sec else ("ttn", "tensors")
    target = TargetSpec(kind=kind, path=base / str(target_sec.get(key)))
    target_sec.close()

    opt = _opt_structure(numerics)
    fid = numerics.section("fidelity")
    fid_stages, fid_seed = _schedule(fid) if fid.data else ([], 0)
    with _keyed("numerics", FT_KEYS):
        config = FactorizeConfig(
            chi_init=numerics.scalar("initial_bond_dimension", int),
            opt_mode=opt["mode"],
            t0=opt["t0"],
            n_tau=opt["n_tau"],
            seed=opt["seed"],
            n_max=numerics.scalar("max_sweep_num", int, 10),
            eps_s=numerics.scalar("entanglement_convergence_threshold", float,
                                  GSS_DEFAULT_THRESHOLD),
            sigma=numerics.scalar("max_truncated_singularvalue", float, 0.0),
            delta_s=numerics.scalar("entanglement_degeneracy_threshold", float,
                                    GSS_DEFAULT_THRESHOLD),
            fidelity=fid_stages,
            fidelity_seed=fid_seed,
            eps_f=fid.scalar("convergence_threshold", float, 1e-10),
        )
    fid.close()
    numerics.close()

    flags = OutputFlags(
        directory=base / str(output.get("dir", "output")),
        tensors=bool(output.scalar("tensors", int, 0)),
    )
    output.close()
    return target, config, flags


def _bond_nodes(topology: Topology, bond: int) -> tuple[int, int]:
    owners = [topology.n_sites + t for t in topology.tensors_of_bond(bond)]
    if topology.is_physical(bond):
        return bond, owners[0]
    return min(owners), max(owners)


def _fmt(x: float | None) -> str:
    return "" if x is None else f"{x:.12e}"


def write_basic_csv(
    path: Path,
    topology: Topology,
    report: SweepReport,
    with_energy: bool,
    with_fidelity: bool,
) -> None:
    header = ["node1", "node2", "entanglement_entropy"]
    if with_energy:
        header.append("energy")
    header.append("truncation_error")
    if with_fidelity:
        header.append("fidelity")
    lines = [",".join(header)]
    for bond in topology.bonds:
        n1, n2 = _bond_nodes(topology, bond)
        row = [str(n1), str(n2), _fmt(report.entropies.get(bond))]
        if with_energy:
            row.append(_fmt(report.energies.get(bond)))
        row.append(_fmt(report.truncation_errors.get(bond)))
        if with_fidelity:
            row.append(_fmt(report.fidelities.get(bond)))
        lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n")


def write_observable_csvs(directory: Path, obs: Observables, flags: OutputFlags):
    if flags.single_site:
        lines = ["i,sx,sy,sz"]
        for i in sorted(obs.single):
            sx, sy, sz = obs.single[i]
            lines.append(f"{i},{_fmt(sx)},{_fmt(sy)},{_fmt(sz)}")
        (directory / "single_site.csv").write_text("\n".join(lines) + "\n")
    if flags.two_site:
        lines = ["i,j," + ",".join(CORRELATION_ORDER)]
        for i, j in sorted(obs.pairs):
            comps = obs.pairs[(i, j)]
            vals = ",".join(_fmt(comps[c]) for c in CORRELATION_ORDER)
            lines.append(f"{i},{j},{vals}")
        (directory / "two_site.csv").write_text("\n".join(lines) + "\n")


def write_gss_outputs(
    manifest: RunManifest,
    state: TTNState,
    stages: list[StageResult],
    flags: OutputFlags,
) -> None:
    """Per-stage subdirectories run{m} with basic.csv, graph.dat, and any
    requested observable tables."""
    manifest.out_dir.mkdir(parents=True, exist_ok=True)
    for m, stage in enumerate(stages, 1):
        stage_dir = manifest.stage_dir(m)
        stage_dir.mkdir(parents=True, exist_ok=True)
        topo_snapshot = stage.final_report.structure_snapshot
        topo = Topology(
            n_sites=state.topology.n_sites,
            edges=[list(e) for e in topo_snapshot],
            center=state.topology.center,
            origin=state.topology.origin,
        )
        write_basic_csv(
            stage_dir / "basic.csv",
            topo,
            stage.final_report,
            with_energy=True,
            with_fidelity=False,
        )
        (stage_dir / "graph.dat").write_text(topo.to_graph_lines())
        if stage.observables is not None:
            write_observable_csvs(stage_dir, stage.observables, flags)


def write_ft_outputs(
    out_dir: Path,
    state: TTNState,
    report: SweepReport,
    flags: OutputFlags,
    with_fidelity: bool,
) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    write_basic_csv(
        out_dir / "basic.csv",
        state.topology,
        report,
        with_energy=False,
        with_fidelity=with_fidelity,
    )
    if flags.tensors:
        save_tensor_bundle(out_dir, state)  # graph.dat belongs to the bundle
    else:
        (out_dir / "graph.dat").write_text(state.topology.to_graph_lines())


def save_tensor_bundle(directory: Path, state: TTNState) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for i, tensor in enumerate(state.tensors):
        np.save(directory / f"isometry{i}.npy", tensor)
    np.save(directory / "singular_values.npy", state.center_weights)
    np.save(directory / "norm.npy", np.array(state.norm_scale))
    (directory / "graph.dat").write_text(state.topology.to_graph_lines())


def load_tensor_bundle(directory: Path) -> TTNState:
    """Reload a saved network; the site count is implied by the tensor count.
    A bundle that holds non-numeric pieces, a complex norm or weights, or
    fails the topology or state audit raises ``LoadError`` naming the file
    at fault."""
    directory = Path(directory)
    graph_path = directory / "graph.dat"
    if not graph_path.exists():
        raise LoadError(f"tensor bundle {directory} lacks graph.dat")
    lines = graph_path.read_text()
    n_tensors = len([ln for ln in lines.splitlines() if ln.strip()])
    try:
        topo = Topology.from_graph_lines(lines, n_sites=n_tensors + 2)
        audit_topology(topo)
    except InvariantViolation as exc:
        raise LoadError(f"tensor bundle {directory}: graph.dat: {exc}") from exc
    tensors = [_bundle_piece(directory, f"isometry{i}.npy") for i in range(n_tensors)]
    weights = _bundle_piece(directory, "singular_values.npy", real=True)
    norm = _bundle_piece(directory, "norm.npy", real=True)
    if norm.ndim != 0 or not np.isfinite(norm):
        raise LoadError(f"tensor bundle {directory}: norm.npy holds {norm!r}")
    state = TTNState(
        topology=topo, tensors=tensors, center_weights=weights, norm_scale=float(norm)
    )
    try:
        state.bond_dimensions()
        audit_state(state)
    except InvariantViolation as exc:
        bad = f"isometry{exc.tensor}.npy"
        if exc.tensor is None:
            bad = "singular_values.npy"
        raise LoadError(f"tensor bundle {directory}: {bad}: {exc}") from exc
    return state


def _bundle_piece(directory: Path, name: str, real: bool = False) -> np.ndarray:
    """One array of a tensor bundle; its values must be numbers, and real
    ones when ``real`` is set, or ``LoadError`` names the file."""
    piece = load_array(directory / name)
    if piece.dtype.kind not in ("iuf" if real else "iufc"):
        what = "real numbers" if real else "numbers"
        raise LoadError(f"tensor bundle {directory}: {name} holds {piece.dtype}, not {what}")
    return piece


def load_array(path: Path) -> np.ndarray:
    """One ``.npy`` file (a dense target or a piece of a tensor bundle); a
    missing or unreadable file raises ``LoadError`` naming it."""
    try:
        return np.load(path)
    except FileNotFoundError:
        raise LoadError(f"{path.parent} lacks {path.name}") from None
    except (OSError, ValueError, EOFError) as exc:
        raise LoadError(f"{path}: {exc}") from exc
