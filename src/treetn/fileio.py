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
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np
import yaml

from .errors import InvariantViolation, LoadError
from .factorize import FactorizeConfig
from .gss import CORRELATION_ORDER, GssConfig, Observables, StageResult
from .spinmodel import SpinModel, parse_spin_size
from .state import TTNState, audit_state
from .sweeps import ScheduleError, Stage, SweepReport, schedule
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

# YAML keys of the Stage fields in a schedule section, and in the flat
# reconstruction settings of an ft config
SCHEDULE_KEYS = {"chi": "max_bond_dimensions", "n_max": "max_num_sweeps",
                 "t0": "opt_structure.temperature", "n_tau": "opt_structure.tau"}
RECONSTRUCTION_KEYS = {**SCHEDULE_KEYS, "chi": "initial_bond_dimension",
                       "n_max": "max_sweep_num"}


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


def _load_yaml(path: Path) -> dict:
    try:
        with open(path) as fh:
            data = yaml.safe_load(fh)
    except OSError as exc:
        raise LoadError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise LoadError(f"malformed YAML in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise LoadError(f"config {path} must be a mapping")
    return data


def _warn_unknown(section: dict, known: set[str], where: str):
    for key in section:
        if key not in known:
            warnings.warn(f"unknown key {key!r} in {where}", stacklevel=3)


def _read_rows(path: Path, n_cols: int, kinds, what: str):
    rows = []
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
            rows.append(tuple(kind(p) for kind, p in zip(kinds, parts)))
        except ValueError as exc:
            raise LoadError(f"{what} {path}:{ln}: {exc}") from exc
    return rows


def _scalar_or_table(value, n: int, base: Path, what: str) -> dict[int, float]:
    """A uniform scalar or a 2-column (site, value) file."""
    if isinstance(value, (int, float)):
        return {i: float(value) for i in range(n)}
    path = base / str(value)
    rows = _read_rows(path, 2, (int, float), what)
    return {i: v for i, v in rows}


def _spin_sizes(value, n: int, base: Path) -> list[float]:
    if isinstance(value, (int, float)):
        return [parse_spin_size(value)] * n
    text = str(value)
    try:
        Fraction(text)
    except (ValueError, ZeroDivisionError):
        path = base / text
        rows = _read_rows(path, 2, (int, str), "spin sizes")
        table = {i: parse_spin_size(s) for i, s in rows}
        missing = set(range(n)) - table.keys()
        if missing:
            raise LoadError(f"spin sizes missing for sites {sorted(missing)}")
        return [table[i] for i in range(n)]
    return [parse_spin_size(text)] * n


def _opt_structure(parent: dict, where: str):
    """The ``opt_structure`` block of the section ``where``."""
    section = _mapping(parent, "opt_structure", where)
    where = f"{where}.opt_structure"
    known = {"type", "temperature", "tau", "seed"}
    _warn_unknown(section, known, where)
    opt = {
        "mode": _scalar(section, "type", where, int, 0),
        "t0": _scalar(section, "temperature", where, float, 0.0),
        "n_tau": _scalar(section, "tau", where, int, None),
        "seed": _scalar(section, "seed", where, int, 0),
    }
    if opt["mode"] not in (0, 1, 2):
        raise LoadError(f"{where}.type must be 0, 1, or 2, got {opt['mode']}")
    return opt


def _int_list(section: dict, key: str, where: str) -> list[int]:
    """A required YAML list of integers; anything else raises ``LoadError``
    naming the key."""
    value = section.get(key)
    if not isinstance(value, list):
        raise LoadError(f"{where}.{key} must be a list of integers, got {value!r}")
    try:
        return [int(v) for v in value]
    except (TypeError, ValueError) as exc:
        raise LoadError(f"{where}.{key}: {exc}") from exc


def _mapping(section: dict, key: str, where: str = "", required: bool = False):
    """The YAML mapping under ``key``, empty when an optional key is absent or
    blank; anything else raises ``LoadError`` naming the key."""
    name = f"{where}.{key}" if where else key
    if required and key not in section:
        raise LoadError(f"missing section {name}")
    value = {} if section.get(key) is None else section[key]
    if not isinstance(value, dict):
        raise LoadError(f"{name} must be a mapping, got {value!r}")
    return value


def _scalar(section: dict, key: str, where: str, kind, default=_REQUIRED):
    """A YAML scalar read as ``kind`` (``int`` or ``float``), or ``default``
    when the key is absent; a missing required key or a value ``kind`` cannot
    read raises ``LoadError`` naming the key."""
    if key not in section:
        if default is _REQUIRED:
            raise LoadError(f"missing required key {where}.{key}")
        return default
    value = section[key]
    try:
        return kind(value)
    except (TypeError, ValueError):
        what = "an integer" if kind is int else "a number"
        raise LoadError(f"{where}.{key} must be {what}, got {value!r}") from None


def _threshold(section: dict, key: str, where: str, default: float) -> float:
    """A YAML threshold: a positive, finite number, or ``default`` when the
    key is absent; anything else raises ``LoadError`` naming the key."""
    value = _scalar(section, key, where, float, default)
    if not 0.0 < value < np.inf:
        raise LoadError(f"{where}.{key} must be positive and finite, got {value!r}")
    return value


def _schedule_error(exc: ScheduleError, where: str, keys=SCHEDULE_KEYS) -> LoadError:
    key = keys.get(exc.field, f"{keys['chi']}/{keys['n_max']}")
    return LoadError(f"{where}.{key}: {exc}")


def _schedule(section: dict, where: str) -> tuple[list[Stage], int]:
    """The stages of a schedule section (gss ``numerics`` or ``fidelity``)
    and the seed of its ``opt_structure`` block."""
    opt = _opt_structure(section, where)
    chis = _int_list(section, "max_bond_dimensions", where)
    limits = _int_list(section, "max_num_sweeps", where)
    try:
        stages = schedule(chis, limits, opt["mode"], opt["t0"], opt["n_tau"])
    except ScheduleError as exc:
        raise _schedule_error(exc, where) from exc
    return stages, opt["seed"]


def parse_gss_config(path) -> tuple[SpinModel, GssConfig, OutputFlags]:
    """Load a ground-state-search configuration and its model tables."""
    path = Path(path)
    base = path.parent
    data = _load_yaml(path)
    _warn_unknown(data, {"system", "numerics", "output"}, str(path))
    system = _mapping(data, "system", required=True)
    numerics = _mapping(data, "numerics", required=True)
    output = _mapping(data, "output")

    known_system = {
        "N", "spin_size", "model",
        "MF_X", "MF_Y", "MF_Z", "SIA",
        "DM_X", "DM_Y", "DM_Z", "SOD_X", "SOD_Y", "SOD_Z",
    }
    if "total_magnetization" in system or "total_magnetization" in numerics:
        raise LoadError(
            "magnetization-sector targeting is not supported by this package"
        )
    _warn_unknown(system, known_system, "system")

    n = _scalar(system, "N", "system", int)
    if n < 4:
        raise LoadError(f"system.N must be at least 4, got {n}")
    model_sec = _mapping(system, "model", "system", required=True)
    try:
        spins = _spin_sizes(system["spin_size"], n, base)
        exchange_type = str(model_sec["type"]).upper()
        model_file = base / str(model_sec["file"])
    except KeyError as exc:
        raise LoadError(f"missing required system key {exc}") from exc

    n_cols = 4 if exchange_type == "XXZ" else 5
    kinds = (int, int) + (float,) * (n_cols - 2)
    exchange_rows = _read_rows(model_file, n_cols, kinds, "exchange couplings")

    field_tables = {}
    for axis in "xyz":
        key = f"MF_{axis.upper()}"
        if key in system:
            field_tables[axis] = _scalar_or_table(system[key], n, base, key)
    sia = _scalar_or_table(system["SIA"], n, base, "SIA") if "SIA" in system else {}
    dm_tables = {}
    sod_tables = {}
    for axis in "xyz":
        key = f"DM_{axis.upper()}"
        if key in system:
            dm_tables[axis] = _read_rows(base / str(system[key]), 3, (int, int, float), key)
        key = f"SOD_{axis.upper()}"
        if key in system:
            sod_tables[axis] = _read_rows(base / str(system[key]), 3, (int, int, float), key)

    model = SpinModel(
        n_sites=n,
        spin_sizes=spins,
        exchange_type=exchange_type,
        exchange_rows=exchange_rows,
        field_tables=field_tables,
        sia_table=sia,
        dm_tables=dm_tables,
        sod_tables=sod_tables,
    )

    known_numerics = {
        "init_tree", "initial_bond_dimension", "opt_structure",
        "max_bond_dimensions", "max_num_sweeps",
        "energy_convergence_threshold", "entanglement_convergence_threshold",
        "energy_degeneracy_threshold", "entanglement_degeneracy_threshold",
    }
    _warn_unknown(numerics, known_numerics, "numerics")
    stages, seed = _schedule(numerics, "numerics")
    chi_init = _scalar(numerics, "initial_bond_dimension", "numerics", int)
    if chi_init < 1:
        raise LoadError(f"numerics.initial_bond_dimension must be positive, got {chi_init}")
    init_tree = _scalar(numerics, "init_tree", "numerics", int, 0)
    if init_tree not in (0, 1):
        raise LoadError(f"numerics.init_tree must be 0 or 1, got {init_tree}")
    thresholds = {
        name: _threshold(numerics, key, "numerics", GSS_DEFAULT_THRESHOLD)
        for name, key in (
            ("eps_e", "energy_convergence_threshold"),
            ("eps_s", "entanglement_convergence_threshold"),
            ("delta_e", "energy_degeneracy_threshold"),
            ("delta_s", "entanglement_degeneracy_threshold"),
        )
    }
    try:
        config = GssConfig(
            chi_init=chi_init,
            stages=stages,
            init_tree="pbt" if init_tree == 1 else "mpn",
            seed=seed,
            **thresholds,
        )
    except ValueError as exc:
        raise LoadError(str(exc)) from exc

    _warn_unknown(output, {"dir", "single_site", "two_site"}, "output")
    flags = OutputFlags(
        directory=base / str(output.get("dir", "output")),
        single_site=bool(_scalar(output, "single_site", "output", int, 0)),
        two_site=bool(_scalar(output, "two_site", "output", int, 0)),
    )
    return model, config, flags


def parse_ft_config(path) -> tuple[TargetSpec, FactorizeConfig, OutputFlags]:
    """Load a factorization / reconstruction configuration."""
    path = Path(path)
    base = path.parent
    data = _load_yaml(path)
    _warn_unknown(data, {"target", "numerics", "output"}, str(path))
    target_sec = _mapping(data, "target", required=True)
    numerics = _mapping(data, "numerics", required=True)
    output = _mapping(data, "output")

    _warn_unknown(target_sec, {"tensor", "tensors"}, "target")
    if ("tensor" in target_sec) == ("tensors" in target_sec):
        raise LoadError("specify exactly one of target.tensor and target.tensors")
    if "tensor" in target_sec:
        target = TargetSpec(kind="tensor", path=base / str(target_sec["tensor"]))
    else:
        target = TargetSpec(kind="ttn", path=base / str(target_sec["tensors"]))

    known_numerics = {
        "initial_bond_dimension", "opt_structure", "max_sweep_num",
        "entanglement_convergence_threshold", "entanglement_degeneracy_threshold",
        "max_truncated_singularvalue", "fidelity",
    }
    _warn_unknown(numerics, known_numerics, "numerics")
    opt = _opt_structure(numerics, "numerics")
    fid = _mapping(numerics, "fidelity", "numerics")
    fid_known = {"opt_structure", "max_bond_dimensions", "max_num_sweeps", "convergence_threshold"}
    _warn_unknown(fid, fid_known, "fidelity")
    fid_stages, fid_seed = _schedule(fid, "numerics.fidelity") if fid else ([], 0)

    settings = dict(
        chi_init=_scalar(numerics, "initial_bond_dimension", "numerics", int),
        n_max=_scalar(numerics, "max_sweep_num", "numerics", int, 10),
        eps_s=_threshold(numerics, "entanglement_convergence_threshold", "numerics",
                         GSS_DEFAULT_THRESHOLD),
        sigma=_scalar(numerics, "max_truncated_singularvalue", "numerics", float, 0.0),
        delta_s=_threshold(numerics, "entanglement_degeneracy_threshold", "numerics",
                           GSS_DEFAULT_THRESHOLD),
        eps_f=_threshold(fid, "convergence_threshold", "numerics.fidelity", 1e-10),
    )
    try:
        config = FactorizeConfig(
            opt_mode=opt["mode"],
            t0=opt["t0"],
            n_tau=opt["n_tau"],
            seed=opt["seed"],
            fidelity=fid_stages,
            fidelity_seed=fid_seed,
            **settings,
        )
    except ScheduleError as exc:
        raise _schedule_error(exc, "numerics", RECONSTRUCTION_KEYS) from exc
    except ValueError as exc:
        raise LoadError(str(exc)) from exc

    _warn_unknown(output, {"dir", "tensors"}, "output")
    flags = OutputFlags(
        directory=base / str(output.get("dir", "output")),
        tensors=bool(_scalar(output, "tensors", "output", int, 0)),
    )
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
    (out_dir / "graph.dat").write_text(state.topology.to_graph_lines())
    if flags.tensors:
        save_tensor_bundle(out_dir, state)


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
