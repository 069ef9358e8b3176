"""Tests for configuration parsing and output file contracts."""

import re
from functools import partial

import numpy as np
import pytest
import yaml

from treetn import fileio
from treetn.cli import bench_main
from treetn.errors import LoadError
from treetn.factorize import normalize_target, sequential_svd_to_mpn
from treetn.fileio import (
    OutputFlags,
    RunManifest,
    load_tensor_bundle,
    parse_ft_config,
    parse_gss_config,
    save_tensor_bundle,
    write_basic_csv,
    write_ft_outputs,
    write_gss_outputs,
)
from treetn.gss import GssConfig, run
from treetn.spinmodel import SpinModel
from treetn.state import to_dense
from treetn.sweeps import SweepReport, schedule
from treetn.topology import Topology


def write_gss_inputs(tmp_path, extra_system="", extra_numerics="", output=""):
    (tmp_path / "couplings.dat").write_text(
        "0 1 1.0 0.5\n1 2 1.0 0.5\n2 3 1.0 0.5\n"
    )
    cfg = f"""
system:
  N: 4
  spin_size: 1/2
  model:
    type: XXZ
    file: couplings.dat
{extra_system}
numerics:
  initial_bond_dimension: 4
  max_bond_dimensions: [8]
  max_num_sweeps: [6]
{extra_numerics}
output:
  dir: out
{output}
"""
    path = tmp_path / "input.yml"
    path.write_text(cfg)
    return path


class TestParseGssConfig:
    def test_minimal_defaults(self, tmp_path):
        model, config, flags = parse_gss_config(write_gss_inputs(tmp_path))
        assert model.n_sites == 4
        assert model.spin_sizes == [0.5] * 4
        assert model.exchange_rows[0] == (0, 1, 1.0, 0.5)
        assert config.eps_e == config.eps_s == 1e-8
        assert config.delta_e == config.delta_s == 1e-8
        assert config.seed == 0 and config.stages[0].t0 == 0.0
        assert config.stages[0].n_tau == 3  # floor(n_max_1 / 2)
        assert config.stages[0].mode == 0
        assert flags.single_site is False

    def test_fraction_spin(self, tmp_path):
        path = write_gss_inputs(tmp_path)
        text = path.read_text().replace("spin_size: 1/2", 'spin_size: "3/2"')
        path.write_text(text)
        model, _, _ = parse_gss_config(path)
        assert model.spin_sizes == [1.5] * 4

    def test_decimal_half_odd_rejected(self, tmp_path):
        path = write_gss_inputs(tmp_path)
        path.write_text(path.read_text().replace("spin_size: 1/2", "spin_size: 0.5"))
        with pytest.raises(LoadError):
            parse_gss_config(path)

    def test_spin_size_file(self, tmp_path):
        (tmp_path / "spins.dat").write_text("0 1/2\n1 1\n2 3/2\n3 1/2\n")
        path = write_gss_inputs(tmp_path)
        path.write_text(path.read_text().replace("spin_size: 1/2", "spin_size: spins.dat"))
        model, _, _ = parse_gss_config(path)
        assert model.spin_sizes == [0.5, 1.0, 1.5, 0.5]

    def test_scalar_field_broadcast(self, tmp_path):
        path = write_gss_inputs(tmp_path, extra_system="  MF_Z: 0.25")
        model, _, _ = parse_gss_config(path)
        assert model.field_tables["z"] == {i: 0.25 for i in range(4)}

    def test_field_file(self, tmp_path):
        (tmp_path / "field.dat").write_text("0 0.5\n2 -0.25\n")
        path = write_gss_inputs(tmp_path, extra_system="  MF_X: field.dat")
        model, _, _ = parse_gss_config(path)
        assert model.field_tables["x"] == {0: 0.5, 2: -0.25}

    def test_magnetization_targeting_rejected(self, tmp_path):
        path = write_gss_inputs(tmp_path, extra_system="  total_magnetization: 0")
        with pytest.raises(LoadError, match="magnetization"):
            parse_gss_config(path)

    def test_malformed_row_reports_line(self, tmp_path):
        path = write_gss_inputs(tmp_path)
        (tmp_path / "couplings.dat").write_text("0 1 1.0 0.5\n1 2 oops 0.5\n")
        with pytest.raises(LoadError, match=":2"):
            parse_gss_config(path)

    def test_missing_required_key(self, tmp_path):
        path = tmp_path / "input.yml"
        path.write_text("system:\n  N: 4\nnumerics: {}\n")
        with pytest.raises(LoadError):
            parse_gss_config(path)

    def test_unknown_key_warns(self, tmp_path):
        path = write_gss_inputs(tmp_path, extra_numerics="  mystery_knob: 3")
        with pytest.warns(UserWarning, match="mystery_knob"):
            parse_gss_config(path)

    def test_unread_opt_structure_key_warns(self, tmp_path):
        path = write_gss_inputs(
            tmp_path, extra_numerics="  opt_structure: {type: 1, active: 1}"
        )
        with pytest.warns(UserWarning, match="active"):
            parse_gss_config(path)

    def test_opt_structure_block(self, tmp_path):
        path = write_gss_inputs(
            tmp_path,
            extra_numerics=(
                "  opt_structure:\n"
                "    type: 1\n"
                "    temperature: 0.5\n"
                "    tau: 4\n"
                "    seed: 9\n"
            ),
        )
        path.write_text(
            path.read_text()
            .replace("max_bond_dimensions: [8]", "max_bond_dimensions: [8, 16]")
            .replace("max_num_sweeps: [6]", "max_num_sweeps: [6, 4]")
        )
        _, config, _ = parse_gss_config(path)
        first = config.stages[0]
        assert (first.mode, first.t0, first.n_tau, config.seed) == (1, 0.5, 4, 9)
        assert [s.mode for s in config.stages[1:]] == [0]

    @pytest.mark.parametrize(
        "old, new, key",
        [
            ("max_bond_dimensions: [8]", "max_bond_dimensions: 8", "max_bond_dimensions"),
            ("max_num_sweeps: [6]", "max_num_sweeps: 4", "max_num_sweeps"),
            ("max_num_sweeps: [6]", "max_num_sweeps: [6]\n  opt_structure: 1", "opt_structure"),
            ("max_bond_dimensions: [8]\n  max_num_sweeps: [6]",
             "max_bond_dimensions: []\n  max_num_sweeps: []", "max_bond_dimensions"),
            ("max_num_sweeps: [6]", "max_num_sweeps: [0]", "max_num_sweeps"),
            ("max_num_sweeps: [6]",
             "max_num_sweeps: [6]\n  opt_structure: {type: 1, tau: 0}", "opt_structure.tau"),
            ("max_num_sweeps: [6]",
             "max_num_sweeps: [6]\n  opt_structure: {type: 1, temperature: -1}",
             "opt_structure.temperature"),
            ("max_num_sweeps: [6]", "max_num_sweeps: [6]\n  opt_structure: {type: one}",
             "opt_structure"),
        ],
        ids=["scalar-chis", "scalar-limits", "opt-not-mapping", "empty", "zero-limit",
             "zero-tau", "negative-temperature", "opt-not-a-number"],
    )
    def test_malformed_schedule_rejected(self, tmp_path, old, new, key):
        path = write_gss_inputs(tmp_path)
        path.write_text(path.read_text().replace(old, new))
        with pytest.raises(LoadError, match=f"numerics\\.{key}"):
            parse_gss_config(path)

    @pytest.mark.parametrize(
        "old, new, key",
        [
            ("initial_bond_dimension: 4", "initial_bond_dimension: abc",
             "numerics.initial_bond_dimension"),
            ("initial_bond_dimension: 4", "initial_bond_dimension: 4\n  init_tree: pbt",
             "numerics.init_tree"),
            ("initial_bond_dimension: 4", "initial_bond_dimension: 4\n  init_tree: 2",
             "numerics.init_tree"),
            ("initial_bond_dimension: 4", "initial_bond_dimension: 4\n  init_tree: -1",
             "numerics.init_tree"),
            ("initial_bond_dimension: 4",
             "initial_bond_dimension: 4\n  energy_convergence_threshold: tiny",
             "numerics.energy_convergence_threshold"),
            ("initial_bond_dimension: 4",
             "initial_bond_dimension: 4\n  entanglement_degeneracy_threshold: [1]",
             "numerics.entanglement_degeneracy_threshold"),
            ("N: 4", "N: four", "system.N"),
            ("dir: out", "dir: out\n  two_site: yes please", "output.two_site"),
            ("max_num_sweeps: [6]", "max_num_sweeps: [6]\n  opt_structure: {seed: s}",
             "numerics.opt_structure.seed"),
            ("  initial_bond_dimension: 4\n", "", "numerics.initial_bond_dimension"),
            ("initial_bond_dimension: 4", "initial_bond_dimension: 0",
             "numerics.initial_bond_dimension"),
            ("initial_bond_dimension: 4", "initial_bond_dimension: -2",
             "numerics.initial_bond_dimension"),
            ("N: 4", "N: 3", "system.N"),
            ("max_num_sweeps: [6]", "max_num_sweeps: [6]\n  opt_structure: {type: 3}",
             "numerics.opt_structure.type"),
        ],
        ids=["chi-init", "init-tree", "init-tree-two", "init-tree-negative",
             "energy-threshold", "degeneracy-list", "n-sites", "two-site-flag", "seed",
             "chi-init-missing", "chi-init-zero", "chi-init-negative", "n-sites-three",
             "structure-type"],
    )
    def test_bad_scalar_names_key(self, tmp_path, old, new, key):
        path = write_gss_inputs(tmp_path)
        path.write_text(path.read_text().replace(old, new))
        with pytest.raises(LoadError, match=key.replace(".", "\\.")):
            parse_gss_config(path)

    @pytest.mark.parametrize(
        "old, new, key",
        [
            ("system:\n  N: 4\n  spin_size: 1/2\n  model:\n    type: XXZ\n"
             "    file: couplings.dat\n", "system: [4]\n", "system"),
            ("  model:\n    type: XXZ\n    file: couplings.dat\n", "  model: XXZ\n",
             "system.model"),
            ("numerics:\n  initial_bond_dimension: 4\n  max_bond_dimensions: [8]\n"
             "  max_num_sweeps: [6]\n", "numerics: 4\n", "numerics"),
            ("output:\n  dir: out", "output: out", "output"),
        ],
        ids=["system", "model", "numerics", "output"],
    )
    def test_non_mapping_section_named(self, tmp_path, old, new, key):
        path = write_gss_inputs(tmp_path)
        text = path.read_text()
        assert old in text
        path.write_text(text.replace(old, new))
        with pytest.raises(LoadError, match=f"^{key} must be a mapping"):
            parse_gss_config(path)

    @pytest.mark.parametrize("key", [
        "energy_convergence_threshold", "entanglement_convergence_threshold",
        "energy_degeneracy_threshold", "entanglement_degeneracy_threshold",
    ])
    @pytest.mark.parametrize("value", ["-1.0", "0", ".nan", ".inf"])
    def test_bad_threshold_names_key(self, tmp_path, key, value):
        path = write_gss_inputs(tmp_path, extra_numerics=f"  {key}: {value}")
        with pytest.raises(LoadError, match=f"numerics\\.{key} must be positive and finite"):
            parse_gss_config(path)

    def test_negative_seed_names_key(self, tmp_path):
        path = write_gss_inputs(tmp_path, extra_numerics="  opt_structure: {type: 1, seed: -5}")
        with pytest.raises(LoadError, match=r"^numerics\.opt_structure\.seed must be "
                                            r"non-negative, got -5$"):
            parse_gss_config(path)

    def test_xyz_column_count(self, tmp_path):
        path = write_gss_inputs(tmp_path)
        (tmp_path / "couplings.dat").write_text("0 1 1.0 0.5 0.3\n")
        path.write_text(path.read_text().replace("type: XXZ", "type: XYZ"))
        model, _, _ = parse_gss_config(path)
        assert model.exchange_rows == [(0, 1, 1.0, 0.5, 0.3)]

    def test_unknown_model_key_warns(self, tmp_path):
        path = write_gss_inputs(tmp_path)
        path.write_text(path.read_text().replace("    file: couplings.dat",
                                                 "    file: couplings.dat\n    fiel: x"))
        with pytest.warns(UserWarning, match="^unknown key 'fiel' in system.model$"):
            parse_gss_config(path)

    def test_missing_model_file_named(self, tmp_path):
        path = write_gss_inputs(tmp_path)
        path.write_text(path.read_text().replace("    file: couplings.dat\n", ""))
        with pytest.raises(LoadError, match=r"^missing required key system\.model\.file$"):
            parse_gss_config(path)

    @pytest.mark.parametrize("key, value", [("spin_size", "1/2"), ("MF_Z", "0.5"),
                                            ("SIA", "-0.25")])
    @pytest.mark.parametrize("rows, line, problem", [
        ("0 {v}\n1 {v}\n2 {v}\n3 {v}\n9 {v}\n", 5, "site 9 lies outside 0..3"),
        ("0 {v}\n1 {v}\n0 {v}\n2 {v}\n3 {v}\n", 3, "site 0 is given twice"),
    ], ids=["outside", "twice"])
    def test_bad_site_row_names_line(self, tmp_path, key, value, rows, line, problem):
        (tmp_path / "sites.dat").write_text(rows.format(v=value))
        path = write_gss_inputs(tmp_path)
        text = path.read_text()
        if key == "spin_size":
            text = text.replace("spin_size: 1/2", "spin_size: sites.dat")
        else:
            text = text.replace("  model:", f"  {key}: sites.dat\n  model:")
        path.write_text(text)
        with pytest.raises(LoadError, match=rf"^system\.{key} .*sites\.dat:{line}: {problem}$"):
            parse_gss_config(path)

    def test_site_table_values(self, tmp_path):
        (tmp_path / "sia.dat").write_text("# site value\n3 -0.5\n1 0.25\n")
        path = write_gss_inputs(tmp_path, extra_system="  SIA: sia.dat")
        model, _, _ = parse_gss_config(path)
        assert model.sia_table == {3: -0.5, 1: 0.25}

    def test_fraction_string_field_is_a_value(self, tmp_path):
        """A string that reads as a fraction is a value, never a file name;
        only spin sizes take fractions."""
        path = write_gss_inputs(tmp_path, extra_system='  MF_X: "1/4"')
        with pytest.raises(LoadError, match=r"^system\.MF_X must be a number, got '1/4'$"):
            parse_gss_config(path)

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("initial_bond_dimension: 4", "initial_bond_dimension: 4.7",
             r"numerics\.initial_bond_dimension must be an integer, got 4\.7"),
            ("max_bond_dimensions: [8]", "max_bond_dimensions: [8.9]",
             r"numerics\.max_bond_dimensions must be a list of integers, got \[8\.9\]"),
            ("max_num_sweeps: [6]", "max_num_sweeps: [6.5]",
             r"numerics\.max_num_sweeps must be a list of integers"),
            ("dir: out", "dir: out\n  single_site: 0.5",
             r"output\.single_site must be an integer, got 0\.5"),
            ("N: 4", "N: .inf", r"system\.N must be an integer, got inf"),
        ],
        ids=["chi-init", "chis", "limits", "flag", "n-infinite"],
    )
    def test_fractional_integer_names_key(self, tmp_path, old, new, message):
        """An integer key refuses a fraction instead of truncating it."""
        path = write_gss_inputs(tmp_path)
        path.write_text(path.read_text().replace(old, new))
        with pytest.raises(LoadError, match=f"^{message}"):
            parse_gss_config(path)

    def test_whole_float_reads_as_integer(self, tmp_path):
        path = write_gss_inputs(tmp_path)
        path.write_text(path.read_text().replace("initial_bond_dimension: 4",
                                                 "initial_bond_dimension: 4.0"))
        _, config, _ = parse_gss_config(path)
        assert config.chi_init == 4 and isinstance(config.chi_init, int)

    @pytest.mark.parametrize("value", [".nan", ".inf"])
    def test_non_finite_temperature_names_key(self, tmp_path, value):
        path = write_gss_inputs(
            tmp_path, extra_numerics=f"  opt_structure: {{type: 1, temperature: {value}}}"
        )
        with pytest.raises(LoadError, match=r"^numerics\.opt_structure\.temperature must be "
                                            r"finite"):
            parse_gss_config(path)

    @pytest.mark.parametrize("key", ["MF_X", "MF_Z", "SIA"])
    @pytest.mark.parametrize("value", [".nan", ".inf", "-.inf"])
    def test_non_finite_site_value_names_key(self, tmp_path, key, value):
        path = write_gss_inputs(tmp_path, extra_system=f"  {key}: {value}")
        with pytest.raises(LoadError, match=rf"^system\.{key} must be a finite number"):
            parse_gss_config(path)

    @pytest.mark.parametrize("key", ["MF_Y", "SIA"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_site_row_names_line(self, tmp_path, key, value):
        (tmp_path / "sites.dat").write_text(f"0 0.5\n1 0.5\n2 {value}\n")
        path = write_gss_inputs(tmp_path, extra_system=f"  {key}: sites.dat")
        with pytest.raises(LoadError, match=rf"^system\.{key} .*sites\.dat:3: .*not finite"):
            parse_gss_config(path)

    @pytest.mark.parametrize("row", ["1 2 nan 0.5", "1 2 1.0 -inf"])
    def test_non_finite_coupling_names_line(self, tmp_path, row):
        path = write_gss_inputs(tmp_path)
        (tmp_path / "couplings.dat").write_text(f"0 1 1.0 0.5\n{row}\n2 3 1.0 0.5\n")
        with pytest.raises(LoadError, match=r"^exchange couplings .*couplings\.dat:2: "
                                            r".*not finite"):
            parse_gss_config(path)

    def test_non_finite_dm_row_names_line(self, tmp_path):
        (tmp_path / "dm.dat").write_text("0 1 0.1\n1 2 nan\n")
        path = write_gss_inputs(tmp_path, extra_system="  DM_Z: dm.dat")
        with pytest.raises(LoadError, match=r"^DM_Z .*dm\.dat:2: .*not finite"):
            parse_gss_config(path)

    def test_spin_size_file_must_cover_every_site(self, tmp_path):
        (tmp_path / "spins.dat").write_text("0 1/2\n1 1\n3 1/2\n")
        path = write_gss_inputs(tmp_path)
        path.write_text(path.read_text().replace("spin_size: 1/2", "spin_size: spins.dat"))
        with pytest.raises(LoadError, match=r"^system\.spin_size: .*sites \[2\]"):
            parse_gss_config(path)


class TestParseFtConfig:
    def write(self, tmp_path, target_block, numerics_extra=""):
        path = tmp_path / "ft.yml"
        path.write_text(
            f"""
target:
{target_block}
numerics:
  initial_bond_dimension: 4
  max_sweep_num: 5
{numerics_extra}
output:
  dir: out
  tensors: 1
"""
        )
        return path

    def test_tensor_kind(self, tmp_path):
        spec, config, flags = parse_ft_config(self.write(tmp_path, "  tensor: psi.npy"))
        assert spec.kind == "tensor"
        assert spec.path.name == "psi.npy"
        assert config.sigma == 0.0
        assert flags.tensors is True

    def test_ttn_kind(self, tmp_path):
        spec, _, _ = parse_ft_config(self.write(tmp_path, "  tensors: bundle"))
        assert spec.kind == "ttn"

    def test_both_kinds_rejected(self, tmp_path):
        path = self.write(tmp_path, "  tensor: a.npy\n  tensors: b")
        with pytest.raises(LoadError):
            parse_ft_config(path)

    def test_fidelity_block(self, tmp_path):
        path = self.write(
            tmp_path,
            "  tensor: psi.npy",
            numerics_extra=(
                "  fidelity:\n"
                "    opt_structure: {type: 1, seed: 3}\n"
                "    max_bond_dimensions: [4, 8]\n"
                "    max_num_sweeps: [5, 5]\n"
                "    convergence_threshold: 1e-9\n"
            ),
        )
        _, config, _ = parse_ft_config(path)
        assert [stage.chi for stage in config.fidelity] == [4, 8]
        assert [stage.mode for stage in config.fidelity] == [1, 0]
        assert config.eps_f == 1e-9
        assert config.fidelity_seed == 3

    @pytest.mark.parametrize(
        "numerics, key",
        [
            ("fidelity: {max_bond_dimensions: 8, max_num_sweeps: [4]}",
             "fidelity.max_bond_dimensions"),
            ("fidelity: {max_bond_dimensions: [8], max_num_sweeps: 4}",
             "fidelity.max_num_sweeps"),
            ("fidelity: {opt_structure: 1, max_bond_dimensions: [8], max_num_sweeps: [4]}",
             "fidelity.opt_structure"),
            ("opt_structure: 1", "numerics.opt_structure"),
            ("fidelity: {max_bond_dimensions: [8], max_num_sweeps: [0]}",
             "fidelity.max_num_sweeps"),
            ("fidelity: {opt_structure: {type: 1, tau: 0}, max_bond_dimensions: [8], "
             "max_num_sweeps: [4]}", "fidelity.opt_structure.tau"),
            ("fidelity: {max_bond_dimensions: [8, 4], max_num_sweeps: [4, 4]}",
             "fidelity.max_bond_dimensions"),
            ("opt_structure: {type: 1, tau: 0}", "numerics.opt_structure.tau"),
        ],
        ids=["fidelity-scalar-chis", "fidelity-scalar-limits", "fidelity-opt-not-mapping",
             "opt-not-mapping", "fidelity-zero-limit", "fidelity-zero-tau",
             "fidelity-descending", "zero-tau"],
    )
    def test_malformed_schedule_rejected(self, tmp_path, numerics, key):
        path = self.write(tmp_path, "  tensor: psi.npy", numerics_extra=f"  {numerics}")
        with pytest.raises(LoadError, match=key.replace(".", "\\.")):
            parse_ft_config(path)

    @pytest.mark.parametrize(
        "old, new, key",
        [
            ("initial_bond_dimension: 4", "initial_bond_dimension: abc",
             "numerics.initial_bond_dimension"),
            ("max_sweep_num: 5", "max_sweep_num: 5.5.5", "numerics.max_sweep_num"),
            ("max_sweep_num: 5", "max_sweep_num: 5\n  max_truncated_singularvalue: abc",
             "numerics.max_truncated_singularvalue"),
            ("max_sweep_num: 5", "max_sweep_num: 5\n  entanglement_convergence_threshold: x",
             "numerics.entanglement_convergence_threshold"),
            ("max_sweep_num: 5", "max_sweep_num: 5\n  fidelity: {max_bond_dimensions: [8], "
             "max_num_sweeps: [4], convergence_threshold: tight}",
             "numerics.fidelity.convergence_threshold"),
            ("tensors: 1", "tensors: all", "output.tensors"),
            ("max_sweep_num: 5", "max_sweep_num: 5\n  opt_structure: {type: 3}",
             "numerics.opt_structure.type"),
        ],
        ids=["chi-init", "sweep-limit", "sigma", "entropy-threshold", "fidelity-threshold",
             "tensors-flag", "structure-type"],
    )
    def test_bad_scalar_names_key(self, tmp_path, old, new, key):
        path = self.write(tmp_path, "  tensor: psi.npy")
        path.write_text(path.read_text().replace(old, new))
        with pytest.raises(LoadError, match=key.replace(".", "\\.")):
            parse_ft_config(path)

    @pytest.mark.parametrize(
        "old, new, key",
        [
            ("target:\n  tensor: psi.npy", "target: psi.npy", "target"),
            ("numerics:\n  initial_bond_dimension: 4\n  max_sweep_num: 5\n",
             "numerics: 4\n", "numerics"),
            ("output:\n  dir: out\n  tensors: 1", "output: 1", "output"),
        ],
        ids=["target", "numerics", "output"],
    )
    def test_non_mapping_section_named(self, tmp_path, old, new, key):
        path = self.write(tmp_path, "  tensor: psi.npy")
        text = path.read_text()
        assert old in text
        path.write_text(text.replace(old, new))
        with pytest.raises(LoadError, match=f"^{key} must be a mapping"):
            parse_ft_config(path)

    @pytest.mark.parametrize("key, extra", [
        ("numerics.entanglement_convergence_threshold",
         "  entanglement_convergence_threshold: {}"),
        ("numerics.entanglement_degeneracy_threshold",
         "  entanglement_degeneracy_threshold: {}"),
        ("numerics.fidelity.convergence_threshold",
         "  fidelity: {{max_bond_dimensions: [8], max_num_sweeps: [4], "
         "convergence_threshold: {}}}"),
    ], ids=["entropy", "degeneracy", "fidelity"])
    @pytest.mark.parametrize("value", ["-5", "0", ".nan", ".inf"])
    def test_bad_threshold_names_key(self, tmp_path, key, extra, value):
        path = self.write(tmp_path, "  tensor: psi.npy", extra.format(value))
        with pytest.raises(LoadError, match=key.replace(".", "\\.") + " must be positive"):
            parse_ft_config(path)

    @pytest.mark.parametrize("key, extra", [
        ("numerics.opt_structure.seed", "  opt_structure: {type: 1, seed: -5}"),
        ("numerics.fidelity.opt_structure.seed",
         "  fidelity: {max_bond_dimensions: [8], max_num_sweeps: [4], "
         "opt_structure: {type: 1, seed: -5}}"),
    ], ids=["reconstruction", "fidelity"])
    def test_negative_seed_names_key(self, tmp_path, key, extra):
        path = self.write(tmp_path, "  tensor: psi.npy", extra)
        with pytest.raises(LoadError, match="^" + key.replace(".", "\\.")
                           + " must be non-negative, got -5$"):
            parse_ft_config(path)

    def test_cutoff_range_names_key(self, tmp_path):
        path = self.write(tmp_path, "  tensor: psi.npy", "  max_truncated_singularvalue: 1.5")
        with pytest.raises(LoadError, match=r"^numerics\.max_truncated_singularvalue must lie "
                                            r"in \[0, 1\), got 1\.5$"):
            parse_ft_config(path)

    @pytest.mark.parametrize(
        "numerics, message",
        [
            ("max_sweep_num: 2.5", r"numerics\.max_sweep_num must be an integer, got 2\.5"),
            ("fidelity: {max_bond_dimensions: [4.5], max_num_sweeps: [4]}",
             r"numerics\.fidelity\.max_bond_dimensions must be a list of integers"),
        ],
        ids=["sweep-limit", "fidelity-chis"],
    )
    def test_fractional_integer_names_key(self, tmp_path, numerics, message):
        path = self.write(tmp_path, "  tensors: bundle")
        path.write_text(path.read_text().replace("max_sweep_num: 5", numerics))
        with pytest.raises(LoadError, match=f"^{message}"):
            parse_ft_config(path)

    def test_zero_sweep_limit_rejected(self, tmp_path):
        path = self.write(tmp_path, "  tensors: bundle")
        path.write_text(path.read_text().replace("max_sweep_num: 5", "max_sweep_num: 0"))
        with pytest.raises(LoadError, match="numerics\\.max_sweep_num"):
            parse_ft_config(path)


class TestYamlLoader:
    """Configs parse through libyaml when PyYAML has it; the data must equal
    what the pure-Python safe loader builds."""

    @pytest.mark.parametrize("which, extra", [
        ("hierarchical", ["--depth", "3"]),
        ("quantics", ["--bits", "2", "--waves", "3"]),
        ("normal", ["--vars", "2", "--bits", "2"]),
    ])
    def test_bench_config_parses_as_safe_loader(self, tmp_path, which, extra):
        assert bench_main([which, "--out", str(tmp_path), *extra]) == 0
        path = tmp_path / "input.yml"
        expected = yaml.load(path.read_text(), Loader=yaml.SafeLoader)
        assert fileio._load_yaml(path).data == expected

    def test_scalar_types_match_safe_loader(self, tmp_path):
        text = ("a: 1e-9\nb: 1.0e-09\nc: 1/2\nd: yes\ne: ~\nf: [8, 16.0, '4']\n"
                "g: {h: .inf, i: -3}\nj: 0x10\n")
        path = tmp_path / "c.yml"
        path.write_text(text)
        data = fileio._load_yaml(path).data
        expected = yaml.load(text, Loader=yaml.SafeLoader)
        assert repr(data) == repr(expected)
        assert data["a"] == "1e-9"  # YAML 1.1 floats need a dot

    @pytest.mark.parametrize("text", [
        "system: [1, 2\n", "system:\n\tN: 4\n", "a: b: c\n", "- a\nb: 1\n",
        "a: !!python/object:os.system ls\n",
    ], ids=["unclosed", "tab", "nested-colon", "mixed", "unsafe-tag"])
    def test_malformed_yaml_raises_load_error(self, tmp_path, text):
        path = tmp_path / "bad.yml"
        path.write_text(text)
        with pytest.raises(LoadError, match=f"^malformed YAML in {re.escape(str(path))}"):
            parse_gss_config(path)


class TestOutputs:
    def run_small(self, tmp_path, stages=2):
        model = SpinModel(
            n_sites=4,
            spin_sizes=[0.5] * 4,
            exchange_rows=[(0, 1, 1.0, 0.5), (1, 2, 1.0, 0.5), (2, 3, 1.0, 0.5)],
        )
        chis = [4, 8][:stages]
        limits = [4, 4][:stages]
        cfg = GssConfig(chi_init=4, stages=schedule(chis, limits))
        result = run(model, cfg, want_observables=True)
        flags = OutputFlags(directory=tmp_path / "out", single_site=True, two_site=True)
        manifest = RunManifest(out_dir=flags.directory)
        write_gss_outputs(manifest, result.state, result.stages, flags)
        return result, flags

    def test_stage_layout(self, tmp_path):
        _, flags = self.run_small(tmp_path, stages=2)
        for m in (1, 2):
            stage = flags.directory / f"run{m}"
            assert (stage / "basic.csv").exists()
            assert (stage / "graph.dat").exists()
            assert (stage / "single_site.csv").exists()
            assert (stage / "two_site.csv").exists()

    def test_basic_csv_schema(self, tmp_path):
        _, flags = self.run_small(tmp_path, stages=1)
        lines = (flags.directory / "run1" / "basic.csv").read_text().splitlines()
        assert lines[0] == "node1,node2,entanglement_entropy,energy,truncation_error"
        assert len(lines) == 1 + 5  # 2 Nt + 1 bonds for N = 4
        # physical rows leave energy and truncation blank
        first = lines[1].split(",")
        assert first[0] == "0" and first[3] == "" and first[4] == ""
        # the auxiliary row carries all numeric fields
        aux = lines[-1].split(",")
        assert aux[:2] == ["4", "5"]
        float(aux[2]), float(aux[3]), float(aux[4])

    def test_graph_dat_content(self, tmp_path):
        _, flags = self.run_small(tmp_path, stages=1)
        assert (flags.directory / "run1" / "graph.dat").read_text() == "0 1 4\n2 3 4\n"

    def test_single_site_schema(self, tmp_path):
        _, flags = self.run_small(tmp_path, stages=1)
        lines = (flags.directory / "run1" / "single_site.csv").read_text().splitlines()
        assert lines[0] == "i,sx,sy,sz"
        assert len(lines) == 1 + 4
        assert all(len(ln.split(",")) == 4 for ln in lines[1:])

    def test_two_site_schema(self, tmp_path):
        _, flags = self.run_small(tmp_path, stages=1)
        lines = (flags.directory / "run1" / "two_site.csv").read_text().splitlines()
        assert lines[0] == "i,j,xx,yy,zz,yz,zy,zx,xz,xy,yx"
        assert len(lines) == 1 + 6  # all pairs of 4 sites
        assert all(len(ln.split(",")) == 11 for ln in lines[1:])

    @pytest.mark.parametrize("tensors", [False, True])
    def test_ft_graph_written_once(self, tmp_path, rng, monkeypatch, tensors):
        state = sequential_svd_to_mpn(normalize_target(rng.standard_normal((2,) * 5)), 4)
        graphs = []
        lines = Topology.to_graph_lines
        monkeypatch.setattr(Topology, "to_graph_lines",
                            lambda topo: graphs.append(topo) or lines(topo))
        flags = OutputFlags(directory=tmp_path, tensors=tensors)
        write_ft_outputs(tmp_path, state, SweepReport(), flags, with_fidelity=False)
        assert len(graphs) == 1
        assert (tmp_path / "graph.dat").read_text() == lines(state.topology)
        assert (tmp_path / "norm.npy").exists() == tensors

    def test_fidelity_column_only_when_requested(self, tmp_path, rng):
        t = normalize_target(rng.standard_normal((2,) * 4))
        state = sequential_svd_to_mpn(t, 4)
        from treetn.factorize import FactorizeConfig, reconstruct_sweep

        state, reports = reconstruct_sweep(state, FactorizeConfig(chi_init=4, n_max=1))
        path = tmp_path / "basic.csv"
        write_basic_csv(path, state.topology, reports[-1], with_energy=False, with_fidelity=False)
        header = path.read_text().splitlines()[0]
        assert header == "node1,node2,entanglement_entropy,truncation_error"


class TestTensorBundle:
    def test_round_trip_real(self, tmp_path, rng):
        raw = rng.standard_normal((2,) * 6) * 3.2
        t = normalize_target(raw)
        state = sequential_svd_to_mpn(t, 8)
        save_tensor_bundle(tmp_path / "bundle", state)
        back = load_tensor_bundle(tmp_path / "bundle")
        assert back.topology.snapshot() == state.topology.snapshot()
        np.testing.assert_allclose(
            to_dense(back) * back.norm_scale, raw, atol=1e-12
        )

    def test_round_trip_complex(self, tmp_path, rng):
        raw = rng.standard_normal((2,) * 4) + 1j * rng.standard_normal((2,) * 4)
        t = normalize_target(raw)
        state = sequential_svd_to_mpn(t, 4)
        save_tensor_bundle(tmp_path / "bundle", state)
        back = load_tensor_bundle(tmp_path / "bundle")
        assert back.tensors[0].dtype == np.complex128
        np.testing.assert_allclose(to_dense(back) * back.norm_scale, raw, atol=1e-12)

    def test_npy_format_markers(self, tmp_path, rng):
        t = normalize_target(rng.standard_normal((2,) * 4))
        state = sequential_svd_to_mpn(t, 4)
        save_tensor_bundle(tmp_path / "bundle", state)
        head = (tmp_path / "bundle" / "isometry0.npy").read_bytes()[:8]
        assert head[:6] == b"\x93NUMPY"
        assert head[6] == 1  # format version 1.x

    def test_missing_piece_rejected(self, tmp_path, rng):
        t = normalize_target(rng.standard_normal((2,) * 4))
        state = sequential_svd_to_mpn(t, 4)
        save_tensor_bundle(tmp_path / "bundle", state)
        (tmp_path / "bundle" / "isometry1.npy").unlink()
        with pytest.raises(LoadError):
            load_tensor_bundle(tmp_path / "bundle")

    def test_truncated_state_round_trip(self, tmp_path, rng):
        t = normalize_target(rng.standard_normal((2,) * 8))
        state = sequential_svd_to_mpn(t, 3)
        assert state.max_bond_dimension() == 3
        save_tensor_bundle(tmp_path / "bundle", state)
        back = load_tensor_bundle(tmp_path / "bundle")
        np.testing.assert_array_equal(to_dense(back), to_dense(state))


def _rewrite(directory, name, change):
    np.save(directory / name, change(np.load(directory / name)))


def _poison(value, a):
    a = np.array(a, dtype=float)
    a.flat[0] = value
    return a


def _narrow_third_leg(tensor):
    d1, d2, d3 = tensor.shape
    q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((d1 * d2, d3 - 1)))
    return q.reshape(d1, d2, d3 - 1)


class TestBundleValidation:
    """A bundle that breaks a network invariant fails to load with a
    LoadError naming the file at fault."""

    @pytest.mark.parametrize(
        "name, change, problem",
        [
            ("isometry1.npy", lambda v: 1.5 * v, "isometry defect"),
            ("isometry3.npy", _narrow_third_leg, "carries dims"),
            ("isometry2.npy", lambda v: v[:, :, 0], "legs"),
            ("singular_values.npy", lambda w: 2.0 * w, "square-sum"),
            ("isometry1.npy", partial(_poison, np.nan), "isometry defect"),
            ("singular_values.npy", partial(_poison, np.nan), "square-sum"),
            ("norm.npy", partial(_poison, np.nan), "norm.npy"),
            ("norm.npy", partial(_poison, np.inf), "norm.npy"),
            ("norm.npy", lambda v: v.astype(str), "not real numbers"),
            ("norm.npy", lambda v: v.astype(complex), "not real numbers"),
            ("isometry1.npy", lambda v: v.astype(str), "not numbers"),
            ("singular_values.npy", lambda w: w.astype(str), "not real numbers"),
            ("singular_values.npy", lambda w: w.astype(complex), "not real numbers"),
        ],
    )
    def test_corrupt_piece_rejected(self, tmp_path, rng, name, change, problem):
        state = sequential_svd_to_mpn(normalize_target(rng.standard_normal((2,) * 6)), 8)
        bundle = tmp_path / "bundle"
        save_tensor_bundle(bundle, state)
        _rewrite(bundle, name, change)
        with pytest.raises(LoadError, match=problem) as err:
            load_tensor_bundle(bundle)
        assert name in str(err.value)
        assert str(bundle) in str(err.value)

    def test_broken_graph_rejected(self, tmp_path, rng):
        state = sequential_svd_to_mpn(normalize_target(rng.standard_normal((2,) * 6)), 8)
        bundle = tmp_path / "bundle"
        save_tensor_bundle(bundle, state)
        (bundle / "graph.dat").write_text("0 1 6\n6 2 7\n8 3 7\n4 4 8\n")
        with pytest.raises(LoadError, match="graph.dat"):
            load_tensor_bundle(bundle)

    def test_non_integer_graph_label_rejected(self, tmp_path, rng):
        state = sequential_svd_to_mpn(normalize_target(rng.standard_normal((2,) * 6)), 8)
        bundle = tmp_path / "bundle"
        save_tensor_bundle(bundle, state)
        (bundle / "graph.dat").write_text("0 1 x\n6 2 7\n8 3 7\n4 5 8\n")
        with pytest.raises(LoadError, match="graph.dat: malformed graph line") as err:
            load_tensor_bundle(bundle)
        assert str(bundle) in str(err.value)

    @pytest.mark.parametrize("name", ["norm.npy", "singular_values.npy", "isometry2.npy"])
    def test_missing_array_rejected(self, tmp_path, rng, name):
        state = sequential_svd_to_mpn(normalize_target(rng.standard_normal((2,) * 6)), 8)
        bundle = tmp_path / "bundle"
        save_tensor_bundle(bundle, state)
        (bundle / name).unlink()
        with pytest.raises(LoadError, match=f"lacks {name}") as err:
            load_tensor_bundle(bundle)
        assert str(bundle) in str(err.value)

    @pytest.mark.parametrize("junk", [b"not an npy file", b""])
    def test_unreadable_array_rejected(self, tmp_path, rng, junk):
        state = sequential_svd_to_mpn(normalize_target(rng.standard_normal((2,) * 6)), 8)
        bundle = tmp_path / "bundle"
        save_tensor_bundle(bundle, state)
        (bundle / "isometry1.npy").write_bytes(junk)
        with pytest.raises(LoadError, match="isometry1.npy") as err:
            load_tensor_bundle(bundle)
        assert str(bundle) in str(err.value)

    def test_non_scalar_norm_rejected(self, tmp_path, rng):
        state = sequential_svd_to_mpn(normalize_target(rng.standard_normal((2,) * 6)), 8)
        bundle = tmp_path / "bundle"
        save_tensor_bundle(bundle, state)
        np.save(bundle / "norm.npy", np.ones(3))
        with pytest.raises(LoadError, match="norm.npy"):
            load_tensor_bundle(bundle)
