"""End-to-end tests of the gss, ft, and bench command-line entry points."""

import re

import numpy as np
import pytest

from treetn import sweeps
from treetn.benchmarks import ed_oracle
from treetn.cli import bench_main, ft_main, gss_main
from treetn.fileio import load_tensor_bundle
from treetn.spinmodel import SpinModel
from treetn.state import to_dense


@pytest.fixture
def gss_workspace(tmp_path):
    (tmp_path / "couplings.dat").write_text(
        "0 1 1.0 1.0\n1 2 1.0 1.0\n2 3 1.0 1.0\n3 4 1.0 1.0\n4 5 1.0 1.0\n"
    )
    (tmp_path / "input.yml").write_text(
        """
system:
  N: 6
  spin_size: 1/2
  model:
    type: XXZ
    file: couplings.dat
numerics:
  initial_bond_dimension: 4
  max_bond_dimensions: [8]
  max_num_sweeps: [8]
output:
  dir: results
  single_site: 1
  two_site: 1
"""
    )
    return tmp_path


class TestGssCli:
    def test_run_and_outputs(self, gss_workspace, capsys):
        rc = gss_main([str(gss_workspace / "input.yml"), "--verify"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "energy:" in out
        energy = float(out.split("energy:")[1].strip().splitlines()[0])
        model = SpinModel(
            n_sites=6,
            spin_sizes=[0.5] * 6,
            exchange_rows=[(i, i + 1, 1.0, 1.0) for i in range(5)],
        )
        assert energy == pytest.approx(ed_oracle(model).energy, rel=1e-8)
        run1 = gss_workspace / "results" / "run1"
        for name in ("basic.csv", "graph.dat", "single_site.csv", "two_site.csv"):
            assert (run1 / name).exists()

    def test_stage_endings_reported(self, gss_workspace, capsys):
        config = gss_workspace / "input.yml"
        config.write_text(
            config.read_text()
            .replace("max_bond_dimensions: [8]", "max_bond_dimensions: [4, 8]")
            .replace("max_num_sweeps: [8]", "max_num_sweeps: [8, 2]")
        )
        assert gss_main([str(config)]) == 0
        lines = capsys.readouterr().out.splitlines()
        stages = [line for line in lines if line.startswith("stage ")]
        assert len(stages) == 2
        assert re.fullmatch(r"stage 1 \(chi 4\): converged after [4-7] sweeps", stages[0])
        assert stages[1] == "stage 2 (chi 8): hit the sweep limit 2"

    def test_settling_on_the_last_allowed_sweep_reads_converged(
        self, gss_workspace, capsys, monkeypatch
    ):
        config = gss_workspace / "input.yml"
        config.write_text(config.read_text().replace("max_num_sweeps: [8]", "max_num_sweeps: [4]"))
        # the three compared pairs of the four sweeps all settle
        answers = iter([True] * sweeps.SETTLED_SWEEPS)
        monkeypatch.setattr(sweeps, "settled", lambda *args, **kwargs: next(answers))
        assert gss_main([str(config)]) == 0
        assert "stage 1 (chi 8): converged after 4 sweeps" in capsys.readouterr().out.splitlines()

    def test_missing_config_fails(self, tmp_path, capsys):
        rc = gss_main([str(tmp_path / "nope.yml")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_model_file_fails(self, gss_workspace, capsys):
        (gss_workspace / "couplings.dat").write_text("0 not-a-number\n")
        rc = gss_main([str(gss_workspace / "input.yml")])
        assert rc == 1


@pytest.fixture
def ft_workspace(tmp_path, rng):
    raw = rng.standard_normal((2,) * 6)
    np.save(tmp_path / "psi.npy", raw)
    (tmp_path / "input.yml").write_text(
        """
target:
  tensor: psi.npy
numerics:
  initial_bond_dimension: 8
  opt_structure:
    type: 1
  max_sweep_num: 8
output:
  dir: results
  tensors: 1
"""
    )
    return tmp_path


class TestFtCli:
    def test_factorize_and_bundle(self, ft_workspace, capsys):
        rc = ft_main([str(ft_workspace / "input.yml"), "--verify"])
        assert rc == 0
        out_dir = ft_workspace / "results"
        assert (out_dir / "basic.csv").exists()
        assert (out_dir / "graph.dat").exists()
        state = load_tensor_bundle(out_dir)
        raw = np.load(ft_workspace / "psi.npy")
        np.testing.assert_allclose(to_dense(state) * state.norm_scale, raw, atol=1e-8)
        header = (out_dir / "basic.csv").read_text().splitlines()[0]
        assert header == "node1,node2,entanglement_entropy,truncation_error"

    def test_reconstruction_from_bundle(self, ft_workspace, tmp_path):
        assert ft_main([str(ft_workspace / "input.yml")]) == 0
        (ft_workspace / "recon.yml").write_text(
            """
target:
  tensors: results
numerics:
  initial_bond_dimension: 8
  opt_structure:
    type: 1
  max_sweep_num: 5
output:
  dir: recon_out
"""
        )
        assert ft_main([str(ft_workspace / "recon.yml")]) == 0
        assert (ft_workspace / "recon_out" / "basic.csv").exists()

    def test_reconstruction_obeys_initial_bond_dimension(self, ft_workspace):
        assert ft_main([str(ft_workspace / "input.yml")]) == 0
        assert max(load_tensor_bundle(ft_workspace / "results").bond_dimensions().values()) > 2
        (ft_workspace / "recon.yml").write_text(
            """
target:
  tensors: results
numerics:
  initial_bond_dimension: 2
  opt_structure:
    type: 1
  max_sweep_num: 5
output:
  dir: recon_out
  tensors: 1
"""
        )
        assert ft_main([str(ft_workspace / "recon.yml")]) == 0
        rebuilt = load_tensor_bundle(ft_workspace / "recon_out")
        assert max(rebuilt.bond_dimensions().values()) <= 2

    def test_reconstruction_requires_opt_mode(self, ft_workspace):
        assert ft_main([str(ft_workspace / "input.yml")]) == 0
        (ft_workspace / "recon.yml").write_text(
            """
target:
  tensors: results
numerics:
  initial_bond_dimension: 8
  max_sweep_num: 5
output:
  dir: recon_out
"""
        )
        assert ft_main([str(ft_workspace / "recon.yml")]) == 1

    def test_reconstruction_refuses_fidelity(self, ft_workspace, capsys):
        """Fidelity sweeps need a dense target, which a bundle lacks."""
        assert ft_main([str(ft_workspace / "input.yml")]) == 0
        (ft_workspace / "recon.yml").write_text(
            """
target:
  tensors: results
numerics:
  initial_bond_dimension: 8
  opt_structure:
    type: 1
  fidelity:
    max_bond_dimensions: [8]
    max_num_sweeps: [2]
output:
  dir: recon_out
"""
        )
        capsys.readouterr()
        assert ft_main([str(ft_workspace / "recon.yml")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "numerics.fidelity" in err
        assert not (ft_workspace / "recon_out" / "basic.csv").exists()

    @pytest.mark.parametrize("junk", [b"not an npy file", b"", None])
    def test_unreadable_target_fails(self, ft_workspace, capsys, junk):
        target = ft_workspace / "psi.npy"
        if junk is None:
            target.unlink()
        else:
            target.write_bytes(junk)
        assert ft_main([str(ft_workspace / "input.yml")]) == 1
        assert "psi.npy" in capsys.readouterr().err

    def test_non_numeric_target_fails(self, ft_workspace, capsys):
        np.save(ft_workspace / "psi.npy", np.full((2,) * 6, "abc"))
        assert ft_main([str(ft_workspace / "input.yml")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "<U3" in err

    def test_non_numeric_bundle_piece_fails(self, ft_workspace, capsys):
        assert ft_main([str(ft_workspace / "input.yml")]) == 0
        np.save(ft_workspace / "results" / "norm.npy", np.array("abc"))
        (ft_workspace / "recon.yml").write_text(
            """
target:
  tensors: results
numerics:
  initial_bond_dimension: 8
  opt_structure:
    type: 1
output:
  dir: recon_out
"""
        )
        capsys.readouterr()
        assert ft_main([str(ft_workspace / "recon.yml")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "norm.npy holds <U3, not real numbers" in err

    def test_fidelity_column_present(self, ft_workspace):
        (ft_workspace / "fid.yml").write_text(
            """
target:
  tensor: psi.npy
numerics:
  initial_bond_dimension: 4
  fidelity:
    opt_structure:
      type: 1
    max_bond_dimensions: [4, 8]
    max_num_sweeps: [5, 5]
output:
  dir: fid_out
"""
        )
        assert ft_main([str(ft_workspace / "fid.yml")]) == 0
        header = (ft_workspace / "fid_out" / "basic.csv").read_text().splitlines()[0]
        assert header == "node1,node2,entanglement_entropy,truncation_error,fidelity"


class TestBenchCli:
    def test_hierarchical_inputs(self, tmp_path):
        rc = bench_main(
            ["hierarchical", "--out", str(tmp_path / "w"), "--depth", "3"]
        )
        assert rc == 0
        assert (tmp_path / "w" / "couplings.dat").exists()
        rc = gss_main([str(tmp_path / "w" / "input.yml")])
        assert rc == 0

    def test_quantics_inputs(self, tmp_path):
        rc = bench_main(
            ["quantics", "--out", str(tmp_path / "q"), "--bits", "2", "--waves", "3"]
        )
        assert rc == 0
        tensor = np.load(tmp_path / "q" / "tensor.npy")
        assert tensor.shape == (2,) * 6

    def test_normal_inputs(self, tmp_path):
        rc = bench_main(
            ["normal", "--out", str(tmp_path / "n"), "--vars", "4", "--bits", "2"]
        )
        assert rc == 0
        assert ft_main([str(tmp_path / "n" / "input.yml")]) == 0
