"""The README's YAML examples parse as documented: no unknown key, no error."""

import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from treetn.fileio import parse_ft_config, parse_gss_config

README = Path(__file__).resolve().parent.parent / "README.md"


def yaml_blocks(text):
    return re.findall(r"^```yaml\n(.*?)^```", text, flags=re.MULTILINE | re.DOTALL)


@pytest.fixture
def workspace(tmp_path):
    """The files the examples name, for the README's 16-site system."""
    n = 16
    (tmp_path / "couplings.dat").write_text(
        "".join(f"{i} {i + 1} 1.0 0.5\n" for i in range(n - 1))
    )
    (tmp_path / "sia.dat").write_text("".join(f"{i} 0.1\n" for i in range(n)))
    (tmp_path / "dm.dat").write_text("0 1 0.2\n2 3 0.2\n")
    (tmp_path / "sod.dat").write_text("4 5 0.3\n")
    np.save(tmp_path / "psi.npy", np.ones((2,) * 6))
    return tmp_path


def parse_quietly(parse, path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return parse(path)


class TestReadmeExamples:
    def test_two_examples(self):
        blocks = yaml_blocks(README.read_text())
        assert [b.split(":", 1)[0] for b in blocks] == ["system", "target"]

    def test_gss_example_parses(self, workspace):
        gss, _ = yaml_blocks(README.read_text())
        (workspace / "input.yml").write_text(gss)
        model, config, flags = parse_quietly(parse_gss_config, workspace / "input.yml")
        assert model.n_sites == 16
        assert [s.chi for s in config.stages] == [16, 32]
        assert flags.single_site and flags.two_site

    def test_ft_example_parses(self, workspace):
        _, ft = yaml_blocks(README.read_text())
        (workspace / "input.yml").write_text(ft)
        target, config, flags = parse_quietly(parse_ft_config, workspace / "input.yml")
        assert target.kind == "tensor"
        assert target.path == workspace / "psi.npy"
        assert [s.chi for s in config.fidelity] == [8, 16]
        assert flags.tensors
