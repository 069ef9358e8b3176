"""Tests for spin operators, spin-size parsing, and model term tables."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treetn.errors import LoadError
from treetn.spinmodel import (
    SpinModel,
    _dm_sod_terms,
    local_spin_matrices,
    parse_spin_size,
    spin_dimension,
)


class TestLocalSpinMatrices:
    def test_spin_half(self):
        sz, sp, sx, sy = local_spin_matrices(0.5)
        np.testing.assert_allclose(sz, np.diag([0.5, -0.5]))
        np.testing.assert_allclose(sp, [[0, 1], [0, 0]])
        np.testing.assert_allclose(sx, [[0, 0.5], [0.5, 0]])
        np.testing.assert_allclose(sy, [[0, -0.5j], [0.5j, 0]])

    def test_spin_one_ladder(self):
        _, sp, _, _ = local_spin_matrices(1.0)
        np.testing.assert_allclose(np.diag(sp, k=1), [np.sqrt(2), np.sqrt(2)])

    @given(two_s=st.integers(1, 8))
    @settings(max_examples=8, deadline=None)
    def test_commutators(self, two_s):
        s = two_s / 2
        sz, sp, sx, sy = local_spin_matrices(s)
        sm = sp.conj().T
        np.testing.assert_allclose(sz @ sp - sp @ sz, sp, atol=1e-12)
        np.testing.assert_allclose(sz @ sm - sm @ sz, -sm, atol=1e-12)
        np.testing.assert_allclose(sx @ sy - sy @ sx, 1j * sz, atol=1e-12)
        casimir = sx @ sx + sy @ sy + sz @ sz
        np.testing.assert_allclose(casimir, s * (s + 1) * np.eye(two_s + 1), atol=1e-12)

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            local_spin_matrices(0.3)
        with pytest.raises(ValueError):
            local_spin_matrices(0.0)


class TestParseSpinSize:
    @pytest.mark.parametrize(
        "value,expected",
        [("1/2", 0.5), ("3/2", 1.5), (1, 1.0), (2.0, 2.0), ("2", 2.0)],
    )
    def test_accepted(self, value, expected):
        assert parse_spin_size(value) == expected

    @pytest.mark.parametrize("value", [0.5, 1.5, "0", "-1/2", "abc", None])
    def test_rejected(self, value):
        with pytest.raises(LoadError):
            parse_spin_size(value)

    def test_dimension(self):
        assert spin_dimension(0.5) == 2
        assert spin_dimension(1.5) == 4


class TestSpinModelValidation:
    def test_pair_order_enforced(self):
        with pytest.raises(LoadError):
            SpinModel(n_sites=4, spin_sizes=[0.5] * 4, exchange_rows=[(1, 0, 1.0, 1.0)])

    def test_duplicate_pair_within_table(self):
        with pytest.raises(LoadError):
            SpinModel(
                n_sites=4,
                spin_sizes=[0.5] * 4,
                exchange_rows=[(0, 1, 1.0, 1.0), (0, 1, 0.5, 1.0)],
            )

    def test_duplicate_pair_across_tables_allowed(self):
        model = SpinModel(
            n_sites=4,
            spin_sizes=[0.5] * 4,
            exchange_rows=[(0, 1, 1.0, 1.0)],
            dm_tables={"y": [(0, 1, 0.3)]},
        )
        assert len(model.pair_terms[(0, 1)]) > 3

    def test_wrong_column_count(self):
        with pytest.raises(LoadError):
            SpinModel(
                n_sites=4,
                spin_sizes=[0.5] * 4,
                exchange_type="XYZ",
                exchange_rows=[(0, 1, 1.0, 1.0)],
            )

    def test_site_out_of_range(self):
        with pytest.raises(LoadError):
            SpinModel(
                n_sites=4,
                spin_sizes=[0.5] * 4,
                field_tables={"z": {4: 1.0}},
            )

    def test_non_finite_values_named(self):
        """A NaN coupling fails at construction, naming the table and the
        pair, not later in the eigensolver."""
        rows = [(0, 1, 1.0, 1.0), (1, 2, float("nan"), 1.0), (2, 3, 1.0, 1.0)]
        with pytest.raises(LoadError, match=r"exchange table: .* nan for pair \(1, 2\)"):
            SpinModel(n_sites=4, spin_sizes=[0.5] * 4, exchange_rows=rows,
                      field_tables={"z": {0: float("inf")}})

    @pytest.mark.parametrize(
        "tables, message",
        [
            ({"field_tables": {"z": {0: float("inf")}}}, "MF_z: non-finite value inf at site 0"),
            ({"exchange_type": "XYZ", "exchange_rows": [(0, 1, 1.0, -float("inf"), 1.0)]},
             r"exchange table: non-finite value -inf for pair \(0, 1\)"),
            ({"dm_tables": {"x": [(1, 3, float("nan"))]}}, r"DM_x table: .* pair \(1, 3\)"),
            ({"sod_tables": {"y": [(0, 2, float("inf"))]}}, r"SOD_y table: .* pair \(0, 2\)"),
            ({"sia_table": {2: float("nan")}}, "SIA: non-finite value nan at site 2"),
        ],
        ids=["field", "xyz", "dm", "sod", "sia"],
    )
    def test_non_finite_in_every_table(self, tables, message):
        with pytest.raises(LoadError, match=message):
            SpinModel(n_sites=4, spin_sizes=[0.5] * 4, **tables)

    @pytest.mark.parametrize("tables, message", [
        ({"field_tables": {"w": {0: 0.3}}}, r"MF_w: unknown axis 'w'"),
        ({"dm_tables": {"q": [(0, 1, 0.2)]}}, r"DM_q table: unknown axis 'q'"),
        ({"sod_tables": {"xy": [(0, 1, 0.2)]}}, r"SOD_xy table: unknown axis 'xy'"),
    ])
    def test_unknown_axis_named(self, tables, message):
        with pytest.raises(LoadError, match=message):
            SpinModel(n_sites=4, spin_sizes=[0.5] * 4, **tables)

    @pytest.mark.parametrize("axis", ["x", "y", "z"])
    def test_every_axis_builds(self, axis):
        model = SpinModel(
            n_sites=4, spin_sizes=[0.5] * 4, field_tables={axis: {0: 0.3}},
            dm_tables={axis: [(0, 1, 0.2)]}, sod_tables={axis: [(1, 2, 0.1)]},
        )
        assert model.pair_terms and model.site_terms

    def test_spin_count_mismatch(self):
        with pytest.raises(LoadError):
            SpinModel(n_sites=4, spin_sizes=[0.5] * 3)


class TestArithmeticField:
    def xxz(self, **kw):
        return SpinModel(
            n_sites=4,
            spin_sizes=[0.5] * 4,
            exchange_rows=[(0, 1, 1.0, 1.0)],
            **kw,
        )

    def test_real_cases(self):
        assert self.xxz().dtype == np.dtype(float)
        assert self.xxz(field_tables={"z": {0: 1.0}, "x": {1: 0.5}}).dtype == float
        assert self.xxz(sia_table={0: 0.4}).dtype == float
        assert self.xxz(dm_tables={"y": [(0, 1, 0.3)]}).dtype == float
        assert self.xxz(sod_tables={"y": [(0, 1, 0.3)]}).dtype == float

    def test_complex_cases(self):
        assert self.xxz(field_tables={"y": {0: 1.0}}).dtype == complex
        assert self.xxz(dm_tables={"x": [(0, 1, 0.3)]}).dtype == complex
        assert self.xxz(dm_tables={"z": [(0, 1, 0.3)]}).dtype == complex
        assert self.xxz(sod_tables={"x": [(0, 1, 0.3)]}).dtype == complex
        assert self.xxz(sod_tables={"z": [(0, 1, 0.3)]}).dtype == complex

    def test_zero_coefficients_stay_real(self):
        assert self.xxz(field_tables={"y": {0: 0.0}}).dtype == float


class TestTermTables:
    def test_xxz_expansion(self):
        model = SpinModel(
            n_sites=4, spin_sizes=[0.5] * 4, exchange_rows=[(0, 2, 2.0, 0.5)]
        )
        terms = dict(((a, b), c) for a, b, c in model.pair_terms[(0, 2)])
        assert terms[("+", "-")] == 1.0
        assert terms[("-", "+")] == 1.0
        assert terms[("z", "z")] == 1.0

    def test_field_terms(self):
        model = SpinModel(
            n_sites=4,
            spin_sizes=[0.5] * 4,
            field_tables={"z": {1: 0.25}},
        )
        assert model.site_terms[1] == [("z", -0.25)]

    def test_pair_term_matrices_match_axis_products(self):
        """Every expansion reproduces coef * s^a_i s^b_j summed over terms."""
        sz, sp, sx, sy = local_spin_matrices(0.5)
        ops = {"z": sz, "+": sp, "-": sp.conj().T, "x": sx, "y": sy}
        cases = {
            "dm_x": (
                SpinModel(
                    n_sites=2, spin_sizes=[0.5] * 2, dm_tables={"x": [(0, 1, 0.7)]}
                ),
                0.7 * (np.kron(sy, sz) - np.kron(sz, sy)),
            ),
            "dm_z": (
                SpinModel(
                    n_sites=2, spin_sizes=[0.5] * 2, dm_tables={"z": [(0, 1, 0.7)]}
                ),
                0.7 * (np.kron(sx, sy) - np.kron(sy, sx)),
            ),
            "sod_x": (
                SpinModel(
                    n_sites=2, spin_sizes=[0.5] * 2, sod_tables={"x": [(0, 1, 0.7)]}
                ),
                0.7 * (np.kron(sy, sz) + np.kron(sz, sy)),
            ),
            "sod_z": (
                SpinModel(
                    n_sites=2, spin_sizes=[0.5] * 2, sod_tables={"z": [(0, 1, 0.7)]}
                ),
                0.7 * (np.kron(sx, sy) + np.kron(sy, sx)),
            ),
            "xyz": (
                SpinModel(
                    n_sites=2,
                    spin_sizes=[0.5] * 2,
                    exchange_type="XYZ",
                    exchange_rows=[(0, 1, 1.1, 0.6, 0.4)],
                ),
                1.1 * np.kron(sx, sx) + 0.6 * np.kron(sy, sy) + 0.4 * np.kron(sz, sz),
            ),
        }
        for name, (model, expected) in cases.items():
            built = sum(
                c * np.kron(ops[a], ops[b]) for a, b, c in model.pair_terms[(0, 1)]
            )
            np.testing.assert_allclose(built, expected, atol=1e-14, err_msg=name)

    def test_dm_and_sod_tables(self):
        """SOD is DM with the sign of the site-swapped half flipped."""
        c, h = 0.7, -0.35j
        tables = {
            ("x", False): [("+", "z", h), ("-", "z", -h), ("z", "+", -h), ("z", "-", h)],
            ("y", False): [("z", "x", c), ("x", "z", -c)],
            ("z", False): [("x", "+", h), ("x", "-", -h), ("+", "x", -h), ("-", "x", h)],
            ("x", True): [("+", "z", h), ("-", "z", -h), ("z", "+", h), ("z", "-", -h)],
            ("y", True): [("z", "x", c), ("x", "z", c)],
            ("z", True): [("x", "+", h), ("x", "-", -h), ("+", "x", h), ("-", "x", -h)],
        }
        for (axis, sod), expected in tables.items():
            assert _dm_sod_terms(axis, c, sod) == expected, (axis, sod)
