"""Spin Hamiltonian definition: local operators and coupling tables.

A model is stored as raw tables (exchange rows, per-axis fields, single-ion
anisotropy, antisymmetric and symmetric off-diagonal exchange) plus derived
term lists every engine path consumes: per-pair lists of
``(kind_i, kind_j, coefficient)`` and per-site lists of
``(kind, coefficient)``, with kinds drawn from ``z, +, -, x, z2``. Writing
the expansions over raising/lowering operators keeps the arithmetic real
whenever the Hamiltonian allows it.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import LoadError

__all__ = [
    "SpinModel",
    "local_spin_matrices",
    "spin_dimension",
    "parse_spin_size",
    "PairTerm",
    "SiteTerm",
]

PairTerm = tuple[str, str, complex]
SiteTerm = tuple[str, complex]

AXES = ("x", "y", "z")


def parse_spin_size(value) -> float:
    """Parse a spin size: integer, integral float, or a fraction string.

    Half-odd sizes must be written as fractions ("1/2", "3/2"); decimal
    half-odd values are rejected.
    """
    if isinstance(value, str):
        try:
            frac = Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise LoadError(f"cannot parse spin size {value!r}") from exc
    elif isinstance(value, int):
        frac = Fraction(value)
    elif isinstance(value, float):
        if not value.is_integer():
            raise LoadError(
                f"decimal spin size {value!r} not accepted; use a fraction string"
            )
        frac = Fraction(int(value))
    else:
        raise LoadError(f"unsupported spin size {value!r}")
    if frac <= 0 or frac.denominator not in (1, 2):
        raise LoadError(f"spin size must be a positive (half-)integer, got {value!r}")
    return float(frac)


def spin_dimension(s: float) -> int:
    return int(round(2 * s)) + 1


def local_spin_matrices(s: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Spin operators (s^z, s^+, s^x, s^y) for spin size ``s``.

    Basis states are ordered by descending magnetization.
    """
    two_s = round(2 * s)
    if abs(2 * s - two_s) > 1e-12 or s <= 0:
        raise ValueError(f"spin size must be a positive (half-)integer, got {s}")
    dim = two_s + 1
    m = s - np.arange(dim)
    sz = np.diag(m)
    sp = np.zeros((dim, dim))
    for k in range(1, dim):
        # raising connects |m> to |m+1>: row k-1, column k
        sp[k - 1, k] = np.sqrt(s * (s + 1) - m[k] * (m[k] + 1))
    sx = (sp + sp.T) / 2
    sy = (sp - sp.T) / 2j
    return sz, sp, sx, sy


def _check_pairs(rows, n, what):
    seen = set()
    for row in rows:
        i, j = row[0], row[1]
        if not (0 <= i < j < n):
            raise LoadError(f"{what}: need 0 <= i < j < N, got pair ({i}, {j})")
        if (i, j) in seen:
            raise LoadError(f"{what}: duplicate pair ({i}, {j})")
        seen.add((i, j))
        for value in row[2:]:
            if not cmath.isfinite(value):
                raise LoadError(f"{what}: non-finite value {value!r} for pair ({i}, {j})")


def _check_sites(table, n, what):
    for i, value in table.items():
        if not 0 <= i < n:
            raise LoadError(f"{what}: site {i} out of range")
        if not cmath.isfinite(value):
            raise LoadError(f"{what}: non-finite value {value!r} at site {i}")


def _dm_sod_terms(axis: str, c: float, sod: bool) -> list[PairTerm]:
    """Dzyaloshinskii-Moriya terms, or with ``sod`` the symmetric off-diagonal
    ones: one half and its mirror with the sites swapped, negated for DM."""
    half = -0.5j * c
    first = {
        "x": [("+", "z", half), ("-", "z", -half)],
        "y": [("z", "x", c)],
        "z": [("x", "+", half), ("x", "-", -half)],
    }[axis]
    return first + [(kb, ka, v if sod else -v) for ka, kb, v in first]


def _field_terms(axis: str, h: float) -> list[SiteTerm]:
    if axis == "z":
        return [("z", -h)]
    if axis == "x":
        return [("x", -h)]
    return [("+", 0.5j * h), ("-", -0.5j * h)]


@dataclass
class SpinModel:
    """Site spin sizes plus all Hamiltonian term tables."""

    n_sites: int
    spin_sizes: list[float]
    exchange_type: str = "XXZ"
    exchange_rows: list[tuple] = field(default_factory=list)
    field_tables: dict[str, dict[int, float]] = field(default_factory=dict)
    sia_table: dict[int, float] = field(default_factory=dict)
    dm_tables: dict[str, list[tuple[int, int, float]]] = field(default_factory=dict)
    sod_tables: dict[str, list[tuple[int, int, float]]] = field(default_factory=dict)

    pair_terms: dict[tuple[int, int], list[PairTerm]] = field(init=False)
    neighbours: list[tuple[int, ...]] = field(init=False)  # sorted, per site
    site_terms: dict[int, list[SiteTerm]] = field(init=False)
    dtype: np.dtype = field(init=False)

    def __post_init__(self):
        n = self.n_sites
        if len(self.spin_sizes) != n:
            raise LoadError(
                f"expected {n} spin sizes, got {len(self.spin_sizes)}"
            )
        self.exchange_type = self.exchange_type.upper()
        if self.exchange_type not in ("XXZ", "XYZ"):
            raise LoadError(f"unknown exchange type {self.exchange_type!r}")
        want_cols = 4 if self.exchange_type == "XXZ" else 5
        for row in self.exchange_rows:
            if len(row) != want_cols:
                raise LoadError(
                    f"exchange rows need {want_cols} columns for "
                    f"{self.exchange_type}, got {row}"
                )
        _check_pairs(self.exchange_rows, n, "exchange table")
        for tables, what, check in ((self.dm_tables, "DM_{} table", _check_pairs),
                                    (self.sod_tables, "SOD_{} table", _check_pairs),
                                    (self.field_tables, "MF_{}", _check_sites)):
            for axis, table in tables.items():
                if axis not in AXES:
                    raise LoadError(f"{what.format(axis)}: unknown axis {axis!r}, want x, y or z")
                check(table, n, what.format(axis))
        _check_sites(self.sia_table, n, "SIA")

        self.pair_terms = self._build_pair_terms()
        self.site_terms = self._build_site_terms()
        # the arithmetic field: real unless some term carries an imaginary
        # coefficient (y fields, x/z antisymmetric or off-diagonal exchange)
        complex_needed = any(
            coef.imag != 0.0
            for terms in self.pair_terms.values()
            for _, _, coef in terms
        ) or any(
            coef.imag != 0.0
            for terms in self.site_terms.values()
            for _, coef in terms
        )
        self.dtype = np.dtype(complex if complex_needed else float)
        if not complex_needed:
            self.pair_terms = {
                key: [(ka, kb, coef.real) for ka, kb, coef in terms]
                for key, terms in self.pair_terms.items()
            }
            self.site_terms = {
                site: [(k, coef.real) for k, coef in terms]
                for site, terms in self.site_terms.items()
            }
        adjacent: list[list[int]] = [[] for _ in range(n)]
        for i, j in self.pair_terms:
            adjacent[i].append(j)
            adjacent[j].append(i)
        self.neighbours = [tuple(sorted(a)) for a in adjacent]

    def _build_pair_terms(self):
        terms: dict[tuple[int, int], list[PairTerm]] = {}

        def add(i, j, items):
            terms.setdefault((i, j), []).extend(
                (ka, kb, complex(c)) for ka, kb, c in items if c != 0.0
            )

        for row in self.exchange_rows:
            if self.exchange_type == "XXZ":
                i, j, jc, dz = row
                add(i, j, [("+", "-", jc / 2), ("-", "+", jc / 2), ("z", "z", jc * dz)])
            else:
                i, j, jx, jy, jz = row
                add(
                    i,
                    j,
                    [
                        ("+", "+", (jx - jy) / 4),
                        ("-", "-", (jx - jy) / 4),
                        ("+", "-", (jx + jy) / 4),
                        ("-", "+", (jx + jy) / 4),
                        ("z", "z", jz),
                    ],
                )
        for sod, tables in ((False, self.dm_tables), (True, self.sod_tables)):
            for axis, rows in tables.items():
                for i, j, c in rows:
                    add(i, j, _dm_sod_terms(axis, c, sod))
        return {k: v for k, v in terms.items() if v}

    def _build_site_terms(self):
        terms: dict[int, list[SiteTerm]] = {}
        for axis, table in self.field_tables.items():
            for i, h in table.items():
                if h != 0.0:
                    terms.setdefault(i, []).extend(
                        (k, complex(c)) for k, c in _field_terms(axis, h)
                    )
        for i, d in self.sia_table.items():
            if d != 0.0:
                terms.setdefault(i, []).append(("z2", complex(d)))
        return terms

    def site_dimension(self, i: int) -> int:
        return spin_dimension(self.spin_sizes[i])

    def bare_operators(self, i: int) -> np.ndarray:
        """Operators ``z`` and ``+`` of site ``i`` in the model field, ``(2, d, d)``."""
        sz, sp, _, _ = local_spin_matrices(self.spin_sizes[i])
        return np.stack([sz, sp]).astype(self.dtype)
