"""Embedded expected-value tables and the verification harness.

The closed forms below are transcriptions of the published invariant tables
for the two-orbit catalog.  `verify` recomputes every value from the Dynkin
diagram alone, through `stability_verdicts`, which walks the diagram once per
run of catalog triples on one Dynkin type, and reports each mismatch as
(fixture, row, column, expected, actual).
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from typing import NamedTuple

from .pasquier import (
    Family,
    StabilityReport,
    Verdict,
    enumerate_triples,
    stability_verdicts,
)

# dim_Y, c1_Y, dim_Z, c1_Z, dim_X, c1_X as functions of (n, k)
BL_H_NUM = {
    Family.BN_SPINOR: {
        "dim_Y": lambda n, k: (n + 4) * (n - 1) // 2,
        "c1_Y": lambda n, k: n + 1,
        "dim_Z": lambda n, k: n * (n + 1) // 2,
        "c1_Z": lambda n, k: 2 * n,
        "dim_X": lambda n, k: n * (n + 3) // 2,
        "c1_X": lambda n, k: n + 2,
    },
    Family.B3_SPECIAL: {
        "dim_Y": lambda n, k: 5,
        "c1_Y": lambda n, k: 5,
        "dim_Z": lambda n, k: 6,
        "c1_Z": lambda n, k: 6,
        "dim_X": lambda n, k: 9,
        "c1_X": lambda n, k: 7,
    },
    Family.CN: {
        "dim_Y": lambda n, k: k * (4 * n + 1 - 3 * k) // 2,
        "c1_Y": lambda n, k: 2 * n + 1 - k,
        "dim_Z": lambda n, k: (k - 1) * (4 * n + 4 - 3 * k) // 2,
        "c1_Z": lambda n, k: 2 * n + 2 - k,
        "dim_X": lambda n, k: k * (4 * n - 3 * k + 3) // 2,
        "c1_X": lambda n, k: 2 * n - k + 2,
    },
    Family.F4_HORO: {
        "dim_Y": lambda n, k: 20,
        "c1_Y": lambda n, k: 5,
        "dim_Z": lambda n, k: 20,
        "c1_Z": lambda n, k: 7,
        "dim_X": lambda n, k: 23,
        "c1_X": lambda n, k: 6,
    },
    Family.G2_HORO: {
        "dim_Y": lambda n, k: 5,
        "c1_Y": lambda n, k: 3,
        "dim_Z": lambda n, k: 5,
        "c1_Z": lambda n, k: 5,
        "dim_X": lambda n, k: 7,
        "c1_X": lambda n, k: 4,
    },
}

# rank E_Y, c1(E_Y)
CF_NUM = {
    Family.BN_SPINOR: lambda n, k: (2, 1),
    Family.B3_SPECIAL: lambda n, k: (4, 2),
    Family.CN: lambda n, k: (k, k - 1),
    Family.F4_HORO: lambda n, k: (3, 2),
    Family.G2_HORO: lambda n, k: (2, 1),
}

# rank F, c1(F)
CF = {
    Family.BN_SPINOR: lambda n, k: (2, 1),
    Family.B3_SPECIAL: lambda n, k: (4, 2),
    Family.CN: lambda n, k: (k, 1),
    Family.F4_HORO: lambda n, k: (3, 1),
    Family.G2_HORO: lambda n, k: (2, 1),
    Family.PAS_F4: lambda n, k: (8, 0),
    Family.PAS_A1G2: lambda n, k: (3, 0),
}

# mu(F), mu(Theta_X), and whether mu(F) > mu(Theta_X)
STAB = {
    Family.BN_SPINOR: lambda n, k: (Fraction(1, 2), Fraction(n + 2, n * (n + 3) // 2), n >= 4),
    Family.B3_SPECIAL: lambda n, k: (Fraction(1, 2), Fraction(7, 9), False),
    Family.CN: lambda n, k: (Fraction(1, k), Fraction(2 * n - k + 2, k * (4 * n - 3 * k + 3) // 2), False),
    Family.F4_HORO: lambda n, k: (Fraction(1, 3), Fraction(6, 23), True),
    Family.G2_HORO: lambda n, k: (Fraction(1, 2), Fraction(4, 7), False),
    Family.PAS_F4: lambda n, k: (Fraction(0), Fraction(8, 23), False),
    Family.PAS_A1G2: lambda n, k: (Fraction(0), Fraction(6, 8), False),
}

class Mismatch(NamedTuple):
    fixture: str
    row: str
    column: str
    expected: object
    actual: object

    def __str__(self):
        return (
            f"{self.fixture}[{self.row}].{self.column}: "
            f"expected {self.expected}, actual {self.actual}"
        )


_BL_H_COLUMNS = ("dim_Y", "c1_Y", "dim_Z", "c1_Z", "dim_X", "c1_X")
# (fixture, column) of each cell _check_report compares, in the order it reports them
_CELLS = (("cf", "rank_F"), ("cf", "c1_F"), ("stab", "mu_F"), ("stab", "mu_Theta"), ("stab", "mu_F > mu_Theta"))
_HORO_CELLS = (
    *(("bl_h_num", column) for column in _BL_H_COLUMNS),
    ("cf_num", "rank_EY"),
    ("cf_num", "c1_EY"),
    *_CELLS,
)
FIXTURE_IDS = tuple(dict.fromkeys(f for f, _ in _HORO_CELLS))  # in the order verify reports them
_UNSTABLE = Verdict.UNSTABLE


def _check_report(r: StabilityReport, formulas: tuple) -> list[Mismatch]:
    """The mismatches of one report, against its family's closed forms as _closed_forms gives them."""
    t, v, mu_f, mu_theta, verdict = r
    family, n, k = t
    if family.pinned is None:  # horospherical
        dim_y, c1_y, dim_z, c1_z, dim_x, c1_x, cf_num, cf, stab = formulas
        cells = _HORO_CELLS
        expected = (dim_y(n, k), c1_y(n, k), dim_z(n, k), c1_z(n, k), dim_x(n, k), c1_x(n, k),
                    *cf_num(n, k), *cf(n, k))
        actual = (v.dim_y, v.c1_y, v.dim_z, v.c1_z_scalar(), v.dim_x, v.r_x, v.rank_ey, v.c1_ey, v.rank_f, v.c1_f)
    else:
        cf, stab = formulas
        cells = _CELLS
        expected, actual = cf(n, k), (v.rank_f, v.c1_f)
    stab_mu_f, stab_mu_theta, unstable = stab(n, k)
    # Fraction.__eq__ runs Python code: the slopes compare as (numerator, denominator) pairs
    expected_slopes = (stab_mu_f.as_integer_ratio(), stab_mu_theta.as_integer_ratio(), unstable)
    actual_slopes = (mu_f.as_integer_ratio(), mu_theta.as_integer_ratio(), verdict is _UNSTABLE)
    if expected == actual and expected_slopes == actual_slopes:
        return []
    # a mismatch shows the slopes as the Fractions they are
    expected, actual = (*expected, stab_mu_f, stab_mu_theta, unstable), (*actual, mu_f, mu_theta, actual_slopes[2])
    return [
        Mismatch(fixture, t.triple_id, column, e, a)
        for (fixture, column), e, a in zip(cells, expected, actual, strict=True)
        if e != a
    ]


def _closed_forms(family: Family) -> tuple:
    """A family's closed forms as the tables hold them now, in the order _check_report unpacks them."""
    if family.pinned is not None:
        return CF[family], STAB[family]
    return (*map(BL_H_NUM[family].__getitem__, _BL_H_COLUMNS), CF_NUM[family], CF[family], STAB[family])


def verify(max_n: int) -> list[Mismatch]:
    """Recompute every fixture value for the catalog up to `max_n`, which comes in Family order.  Each
    family run reads its closed forms once, at the call, so a table patched after import is the one checked."""
    mismatches, reports = [], stability_verdicts(enumerate_triples(max_n))
    for family, run in itertools.groupby(reports, key=operator.attrgetter("triple.family")):
        formulas = _closed_forms(family)
        for r in run:
            mismatches.extend(_check_report(r, formulas))
    return mismatches
