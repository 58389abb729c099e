"""Embedded expected-value tables and the verification harness.

The closed forms below are transcriptions of the published invariant tables
for the two-orbit catalog.  `verify` recomputes every value from root-system
data and reports each mismatch as (table, row, column, expected, actual).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .pasquier import (
    Family,
    TripleSpec,
    enumerate_triples,
    stability_verdict,
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

FIXTURE_IDS = ("bl_h_num", "cf_num", "cf", "stab")


@dataclass(frozen=True)
class Mismatch:
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


def _check_triple(t: TripleSpec) -> list[Mismatch]:
    found = []

    def expect(fixture, column, expected, actual):
        if expected != actual:
            found.append(Mismatch(fixture, t.triple_id, column, expected, actual))

    r = stability_verdict(t)
    v, f = r.variety, r.foliation

    if t.is_horospherical():
        table = BL_H_NUM[t.family]
        actuals = {
            "dim_Y": v.dim_y,
            "c1_Y": v.c1_y,
            "dim_Z": v.dim_z,
            "c1_Z": v.c1_z_scalar(),
            "dim_X": v.dim_x,
            "c1_X": v.r_x,
        }
        for column, formula in table.items():
            expect("bl_h_num", column, formula(t.n, t.k), actuals[column])

        rank_ey, c1_ey = CF_NUM[t.family](t.n, t.k)
        expect("cf_num", "rank_EY", rank_ey, f.rank_ey)
        expect("cf_num", "c1_EY", c1_ey, f.c1_ey)

    rank_f, c1_f = CF[t.family](t.n, t.k)
    expect("cf", "rank_F", rank_f, f.rank_f)
    expect("cf", "c1_F", c1_f, f.c1_f)

    mu_f, mu_theta, unstable = STAB[t.family](t.n, t.k)
    expect("stab", "mu_F", mu_f, r.mu_f)
    expect("stab", "mu_Theta", mu_theta, r.mu_theta)
    expect("stab", "mu_F > mu_Theta", unstable, r.mu_f > r.mu_theta)

    return found


def verify(max_n: int) -> list[Mismatch]:
    """Recompute every fixture value for the catalog up to `max_n`."""
    if max_n < 3:
        raise ValueError(f"max_n must be at least 3, got {max_n}")
    mismatches = []
    for t in enumerate_triples(max_n):
        mismatches.extend(_check_triple(t))
    return mismatches
