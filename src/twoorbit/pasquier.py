"""The Pasquier catalog of two-orbit Fano varieties and their stability.

Each catalog entry is a triple: a Dynkin type plus two dominant weights,
realized here as parabolic markings.  From the Dynkin diagram alone we derive
the variety's dimension and Fano index, the rank and first Chern class of
its canonical foliation, and the exact slope comparison that decides
(in)stability of the tangent bundle.
"""

from __future__ import annotations

import enum
import itertools
from fractions import Fraction
from typing import Iterator, NamedTuple

from .flagvar import flag_invariants
from .rootsys import DynkinType, SimpleFactor, parse_decimal, weight_label


class Family(enum.Enum):
    BN_SPINOR = "Bn"
    B3_SPECIAL = "B3special"
    CN = "Cn"
    F4_HORO = "F4horo"
    G2_HORO = "G2horo"
    PAS_F4 = "PasF4"
    PAS_A1G2 = "PasA1G2"


# family -> (n, k) -> (Dynkin type as (series, rank) factor pairs, marked nodes
# of Y, marked nodes of Z), each node tuple strictly increasing and 0-based
# global as `flag_invariants` takes it; Y is always a single node.  `_layout` is
# the one reader of this table.
_FAMILY_TABLE = {
    Family.BN_SPINOR: lambda n, k: ((("B", n),), (n - 2,), (n - 1,)),
    Family.B3_SPECIAL: lambda n, k: ((("B", 3),), (0,), (2,)),
    Family.CN: lambda n, k: ((("C", n),), (k - 1,), (k - 2,)),
    Family.F4_HORO: lambda n, k: ((("F", 4),), (1,), (2,)),
    Family.G2_HORO: lambda n, k: ((("G", 2),), (0,), (1,)),
    Family.PAS_F4: lambda n, k: ((("F", 4),), (0,), (2,)),
    # Y is the G2 contact manifold K(G2), on which the A1 factor acts
    # trivially; Z is P^1 x Q^5, the A1 node together with the short G2 node
    Family.PAS_A1G2: lambda n, k: ((("A", 1), ("G", 2)), (1,), (0, 2)),
}


class _TripleSpecFields(NamedTuple):
    family: Family
    n: int | None = None
    k: int | None = None


class TripleSpec(_TripleSpecFields):
    __slots__ = ()

    def __new__(cls, family: Family, n: int | None = None, k: int | None = None):
        if family is Family.BN_SPINOR:
            if n is None or n < 3 or k is not None:
                raise ValueError("spinor family needs n >= 3 and takes no k")
        elif family is Family.CN:
            if n is None or k is None or n < 2 or not 2 <= k <= n:
                raise ValueError("C_n family needs n >= 2 and 2 <= k <= n")
        elif n is not None or k is not None:
            raise ValueError(f"family {family.value} takes no parameters")
        return tuple.__new__(cls, (family, n, k))

    @property
    def triple_id(self) -> str:
        """The id `parse_triple_id` reads back: the family, then each parameter that is set."""
        n = "" if self.n is None else f":n={self.n}"
        k = "" if self.k is None else f":k={self.k}"
        return self.family.value + n + k

    def is_horospherical(self) -> bool:
        return self.family not in _PINNED


# the family of each name `parse_triple_id` reads, case-insensitively
_FAMILY_BY_NAME = {f.value.lower(): f for f in Family}


def parse_triple_id(text: str) -> TripleSpec:
    """Parse a triple id like "Bn:n=5", "Cn:n=4:k=3" or "PasF4"."""
    parts = text.split(":")
    head, params = parts[0], parts[1:]
    kwargs: dict[str, int] = {}
    for p in params:
        key, _, val = p.partition("=")
        if key not in ("n", "k") or not val.removeprefix("-").isdecimal():
            raise ValueError(f"bad triple parameter {p!r} in {text!r}")
        if key in kwargs:
            raise ValueError(f"triple parameter {key!r} given twice in {text!r}")
        kwargs[key] = parse_decimal(val)
    family = _FAMILY_BY_NAME.get(head.lower())
    if family is None:
        valid = ", ".join(f.value for f in Family)
        raise ValueError(f"unknown triple family {head!r}; expected one of: {valid}")
    return TripleSpec(family, **kwargs)


def enumerate_triples(max_n: int) -> Iterator[TripleSpec]:
    """All catalog members with parameter n at most `max_n`, yielded in catalog order."""
    if max_n < 3:
        raise ValueError(f"max_n must be at least 3, got {max_n}")
    return itertools.chain(
        (TripleSpec(Family.BN_SPINOR, n) for n in range(3, max_n + 1)),
        [TripleSpec(Family.B3_SPECIAL)],
        (TripleSpec(Family.CN, n, k) for n in range(2, max_n + 1) for k in range(2, n + 1)),
        [TripleSpec(f) for f in (Family.F4_HORO, Family.G2_HORO, Family.PAS_F4, Family.PAS_A1G2)],
    )


class VarietyInvariants(NamedTuple):
    dim_y: int
    dim_z: int
    dim_x: int
    c1_y: int
    c1_z: dict[int, int]  # -K_Z on its marked nodes; Picard rank 2 for Pas_{A1xG2}
    r_x: int
    rank_f: int  # the canonical foliation F
    c1_f: int  # coefficient on H_X
    rank_ey: int | None  # None for the two exceptional varieties (no E_Y bundle)
    c1_ey: int | None

    @property
    def codim_z(self) -> int:
        return self.dim_x - self.dim_z

    def c1_z_scalar(self) -> int | None:
        """Collapse c1_Z to its one coefficient when Z has Picard rank 1."""
        return next(iter(self.c1_z.values())) if len(self.c1_z) == 1 else None


class Verdict(enum.Enum):
    UNSTABLE = "Unstable"
    STRICTLY_SEMISTABLE_BOUNDARY = "StrictlySemistableBoundary"
    STABLE = "Stable"


class StabilityReport(NamedTuple):
    triple: TripleSpec
    variety: VarietyInvariants
    mu_f: Fraction
    mu_theta: Fraction
    verdict: Verdict


# The two non-horospherical varieties, family -> (r_X, rank F, c1 F).  The
# blow-up canonical formula for r_X and the E_Y bundle apply only to the
# horospherical drums, so these values are pinned.  test_criterion_4 guards
# them: rank F = dim X - dim Y, that is 23 - 15 for PasF4 and 8 - 5 for PasA1G2.
_PINNED = {
    Family.PAS_F4: (8, 8, 0),
    Family.PAS_A1G2: (6, 3, 0),
}


def _layout(t: TripleSpec) -> tuple[DynkinType, tuple[int, ...], tuple[int, ...]]:
    """The Dynkin type and the Y and Z marked-node tuples of a triple."""
    factors, y, z = _FAMILY_TABLE[t.family](t.n, t.k)
    return DynkinType(tuple(itertools.starmap(SimpleFactor, factors))), y, z


def variety_invariants(t: TripleSpec) -> VarietyInvariants:
    dynkin, y, z = _layout(t)
    dim_y, anti_y = flag_invariants(dynkin, y)
    dim_z, c1_z = flag_invariants(dynkin, z)
    # Y and Z mark disjoint nodes; the walk refuses a repeated one
    dim_x = flag_invariants(dynkin, sorted(y + z))[0] + 1
    c1_y = anti_y[y[0]]
    pinned = _PINNED.get(t.family)
    if pinned is not None:
        r_x, rank_f, c1_f = pinned
        rank_ey = c1_ey = None
    else:
        # blow-up canonical formula applied to the drum contraction
        r_x = 2 * dim_x - dim_y - dim_z
        rank_ey, c1_ey = dim_x - dim_y, c1_y - (dim_x - dim_z)
        rank_f, c1_f = rank_ey, rank_ey - c1_ey
    return VarietyInvariants(dim_y, dim_z, dim_x, c1_y, c1_z, r_x, rank_f, c1_f, rank_ey, c1_ey)


def stability_verdict(t: TripleSpec) -> StabilityReport:
    """Exact slope comparison of the canonical foliation with the tangent bundle."""
    v = variety_invariants(t)
    mu_f = Fraction(v.c1_f, v.rank_f)
    mu_theta = Fraction(v.r_x, v.dim_x)
    # both denominators are positive, so mu_F - mu_Theta has the sign of c1_F * dim_X - r_X * rank_F
    lhs, rhs = v.c1_f * v.dim_x, v.r_x * v.rank_f
    if lhs > rhs:
        verdict = Verdict.UNSTABLE
    elif lhs == rhs:
        verdict = Verdict.STRICTLY_SEMISTABLE_BOUNDARY
    else:
        verdict = Verdict.STABLE
    return StabilityReport(t, v, mu_f, mu_theta, verdict)


# --- report serialization ---------------------------------------------------

RECORD_FIELDS = (
    "triple", "family", "n", "k",
    "dim_Y", "c1_Y", "dim_Z", "c1_Z", "dim_X", "r_X", "codim_Z",
    "rank_EY", "c1_EY", "rank_F", "c1_F",
    "mu_F", "mu_Theta", "verdict",
)


def report_row(r: StabilityReport) -> tuple:
    """The values of a StabilityReport in RECORD_FIELDS order."""
    t, v = r.triple, r.variety
    c1_z = v.c1_z_scalar()
    return (
        t.triple_id, t.family.value, t.n, t.k,
        v.dim_y, v.c1_y, v.dim_z, c1_z if c1_z is not None else weight_label(_layout(t)[0], v.c1_z),
        v.dim_x, v.r_x, v.codim_z,
        v.rank_ey, v.c1_ey, v.rank_f, v.c1_f,
        f"{r.mu_f.numerator}/{r.mu_f.denominator}",
        f"{r.mu_theta.numerator}/{r.mu_theta.denominator}",
        r.verdict.value,
    )


def report_record(r: StabilityReport) -> dict:
    """Flatten a StabilityReport into one record keyed by RECORD_FIELDS, in that order."""
    return dict(zip(RECORD_FIELDS, report_row(r), strict=True))
