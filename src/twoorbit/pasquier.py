"""The Pasquier catalog of two-orbit Fano varieties and their stability.

Each catalog entry is a triple: a Dynkin type plus two dominant weights,
realized here as parabolic markings.  From the root system alone we derive
the variety's dimension and Fano index, the rank and first Chern class of
its canonical foliation, and the exact slope comparison that decides
(in)stability of the tangent bundle.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .flagvar import (
    ParabolicMarking,
    anticanonical_weight_of_type,
    fano_index_of_type,
    flag_dimension_of_type,
)
from .rootsys import DynkinType, Weight, build_root_system, weight_label, weyl_dim


class Family(enum.Enum):
    BN_SPINOR = "Bn"
    B3_SPECIAL = "B3special"
    CN = "Cn"
    F4_HORO = "F4horo"
    G2_HORO = "G2horo"
    PAS_F4 = "PasF4"
    PAS_A1G2 = "PasA1G2"


# family -> (n, k) -> (Dynkin type, nodes of the Y marking, nodes of the Z marking)
_FAMILY_TABLE = {
    Family.BN_SPINOR: lambda n, k: (f"B{n}", (n - 2,), (n - 1,)),
    Family.B3_SPECIAL: lambda n, k: ("B3", (0,), (2,)),
    Family.CN: lambda n, k: (f"C{n}", (k - 1,), (k - 2,)),
    Family.F4_HORO: lambda n, k: ("F4", (1,), (2,)),
    Family.G2_HORO: lambda n, k: ("G2", (0,), (1,)),
    Family.PAS_F4: lambda n, k: ("F4", (0,), (2,)),
    # Y is the G2 contact manifold K(G2), on which the A1 factor acts
    # trivially; Z is P^1 x Q^5, the A1 node together with the short G2 node
    Family.PAS_A1G2: lambda n, k: ("A1xG2", (1,), (0, 2)),
}


@dataclass(frozen=True)
class TripleSpec:
    family: Family
    n: int | None = None
    k: int | None = None

    def __post_init__(self):
        if self.family is Family.BN_SPINOR:
            if self.n is None or self.n < 3 or self.k is not None:
                raise ValueError("spinor family needs n >= 3 and takes no k")
        elif self.family is Family.CN:
            if self.n is None or self.k is None or self.n < 2 or not 2 <= self.k <= self.n:
                raise ValueError("C_n family needs n >= 2 and 2 <= k <= n")
        elif self.n is not None or self.k is not None:
            raise ValueError(f"family {self.family.value} takes no parameters")

    @property
    def dynkin(self) -> DynkinType:
        return DynkinType.parse(_FAMILY_TABLE[self.family](self.n, self.k)[0])

    @property
    def marking_y(self) -> ParabolicMarking:
        return ParabolicMarking.of(*_FAMILY_TABLE[self.family](self.n, self.k)[1])

    @property
    def marking_z(self) -> ParabolicMarking:
        return ParabolicMarking.of(*_FAMILY_TABLE[self.family](self.n, self.k)[2])

    @property
    def triple_id(self) -> str:
        if self.family is Family.BN_SPINOR:
            return f"Bn:n={self.n}"
        if self.family is Family.CN:
            return f"Cn:n={self.n}:k={self.k}"
        return self.family.value

    def is_horospherical(self) -> bool:
        return self.family not in _PINNED


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
        kwargs[key] = int(val)
    for fam in Family:
        if fam.value.lower() == head.lower():
            return TripleSpec(fam, **kwargs)
    valid = ", ".join(f.value for f in Family)
    raise ValueError(f"unknown triple family {head!r}; expected one of: {valid}")


def enumerate_triples(max_n: int) -> list[TripleSpec]:
    """All catalog members with parameter n at most `max_n`, in catalog order."""
    if max_n < 3:
        raise ValueError(f"max_n must be at least 3, got {max_n}")
    triples = [TripleSpec(Family.BN_SPINOR, n=n) for n in range(3, max_n + 1)]
    triples.append(TripleSpec(Family.B3_SPECIAL))
    for n in range(2, max_n + 1):
        triples.extend(TripleSpec(Family.CN, n=n, k=k) for k in range(2, n + 1))
    triples += [
        TripleSpec(Family.F4_HORO),
        TripleSpec(Family.G2_HORO),
        TripleSpec(Family.PAS_F4),
        TripleSpec(Family.PAS_A1G2),
    ]
    return triples


@dataclass(frozen=True)
class VarietyInvariants:
    dim_y: int
    dim_z: int
    dim_x: int
    c1_y: int
    c1_z: Weight  # full anticanonical of Z; Picard rank 2 for Pas_{A1xG2}
    r_x: int

    @property
    def codim_z(self) -> int:
        return self.dim_x - self.dim_z

    def c1_z_scalar(self) -> int | None:
        """Collapse c1_Z to its single nonzero coefficient when possible."""
        nonzero = [int(c) for c in self.c1_z.coeffs if c]
        return nonzero[0] if len(nonzero) == 1 else None


@dataclass(frozen=True)
class FoliationInvariants:
    rank_f: int
    c1_f: int  # coefficient on H_X
    rank_ey: int | None  # None for the two exceptional varieties (no E_Y bundle)
    c1_ey: int | None


class Verdict(enum.Enum):
    UNSTABLE = "Unstable"
    STRICTLY_SEMISTABLE_BOUNDARY = "StrictlySemistableBoundary"
    STABLE = "Stable"


@dataclass(frozen=True)
class StabilityReport:
    triple: TripleSpec
    variety: VarietyInvariants
    foliation: FoliationInvariants
    mu_f: Fraction
    mu_theta: Fraction
    verdict: Verdict


# The two non-horospherical varieties, family -> (r_X, foliation).  The
# blow-up canonical formula for r_X and the E_Y bundle apply only to the
# horospherical drums, so these values are pinned.  test_criterion_4 guards
# them: rank F = dim X - dim Y, that is 23 - 15 for PasF4 and 8 - 5 for PasA1G2.
_PINNED = {
    Family.PAS_F4: (8, FoliationInvariants(rank_f=8, c1_f=0, rank_ey=None, c1_ey=None)),
    Family.PAS_A1G2: (6, FoliationInvariants(rank_f=3, c1_f=0, rank_ey=None, c1_ey=None)),
}


def variety_invariants(t: TripleSpec) -> VarietyInvariants:
    dynkin, m_y, m_z = t.dynkin, t.marking_y, t.marking_z
    dim_y = flag_dimension_of_type(dynkin, m_y)
    dim_z = flag_dimension_of_type(dynkin, m_z)
    dim_x = flag_dimension_of_type(dynkin, m_y.union(m_z)) + 1
    c1_y = fano_index_of_type(dynkin, m_y)
    c1_z = anticanonical_weight_of_type(dynkin, m_z)
    # blow-up canonical formula applied to the drum contraction, unless pinned
    r_x = _PINNED[t.family][0] if t.family in _PINNED else 2 * dim_x - dim_y - dim_z
    return VarietyInvariants(dim_y=dim_y, dim_z=dim_z, dim_x=dim_x, c1_y=c1_y, c1_z=c1_z, r_x=r_x)


def foliation_invariants(t: TripleSpec, v: VarietyInvariants) -> FoliationInvariants:
    """The canonical foliation of `t`, given its variety invariants `v`."""
    if t.family in _PINNED:
        return _PINNED[t.family][1]
    rank_ey = v.dim_x - v.dim_y
    c1_ey = v.c1_y - (v.dim_x - v.dim_z)
    return FoliationInvariants(rank_f=rank_ey, c1_f=rank_ey - c1_ey, rank_ey=rank_ey, c1_ey=c1_ey)


def stability_verdict(t: TripleSpec) -> StabilityReport:
    """Exact slope comparison of the canonical foliation with the tangent bundle."""
    v = variety_invariants(t)
    f = foliation_invariants(t, v)
    mu_f = Fraction(f.c1_f, f.rank_f)
    mu_theta = Fraction(v.r_x, v.dim_x)
    if mu_f > mu_theta:
        verdict = Verdict.UNSTABLE
    elif mu_f == mu_theta:
        verdict = Verdict.STRICTLY_SEMISTABLE_BOUNDARY
    else:
        verdict = Verdict.STABLE
    return StabilityReport(triple=t, variety=v, foliation=f, mu_f=mu_f, mu_theta=mu_theta, verdict=verdict)


def ambient_dimension(t: TripleSpec) -> int:
    """dim(V_Y + V_Z), the linear span of the drum embedding."""
    if t.family is Family.PAS_F4:
        raise ValueError("no drum embedding is available for PasF4")
    if t.family is Family.PAS_A1G2:
        # two copies of the 7-dimensional space of imaginary octonions
        return 14
    rs = build_root_system(t.dynkin)
    dims = []
    for marking in (t.marking_y, t.marking_z):
        coeffs = tuple(1 if i in marking.marked else 0 for i in range(rs.rank))
        dims.append(weyl_dim(rs, Weight(coeffs)))
    return sum(dims)


# --- report serialization ---------------------------------------------------

RECORD_FIELDS = (
    "triple", "family", "n", "k",
    "dim_Y", "c1_Y", "dim_Z", "c1_Z", "dim_X", "r_X", "codim_Z",
    "rank_EY", "c1_EY", "rank_F", "c1_F",
    "mu_F", "mu_Theta", "verdict",
)


def report_record(r: StabilityReport) -> dict:
    """Flatten a StabilityReport into one record keyed by RECORD_FIELDS, in that order."""
    t, v, f = r.triple, r.variety, r.foliation
    c1_z = v.c1_z_scalar()
    return dict(zip(RECORD_FIELDS, (
        t.triple_id, t.family.value, t.n, t.k,
        v.dim_y, v.c1_y, v.dim_z, c1_z if c1_z is not None else weight_label(t.dynkin, v.c1_z),
        v.dim_x, v.r_x, v.codim_z,
        f.rank_ey, f.c1_ey, f.rank_f, f.c1_f,
        f"{r.mu_f.numerator}/{r.mu_f.denominator}",
        f"{r.mu_theta.numerator}/{r.mu_theta.denominator}",
        r.verdict.value,
    ), strict=True))
