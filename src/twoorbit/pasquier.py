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
import math
import operator
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple

from .flagvar import _walk
from .rootsys import parse_decimal, weight_label


class Family(enum.Enum):
    """A catalog family, in catalog order; each member holds the family's whole record.

    `first_n`, `first_k`: the least n and k, or None where the family takes no
    such parameter; k runs up to n.  `refusal`: the message for a triple outside
    that domain.  `pinned`: (r_X, rank F, c1 F) of the two non-horospherical
    varieties, to which the blow-up formula for r_X and the E_Y bundle do not
    apply, else None; test_criterion_4 guards rank F = dim X - dim Y, that is
    23 - 15 for PasF4 and 8 - 5 for PasA1G2.  `layout(n, k)`: the Dynkin type as
    (series, rank) factor pairs, then the marked nodes of Y (always one) and of
    Z, strictly increasing and 0-based global: the walk's input as it is.
    """

    BN_SPINOR = ("Bn", 3, None, "spinor family needs n >= 3 and takes no k", None,
                 lambda n, k: ((("B", n),), (n - 2,), (n - 1,)))
    B3_SPECIAL = ("B3special", None, None, None, None, lambda n, k: ((("B", 3),), (0,), (2,)))
    CN = ("Cn", 2, 2, "C_n family needs n >= 2 and 2 <= k <= n", None,
          lambda n, k: ((("C", n),), (k - 1,), (k - 2,)))
    F4_HORO = ("F4horo", None, None, None, None, lambda n, k: ((("F", 4),), (1,), (2,)))
    G2_HORO = ("G2horo", None, None, None, None, lambda n, k: ((("G", 2),), (0,), (1,)))
    PAS_F4 = ("PasF4", None, None, None, (8, 8, 0), lambda n, k: ((("F", 4),), (0,), (2,)))
    # Y is the G2 contact manifold K(G2), on which the A1 factor acts
    # trivially; Z is P^1 x Q^5, the A1 node together with the short G2 node
    PAS_A1G2 = ("PasA1G2", None, None, None, (6, 3, 0), lambda n, k: ((("A", 1), ("G", 2)), (1,), (0, 2)))

    def __new__(cls, value, first_n, first_k, refusal, pinned, layout):
        # the enum HOWTO's tuple-valued members: the value stays the name
        member = object.__new__(cls)
        member._value_ = value
        member.first_n, member.first_k = first_n, first_k
        member.refusal = refusal or f"family {value} takes no parameters"
        member.pinned, member.layout = pinned, layout
        return member


class _TripleSpecFields(NamedTuple):
    family: Family
    n: int | None = None
    k: int | None = None


class TripleSpec(_TripleSpecFields):
    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, family: Family, n: int | None = None, k: int | None = None):
        if type(family) is not Family:
            valid = ", ".join(f.value for f in Family)
            raise ValueError(f"unknown triple family {family!r}; expected one of: {valid}")
        first_n, first_k = family.first_n, family.first_k
        # type(x) is int refuses bool as well as float and Fraction
        if not ((n is None if first_n is None else type(n) is int and n >= first_n)
                and (k is None if first_k is None else type(k) is int and first_k <= k <= n)):
            raise ValueError(family.refusal)
        return tuple.__new__(cls, (family, n, k))

    def __reduce__(self):
        return type(self), tuple(self)

    @property
    def triple_id(self) -> str:
        """The id `parse_triple_id` reads back: the family, then each parameter that is set."""
        n = "" if self.n is None else f":n={self.n}"
        k = "" if self.k is None else f":k={self.k}"
        return self.family._value_ + n + k

    def is_horospherical(self) -> bool:
        return self.family.pinned is None


# the family of each name `parse_triple_id` reads, case-insensitively
_FAMILY_BY_NAME = {f.value.lower(): f for f in Family}


def parse_triple_id(text: str) -> TripleSpec:
    """Parse a triple id like "Bn:n=5", "Cn:n=4:k=3" or "PasF4"."""
    parts = text.split(":")
    head, params = parts[0], parts[1:]
    n = k = None
    for p in params:
        key, _, val = p.partition("=")
        if key not in ("n", "k") or not val.removeprefix("-").isdecimal():
            raise ValueError(f"bad triple parameter {p!r} in {text!r}")
        if key == "n" and n is None:
            n = parse_decimal(val)
        elif key == "k" and k is None:
            k = parse_decimal(val)
        else:
            raise ValueError(f"triple parameter {key!r} given twice in {text!r}")
    # an unknown name goes on as it is, and TripleSpec refuses it
    return TripleSpec(_FAMILY_BY_NAME.get(head.lower(), head), n, k)


def enumerate_triples(max_n: int) -> Iterator[TripleSpec]:
    """All catalog members with parameter n at most `max_n`, yielded in catalog order."""
    # checked here, not left to range() at the first next() of the generator
    if type(max_n) is not int:
        raise ValueError(f"max_n must be an int, got {max_n!r}")
    if max_n < 3:
        raise ValueError(f"max_n must be at least 3, got {max_n}")
    # the ranges come from the Family fields that TripleSpec.__new__ checks, so
    # each triple is valid as built and skips the checks
    return (
        tuple.__new__(TripleSpec, (f, n, k))
        for f in Family for n in _parameters(f.first_n, max_n) for k in _parameters(f.first_k, n)
    )


def _parameters(first: int | None, last: int | None) -> Iterable[int | None]:
    """The values a parameter takes: first to last, or only None where the family takes none."""
    return (None,) if first is None else range(first, last + 1)


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


# an Enum attribute read runs Python code, about 0.1 us; the verdict path reads these names
_UNSTABLE, _BOUNDARY, _STABLE = Verdict.UNSTABLE, Verdict.STRICTLY_SEMISTABLE_BOUNDARY, Verdict.STABLE


class StabilityReport(NamedTuple):
    triple: TripleSpec
    variety: VarietyInvariants
    mu_f: Fraction
    mu_theta: Fraction
    verdict: Verdict


def variety_invariants(t: TripleSpec) -> VarietyInvariants:
    """The invariants of Y, Z and X of one triple, from one walk over its Dynkin diagram."""
    return _varieties([(*t.family.layout(t.n, t.k), t)])[0][1]


def stability_verdict(t: TripleSpec) -> StabilityReport:
    """Exact slope comparison of the canonical foliation with the tangent bundle."""
    return _verdict(t, variety_invariants(t))


def stability_verdicts(triples: Iterable[TripleSpec]) -> Iterator[StabilityReport]:
    """stability_verdict of each triple in turn, with one engine call per run of triples on one Dynkin type.

    Consecutive triples whose layouts give the same factors, such as the Cn
    triples of one n, or Bn:n=3 and B3special, share one walk, which takes
    each distinct marking among their Y, Z and Y u Z once.  The generator
    holds one run at a time.
    """
    laid_out = ((*t.family.layout(t.n, t.k), t) for t in triples)
    for _, run in itertools.groupby(laid_out, key=operator.itemgetter(0)):
        for t, v in _varieties(list(run)):
            yield _verdict(t, v)


def _varieties(run: list) -> list[tuple[TripleSpec, VarietyInvariants]]:
    """The (triple, invariants) of each (factors, y, z, triple) entry of `run`, in order, from one engine call.

    The entries share their factors, as `stability_verdicts` groups them.  A run of
    several triples walks each distinct marking once: in a Cn run, Z of k is Y of
    k - 1.  Each c1_Z is still a dict of its own.
    """
    factors = run[0][0]
    # the walk takes the layouts as given: Y and Z are disjoint, as the layout test checks
    markings = [m for _, y, z, _ in run for m in (y, z, tuple(sorted(y + z)))]
    if len(run) == 1:  # no marking to share
        walked = iter(_walk(factors, markings))
    else:
        distinct = list(dict.fromkeys(markings))
        walked = map(dict(zip(distinct, _walk(factors, distinct))).__getitem__, markings)
    varieties = []
    for (_, y, _, t), (dim_y, anti_y), (dim_z, c1_z), (dim_yz, _) in zip(run, walked, walked, walked):
        dim_x = dim_yz + 1
        c1_y = anti_y[y[0]]
        if t.family.pinned is not None:
            r_x, rank_f, c1_f = t.family.pinned
            rank_ey = c1_ey = None
        else:
            # blow-up canonical formula applied to the drum contraction
            r_x = 2 * dim_x - dim_y - dim_z
            rank_ey, c1_ey = dim_x - dim_y, c1_y - (dim_x - dim_z)
            rank_f, c1_f = rank_ey, rank_ey - c1_ey
        # a Z marking walked once for two triples of the run gives each its own dict
        c1_z = c1_z.copy()
        varieties.append((t, tuple.__new__(
            VarietyInvariants, (dim_y, dim_z, dim_x, c1_y, c1_z, r_x, rank_f, c1_f, rank_ey, c1_ey))))
    return varieties


def _slope(num: int, den: int) -> Fraction:
    """Fraction(num, den) of two ints with den > 0, without Fraction.__new__.

    Fraction.__new__ dispatches on its arguments' types before it reduces, and
    takes about twice as long.  This does what the private
    Fraction._from_coprime_ints of CPython 3.12+ does; the two __slots__ it
    sets exist on Python 3.10-3.13.
    """
    g = math.gcd(num, den)
    slope = object.__new__(Fraction)
    slope._numerator = num // g
    slope._denominator = den // g
    return slope


def _verdict(t: TripleSpec, v: VarietyInvariants) -> StabilityReport:
    """The exact slope comparison of one triple's invariants."""
    mu_f = _slope(v.c1_f, v.rank_f)
    mu_theta = _slope(v.r_x, v.dim_x)
    # both denominators are positive, so mu_F - mu_Theta has the sign of c1_F * dim_X - r_X * rank_F
    lhs, rhs = v.c1_f * v.dim_x, v.r_x * v.rank_f
    verdict = _UNSTABLE if lhs > rhs else _BOUNDARY if lhs == rhs else _STABLE
    return tuple.__new__(StabilityReport, (t, v, mu_f, mu_theta, verdict))


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
    # on Python 3.10-3.13 Enum.value, Fraction.numerator and .denominator are
    # Python-level properties, about eight calls a row.  _value_ is where the
    # enum HOWTO stores a member's value (Family.__new__ sets it), and
    # as_integer_ratio() reads both ints of a Fraction in one call
    return (
        t.triple_id, t.family._value_, t.n, t.k,
        v.dim_y, v.c1_y, v.dim_z,
        c1_z if c1_z is not None else weight_label(t.family.layout(t.n, t.k)[0], v.c1_z),
        v.dim_x, v.r_x, v.codim_z,
        v.rank_ey, v.c1_ey, v.rank_f, v.c1_f,
        "%d/%d" % r.mu_f.as_integer_ratio(),
        "%d/%d" % r.mu_theta.as_integer_ratio(),
        r.verdict._value_,
    )


def report_record(r: StabilityReport) -> dict:
    """Flatten a StabilityReport into one record keyed by RECORD_FIELDS, in that order."""
    return dict(zip(RECORD_FIELDS, report_row(r), strict=True))
