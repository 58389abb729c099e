"""Root systems for types A, B, C, F4, G2 and their finite products.

All data lives in two coordinate systems: roots carry integer coordinates in
the simple-root basis, weights carry rational coordinates in the
fundamental-weight basis.  Every operation is exact; no floats anywhere.

Node labeling within a factor follows Bourbaki for A, B, C, F4 (B_n: node n
short; C_n: node n long; F4: nodes 1,2 long).  For G2, node 1 is the *long*
simple root (so the adjoint representation is the one with highest weight
omega_1); this is the labeling forced by the flag-variety fixture tables.
Global node indices are 0-based and concatenate the factors in order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence


class UnsupportedTypeError(ValueError):
    """Raised for Dynkin types outside {A, B, C, F4, G2}."""


_VALID_SERIES = {"A", "B", "C", "F", "G"}

# minimal rank per series; F and G also have a fixed rank
_MIN_RANK = {"A": 1, "B": 2, "C": 2, "F": 4, "G": 2}
_FIXED_RANK = {"F": 4, "G": 2}


@dataclass(frozen=True)
class SimpleFactor:
    series: str
    rank: int

    def __post_init__(self):
        if self.series not in _VALID_SERIES:
            raise UnsupportedTypeError(
                f"unsupported type {self.series}{self.rank}: only A, B, C, F4, G2"
            )
        if self.rank < _MIN_RANK[self.series]:
            raise ValueError(f"rank {self.rank} too small for series {self.series}")
        if self.series in _FIXED_RANK and self.rank != _FIXED_RANK[self.series]:
            raise ValueError(f"series {self.series} has rank {_FIXED_RANK[self.series]}")

    def __str__(self):
        return f"{self.series}{self.rank}"


@dataclass(frozen=True)
class DynkinType:
    factors: tuple[SimpleFactor, ...]

    def __post_init__(self):
        if not self.factors:
            raise ValueError("Dynkin type needs at least one factor")

    @property
    def rank(self) -> int:
        return sum(f.rank for f in self.factors)

    def factor_offsets(self) -> list[int]:
        """Global index of the first node of each factor."""
        offsets, total = [], 0
        for f in self.factors:
            offsets.append(total)
            total += f.rank
        return offsets

    @classmethod
    def parse(cls, spec: str) -> "DynkinType":
        """Parse a type spec like "B4", "F4" or "A1xG2"."""
        factors = []
        for token in spec.split("x"):
            token = token.strip()
            if len(token) < 2 or not token[0].isalpha() or not token[1:].isdecimal():
                raise ValueError(f"cannot parse factor {token!r} in type spec {spec!r}")
            factors.append(SimpleFactor(token[0].upper(), int(token[1:])))
        return cls(tuple(factors))

    def __str__(self):
        return "x".join(str(f) for f in self.factors)


@dataclass(frozen=True)
class Root:
    """A root in simple-root coordinates (integers)."""

    coeffs: tuple[int, ...]

    @property
    def height(self) -> int:
        return sum(self.coeffs)

    def __neg__(self):
        return Root(tuple(-c for c in self.coeffs))


@dataclass(frozen=True)
class Weight:
    """A weight in fundamental-weight coordinates (exact rationals)."""

    coeffs: tuple[Fraction | int, ...]

    def is_dominant(self) -> bool:
        return all(c >= 0 for c in self.coeffs)

    def is_integral(self) -> bool:
        return all(Fraction(c).denominator == 1 for c in self.coeffs)

    def __add__(self, other: "Weight") -> "Weight":
        return Weight(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "Weight") -> "Weight":
        return Weight(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))


def node_labels(dynkin: DynkinType) -> list[str]:
    """Command-line node labels, 1-based: "i" for one factor, "f.i" for products."""
    if len(dynkin.factors) == 1:
        return [str(i + 1) for i in range(dynkin.rank)]
    return [f"{pos}.{i + 1}" for pos, f in enumerate(dynkin.factors, start=1) for i in range(f.rank)]


def weight_label(dynkin: DynkinType, weight: Weight) -> str:
    """Render a weight like "3w1+5w3", or "2w1.1+5w2.2" for products."""
    terms = [f"{int(c)}w{label}" for c, label in zip(weight.coeffs, node_labels(dynkin)) if c]
    return "+".join(terms) if terms else "0"


def factor_cartan(f: SimpleFactor) -> list[list[int]]:
    """Cartan matrix of one factor, a[i][j] = <alpha_j, alpha_i^vee>."""
    n = f.rank
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n - 1):
        a[i][i + 1] = a[i + 1][i] = -1
    if f.series == "B":  # node n short
        a[n - 1][n - 2] = -2
    elif f.series == "C":  # node n long
        a[n - 2][n - 1] = -2
    elif f.series == "F":  # nodes 1,2 long, 3,4 short
        a[2][1] = -2
    elif f.series == "G":  # node 1 long, node 2 short
        a[1][0] = -3
    return a


def _factor_symmetrizer(f: SimpleFactor) -> list[Fraction]:
    """d_i = (alpha_i, alpha_i)/2 with long roots normalized to length^2 = 2."""
    n = f.rank
    if f.series in ("A",):
        return [Fraction(1)] * n
    if f.series == "B":
        return [Fraction(1)] * (n - 1) + [Fraction(1, 2)]
    if f.series == "C":
        return [Fraction(1, 2)] * (n - 1) + [Fraction(1)]
    if f.series == "F":
        return [Fraction(1), Fraction(1), Fraction(1, 2), Fraction(1, 2)]
    if f.series == "G":
        return [Fraction(1), Fraction(1, 3)]
    raise UnsupportedTypeError(f.series)


@dataclass(frozen=True)
class RootSystem:
    dynkin: DynkinType
    cartan: tuple[tuple[int, ...], ...]
    symmetrizer: tuple[Fraction, ...]
    positive_roots: tuple[Root, ...] = field(repr=False)

    @property
    def rank(self) -> int:
        return self.dynkin.rank

    def is_root(self, alpha: Root) -> bool:
        return alpha in self.positive_roots or -alpha in self.positive_roots


def closure_from_cartan(cartan: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Positive roots of an arbitrary Cartan matrix, by root-string closure.

    Starting from the simple roots, alpha + alpha_i is kept exactly when
    <alpha, alpha_i^vee> minus the length of the descending alpha_i-string
    through alpha is negative.  Products come out block-diagonal for free.
    """
    n = len(cartan)
    known: set[tuple[int, ...]] = set()
    level = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    known.update(level)
    while level:
        nxt = []
        for m in level:
            for i in range(n):
                cand = tuple(c + (1 if j == i else 0) for j, c in enumerate(m))
                if cand in known:
                    continue
                # descending alpha_i-string length through m
                p = 0
                down = list(m)
                while True:
                    down[i] -= 1
                    if down[i] < 0 or tuple(down) not in known:
                        break
                    p += 1
                pairing = sum(cartan[i][j] * m[j] for j in range(n))
                if pairing - p < 0:
                    known.add(cand)
                    nxt.append(cand)
        level = nxt
    return sorted(known, key=lambda m: (sum(m), m))


def build_root_system(dynkin: DynkinType) -> RootSystem:
    """Build a root system with its Cartan data and full positive-root list."""
    n = dynkin.rank
    cartan = [[0] * n for _ in range(n)]
    symmetrizer: list[Fraction] = []
    off = 0
    for f in dynkin.factors:
        block = factor_cartan(f)
        for i in range(f.rank):
            for j in range(f.rank):
                cartan[off + i][off + j] = block[i][j]
        symmetrizer.extend(_factor_symmetrizer(f))
        off += f.rank

    roots = tuple(Root(m) for m in closure_from_cartan(cartan))
    return RootSystem(
        dynkin=dynkin,
        cartan=tuple(tuple(row) for row in cartan),
        symmetrizer=tuple(symmetrizer),
        positive_roots=roots,
    )


def root_form(rs: RootSystem, m1: Sequence[int], m2: Sequence[int]) -> Fraction:
    """Symmetrized bilinear form of two vectors in simple-root coordinates."""
    d, a = rs.symmetrizer, rs.cartan
    total = Fraction(0)
    for i, x in enumerate(m1):
        if x:
            total += sum(x * y * d[i] * a[i][j] for j, y in enumerate(m2) if y)
    return total


def root_to_weight(rs: RootSystem, alpha: Root) -> Weight:
    """Convert simple-root coordinates to the fundamental-weight basis.

    Done by pairing against every simple coroot, which stays in integers.
    """
    m = alpha.coeffs
    return Weight(tuple(sum(rs.cartan[i][j] * m[j] for j in range(rs.rank)) for i in range(rs.rank)))


def coroot_pairing(rs: RootSystem, lam: Weight, alpha: Root) -> Fraction:
    """<lam, alpha^vee> = 2(lam, alpha)/(alpha, alpha)."""
    if not rs.is_root(alpha):
        raise ValueError(f"{alpha} is not a root of {rs.dynkin}")
    m = alpha.coeffs
    d = rs.symmetrizer
    num = sum(Fraction(c) * d[j] * m[j] for j, c in enumerate(lam.coeffs))
    return 2 * num / root_form(rs, m, m)


def rho(rs: RootSystem) -> Weight:
    """Half the sum of positive roots: the all-ones weight."""
    return Weight((1,) * rs.rank)


def weyl_dim(rs: RootSystem, lam: Weight) -> int:
    """Dimension of the irreducible representation with highest weight `lam`.

    prod_{alpha>0} <lam+rho, alpha^vee> / <rho, alpha^vee>, evaluated exactly.
    """
    if not lam.is_integral():
        raise ValueError(f"highest weight must be integral: {lam}")
    if not lam.is_dominant():
        raise ValueError(f"highest weight must be dominant: {lam}")
    d = rs.symmetrizer
    result = Fraction(1)
    for alpha in rs.positive_roots:
        m = alpha.coeffs
        num = sum((c + 1) * d[j] * m[j] for j, c in enumerate(lam.coeffs))
        den = sum(d[j] * m[j] for j in range(rs.rank) if m[j])
        result *= Fraction(num, den)
    assert result.denominator == 1 and result > 0
    return int(result)
