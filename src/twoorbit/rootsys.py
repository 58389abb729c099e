"""Root systems for types A, B, C, F4, G2 and their finite products.

All data lives in two coordinate systems: roots carry integer coordinates in
the simple-root basis, weights carry integer coordinates in the
fundamental-weight basis.  Every operation is exact; no floats anywhere.

Node labeling within a factor follows Bourbaki for A, B, C, F4 (B_n: node n
short; C_n: node n long; F4: nodes 1,2 long).  For G2, node 1 is the *long*
simple root (so the adjoint representation is the one with highest weight
omega_1); this is the labeling forced by the flag-variety fixture tables.
Global node indices are 0-based and concatenate the factors in order.
"""

from __future__ import annotations

import bisect
import math
import operator
import sys
from typing import Iterable, NamedTuple, Sequence


class UnsupportedTypeError(ValueError):
    """Raised for a Dynkin series without a row in the series table."""


# One row per supported series: (least rank, the one rank of F or G or else
# None, the chain's multiple bond at rank n as (short node, long node,
# a[short][long])).  Every other pair of adjacent nodes has a[i][j] = -1, and
# type A, simply laced, gets (-1, -1, -1), which no pair of its nodes matches.
_SERIES = {
    "A": (1, None, lambda n: (-1, -1, -1)),
    "B": (2, None, lambda n: (n - 1, n - 2, -2)),
    "C": (2, None, lambda n: (n - 2, n - 1, -2)),
    "F": (4, 4, lambda n: (2, 1, -2)),
    "G": (2, 2, lambda n: (1, 0, -3)),
}


def parse_decimal(text: str) -> int:
    """int() of a decimal string, refusing one past Python's int-to-str digit limit by name.

    Every grammar gates its integers on str.isdecimal(), which any Unicode
    decimal digit passes, as int() reads it: only ASCII 0-9 are read here, so
    what the program prints back is what was typed.
    """
    digits, limit = len(text.removeprefix("-")), sys.get_int_max_str_digits()
    if limit and digits > limit:
        raise ValueError(
            f"cannot read the integer {text[:10]}...: it has {digits} digits, more than the limit of {limit}"
        )
    if not text.isascii():
        raise ValueError(f"cannot read the integer {text!r}: digits must be ASCII 0-9")
    return int(text)


# The records of this package are immutable NamedTuples.  A validated record
# is a subclass of its fields' NamedTuple whose __new__ checks the values and
# calls tuple.__new__ directly, one Python frame per construction; its _make,
# which _replace calls, goes through __new__ and checks them too.


class _SimpleFactorFields(NamedTuple):
    series: str
    rank: int


class SimpleFactor(_SimpleFactorFields):
    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, series: str, rank: int):
        if series not in _SERIES:
            names = ", ".join(s + str(row[1] or "") for s, row in _SERIES.items())
            raise UnsupportedTypeError(f"unsupported type {series}{rank}: only {names}")
        # type(x) is int refuses bool as well as float and Fraction
        if type(rank) is not int:
            raise ValueError(f"rank of series {series} must be an int, got {rank!r}")
        least, fixed, _ = _SERIES[series]
        if rank < least:
            raise ValueError(f"rank {rank} too small for series {series}")
        if fixed and rank != fixed:
            raise ValueError(f"series {series} has rank {fixed}")
        return tuple.__new__(cls, (series, rank))

    def __str__(self):
        return f"{self.series}{self.rank}"


class _DynkinTypeFields(NamedTuple):
    factors: tuple[SimpleFactor, ...]


class DynkinType(_DynkinTypeFields):
    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, factors: tuple[SimpleFactor, ...]):
        if not factors:
            raise ValueError("Dynkin type needs at least one factor")
        if type(factors) is not tuple:
            raise ValueError(f"Dynkin type factors must be a tuple of SimpleFactor, not {factors!r}")
        for f in factors:
            if not isinstance(f, SimpleFactor):
                raise ValueError(f"Dynkin type factor {f!r} is not a SimpleFactor")
        return tuple.__new__(cls, (factors,))

    @property
    def rank(self) -> int:
        return sum(f.rank for f in self.factors)

    @classmethod
    def parse(cls, spec: str) -> "DynkinType":
        """Parse a type spec like "B4", "F4" or "A1xG2"."""
        factors = []
        for token in spec.split("x"):
            token = token.strip()
            if len(token) < 2 or not token[0].isalpha() or not token[1:].isdecimal():
                raise ValueError(f"cannot parse factor {token!r} in type spec {spec!r}")
            factors.append(SimpleFactor(token[0].upper(), parse_decimal(token[1:])))
        return cls(tuple(factors))

    def __str__(self):
        return "x".join(str(f) for f in self.factors)


def _factor_offsets(factors: Sequence[tuple[str, int]]) -> list[int]:
    """Global index of the first node of each (series, rank) pair."""
    offsets, total = [], 0
    for f in factors:
        offsets.append(total)
        total += f[1]
    return offsets


def node_labels(factors: Sequence[tuple[str, int]], nodes: Iterable[int]) -> list[str]:
    """Labels of global nodes over (series, rank) `factors`, 1-based: "i" for one factor, "f.i" for products."""
    if isinstance(factors, DynkinType):
        # a DynkinType is a 1-tuple holding its factors: read as is, it would
        # label a product's nodes as if it were one simple factor
        raise ValueError(f"node labels need (series, rank) factors, not the Dynkin type {factors}: pass its .factors")
    if len(factors) == 1:
        return [str(i + 1) for i in nodes]
    offsets = _factor_offsets(factors)
    return [f"{p}.{i - offsets[p - 1] + 1}" for i in nodes for p in [bisect.bisect_right(offsets, i)]]


def parse_nodes(dynkin: DynkinType, text: str) -> list[int]:
    """Sorted global nodes of comma-separated labels as node_labels writes them, "i" or "f.i"."""
    offsets = _factor_offsets(dynkin.factors)
    indices = set()
    for token in text.split(","):
        token = token.strip()
        if len(dynkin.factors) == 1:
            factor_pos, node_text = 1, token
        else:
            factor_text, dot, node_text = token.partition(".")
            if not dot or not factor_text.isdecimal():
                raise ValueError(f"node {token!r}: product types need factor-qualified nodes like 1.1")
            factor_pos = parse_decimal(factor_text)
        if not 1 <= factor_pos <= len(dynkin.factors):
            raise ValueError(f"node {token!r}: factor out of range 1..{len(dynkin.factors)}")
        factor = dynkin.factors[factor_pos - 1]
        node = parse_decimal(node_text) if node_text.isdecimal() else 0
        if not 1 <= node <= factor.rank:
            raise ValueError(f"node {token!r}: valid range is 1..{factor.rank} within {factor}")
        index = offsets[factor_pos - 1] + node - 1
        if index in indices:
            raise ValueError(f"node {token!r} is marked twice")
        indices.add(index)
    return sorted(indices)


def weight_label(factors: Sequence[tuple[str, int]], weight: dict[int, int]) -> str:
    """Render a sparse weight {node: coefficient} like "3w1+5w3", or "2w1.1+5w2.2" for products."""
    terms = [f"{c}w{label}" for c, label in zip(weight.values(), node_labels(factors, weight)) if c]
    return "+".join(terms) if terms else "0"


def factor_bond(f: tuple[str, int]) -> tuple[int, int, int]:
    """(short node, long node, a[short][long]) of a (series, rank) pair's multiple bond; KeyError without a row."""
    return _SERIES[f[0]][2](f[1])


class RootSystem(NamedTuple):
    dynkin: DynkinType
    cartan: tuple[tuple[int, ...], ...]
    symmetrizer: tuple[int, ...]
    positive_roots: tuple[tuple[int, ...], ...]

    @property
    def rank(self) -> int:
        return self.dynkin.rank

    def __repr__(self):
        # without the positive roots, which can run to thousands
        return f"RootSystem(dynkin={self.dynkin!r}, cartan={self.cartan!r}, symmetrizer={self.symmetrizer!r})"


# the largest coefficient of a root of any finite root system, at E8's highest
# root; A, B, C, F4 and G2 stay at or below 4
_MAX_COEFFICIENT = 6


def closure_from_cartan(cartan: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Positive roots of a finite-type Cartan matrix, by root-string closure.

    Starting from the simple roots, alpha + alpha_i is kept exactly when
    <alpha, alpha_i^vee> minus p_i, the length of the descending
    alpha_i-string through alpha, is negative.  Products come out
    block-diagonal for free.

    Each root of the current height carries two small dicts: its nonzero
    coroot pairings {i: <alpha, alpha_i^vee>} and its nonzero string lengths
    {i: p_i}.  Only their keys are tried: any other node has pairing 0 and
    p_i 0, so the rule rejects it.  No string is probed: alpha + alpha_i
    inherits alpha's pairings plus column i of the matrix and gets
    p_i(alpha) + 1, and a root reached again from another root of the same
    height records that p only.

    A coefficient that would pass 6, the largest in any finite root system,
    raises ValueError: the closure of a matrix not of finite type, such as
    affine A1's, would otherwise never end.
    """
    n = len(cartan)
    columns = [{k: cartan[k][i] for k in range(n) if cartan[k][i]} for i in range(n)]
    level = {(0,) * i + (1,) + (0,) * (n - i - 1): (columns[i], {}) for i in range(n)}
    # every root of a level has the same height, so sorting each level by its
    # coefficients sorts the whole list by (height, coefficients)
    roots = sorted(level)
    while level:
        nxt: dict[tuple[int, ...], tuple[dict[int, int], dict[int, int]]] = {}
        for m, (pairings, strings) in level.items():
            for i in pairings.keys() | strings.keys():
                p = strings.get(i, 0)
                if pairings.get(i, 0) - p >= 0:
                    continue
                cand = m[:i] + (m[i] + 1,) + m[i + 1 :]
                reached = nxt.get(cand)
                if reached:
                    reached[1][i] = p + 1
                    continue
                if m[i] >= _MAX_COEFFICIENT:
                    raise ValueError(
                        f"not a Cartan matrix of finite type: a root coefficient passes {_MAX_COEFFICIENT}"
                    )
                sums = dict(pairings)
                for k, a in columns[i].items():
                    c = sums.pop(k, 0) + a
                    if c:
                        sums[k] = c
                nxt[cand] = (sums, {i: p + 1})
        roots += sorted(nxt)
        level = nxt
    return roots


def build_root_system(dynkin: DynkinType) -> RootSystem:
    """Build a root system with its Cartan data, a[i][j] = <alpha_j, alpha_i^vee>, and full positive-root list."""
    n = dynkin.rank
    cartan = [[0] * n for _ in range(n)]
    symmetrizer: list[int] = []
    for f, off in zip(dynkin.factors, _factor_offsets(dynkin.factors)):
        short, long_, bond = factor_bond(f)
        for i in range(f.rank):
            row = cartan[off + i]
            row[off + i] = 2
            for j in (i - 1, i + 1):
                if 0 <= j < f.rank:
                    row[off + j] = bond if (i, j) == (short, long_) else -1
            # d_i = (alpha_i, alpha_i)/2 with short roots normalized to length^2 = 2,
            # so d_i is 1 on the short node's side of the bond and |bond| on the long
            # one; type A's (-1, -1, -1) gives 1 everywhere
            symmetrizer.append(1 if (i - long_) * (short - long_) > 0 else -bond)

    return RootSystem(
        dynkin=dynkin,
        cartan=tuple(tuple(row) for row in cartan),
        symmetrizer=tuple(symmetrizer),
        positive_roots=tuple(closure_from_cartan(cartan)),
    )


def check_highest_weight(lam: Sequence[int]) -> None:
    """Raise ValueError unless the fundamental-weight coefficients `lam` are ints (not bool) and dominant."""
    if not all(type(c) is int for c in lam):
        raise ValueError(f"highest weight must be integral: {lam}")
    if not all(c >= 0 for c in lam):
        raise ValueError(f"highest weight must be dominant: {lam}")


def weyl_dim(rs: RootSystem, lam: Sequence[int]) -> int:
    """Dimension of the irreducible representation with highest weight `lam`.

    prod_{alpha>0} <lam+rho, alpha^vee> / <rho, alpha^vee>, evaluated exactly:
    the symmetrizer is integer, so both products are integers and one
    division ends it.  A result past Python's int-to-str digit limit raises
    ValueError before the products are taken.
    """
    if len(lam) != rs.rank:
        raise ValueError(f"a weight of {rs.dynkin} needs {rs.rank} coefficients, got {len(lam)}")
    check_highest_weight(lam)
    d = rs.symmetrizer
    shifted = [(c + 1) * dj for c, dj in zip(lam, d)]
    nums = [sum(map(operator.mul, shifted, alpha)) for alpha in rs.positive_roots]
    dens = [sum(map(operator.mul, d, alpha)) for alpha in rs.positive_roots]
    # each ratio num/den is at least 1 and above 2**(bits(num) - bits(den) - 1),
    # so the result is at least 2**low
    low = sum(max(0, a.bit_length() - b.bit_length() - 1) for a, b in zip(nums, dens))
    limit = sys.get_int_max_str_digits()
    if limit and low >= (10**limit).bit_length():
        raise ValueError(f"the dimension has more than {limit} digits")
    result, remainder = divmod(math.prod(nums), math.prod(dens))
    if remainder or result <= 0:
        raise ArithmeticError(f"Weyl product for {lam} is not a positive integer")
    return result
