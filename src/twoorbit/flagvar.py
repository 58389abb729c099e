"""Invariants of generalized flag varieties G/P from a parabolic marking.

A marking is the set of simple roots *outside* the Levi subgroup.  The
dimension of G/P is the number of nilradical roots (positive roots supported
on the marking), and the anticanonical class is their sum written in the
fundamental-weight basis.  Both are read off the Dynkin diagram here, without
enumerating a root.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from .rootsys import DynkinType, chain_entry


@dataclass(frozen=True)
class ParabolicMarking:
    """Nonempty set of marked Dynkin nodes (0-based global indices)."""

    marked: frozenset[int]

    def __post_init__(self):
        if not self.marked:
            raise ValueError("marking must be nonempty (G/G is a point)")

    @classmethod
    def of(cls, *nodes: int) -> "ParabolicMarking":
        return cls(frozenset(nodes))

    def union(self, other: "ParabolicMarking") -> "ParabolicMarking":
        return ParabolicMarking(self.marked | other.marked)


@dataclass(frozen=True)
class FlagInvariants:
    dimension: int
    picard_rank: int
    anticanonical: dict[int, int]  # -K on each marked node, in node order; 0 off the marking
    index: int | None  # present iff the parabolic is maximal


def _check(rank: int, m: ParabolicMarking) -> None:
    bad = [i for i in m.marked if not 0 <= i < rank]
    if bad:
        raise ValueError(f"marked nodes {sorted(bad)} out of range 0..{rank - 1}")


# The nilradical count is |Phi+(G)| - |Phi+(Levi)|, and the anticanonical
# weight is 2*rho - sum(Phi+(Levi)), which vanishes off the marked set.  Every
# supported factor diagram is a chain, so the Levi splits into runs of
# consecutive unmarked nodes, each of a type known in closed form, and only
# the two end coefficients of a run's 2*rho touch the marked nodes.

# runs of F4 and G2 that are neither of type A nor B_s ending at a short node
_EXCEPTIONAL_RUNS = {
    ("F", 1, 3): (9, 6, 6),  # C3, long node first
    ("F", 0, 3): (24, 16, 22),
    ("G", 0, 1): (6, 6, 10),
}


def _run_data(series: str, rank: int, lo: int, hi: int) -> tuple[int, int, int]:
    """(root count, first and last coefficient of 2*rho) of the Levi run lo..hi of one factor."""
    if (series, lo, hi) in _EXCEPTIONAL_RUNS:
        return _EXCEPTIONAL_RUNS[series, lo, hi]
    s = hi - lo + 1
    if series == "B" and hi == rank - 1 or series == "F" and hi == 2:
        return s * s, 2 * s - 1, s * s
    if series == "C" and hi == rank - 1 and s > 1:
        return s * s, 2 * s, s * (s + 1) // 2
    return s * (s + 1) // 2, s, s


def _levi_runs(rank: int, marked: list[int]) -> list[tuple[int, int]]:
    """Maximal runs of unmarked nodes in a chain of `rank` nodes, given its sorted marked nodes."""
    runs, start = [], 0
    for i in marked:
        if i > start:
            runs.append((start, i - 1))
        start = i + 1
    if start < rank:
        runs.append((start, rank - 1))
    return runs


def flag_invariants(dynkin: DynkinType, m: ParabolicMarking) -> FlagInvariants:
    """Dimension and -K of G/P from the diagram alone, in one walk over the marked nodes."""
    _check(dynkin.rank, m)
    marked = sorted(m.marked)
    dimension, anti, offset, start = 0, {}, 0, 0
    for f in dynkin.factors:
        end = bisect.bisect_left(marked, offset + f.rank, start)
        local = [i - offset for i in marked[start:end]]
        dimension += _run_data(f.series, f.rank, 0, f.rank - 1)[0]
        for i in local:
            anti[offset + i] = 2
        for lo, hi in _levi_runs(f.rank, local):
            count, first, last = _run_data(f.series, f.rank, lo, hi)
            dimension -= count
            if lo > 0:
                anti[offset + lo - 1] -= first * chain_entry(f, lo - 1, lo)
            if hi < f.rank - 1:
                anti[offset + hi + 1] -= last * chain_entry(f, hi + 1, hi)
        offset, start = offset + f.rank, end
    return FlagInvariants(
        dimension=dimension,
        picard_rank=len(marked),
        anticanonical=anti,
        index=anti[marked[0]] if len(marked) == 1 else None,
    )
