"""Invariants of generalized flag varieties G/P from the marked Dynkin nodes.

The marked nodes are the simple roots *outside* the Levi subgroup.  The
dimension of G/P is the number of nilradical roots (positive roots supported
on the marked nodes), and the anticanonical class is their sum written in the
fundamental-weight basis.  Both are read off the Dynkin diagram here, without
enumerating a root.
"""

from __future__ import annotations

import bisect
from typing import NoReturn, Sequence

from .rootsys import DynkinType, factor_bond


# The nilradical count is |Phi+(G)| - |Phi+(Levi)|, and the anticanonical
# weight is 2*rho - sum(Phi+(Levi)), which vanishes off the marked set.  Every
# supported factor diagram is a chain, so the Levi splits into runs of
# consecutive unmarked nodes, each of a type known in closed form, and only
# the two end coefficients of a run's 2*rho touch the marked nodes.  The
# factor's one multiple bond decides a run's type: a run without it is A_s, a
# triple bond makes G2, a double bond strictly inside the run F4, and a double
# bond at an end B_s if the node at that end is short and C_s if it is long.


def _run_data(short: int, long_: int, bond: int, lo: int, hi: int) -> tuple[int, int, int]:
    """(root count, first and last coefficient of 2*rho) of the Levi run lo..hi of one factor.

    (short, long_, bond) is the factor's multiple bond, as factor_bond gives
    it.  The closed forms below list the 2*rho ends from the long side of the
    bond to the short side; a bond pointing the other way swaps them.
    """
    s = hi - lo + 1
    if not (lo <= short <= hi and lo <= long_ <= hi):
        return s * (s + 1) // 2, s, s
    if bond == -3:
        count, first, last = 6, 6, 10  # G2
    elif short == lo or short == hi:
        count, first, last = s * s, 2 * s - 1, s * s  # B_s
    elif long_ == lo or long_ == hi:
        count, first, last = s * s, s * (s + 1) // 2, 2 * s  # C_s
    else:
        count, first, last = 24, 16, 22  # F4
    return (count, first, last) if long_ <= short else (count, last, first)


def _refuse(dynkin: DynkinType, marked: Sequence[int]) -> NoReturn:
    """Refuse a node list the walk cannot take, naming its out-of-range nodes if it has any."""
    bad = sorted({i for i in marked if not 0 <= i < dynkin.rank})
    if bad:
        raise ValueError(f"marked nodes {bad} out of range 0..{dynkin.rank - 1}")
    raise ValueError(f"marked nodes {list(marked)} must be nonempty and strictly increasing")


def flag_invariants(dynkin: DynkinType, marked: Sequence[int]) -> tuple[int, dict[int, int]]:
    """(dimension, -K) of G/P, in one walk over the diagram.

    `marked` holds 0-based global nodes in strictly increasing order; an
    empty, unsorted or out-of-range list raises ValueError.  -K is sparse,
    {marked node: coefficient} in node order.
    """
    dimension, anti, offset, start = 0, {}, 0, 0
    for f in dynkin.factors:
        rank = f.rank
        short, long_, bond = factor_bond(f)
        end = bisect.bisect_left(marked, offset + rank, start)
        dimension += _run_data(short, long_, bond, 0, rank - 1)[0]
        left = -1  # local index of the marked node before the next run, -1 at the chain's start
        for node in (*marked[start:end], offset + rank):  # offset + rank stands for the chain's end
            i = node - offset
            if i < rank:
                anti[node] = 2
            elif i > rank:  # only the chain's end may sit at i == rank
                _refuse(dynkin, marked)
            if i > left + 1:  # the Levi run left+1..i-1
                count, first, last = _run_data(short, long_, bond, left + 1, i - 1)
                dimension -= count
                if left >= 0:
                    anti[offset + left] -= first * (bond if left == short and left + 1 == long_ else -1)
                if i < rank:
                    anti[node] -= last * (bond if i == short and i - 1 == long_ else -1)
            elif i <= left:  # a repeat or a step back
                _refuse(dynkin, marked)
            left = i
        offset, start = offset + rank, end
    if start < len(marked) or not marked:  # nodes past the last factor, or none
        _refuse(dynkin, marked)
    return dimension, anti
