"""Invariants of generalized flag varieties G/P from the marked Dynkin nodes.

The marked nodes are the simple roots *outside* the Levi subgroup.  The
dimension of G/P is the number of nilradical roots (positive roots supported
on the marked nodes), and the anticanonical class is their sum written in the
fundamental-weight basis.  Both are read off the Dynkin diagram here, without
enumerating a root.
"""

from __future__ import annotations

from typing import Sequence

from .rootsys import DynkinType, _check_nodes, factor_bond


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


def flag_invariants(dynkin: DynkinType, marked: Sequence[int]) -> tuple[int, dict[int, int]]:
    """(dimension, -K) of G/P, in one walk over the diagram.

    `marked` holds 0-based global nodes in strictly increasing order; a node
    that is not an int, an out-of-range node, or an empty or unsorted list
    raises ValueError.  -K is sparse, {marked node: coefficient} in node order.
    """
    _check_nodes(dynkin, marked, "marked nodes")
    if not marked or any(a >= b for a, b in zip(marked, marked[1:])):
        raise ValueError(f"marked nodes {list(marked)} must be nonempty and strictly increasing")
    return _walk(dynkin, (marked,))[0]


def _walk(factors: Sequence[tuple[str, int]], markings: Sequence[Sequence[int]]) -> list[tuple[int, dict[int, int]]]:
    """flag_invariants of each node list in `markings`, reading each factor's bond and root count once.

    `factors` holds (series, rank) pairs and `markings` node lists that
    flag_invariants accepts, both taken as given.  Each list is read in one
    pass: its nodes go to the current factor until one passes that factor's
    end, and a factor no node reaches is one Levi run.
    """
    chains, type_rank = [], 0
    for f in factors:
        rank = f[1]
        short, long_, bond = factor_bond(f)
        total = _run_data(short, long_, bond, 0, rank - 1)[0]
        chains.append((type_rank, type_rank + rank, rank - 1, short, long_, bond, total))
        type_rank += rank
    results = []
    for marked in markings:
        dimension, anti, at, size = 0, {}, 0, len(marked)
        for offset, end, top, short, long_, bond, total in chains:
            dimension += total
            left = -1  # local index of the marked node before the next run, -1 at the chain's start
            while at < size and marked[at] < end:
                node = marked[at]
                i = node - offset
                anti[node] = 2
                if i > left + 1:  # the Levi run left+1..i-1
                    count, first, last = _run_data(short, long_, bond, left + 1, i - 1)
                    dimension -= count
                    if left >= 0:
                        anti[offset + left] -= first * (bond if left == short and left + 1 == long_ else -1)
                    anti[node] -= last * (bond if i == short and i - 1 == long_ else -1)
                left, at = i, at + 1
            if left < top:  # the Levi run left+1..top at the chain's end
                count, first, _ = _run_data(short, long_, bond, left + 1, top)
                dimension -= count
                if left >= 0:
                    anti[offset + left] -= first * (bond if left == short and left + 1 == long_ else -1)
        results.append((dimension, anti))
    return results
