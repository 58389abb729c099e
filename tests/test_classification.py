"""The horospherical catalog derived from Pasquier's smoothness criterion, instead of listed.

A smooth projective horospherical variety of Picard rank one with two closed
orbits is homogeneous or one of Pasquier's non-homogeneous ones (Math. Ann.
2009).  `oracles.horospherical_is_smooth` decides smoothness from the roots
alone, on every ordered pair (Y, Z) of distinct nodes of A_r (r <= 8), B_r and
C_r (2 <= r <= 8), F4 and G2, and of D_r (4 <= r <= 8) and E6-E8, whose
list is empty.  The two pinned families, PasF4 and PasA1G2, are not
horospherical and lie outside this test.
"""

import itertools
from fractions import Fraction
from types import SimpleNamespace

from twoorbit.flagvar import flag_invariants
from twoorbit.pasquier import enumerate_triples
from twoorbit.rootsys import closure_from_cartan
from oracles import (
    E_EDGES,
    anticanonical_weight,
    d_edges,
    horospherical_is_smooth,
    moment_barycenter,
    rs_of,
    simply_laced_cartan,
)

TYPES = [f"A{r}" for r in range(1, 9)] + [f"{s}{r}" for s in "BC" for r in range(2, 9)] + ["F4", "G2"]


def as_layout(series, rank, y, z):
    """The pair up to Y <-> Z, with B2 read as C2, whose nodes run the other way."""
    if (series, rank) == ("B", 2):
        series, y, z = "C", 1 - y, 1 - z
    return series, rank, frozenset((y, z))


def test_smooth_pairs_are_the_homogeneous_ones_and_the_catalog():
    """The smooth pairs of type A are homogeneous, and every other one is a catalog layout, none missing and none extra.

    A homogeneous X is Kahler-Einstein, so its barycenter t-bar is t0, where
    p(t0) = 2 rho_P as in test_moment_barycenter_is_not_two_rho_p; each catalog
    member has t-bar != t0.
    """
    homogeneous, others = set(), set()
    for spec in TYPES:
        rs = rs_of(spec)
        for y, z in itertools.permutations(range(rs.rank), 2):
            if not horospherical_is_smooth(rs, (y,), (z,)):
                continue
            colours = flag_invariants(rs.dynkin, sorted((y, z)))[1]
            t0 = Fraction(colours[y], colours[y] + colours[z])
            if spec[0] == "A":
                assert moment_barycenter(rs, (y,), (z,)) == t0, (spec, y, z)
                homogeneous.add((rs.rank, y, z))
            else:
                assert moment_barycenter(rs, (y,), (z,)) != t0, (spec, y, z)
                others.add(as_layout(spec[0], rs.rank, y, z))
    # Gr(i + 1, r + 2) from (omega_i, omega_(i+1)), and Q^2r from (omega_1, omega_r)
    assert homogeneous == {
        (r, y, z) for r in range(2, 9) for y, z in itertools.permutations(range(r), 2)
        if abs(y - z) == 1 or {y, z} == {0, r - 1}
    }
    assert len(homogeneous) == 68
    catalog = []
    for t in enumerate_triples(8):
        if t.is_horospherical():
            ((series, rank),), (y,), (z,) = t.family.layout(t.n, t.k)
            catalog.append(as_layout(series, rank, y, z))
    assert set(catalog) == others
    assert len(catalog) == len(others) == 37


def simply_laced_rs(rank, edges):
    """A stand-in for the RootSystem that DynkinType refuses to name, with the four fields the oracles read."""
    cartan = simply_laced_cartan(rank, edges)
    return SimpleNamespace(
        rank=rank, cartan=cartan, symmetrizer=(1,) * rank, positive_roots=closure_from_cartan(cartan)
    )


def test_smooth_pairs_of_d_and_e_are_homogeneous():
    """Pasquier's list has no member of type D or E, so every smooth pair of D4-D8 and E6-E8 is homogeneous: t-bar = t0.

    The walk has no D or E, so t0 comes from the nilradical roots,
    `oracles.anticanonical_weight`, where the test above reads flag_invariants.
    """
    smooth = set()
    diagrams = {f"D{r}": (r, d_edges(r)) for r in range(4, 9)} | {f"E{r}": (r, E_EDGES[: r - 1]) for r in (6, 7, 8)}
    for spec, (rank, edges) in diagrams.items():
        rs = simply_laced_rs(rank, edges)
        for y, z in itertools.permutations(range(rank), 2):
            if horospherical_is_smooth(rs, (y,), (z,)):
                colours = anticanonical_weight(rs, (y, z))
                t0 = Fraction(colours[y], colours[y] + colours[z])
                assert moment_barycenter(rs, (y,), (z,)) == t0, (spec, y, z)
                smooth.add((spec, y, z))
    # any two of the three end nodes of D4, and the two end nodes of the fork
    # of D_r for r >= 5; none of E6-E8
    assert smooth == {("D4", y, z) for y, z in itertools.permutations((0, 2, 3), 2)} | {
        (f"D{r}", y, z) for r in range(5, 9) for y, z in itertools.permutations((r - 2, r - 1), 2)
    }
    assert len(smooth) == 14
