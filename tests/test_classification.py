"""The horospherical catalog derived from Pasquier's smoothness criterion, instead of listed.

A smooth projective horospherical variety of Picard rank one with two closed
orbits is homogeneous or one of Pasquier's non-homogeneous ones (Math. Ann.
2009).  `oracles.horospherical_is_smooth` decides smoothness from the roots
alone, on every ordered pair (Y, Z) of distinct nodes of A_r (r <= 8), B_r and
C_r (2 <= r <= 8), F4 and G2.  The two pinned families, PasF4 and PasA1G2, are
not horospherical and lie outside this test.
"""

import itertools
from fractions import Fraction

from twoorbit.flagvar import flag_invariants
from twoorbit.pasquier import enumerate_triples
from oracles import horospherical_is_smooth, moment_barycenter, rs_of

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
