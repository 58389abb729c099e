"""Independent small-rank oracles used to cross-check the main implementation.

Each deliberately avoids the code path it checks: roots are enumerated by
Weyl-reflection closure instead of root strings, representation dimensions
come from Freudenthal's multiplicity recursion instead of the Weyl product,
flag-variety invariants come from enumerating the nilradical roots instead
of the diagram path of `twoorbit.flagvar`, Poincare polynomials come
from the heights of the reflection-closure roots, and the anticanonical
degree of a horospherical variety and the barycenter of its moment segment
come from that segment's density.  The lattice oracle,
`invariant_submodules`, gives every P-submodule of g/p with its rank and
c1 from the nilradical roots alone, and `harder_narasimhan` reads the
Harder-Narasimhan filtration off such a lattice.  The coroot pairings and
root-to-weight conversion those checks use live here too.  Of `twoorbit`
this module imports `twoorbit.rootsys` alone, which CI checks: an oracle
that read the walk or the catalog would agree with them by construction.
"""

from __future__ import annotations

import functools
import math
import operator
from collections import Counter
from fractions import Fraction
from typing import Sequence

from twoorbit.rootsys import DynkinType, RootSystem, SimpleFactor, build_root_system


# --- roots and weights -------------------------------------------------------
# a root is a tuple of simple-root coordinates, a weight a tuple of
# fundamental-weight coordinates

def is_root(rs: RootSystem, alpha: tuple[int, ...]) -> bool:
    return alpha in rs.positive_roots or tuple(-c for c in alpha) in rs.positive_roots


def rho(rs: RootSystem) -> tuple[int, ...]:
    """Half the sum of positive roots: the all-ones weight."""
    return (1,) * rs.rank


def root_form(rs: RootSystem, m1: Sequence[int], m2: Sequence[int]) -> Fraction:
    """Symmetrized bilinear form of two vectors in simple-root coordinates."""
    d, a = rs.symmetrizer, rs.cartan
    total = Fraction(0)
    for i, x in enumerate(m1):
        if x:
            total += sum(x * y * d[i] * a[i][j] for j, y in enumerate(m2) if y)
    return total


def root_to_weight(rs: RootSystem, m: tuple[int, ...]) -> tuple[int, ...]:
    """Convert simple-root coordinates to the fundamental-weight basis.

    Done by pairing against every simple coroot, which stays in integers.
    """
    return tuple(sum(rs.cartan[i][j] * m[j] for j in range(rs.rank)) for i in range(rs.rank))


def coroot_pairing(rs: RootSystem, lam: Sequence[int], alpha: tuple[int, ...]) -> Fraction:
    """<lam, alpha^vee> = 2(lam, alpha)/(alpha, alpha)."""
    if not is_root(rs, alpha):
        raise ValueError(f"{alpha} is not a root of {rs.dynkin}")
    d = rs.symmetrizer
    num = sum(Fraction(c) * d[j] * alpha[j] for j, c in enumerate(lam))
    return 2 * num / root_form(rs, alpha, alpha)


def layout_type(t) -> tuple[DynkinType, tuple[int, ...], tuple[int, ...]]:
    """A triple's layout with its factor pairs built into a DynkinType, for build_root_system."""
    factors, y, z = t.family.layout(t.n, t.k)
    return DynkinType(tuple(SimpleFactor(*f) for f in factors)), y, z


# --- flag varieties by root enumeration --------------------------------------

# each takes the marked nodes as a sequence of 0-based global nodes

def nilradical_roots(rs: RootSystem, marked: Sequence[int]) -> list[tuple[int, ...]]:
    bad = [i for i in marked if not 0 <= i < rs.rank]
    if bad:
        raise ValueError(f"marked nodes {sorted(bad)} out of range 0..{rs.rank - 1}")
    return [a for a in rs.positive_roots if any(a[i] for i in marked)]


def flag_dimension(rs: RootSystem, marked: Sequence[int]) -> int:
    """dim G/P = number of positive roots supported on the marked set."""
    return len(nilradical_roots(rs, marked))


def anticanonical_weight(rs: RootSystem, marked: Sequence[int]) -> tuple[int, ...]:
    """-K_{G/P}: the sum of nilradical roots, in the fundamental-weight basis."""
    nil = nilradical_roots(rs, marked)
    return root_to_weight(rs, tuple(sum(a[j] for a in nil) for j in range(rs.rank)))


def fano_index(rs: RootSystem, marked: Sequence[int]) -> int:
    """Fano index of G/P for a maximal parabolic: the coefficient of -K on its node."""
    if len(marked) != 1:
        raise ValueError(f"Fano index needs a maximal parabolic, got marking {sorted(marked)}")
    (node,) = marked
    return int(anticanonical_weight(rs, marked)[node])


# --- reflection closure and Freudenthal --------------------------------------


def reflection_closure_positive_roots(rs: RootSystem) -> set[tuple[int, ...]]:
    """All positive roots as the Weyl orbit of the simple roots."""
    n = rs.rank
    a = rs.cartan
    simple = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    orbit = set(simple)
    frontier = list(simple)
    while frontier:
        nxt = []
        for m in frontier:
            for i in range(n):
                # s_i(alpha) = alpha - <alpha, alpha_i^vee> alpha_i
                pairing = sum(a[i][j] * m[j] for j in range(n))
                img = tuple(c - (pairing if j == i else 0) for j, c in enumerate(m))
                if img not in orbit:
                    orbit.add(img)
                    nxt.append(img)
        frontier = nxt
    return {m for m in orbit if all(c >= 0 for c in m)}


def _invert(mat: list[list[Fraction]]) -> list[list[Fraction]]:
    n = len(mat)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(mat)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv_p = 1 / aug[col][col]
        aug[col] = [x * inv_p for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def _weight_gram(rs: RootSystem) -> list[list[Fraction]]:
    """(omega_i, omega_j) from the inverse Cartan matrix and the symmetrizer."""
    n = rs.rank
    ainv = _invert([[Fraction(x) for x in row] for row in rs.cartan])
    return [[ainv[j][i] * rs.symmetrizer[j] for j in range(n)] for i in range(n)]


def freudenthal_dim(rs: RootSystem, lam: Sequence[int], max_dim: int | None = None) -> int | None:
    """dim of the highest-weight module, summing Freudenthal multiplicities.

    With `max_dim` it returns None as soon as the multiplicities found so far
    add up to more, which bounds its work on large modules.
    """
    n = rs.rank
    gram = _weight_gram(rs)
    d = rs.symmetrizer
    pos = rs.positive_roots
    pos_w = [
        tuple(sum(rs.cartan[i][j] * m[j] for j in range(n)) for i in range(n)) for m in pos
    ]

    def norm2_shifted(mu):
        v = [c + 1 for c in mu]  # mu + rho
        return sum(v[i] * v[j] * gram[i][j] for i in range(n) for j in range(n))

    def weight_dot_root(mu, alpha_root):
        return sum(mu[j] * alpha_root[j] * d[j] for j in range(n))

    top = tuple(int(c) for c in lam)
    top_norm = norm2_shifted(top)
    mult = {top: 1}
    dim = 1
    level = [top]
    simple_w = [tuple(rs.cartan[i][j] for i in range(n)) for j in range(n)]
    while level:
        candidates = set()
        for mu in level:
            for j in range(n):
                candidates.add(tuple(c - s for c, s in zip(mu, simple_w[j])))
        nxt = []
        for mu in sorted(candidates):
            total = Fraction(0)
            for m_root, w_root in zip(pos, pos_w):
                k = 1
                while True:
                    up = tuple(c + k * w for c, w in zip(mu, w_root))
                    if up not in mult:
                        break
                    total += mult[up] * weight_dot_root(up, m_root)
                    k += 1
            if total == 0:
                continue
            denom = top_norm - norm2_shifted(mu)
            m_mu = 2 * total / denom
            assert m_mu.denominator == 1 and m_mu > 0
            mult[mu] = int(m_mu)
            dim += mult[mu]
            if max_dim is not None and dim > max_dim:
                return None
            nxt.append(mu)
        level = nxt
    return dim


# --- Poincare polynomials ----------------------------------------------------


def poincare_polynomial(rs: RootSystem, marked: Sequence[int]) -> list[int]:
    """Coefficients of P_{G/P}(q), q = t^2, lowest degree first, for P with the `marked` nodes outside its Levi.

    P_{G/P}(q) = prod over alpha in R+ minus R_L of (1 - q^(ht alpha + 1)) / (1 - q^(ht alpha))
    (Macdonald, Math. Ann. 1972), over the roots of the Weyl-reflection
    closure.  The two multisets of exponents are cancelled first; every
    division that is left is exact, and a remainder fails the assertion.
    """
    heights = [sum(a) for a in reflection_closure_positive_roots(rs) if any(a[m] for m in marked)]
    ups, downs = Counter(h + 1 for h in heights), Counter(heights)
    poly = [1]
    for h in (ups - downs).elements():
        poly = [c - (poly[i - h] if i >= h else 0) for i, c in enumerate(poly + [0] * h)]
    for h in (downs - ups).elements():
        # Q = P / (1 - q^h) has Q[i] = P[i] + Q[i - h]
        for i in range(h, len(poly)):
            poly[i] += poly[i - h]
        assert not any(poly[len(poly) - h :]), f"1 - q^{h} does not divide"
        del poly[len(poly) - h :]
    return poly


# --- the moment segment ------------------------------------------------------


# The conventions of the moment segment, as in Brion (Duke 1989) and Delcroix
# ("K-stability of Fano spherical varieties", Ann. Sci. ENS 2020):
# - Polytope: the moment polytope of -K_X, for the horospherical X with closed
#   orbits G/P_Y and G/P_Z, is the segment r_X [omega_Z, omega_Y] of dominant
#   weights, itself and not its translate by -2 rho_P.  It is read as
#   p(t) = r_X (t omega_Y + (1 - t) omega_Z): t = 1 at Y's end, t = 0 at Z's.
# - Measure: the Duistermaat-Heckman density, the product over the roots
#   alpha of R+ minus R_L (L the Levi of P = P_Y n P_Z, so the roots with a
#   nonzero coefficient at a node of Y or Z) of (p, alpha).  Each factor here
#   is Brion's <p, alpha^vee> / <rho, alpha^vee>, a positive multiple of
#   (p, alpha), so it moves no barycenter.
# - Sign: X is K-semistable iff the barycenter minus 2 rho_P, the sum of
#   R+ minus R_L, lies in the dual of minus the valuation cone.  A horospherical
#   valuation cone is the whole space, so that dual is 0 and the barycenter
#   must be 2 rho_P.  2 rho_P = a omega_Y + b omega_Z with a + b = r_X is
#   p(t0) at t0 = a / r_X; a barycenter t-bar above t0 lies on Y's side of it.


def _segment_density(rs: RootSystem, y: Sequence[int], z: Sequence[int]) -> list[Fraction]:
    """Coefficients in t, lowest degree first, of prod <t omega_Y + (1 - t) omega_Z, alpha^vee> / <rho, alpha^vee>.

    The product runs over the roots alpha of R+ with a nonzero coefficient at
    a node of Y or Z.  With d the symmetrizer, <omega_m, alpha^vee> /
    <rho, alpha^vee> = d_m alpha_m / sum_j d_j alpha_j.
    """
    d = rs.symmetrizer
    poly = [Fraction(1)]
    for alpha in rs.positive_roots:
        at_y, at_z = (sum(d[m] * alpha[m] for m in nodes) for nodes in (y, z))
        if not at_y and not at_z:
            continue
        scale = Fraction(1, sum(dj * aj for dj, aj in zip(d, alpha)))
        # the factor scale * (at_z + (at_y - at_z) t)
        c0, c1 = scale * at_z, scale * (at_y - at_z)
        poly = [c0 * a + c1 * b for a, b in zip(poly + [0], [0] + poly)]
    return poly


def anticanonical_degree(rs: RootSystem, y: Sequence[int], z: Sequence[int], dim_x: int, r_x: int) -> Fraction:
    """(-K_X)^dim X of the horospherical X with closed orbits G/P_Y and G/P_Z, by Brion's integral (Duke 1989).

    The moment polytope of -K_X is the segment p(t), of lattice length r_X, and
    (-K_X)^dim X = (dim X)! r_X int_0^1 prod <p(t), alpha^vee> / <rho, alpha^vee> dt.
    Each of the dim X - 1 factors, one for each dimension of G/P_(Y u Z),
    is r_X times a factor of _segment_density, or the assertion fails.
    """
    poly = _segment_density(rs, y, z)
    assert len(poly) == dim_x, f"{len(poly) - 1} roots, against dim X - 1 = {dim_x - 1}"
    return math.factorial(dim_x) * r_x**dim_x * sum(c / (i + 1) for i, c in enumerate(poly))


def moment_barycenter(rs: RootSystem, y: Sequence[int], z: Sequence[int]) -> Fraction:
    """t-bar, where p(t-bar) is the barycenter of the moment segment of -K_X under the Duistermaat-Heckman density.

    t-bar = int_0^1 t f(t) dt / int_0^1 f(t) dt for f the segment density;
    it does not depend on r_X, which scales every factor alike.
    """
    poly = _segment_density(rs, y, z)
    return sum(c / (i + 2) for i, c in enumerate(poly)) / sum(c / (i + 1) for i, c in enumerate(poly))


# --- the lattice of invariant submodules ---------------------------------------


def invariant_submodules(factors: Sequence[tuple[str, int]], marked: Sequence[int]) -> dict[int, tuple[int, int]]:
    """Every P-submodule of g/p, as a bit set over R+ minus R_L, with its (rank, c1).

    P is the parabolic with the `marked` nodes outside its Levi L.  g/p has the
    T-weights -alpha for alpha in R+ minus R_L, each once, so a P-submodule is a
    set S of those roots closed under alpha - alpha_i (any i) and alpha + alpha_j
    (j unmarked); bit i of a key stands for the i-th of those roots in the order
    of `build_root_system`.  The rank of S is |S| and its c1 the sum over S of
    <alpha, alpha_m^vee> over the marked nodes m: in Pic G/P = Z for a maximal
    P, and on the generator of Pic G/H for the P = P_Y n P_Z of a horospherical
    X.  The zero module is the key 0, and g/p the largest key.
    """
    rs = build_root_system(DynkinType(tuple(SimpleFactor(*f) for f in factors)))
    nodes = range(rs.rank)
    roots = [a for a in rs.positive_roots if any(a[m] for m in marked)]
    index = {a: i for i, a in enumerate(roots)}
    steps = [(-1, i) for i in nodes] + [(1, j) for j in nodes if j not in marked]
    moves = [[index[b] for d, i in steps if (b := a[:i] + (a[i] + d,) + a[i + 1 :]) in index] for a in roots]
    # the least submodule holding each root, as a bit set over `roots`, grown to a fixed point
    least, grown = None, [1 << i for i in range(len(roots))]
    while grown != least:
        least = grown
        grown = [m | functools.reduce(operator.or_, (least[j] for j in js), 0) for m, js in zip(least, moves)]
    # every submodule is a union of these
    submodules = {0}
    for m in set(least):
        submodules |= {s | m for s in submodules}
    c1 = [sum(a[j] * rs.cartan[m][j] for m in marked for j in nodes) for a in roots]
    return {s: (s.bit_count(), sum(c for i, c in enumerate(c1) if s >> i & 1)) for s in submodules}


def harder_narasimhan(lattice: dict[int, tuple[int, int]]) -> list[tuple[int, Fraction]]:
    """(rank, slope) of each factor of the Harder-Narasimhan filtration of the largest module of `lattice`, in order.

    `lattice` maps bit sets to (rank, c1), as invariant_submodules gives it: it
    is closed under union and intersection, and rank and c1 add over bits.
    From the zero module up, each piece is the module holding the one before
    with the largest slope of the quotient by it, and the largest of those:
    the maximal destabilizing submodule of that quotient, which is unique
    (Harder-Narasimhan, Math. Ann. 1975; Huybrechts-Lehn, "The Geometry of
    Moduli Spaces of Sheaves", section 1.3).  A semistable module has one
    factor, itself.
    """
    full = lattice[max(lattice)][0]
    bits, rank, c1, factors = 0, 0, 0, []
    while rank < full:
        slope, top, bits = max(
            (Fraction(c - c1, r - rank), r, s) for s, (r, c) in lattice.items() if s & bits == bits and r > rank
        )
        factors.append((top - rank, slope))
        rank, c1 = lattice[bits]
    return factors
