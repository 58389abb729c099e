"""Hypothesis strategies shared by the property tests."""

from __future__ import annotations

from hypothesis import strategies as st

from twoorbit.rootsys import _MIN_RANK, DynkinType, SimpleFactor


@st.composite
def dynkin_products(draw, max_rank=12):
    """A product of A/B/C/F4/G2 factors of total rank <= max_rank."""
    factors, left = [], max_rank
    while not factors or (left and draw(st.booleans())):
        series = draw(st.sampled_from([s for s, r in _MIN_RANK.items() if r <= left]))
        rank = _MIN_RANK[series] if series in "FG" else draw(st.integers(_MIN_RANK[series], left))
        factors.append(SimpleFactor(series, rank))
        left -= rank
    return DynkinType(tuple(factors))
