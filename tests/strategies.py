"""Hypothesis strategies shared by the property tests."""

from __future__ import annotations

from hypothesis import strategies as st

from twoorbit.rootsys import _SERIES, DynkinType, SimpleFactor


@st.composite
def dynkin_products(draw, max_rank=12):
    """A product of factors of the supported series, of total rank <= max_rank."""
    factors, left = [], max_rank
    while not factors or (left and draw(st.booleans())):
        series = draw(st.sampled_from([s for s, row in _SERIES.items() if row[0] <= left]))
        least, fixed, _ = _SERIES[series]
        rank = fixed or draw(st.integers(least, left))
        factors.append(SimpleFactor(series, rank))
        left -= rank
    return DynkinType(tuple(factors))


@st.composite
def marked_products(draw, max_rank=12):
    """A product of A/B/C/F4/G2 factors of total rank <= max_rank, with a marking."""
    dynkin = draw(dynkin_products(max_rank))
    marked = draw(st.frozensets(st.integers(0, dynkin.rank - 1), min_size=1))
    return dynkin, tuple(sorted(marked))
