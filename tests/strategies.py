"""Hypothesis strategies shared by several test modules."""
import numpy as np
from hypothesis import strategies as st

from cellroll.potentials import PiecewiseLinear


@st.composite
def even_convex_piecewise_linear(draw):
    """An even convex PiecewiseLinear with 1-3 breaks and a kink at 0."""
    breaks = sorted(draw(st.sets(st.floats(0.05, 2.0), min_size=1,
                                 max_size=3)))
    steps = draw(st.lists(st.floats(0.0, 2.0), min_size=len(breaks) + 1,
                          max_size=len(breaks) + 1))
    return PiecewiseLinear(breaks, np.cumsum(steps) + 0.1)
