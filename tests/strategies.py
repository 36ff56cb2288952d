"""Hypothesis strategies and draw helpers shared by several test modules."""
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


def convex_piecewise_linear(draw):
    """An even convex PiecewiseLinear with 0-3 breaks, drawn with ``draw``
    inside a composite strategy. A zero first slope drops the kink at 0,
    and with it the flat branch; a last slope of 0 is set to 1. It is a
    plain function, not a strategy of its own: a nested strategy would
    change the derandomized examples of the tests that draw it."""
    breaks = sorted(draw(st.sets(st.floats(0.05, 2.0), max_size=3)))
    steps = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.5)),
                          min_size=len(breaks) + 1, max_size=len(breaks) + 1))
    slopes = np.cumsum(steps)
    if slopes[-1] == 0.0:
        slopes[-1] = 1.0
    return PiecewiseLinear(breaks, slopes)
