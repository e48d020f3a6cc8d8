import itertools

from hypothesis import strategies as st

from crsphere.rational import GaussRat
from crsphere.series import TruncSeries

VARS3 = ("z", "zb", "wb")

_MONOS3 = [m for m in itertools.product(range(5), repeat=3) if sum(m) <= 4]

fractions_small = st.fractions(min_value=-3, max_value=3, max_denominator=4)

gauss_rats = st.builds(GaussRat.of, fractions_small, fractions_small)


def series3(min_order=4, max_order=8):
    """Random series: 3 variables, degree <= 4, known order in [4, 8]."""
    return st.builds(
        lambda terms, order: TruncSeries(VARS3, terms, order),
        st.dictionaries(st.sampled_from(_MONOS3), gauss_rats, max_size=6),
        st.integers(min_order, max_order),
    )
