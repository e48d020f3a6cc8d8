import itertools
from fractions import Fraction
from math import gcd

from hypothesis import strategies as st

from crsphere.defining import XI_VARS
from crsphere.rational import GaussRat
from crsphere.series import TruncSeries, _key, _mono

VARS3 = ("z", "zb", "wb")

_MONOS3 = [m for m in itertools.product(range(5), repeat=3) if sum(m) <= 4]

fractions_small = st.fractions(min_value=-3, max_value=3, max_denominator=4)

gauss_rats = st.builds(GaussRat.of, fractions_small, fractions_small)

_huge = st.integers(-(3**25), 3**25)

# small, purely imaginary, mixed-denominator (p/3 + q/7*i) and large
# (denominators 3^15..3^21) coefficients
kernel_rats = st.one_of(
    gauss_rats,
    st.builds(lambda q: GaussRat(Fraction(0), q), fractions_small),
    st.builds(
        lambda p, q: GaussRat(Fraction(p, 3), Fraction(q, 7)),
        st.integers(-9, 9),
        st.integers(-9, 9),
    ),
    st.builds(
        lambda p, j, q, k: GaussRat(Fraction(p, 3**j), Fraction(q, 3**k)),
        _huge,
        st.integers(15, 21),
        _huge,
        st.integers(15, 21),
    ),
)


def _assert_normalised(f):
    """The representation contract: one positive denominator with no content
    in common with the Gaussian-integer numerators, no zero or out-of-order
    term, and every key the encoding of a monomial of the series' space."""
    assert f._den > 0
    assert gcd(f._den, *(x for pair in f._num.values() for x in pair)) == 1
    for key, pair in f._num.items():
        assert type(pair) is tuple and pair != (0, 0)
        mono = _mono(key, f.arity)
        assert sum(mono) < f.order
        assert _key(mono) == key  # no digit beyond the space's, degree digit included


def series3(min_order=4, max_order=8):
    """Random series: 3 variables, degree <= 4, known order in [4, 8]."""
    return st.builds(
        lambda terms, order: TruncSeries(VARS3, terms, order),
        st.dictionaries(st.sampled_from(_MONOS3), gauss_rats, max_size=6),
        st.integers(min_order, max_order),
    )


def check_theta(rng, refute, order=12):
    """A Theta of the ``check`` benchmark family, as text in graded-lex order.

    ``Theta = -wb U(z)/conj(U)(zb) + U(z) H(z, zb)`` with ``U = 1 + u z`` and
    ``H = z zb + P(z) + conj(P)(zb)``, ``P`` of degree 2..4: the image of the
    Heisenberg sphere under ``(z, w) -> (z, U w + U P)``.  With ``refute``,
    ``H`` also gets ``a z^2 zb^2 + c z^2 zb^4 + conj(c) z^4 zb^2``, ``c != 0``,
    which makes the image non-spherical.  Coefficients are ``+-1 +- i``,
    real on the diagonal.
    """
    from crsphere.parsing import parse_series, render_series

    def gauss(real=False):
        return rng.choice((-1, 1)), 0 if real else rng.choice((-1, 1))

    def text(c, im_sign=1):
        im = im_sign * c[1]
        return f"({c[0]} {'-' if im < 0 else '+'} {abs(im)}*i)"

    u = gauss()
    h = ["z*zb"]
    for k in (2, 3, 4):
        c = gauss()
        h += [f"{text(c)}*z^{k}", f"{text(c, -1)}*zb^{k}"]
    if refute:
        h.append(f"{text(gauss(real=True))}*z^2*zb^2")
        c = gauss()
        h += [f"{text(c)}*z^2*zb^4", f"{text(c, -1)}*z^4*zb^2"]
    def series(text):
        return parse_series(text, VARS3, order)

    big_u = series(f"1 + {text(u)}*z")
    theta = big_u * series(" + ".join(h)) - (series("wb") * big_u).div(series(f"1 + {text(u, -1)}*zb"))
    return render_series(theta)


def rigid_part(theta):
    """For a rigid ``theta = -wb + Xi(z, zb)``, extract ``Xi`` over ``(z, zb)``."""
    terms = {}
    for mono, coeff in theta.terms.items():
        if mono == (0, 0, 1):
            continue
        if mono[2] != 0:
            raise ValueError("defining function is not rigid")
        terms[(mono[0], mono[1])] = coeff
    return TruncSeries(XI_VARS, terms, theta.order)
