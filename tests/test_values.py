"""The value classes: validation, immutability, equality, hashing and repr."""

import copy
import pickle
from fractions import Fraction

import pytest

from crsphere.cli import JobConfig
from crsphere.defining import THETA_VARS, ComplexDefining, RealGraph
from crsphere.errors import ArityError
from crsphere.fixtures import Biholo
from crsphere.invariants import KoppischReport, sphericality_verdict
from crsphere.parsing import parse_series
from crsphere.rational import GaussRat
from crsphere.report import VERDICT_NON_SPHERICAL, VERDICT_REALITY_VIOLATED, Report


def test_gaussrat_is_an_immutable_value():
    q = GaussRat.of(1, "-1/2")
    with pytest.raises(AttributeError):
        q.re = Fraction(2)
    with pytest.raises(AttributeError):
        del q.im
    assert q == GaussRat(Fraction(1), Fraction(-1, 2))
    assert q != GaussRat.of(1) and q != (q.re, q.im)
    assert hash(q) == hash(GaussRat.of("1", "-1/2"))
    assert len({q, GaussRat.of(1, "-1/2"), GaussRat()}) == 2
    # the repr is the text of error messages that quote a witness
    assert repr(q) == "GaussRat(re=Fraction(1, 1), im=Fraction(-1, 2))"
    assert repr(GaussRat()) == "GaussRat(re=Fraction(0, 1), im=Fraction(0, 1))"
    assert pickle.loads(pickle.dumps(q)) == q and copy.deepcopy(q) == q


def test_koppisch_report_repr_is_its_error_text():
    rep = KoppischReport(True, False, False, True, 5)
    assert repr(rep) == (
        "KoppischReport(i1_vanishes=True, i2_vanishes=False, dual_i1_vanishes=False,"
        " dual_i2_vanishes=True, order=5)"
    )


@pytest.mark.parametrize("verdict", [VERDICT_NON_SPHERICAL, VERDICT_REALITY_VIOLATED])
def test_report_rejects_a_witness_verdict_without_a_witness(verdict):
    with pytest.raises(ValueError, match="requires a witness"):
        Report(verdict, 6)
    with pytest.raises(ValueError, match="requires a witness"):
        Report(verdict, 6, (0, 0, 0))
    with pytest.raises(ValueError, match="nonzero"):
        Report(verdict, 6, (0, 0, 0), GaussRat())
    report = Report(verdict, 6, (0, 0, 0), GaussRat.of(1))
    assert report.timings == {} and report.payload == {}


def test_job_config_applies_the_order_cap_and_the_minimum(monkeypatch):
    monkeypatch.delenv("CRS_MAX_ORDER", raising=False)
    assert JobConfig("check", order=40).order == 16
    monkeypatch.setenv("CRS_MAX_ORDER", "9")
    assert JobConfig("check", order=12).order == 9
    assert JobConfig("check").order == 9  # the default order 10 is capped too
    assert JobConfig("to-complex", order=4).order == 4
    with pytest.raises(ValueError, match=r"order 6 too small for 'check' \(minimum 7\)"):
        JobConfig("check", order=6)
    monkeypatch.setenv("CRS_MAX_ORDER", "5")
    with pytest.raises(ValueError, match="caps order 12 below the minimum 7 for 'check'"):
        JobConfig("check", order=12)
    with pytest.raises(ValueError, match="unknown command"):
        JobConfig("frobnicate")


def test_real_graph_validates():
    def graph(text, vars_=("x", "y", "v")):
        return RealGraph(parse_series(text, vars_, 6))

    g = graph("x^2 + y^2")
    with pytest.raises(AttributeError):
        g.phi = g.phi
    with pytest.raises(ArityError):
        graph("x^2", ("x", "y", "w"))
    for text in ("x^2 + i*y^2", "1 + x^2", "v + x^2"):
        with pytest.raises(ValueError):
            graph(text)


def test_biholo_validates():
    def biholo(f_txt, g_txt, vars_=("z", "w")):
        return Biholo(parse_series(f_txt, vars_, 6), parse_series(g_txt, vars_, 6))

    h = biholo("z + z*w", "w + w^2")
    with pytest.raises(AttributeError):
        h.f = h.g
    with pytest.raises(ArityError):
        biholo("z", "zb", ("z", "zb"))
    for f_txt, g_txt in (("1 + z", "w"), ("z", "z"), ("w", "w^2")):
        with pytest.raises(ValueError):
            biholo(f_txt, g_txt)


def test_complex_defining_equality_ignores_what_is_kept():
    def defining(text):
        return ComplexDefining.from_theta(parse_series(text, THETA_VARS, 10))

    kept, fresh = defining("-wb + z*zb + z^2*zb^2"), defining("-wb + z*zb + z^2*zb^2")
    assert sphericality_verdict(kept).verdict == "non-spherical"
    assert {"aj4", "aj6"} <= set(kept.manifold._cache) and "manifold" not in vars(fresh)
    assert kept == fresh
    assert kept != defining("-wb + z*zb")
    assert repr(fresh) == f"ComplexDefining(theta={fresh.theta!r})"
    with pytest.raises(TypeError):
        hash(kept)
