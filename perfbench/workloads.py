"""Seeded job generators and report checks for the crsphere benchmark.

Every job is an argv list for ``crsphere`` and nothing else: the program
never sees the seed.  Job ``i`` of a workload is drawn from its own
``random.Random`` seeded with the text ``"<seed>:<workload>:<i>"``, so
the same seed gives the same argv bytes on every machine and Python
version, and a failing job cannot shift the inputs of later jobs.

All polynomial algebra here is done on Gaussian integers (pairs of
``int``) or ``Fraction`` in this file, independent of the program under
test.  Each input family is valid by construction; see README.md for
why each family was chosen.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("check", "to-complex", "rigid-check", "self-test")
ORDERS = {"check": 12, "to-complex": 10, "rigid-check": 16}

# the dense input of the ROADMAP baseline table
DENSE_PHI = "x^2 + y^2 + x^2*y*v + v^2*x^2"

# the set-up probe: a fresh interpreter finishing the cheapest check
SETUP_ARGV = ("check", "--theta=-wb+z*zb", "--order", "7")

SPHERICAL = "spherical-to-order"
NON_SPHERICAL = "non-spherical"
OK = "ok"
ONE = {"re": "1/1", "im": "0/1"}


@dataclass(frozen=True)
class Job:
    """One CLI invocation: ``kind`` names the input family, which fixes
    the expected report."""

    kind: str
    argv: tuple


# -- Gaussian-integer polynomials ------------------------------------------
# A polynomial is a dict {exponent tuple: (re, im)} with int parts.


def _gmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _conj(a):
    return (a[0], -a[1])


def _add_into(acc: dict, mono, c) -> None:
    old = acc.get(mono, (0, 0))
    acc[mono] = (old[0] + c[0], old[1] + c[1])


def _polymul(f: dict, g: dict, order: int) -> dict:
    out: dict = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            mono = tuple(a + b for a, b in zip(m1, m2))
            if sum(mono) < order:
                _add_into(out, mono, _gmul(c1, c2))
    return out


def _gauss(rng: random.Random, real: bool = False):
    """A Gaussian integer of fixed size: ``+-1`` if real, else ``+-1 +- i``.

    One size for every draw keeps coefficient growth, and so job cost,
    alike across seeds."""
    if real:
        return (rng.choice((-1, 1)), 0)
    return (rng.choice((-1, 1)), rng.choice((-1, 1)))


def _coeff_text(c) -> tuple:
    """(sign, body) of a coefficient; body is None for a plain 1."""
    re, im = c
    if im == 0:
        return ("-" if re < 0 else "+"), (None if abs(re) == 1 else str(abs(re)))
    if re == 0:
        return ("-" if im < 0 else "+"), ("i" if abs(im) == 1 else f"{abs(im)}*i")
    return "+", f"({re} {'-' if im < 0 else '+'} {abs(im)}*i)"


def _frac_text(q: Fraction) -> tuple:
    body = str(abs(q.numerator)) if q.denominator == 1 else f"{abs(q.numerator)}/{q.denominator}"
    return ("-" if q < 0 else "+"), (None if abs(q) == 1 else body)


def render(poly: dict, vars: tuple) -> str:
    """Expression text in the program's grammar, terms in graded-lex order."""
    chunks = []
    for mono in sorted(poly, key=lambda m: (sum(m), m)):
        c = poly[mono]
        sign, coeff = _frac_text(c) if isinstance(c, Fraction) else _coeff_text(c)
        factors = [v if e == 1 else f"{v}^{e}" for v, e in zip(vars, mono) if e]
        body = "*".join(([coeff] if coeff else []) + factors) or (coeff or "1")
        chunks.append((sign, body))
    text = ("-" if chunks[0][0] == "-" else "") + chunks[0][1]
    for sign, body in chunks[1:]:
        text += f" {sign} {body}"
    return text


# -- check: images of rigid surfaces under (z, w) -> (z, U(z) w + V(z)) ------


def _inverse_conj(u: dict, order: int) -> dict:
    """1 / conj(U)(zb) as a power series in zb, U = 1 + sum u_k z^k."""
    r = [(1, 0)]
    for n in range(1, order):
        acc = (0, 0)
        for (k,), c in u.items():
            if 1 <= k <= n:
                t = _gmul(_conj(c), r[n - k])
                acc = (acc[0] - t[0], acc[1] - t[1])
        r.append(acc)
    return {(0, n): c for n, c in enumerate(r) if c != (0, 0)}


def check_theta(rng: random.Random, refute: bool, order: int) -> str:
    """Theta = -wb U(z)/conj(U)(zb) + U(z) H(z, zb) over (z, zb, wb).

    ``U = 1 + u z`` and ``H = z*zb + P(z) + conj(P)(zb) [+ M]`` with ``P``
    of degree 2..4.  Without ``M`` this is the image of the Heisenberg
    sphere ``w = -wb + z*zb`` under ``(z, w) -> (z, U w + U P)``, hence
    spherical.  ``M`` is Hermitian with only ``z^2 zb^2`` and
    ``z^2 zb^4 + z^4 zb^2`` terms, the latter with coefficient ``c != 0``:
    the rigid obstruction of ``-wb + H`` at the origin is then ``48 c``,
    so the image is non-spherical with a degree-zero witness.
    ``U(0) = 1`` and ``P = O(z^2)`` keep the linear part ``-wb`` and the
    Levi determinant 1 at the origin.  A linear ``U`` with ``|u|^2 = 2``
    gives every draw the same coefficient growth in ``1/conj(U)``.
    """
    u = {(0,): (1, 0), (1,): _gauss(rng)}
    h = {(1, 1): (1, 0)}
    for k in (2, 3, 4):
        c = _gauss(rng)
        h[(k, 0)] = c
        h[(0, k)] = _conj(c)
    if refute:
        for p, q in ((2, 2), (2, 4)):
            c = _gauss(rng, real=p == q)
            h[(p, q)] = c
            h[(q, p)] = _conj(c)
    u2 = {(k, 0): c for (k,), c in u.items()}
    graph = _polymul(u2, h, order)
    flow = _polymul(u2, _inverse_conj(u, order), order - 1)
    theta = {(a, b, 0): c for (a, b), c in graph.items()}
    for (a, b), c in flow.items():
        _add_into(theta, (a, b, 1), (-c[0], -c[1]))
    theta = {m: c for m, c in theta.items() if c != (0, 0)}
    return render(theta, ("z", "zb", "wb"))


# -- to-complex: real graphs u = x^2 + y^2 + cubic and quartic terms ----------

# x^2 v, x v^2, y^3, x^2 y^2: the cost of a conversion depends strongly on
# which monomials carry v, so the support is fixed and only each term's
# x <-> y orientation and its coefficient are drawn
_GRAPH_SUPPORT = ((2, 0, 1), (1, 0, 2), (0, 3, 0), (2, 2, 0))


def graph_phi(rng: random.Random) -> str:
    """``phi = x^2 + y^2 + four real terms of degree 3-4``, two with ``v``.

    ``x^2 + y^2`` keeps the Levi form nondegenerate; the ``v`` terms make
    the surface non-rigid, so the conversion needs the implicit solve.
    """
    phi = {(2, 0, 0): Fraction(1), (0, 2, 0): Fraction(1)}
    for a, b, c in _GRAPH_SUPPORT:
        if rng.random() < 0.5:
            a, b = b, a
        phi[(a, b, c)] = Fraction(rng.choice((-2, -1, 1, 2)))
    return render(phi, ("x", "y", "v"))


# -- rigid-check: Hermitian Xi of degree <= 5 plus one factored power --------

_XI_PAIRS = ((1, 2), (2, 2), (1, 4))


def rigid_xi(rng: random.Random, k: int) -> str:
    """``Xi = z*zb + three Hermitian pairs + (z^2 + c z^3)^k (zb^2 + cbar zb^3)^k``.

    ``z*zb`` with coefficient 1 gives Levi factor 1 at the origin; the
    factored term goes through the parser's power path.  The three mixed
    pairs (degrees 3, 4 and 5) are the same in every draw, so draws differ
    in coefficients only and cost alike.
    """
    xi = {(1, 1): (1, 0)}
    for p, q in _XI_PAIRS:
        c = _gauss(rng, real=p == q)
        xi[(p, q)] = c
        xi[(q, p)] = _conj(c)
    c = _gauss(rng)

    def factor(var, c):
        sign, body = _coeff_text(c)
        return f"({var}^2 {sign} {body + '*' if body else ''}{var}^3)^{k}"

    return f"{render(xi, ('z', 'zb'))} + {factor('z', c)}*{factor('zb', _conj(c))}"


# -- job streams ---------------------------------------------------------------


def make_job(workload: str, seed: int, index: int, dense_theta: str = "") -> Job:
    """Job ``index`` of ``workload``.  Index 0 of ``check`` and
    ``to-complex`` is the fixed dense input; ``check`` then repeats
    certify, refute, refute.  Refute jobs cost more, and with two of them
    per certify job the median job stays inside the refute cluster
    instead of jumping between the clusters as the job count changes."""
    if workload == "self-test":
        return Job("corpus", ("self-test",))
    order = str(ORDERS[workload])
    rng = random.Random(f"{seed}:{workload}:{index}")
    if workload == "check":
        if index == 0:
            return Job("dense", ("check", f"--theta={dense_theta}", "--order", order))
        kind = "certify" if index % 3 == 1 else "refute"
        theta = check_theta(rng, kind == "refute", ORDERS["check"])
        return Job(kind, ("check", f"--theta={theta}", "--order", order))
    if workload == "to-complex":
        phi = DENSE_PHI if index == 0 else graph_phi(rng)
        return Job("graph", ("to-complex", f"--phi={phi}", "--order", order))
    if workload == "rigid-check":
        # k = 2, 3, 4 in turn, so every run holds the three costs in one proportion
        xi = rigid_xi(rng, 2 + index % 3)
        return Job("xi", ("rigid-check", f"--xi={xi}", "--order", order))
    raise ValueError(f"unknown workload {workload!r}")


def dense_argv() -> tuple:
    """The conversion that turns the dense phi into the fixed ``check`` job."""
    return ("to-complex", f"--phi={DENSE_PHI}", "--order", str(ORDERS["check"]))


# -- report checks ---------------------------------------------------------------


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def check_report(job: Job, code, text: str):
    """``None`` if the report is what the job's input family implies,
    else a short reason.  Digests are checked by the caller."""
    if code != 0:
        return f"exit code {code}"
    lines = text.splitlines()
    if len(lines) != 1:
        return f"expected one report line, got {len(lines)}"
    try:
        rep = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        return f"report is not JSON: {exc}"
    if not isinstance(rep, dict):
        return "report is not a JSON object"
    verdict = rep.get("verdict")
    tested = rep.get("tested_order")
    if job.kind == "corpus":
        checks = rep.get("checks")
        if verdict != OK or not checks or set(checks.values()) != {"pass"}:
            return f"self-test got {verdict}"
        return None
    order = int(job.argv[-1])
    if job.kind == "certify":
        if verdict != SPHERICAL or tested != order - 6 or rep.get("delta_at_origin") != ONE:
            return f"certify input got {verdict} at {tested}"
    elif job.kind in ("refute", "dense"):
        if verdict != NON_SPHERICAL or tested != order - 6:
            return f"refute input got {verdict} at {tested}"
        if rep.get("witness_monomial") != [0, 0, 0]:
            return f"refute witness at {rep.get('witness_monomial')}, expected the origin"
        if job.kind == "refute" and rep.get("delta_at_origin") != ONE:
            return "refute input lost its unit Levi factor"
    elif job.kind == "graph":
        if verdict != OK or tested != order or not isinstance(rep.get("theta"), str):
            return f"to-complex got {verdict} at {tested}"
        if rep.get("delta_at_origin") in (None, {"re": "0/1", "im": "0/1"}):
            return "to-complex output is Levi degenerate"
    elif job.kind == "xi":
        if verdict not in (SPHERICAL, NON_SPHERICAL) or tested != order - 6:
            return f"rigid input got {verdict} at {tested}"
        if rep.get("delta_at_origin") != ONE:
            return "rigid input lost its unit Levi factor"
    else:
        raise ValueError(f"no check for input family {job.kind!r}")
    return None
