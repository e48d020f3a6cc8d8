"""Outside-in tracer: wraps crsphere's public functions without editing them.

``Tracer.install()`` replaces every public function of the traced modules
at *each binding callers look up*: the defining module's attribute, every
``from ... import`` rebinding in other crsphere modules (for example
``crsphere.invariants.second_jet_transfer`` or
``crsphere.cli.sphericality_verdict``), and the arithmetic methods on the
``TruncSeries`` class.  A call through any of them appends one span
``(name id, parent index, start, end, outermost, a, b)`` to an in-memory
list.  ``outermost`` is false inside another span of the same name;
``a`` and ``b`` are counters: operand pairs and output terms for
multiplication, output terms and coefficient bits for parsing, and the
largest coefficient size in bits of the series returned by module
functions, ``div`` and ``substitute``.  ``uninstall()`` restores every
binding.  run.py uses one tracer per job, so a dump holds the spans
of one job.

Queries (``is_zero``, ``coeff``, ``valuation``, ...) and constructors
are not wrapped: they run inside the kernels, and a span for each would
cost more than the work it measures.

Run as a script, it traces one CLI job in a fresh interpreter and writes
the spans as JSON::

    python3 perfbench/tracer.py OUT.json self-test
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import io
import json
import sys
from time import perf_counter

LAYERS = ("cli", "parsing", "defining", "solve", "series", "transfer", "invariants", "report", "selftest")

SERIES_METHODS = {
    "__add__": "add",
    "__sub__": "sub",
    "__neg__": "neg",
    "__mul__": "mul",
    "__rmul__": "rmul",
    "scale": "scale",
    "pow": "pow",
    "truncate": "truncate",
    "derive": "derive",
    "substitute": "substitute",
    "div": "div",
    "conjugate": "conjugate",
    "rename": "rename",
    "reorder": "reorder",
    "extend": "extend",
}
# methods whose returned series are sized in bits (besides module functions)
SIZED_METHODS = ("div", "substitute")


def coeff_bits(series) -> int:
    """Largest numerator or denominator size, in bits, of a series."""
    best = 0
    for c in series.terms.values():
        for q in (c.re, c.im):
            best = max(best, q.numerator.bit_length(), q.denominator.bit_length())
    return best


class Tracer:
    def __init__(self):
        self.names: list = []  # span name by name id
        self.spans: list = []  # (name id, parent, start, end, outermost, a, b)
        self._stack: list = []
        self._active: list = []  # open spans per name id
        self._undo: list = []
        self._series_cls = None

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"crsphere.{layer}") for layer in LAYERS}
        series_cls = modules["series"].TruncSeries
        self._series_cls = series_cls
        wrapped = {}
        for layer, mod in modules.items():
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                wrapped[fn] = self._wrap(f"{layer}.{attr}", fn, sized=True)
        for method, short in SERIES_METHODS.items():
            fn = series_cls.__dict__[method]
            self._set(series_cls, method, self._wrap(f"series.{short}", fn, sized=short in SIZED_METHODS))
        # every module-level binding of a wrapped function, wherever imported
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "crsphere" or name.startswith("crsphere.")):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._set(mod, attr, wrapped[value])

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap(self, name: str, fn, sized: bool):
        name_id = len(self.names)
        self.names.append(name)
        active = self._active
        active.append(0)
        spans = self.spans
        stack = self._stack
        series_cls = self._series_cls
        is_mul = name == "series.mul"
        is_parse = name == "parsing.parse_series"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            outer = active[name_id] == 0
            active[name_id] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                active[name_id] -= 1
                stack.pop()
                spans[index] = (name_id, parent, start, end, outer, 0, 0)
            if is_mul and isinstance(args[1], series_cls):
                spans[index] = (name_id, parent, start, end, outer,
                                len(args[0].terms) * len(args[1].terms), len(result.terms))
            elif is_parse:
                spans[index] = (name_id, parent, start, end, outer, len(result.terms), coeff_bits(result))
            elif sized and isinstance(result, series_cls):
                spans[index] = (name_id, parent, start, end, outer, 0, coeff_bits(result))
            return result

        return wrapper

    # -- output ----------------------------------------------------------------

    def dump(self) -> dict:
        return {"names": self.names, "spans": self.spans}


def summarize(dumps: list) -> dict:
    """Per-name totals over one or more tracer dumps.

    Returns ``{"totals": {name: {"calls", "self_s", "incl_s", "a", "b"}},
    "bits_max", "implicit_substitute_calls", "aj4_transfer_s"}``.
    Inclusive time counts only the outermost span of a name, so recursion
    (``eval_ast``, ``__sub__`` calling ``__add__``) is not counted twice.
    ``b`` sums the output terms of ``series.mul`` and is a size in bits
    for every other name; ``bits_max`` is the largest of those sizes.
    """
    totals: dict = {}
    bits_max = 0
    implicit_substitute_calls = 0
    aj4_transfer_s = 0.0
    for dump in dumps:
        names = dump["names"]
        spans = dump["spans"]
        ids = {name: i for i, name in enumerate(names)}
        solve_id = ids.get("solve.implicit_solve", -1)
        aj4_id = ids.get("invariants.aj4", -1)
        child_s = [0.0] * len(spans)
        in_solve = [False] * len(spans)
        in_aj4 = [False] * len(spans)
        for i, (name_id, parent, start, end, outer, a, b) in enumerate(spans):
            if parent >= 0:
                child_s[parent] += end - start
                in_solve[i] = in_solve[parent] or spans[parent][0] == solve_id
                in_aj4[i] = in_aj4[parent] or spans[parent][0] == aj4_id
        for i, (name_id, parent, start, end, outer, a, b) in enumerate(spans):
            name = names[name_id]
            t = totals.setdefault(name, {"calls": 0, "self_s": 0.0, "incl_s": 0.0, "a": 0, "b": 0})
            dur = end - start
            t["calls"] += 1
            t["self_s"] += dur - child_s[i]
            t["a"] += a
            if outer:
                t["incl_s"] += dur
            if name == "series.mul":
                t["b"] += b
            else:
                t["b"] = max(t["b"], b)
                bits_max = max(bits_max, b)
            if name == "series.substitute" and in_solve[i]:
                implicit_substitute_calls += 1
            if name == "transfer.second_jet_transfer" and outer and in_aj4[i]:
                aj4_transfer_s += dur
    return {
        "totals": totals,
        "bits_max": bits_max,
        "implicit_substitute_calls": implicit_substitute_calls,
        "aj4_transfer_s": aj4_transfer_s,
    }


def main(argv) -> int:
    """Trace one CLI job in this interpreter; write spans to ``argv[0]``."""
    out, job_argv = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    cli = importlib.import_module("crsphere.cli")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(job_argv)
    tracer.uninstall()
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(tracer.dump(), fh, separators=(",", ":"))
    sys.stdout.write(buf.getvalue())
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
