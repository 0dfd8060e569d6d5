"""Per-layer tracing of rncurves from outside the program.

`Tracer.install` replaces every public function of the traced modules, the
two class methods named in METHODS and the private rank paths in PRIVATE by
a wrapper that records a span, in every rncurves module whose namespace
holds the function (``rnc.gcd_many``, ``segre.gcd``,
``feasibility.hilbert_function``, ...).  No source file is edited.  Spans
stay in memory until `write_spans`; per-layer metrics are aggregated as the
spans close.  A span's self time is its duration minus the time covered by
its child spans and by the tracer's own bookkeeping (digit counting).

`multiforms` is not traced: its one hot function, the `lru_cache`d
`monomials`, is under 1% of every workload.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

TRACED_MODULES = (
    "linalg", "binforms", "exactgeom", "rnc", "segre", "arrangements",
    "feasibility", "defectivity", "serialize", "cli",
)
METHODS = {"exactgeom": (("Projectivity", "inverse"), ("LinearSubspace", "from_rows"))}
# Private rank paths, wrapped as module attributes so `linalg.rank` resolves
# the wrapper at call time: unit-row stripping, the modular prescreen and the
# Bareiss fallback.
PRIVATE = {
    "linalg": {
        "_strip_unit_rows": "linalg.strip_unit_rows",
        "_rank_mod_int": "linalg.rank_mod_int",
        "_rank_bareiss": "linalg.bareiss",
    }
}

# Functions reported as `<name>.calls` and `<name>.self_s`.
TIMED = (
    "binforms.gcd", "binforms.gcd_many", "binforms.product",
    "rnc.intersection_degree", "rnc.passes_through", "rnc.is_rnc", "rnc.rnc_through_points",
    "exactgeom.projectivity_from_frames", "exactgeom.Projectivity.inverse",
    "exactgeom.LinearSubspace.from_rows", "exactgeom.meet", "exactgeom.sample_generic_subspace",
    "linalg.invert", "linalg.rank", "linalg.bareiss", "linalg.rref", "linalg.nullspace",
    "segre.witness_curve", "segre.compose_phi",
    "arrangements.sample_configuration", "arrangements.sample_fat_configuration",
    "arrangements.vanishing_conditions", "arrangements.hilbert_function",
    "defectivity.defect_check",
    "feasibility.classify", "feasibility.check_bezout", "feasibility.check_projection",
    "feasibility.build_witness", "feasibility.verify_witness",
    "serialize.digest", "serialize.enc_curve", "serialize.dec_curve",
)


def _max_digits(values) -> int:
    """Decimal digits of the largest numerator or denominator."""
    top = 0
    for x in values:
        top = max(top, abs(x.numerator), x.denominator)
    return len(str(top))


class Tracer:
    """Span recorder and per-layer counters for one traced pass."""

    def __init__(self):
        self.op_index = -1
        self.spans: list[tuple] = []  # (span id, parent id, op index, name, start, end)
        self._stack: list[tuple[int, str]] = []
        self._covered: dict[int, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.self_s: dict[str, float] = defaultdict(float)
        self.children: Counter = Counter()  # (parent name, child name) -> calls
        self.counts: Counter = Counter()  # hits, rows, cells, disagreements
        self.max_digits: dict[str, int] = defaultdict(int)
        self._originals: dict[int, object] = {}

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name, fn):
        before = _BEFORE.get(name)
        after = _AFTER.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else (None, None)
            if before is not None:
                t = perf_counter()
                before(tracer, args, kwargs)
                if parent[0] is not None:
                    tracer._covered[parent[0]] += perf_counter() - t
            sid = len(tracer.spans) + len(stack)
            stack.append((sid, name))
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                tracer.spans.append((sid, parent[0], tracer.op_index, name, start, end))
                tracer.calls[name] += 1
                tracer.self_s[name] += dur - tracer._covered.pop(sid, 0.0)
                if parent[0] is not None:
                    tracer._covered[parent[0]] += dur
                    tracer.children[(parent[1], name)] += 1
            if after is not None:
                after(tracer, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function wherever an rncurves module holds it."""
        wrappers: dict[int, object] = {}
        for short in TRACED_MODULES:
            mod = importlib.import_module(f"rncurves.{short}")
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrappers[id(obj)] = self._wrap(f"{short}.{attr}", obj)
            for attr, name in PRIVATE.get(short, {}).items():
                obj = getattr(mod, attr)
                wrappers[id(obj)] = self._wrap(name, obj)
            for cls_name, meth in METHODS.get(short, ()):
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                name = f"{short}.{cls_name}.{meth}"
                if isinstance(raw, classmethod):
                    self._originals[id(raw.__func__)] = raw.__func__
                    setattr(cls, meth, classmethod(self._wrap(name, raw.__func__)))
                else:
                    self._originals[id(raw)] = raw
                    setattr(cls, meth, self._wrap(name, raw))
        for mod in _rncurves_modules():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._originals[id(obj)] = obj
                    setattr(mod, attr, wrappers[id(obj)])
        self.assert_installed()

    def assert_installed(self) -> None:
        """Fail if any rncurves module or traced class still holds an original."""
        leaks = []
        for mod in _rncurves_modules():
            holders = [(f"{mod.__name__}.{a}", v) for a, v in vars(mod).items()]
            for short, pairs in METHODS.items():
                if mod.__name__ == f"rncurves.{short}":
                    for cls_name, meth in pairs:
                        raw = getattr(mod, cls_name).__dict__[meth]
                        holders.append((f"{mod.__name__}.{cls_name}.{meth}", getattr(raw, "__func__", raw)))
            for where, value in holders:
                items = value if isinstance(value, (tuple, list, set, frozenset)) else [value]
                if isinstance(value, dict):
                    items = list(value.values())
                leaks.extend(where for v in items if id(v) in self._originals and self._originals[id(v)] is v)
        if leaks:
            raise RuntimeError(f"unwrapped originals remain: {sorted(set(leaks))}")
        if not self._originals:
            raise RuntimeError("no function was wrapped")

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics by name, as (value, unit)."""
        out: dict[str, tuple[float, str]] = {}
        for name in TIMED:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (self.self_s[name], "s")
        ranks = self.calls["linalg.rank"]
        prescreens = self.children[("linalg.rank", "linalg.rank_mod_int")]
        bareiss = self.children[("linalg.rank", "linalg.bareiss")]
        out["linalg.rank.max_digits"] = (self.max_digits["linalg.rank"], "digits")
        out["linalg.rank.cells"] = (self.counts["linalg.rank.cells"], "count")
        out["linalg.rank.strip_only"] = (ranks - prescreens, "count")
        out["linalg.strip_unit_rows.pivots"] = (self.counts["strip_unit_rows.pivots"], "count")
        out["linalg.rank.prescreen_hits"] = (prescreens - bareiss, "count")
        out["linalg.rank.no_bareiss_ratio"] = (_ratio(ranks - bareiss, ranks), "ratio")
        out["binforms.gcd.max_digits"] = (self.max_digits["binforms.gcd"], "digits")
        out["arrangements.vanishing_conditions.rows"] = (self.counts["vanishing_conditions.rows"], "count")
        out["arrangements.generic_hilbert.calls"] = (self.calls["arrangements.generic_hilbert"], "count")
        out["arrangements.generic_hilbert.disagreements"] = (self.counts["generic_hilbert.disagreements"], "count")
        out["defectivity.defect_check.disagreements"] = (self.counts["defect_check.disagreements"], "count")
        for rule in ("check_bezout", "check_projection"):
            name = f"feasibility.{rule}"
            out[f"{name}.hit_ratio"] = (_ratio(self.counts[f"{rule}.hits"], self.calls[name]), "ratio")
        attempts = self.children[("feasibility.build_witness", "arrangements.sample_configuration")]
        out["feasibility.build_witness.attempts"] = (attempts, "count")
        out["cli.main.self_s"] = (self.self_s["cli.main"], "s")
        return out

    def write_spans(self, path, header: dict) -> None:
        """Write the header, then one JSON array per span, as JSON lines."""
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for span in sorted(self.spans):
                fh.write(json.dumps(span) + "\n")


def _ratio(num, den) -> float:
    """num/den, or 0.0 when there were no attempts (den == 0)."""
    return num / den if den else 0.0


def _rncurves_modules():
    return [m for name, m in list(sys.modules.items()) if name == "rncurves" or name.startswith("rncurves.")]


def _rank_before(tracer, args, kwargs):
    rows = args[0] if args else kwargs["rows"]
    ncols = args[1] if len(args) > 1 else kwargs["ncols"]
    tracer.counts["linalg.rank.cells"] += len(rows) * ncols
    if rows:
        digits = _max_digits(x for row in rows for x in row)
        tracer.max_digits["linalg.rank"] = max(tracer.max_digits["linalg.rank"], digits)


def _gcd_before(tracer, args, kwargs):
    digits = _max_digits(c for form in args[:2] for c in form.coeffs)
    tracer.max_digits["binforms.gcd"] = max(tracer.max_digits["binforms.gcd"], digits)


def _counter(key, value):
    def after(tracer, result):
        tracer.counts[key] += value(result)

    return after


_BEFORE = {"linalg.rank": _rank_before, "binforms.gcd": _gcd_before}
_AFTER = {
    "linalg.strip_unit_rows": _counter("strip_unit_rows.pivots", lambda r: r[0]),
    "arrangements.vanishing_conditions": _counter("vanishing_conditions.rows", len),
    "arrangements.generic_hilbert": _counter("generic_hilbert.disagreements", lambda r: not r[0].agreed),
    "defectivity.defect_check": _counter("defect_check.disagreements", lambda r: not r.agreed),
    "feasibility.check_bezout": _counter("check_bezout.hits", lambda r: r is not None),
    "feasibility.check_projection": _counter("check_projection.hits", lambda r: r is not None),
}
