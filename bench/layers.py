"""Per-layer tracing from outside the program.

`install` wraps the public functions of every `khinchine` module, and the
methods named below, in spans: name, start, end, parent span and thread. The
wrapper replaces the function in every `khinchine` namespace that bound it
(`from .x import y` copies the name), so calls across modules are seen too.
Each thread keeps its own span stack. `Totals` turns the span files of a
traced pass into the benchmark's per-layer metrics.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import sys
import threading
import tracemalloc
from time import perf_counter

import numpy as np


def _size(x) -> int:
    return int(np.size(x)) if x is not None else 0


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def _search_fields(args, kwargs, result):
    trace = getattr(result, "trace", None) or []
    return {"candidates": sum(1 for t in trace if t.get("kind") != "local_search"),
            "local_evals": sum(t.get("evals", 0) for t in trace),
            "refused": sum(1 for t in trace if "refused" in t),
            "entries": len(trace)}


# (span name, module, attribute path, extra span fields from (args, kwargs, result))
TARGETS = (
    ("numerics.collapse_support", "numerics", "collapse_support",
     lambda a, k, r: {"points_in": _size(_arg(a, k, 0, "values"))}),
    ("numerics.golden_max", "numerics", "golden_max", None),
    ("numerics.invert_increasing_vec", "numerics", "invert_increasing_vec",
     lambda a, k, r: {"elements": _size(_arg(a, k, 1, "y"))}),
    ("numerics.ordered_map", "numerics", "ordered_map", None),
    ("distributions.finite_support", "distributions", "Distribution.finite_support", None),
    ("distributions.abs_moment", "distributions", "Distribution.abs_moment", None),
    ("distributions.log_mgf", "distributions", "Distribution.log_mgf",
     lambda a, k, r: {"points": _size(_arg(a, k, 1, "lam"))}),
    ("distributions.draw", "distributions", "Distribution.draw",
     lambda a, k, r: {"samples": int(np.prod(_arg(a, k, 2, "size")))}),
    ("genfun.phi_eval", "genfun", "GeneratingFunction.__call__",
     lambda a, k, r: {"points": _size(_arg(a, k, 1, "lam"))}),
    ("genfun.phi_inverse_vec", "genfun", "phi_inverse_vec",
     lambda a, k, r: {"elements": _size(_arg(a, k, 1, "y"))}),
    ("genfun.legendre", "genfun", "legendre", None),
    ("genfun.conv_r_class", "genfun", "conv_r_class", None),
    ("genfun.overline_phi", "genfun", "overline_phi", None),
    ("genfun.kappa_profile", "genfun", "kappa_profile",
     lambda a, k, r: {"candidates": int(r[2]["candidates"]) if r else 0}),
    ("norms.enum_distribution", "norms", "enum_distribution", None),
    ("norms.conv_distribution", "norms", "conv_distribution",
     lambda a, k, r: {"support_out": _size(r[0]) if r else 0}),
    ("norms.weighted_sum_lp", "norms", "weighted_sum_lp", None),
    ("norms.weighted_sum_gls", "norms", "weighted_sum_gls", None),
    ("norms.bphi_norm", "norms", "bphi_norm", None),
    ("norms.weighted_sum_bphi", "norms", "weighted_sum_bphi", None),
    ("norms.gls_norm", "norms", "gls_norm", None),
    ("search.sum_norm", "search", "sum_norm", None),
    ("search.khinchine_sup", "search", "khinchine_sup", _search_fields),
    ("search.khinchine_inf", "search", "khinchine_inf", _search_fields),
    ("verify.pythagoras_check", "verify", "pythagoras_check", None),
    ("verify.verify_thm31", "verify", "verify_thm31", None),
    ("verify.verify_thm41", "verify", "verify_thm41", None),
    ("verify.tail_compare", "verify", "tail_compare", None),
    ("verify.verify_thm51", "verify", "verify_thm51", None),
    ("entropy.load_space", "entropy", "load_space", None),
    ("entropy.covering_number", "entropy", "covering_number", None),
    ("entropy.dudley_integral", "entropy", "dudley_integral", None),
    ("entropy.field_sup_stats", "entropy", "field_sup_stats", None),
    ("entropy.metric_space_init", "entropy", "FiniteMetricSpace.__post_init__",
     lambda a, k, r: {"n": int(a[0].rho.shape[0]) if hasattr(a[0], "rho") else 0}),
    ("cli.emit_report", "cli", "emit_report", None),
    ("cli.build_parser", "cli", "build_parser", None),
)

#: spans whose peak traced allocation is recorded (tracemalloc runs only
#: around these calls)
MEMORY_SPANS = frozenset({"entropy.metric_space_init"})
#: boundaries crossed hundreds of thousands of times per job: counted, not
#: timed, so that tracing stays cheap
COUNTED_ONLY = frozenset({"genfun.phi_eval"})


class Recorder:
    """Collects spans in memory; `write` dumps them as JSONL."""

    def __init__(self):
        self.spans: list = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self.counters: dict = {}
        self.origin = perf_counter()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, fn, fields):
        """Wrapper that only counts calls and sums `fields` of each call."""
        totals = self.counters.setdefault(name, {"calls": 0})
        lock = self._lock

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            extra = fields(args, kwargs, None)
            with lock:
                totals["calls"] += 1
                for key, value in extra.items():
                    totals[key] = totals.get(key, 0) + value
            return fn(*args, **kwargs)

        return counted

    def wrap(self, name: str, fn, fields=None):
        if name in COUNTED_ONLY:
            return self.count(name, fn, fields)
        memory = name in MEMORY_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            if memory:
                tracemalloc.start()
            error = None
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                extra = fields(args, kwargs, result) if fields is not None else {}
                if memory:
                    extra["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                self.spans.append((sid, name, t0, t1, parent, threading.get_ident(), error, extra))

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """Span around a block of the tracer itself."""
        t0 = perf_counter()
        try:
            yield
        finally:
            self.spans.append((next(self._ids), name, t0, perf_counter(), None,
                               threading.get_ident(), None, {}))

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, t0, t1, parent, thread, error, extra in self.spans:
                rec = {"id": sid, "name": name, "start": t0 - self.origin,
                       "end": t1 - self.origin, "parent": parent, "thread": thread}
                if error is not None:
                    rec["error"] = error
                rec.update(extra)
                fh.write(json.dumps(rec) + "\n")
            for name, totals in self.counters.items():
                fh.write(json.dumps({"name": name, "counter": True, **totals}) + "\n")


def _resolve(owner, path: str):
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def install(rec: Recorder) -> list:
    """Wrap every target. Returns the patched slots as (owner, key, original)
    for `uninstall`. Raises LookupError when a target no longer exists."""
    import khinchine.cli  # noqa: F401  (loads every module)

    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == "khinchine" or n.startswith("khinchine."))]
    slots = []
    for name, module, path, fields in TARGETS:
        mod = sys.modules.get(f"khinchine.{module}")
        try:
            owner, attr = _resolve(mod, path)
            original = getattr(owner, attr)
        except AttributeError as exc:
            raise LookupError(f"layer target khinchine.{module}.{path} not found") from exc
        wrapped = rec.wrap(name, original, fields)
        if name == "cli.build_parser":
            wrapped = _trace_parse_args(rec, wrapped)
        if isinstance(owner, type):
            targets = [(owner, attr)]
        else:
            targets = [(m, key) for m in modules for key, value in list(vars(m).items())
                       if value is original]
        for owner_, key in targets:
            setattr(owner_, key, wrapped)
            slots.append((owner_, key, original))
    return slots


def uninstall(slots: list) -> None:
    for owner, key, original in reversed(slots):
        setattr(owner, key, original)


def _trace_parse_args(rec: Recorder, build_parser):
    @functools.wraps(build_parser)
    def traced_build_parser(*args, **kwargs):
        parser = build_parser(*args, **kwargs)
        parser.parse_args = rec.wrap("cli.parse_args", parser.parse_args)
        return parser

    return traced_build_parser


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

#: span-derived metrics: (span name, statistics); 'calls' counts spans,
#: 'self_s' sums span time minus child-span time, '*_bytes' takes the max,
#: any other statistic sums the span field of that name
SPAN_STATS = (
    ("numerics.collapse_support", ("calls", "self_s", "points_in")),
    ("norms.conv_distribution", ("calls", "self_s", "support_out")),
    ("norms.enum_distribution", ("calls", "self_s")),
    ("norms.weighted_sum_lp", ("calls", "self_s")),
    ("norms.weighted_sum_gls", ("calls", "self_s")),
    ("search.sum_norm", ("calls", "self_s")),
    ("distributions.finite_support", ("calls", "self_s")),
    ("distributions.abs_moment", ("calls", "self_s")),
    ("norms.bphi_norm", ("calls", "self_s")),
    ("norms.weighted_sum_bphi", ("calls", "self_s")),
    ("genfun.phi_inverse_vec", ("calls", "elements", "self_s")),
    ("numerics.invert_increasing_vec", ("calls", "elements", "self_s")),
    ("genfun.phi_eval", ("calls", "points")),
    ("distributions.log_mgf", ("calls", "points", "self_s")),
    ("numerics.golden_max", ("calls", "self_s")),
    ("genfun.legendre", ("calls", "self_s")),
    ("genfun.conv_r_class", ("calls", "self_s")),
    ("genfun.kappa_profile", ("self_s", "candidates")),
    ("genfun.overline_phi", ("self_s",)),
    ("verify.pythagoras_check", ("self_s",)),
    ("verify.verify_thm31", ("self_s",)),
    ("verify.verify_thm41", ("self_s",)),
    ("verify.tail_compare", ("self_s",)),
    ("verify.verify_thm51", ("self_s",)),
    ("numerics.ordered_map", ("self_s",)),
    ("distributions.draw", ("samples", "self_s")),
    ("norms.gls_norm", ("self_s",)),
    ("entropy.load_space", ("self_s",)),
    ("entropy.covering_number", ("calls", "self_s")),
    ("entropy.dudley_integral", ("self_s",)),
    ("entropy.field_sup_stats", ("self_s",)),
    ("entropy.metric_space_init", ("self_s", "peak_bytes")),
    ("cli.emit_report", ("self_s",)),
)

EXACT_ENGINES = ("norms.conv_distribution", "norms.enum_distribution")
SEARCHES = ("search.khinchine_sup", "search.khinchine_inf")


def _unit(stat: str) -> str:
    if stat == "self_s" or stat.endswith("_s"):
        return "s"
    if stat.endswith("_bytes"):
        return "bytes"
    return "count"


def metric_units() -> dict:
    """Name -> unit of every per-layer metric, in report order."""
    units = {f"{span}.{stat}": _unit(stat) for span, stats in SPAN_STATS for stat in stats}
    units.update({
        "norms.refusals": "count", "norms.refused_s": "s", "norms.refusal_ratio": "1",
        "search.candidates": "count", "search.local_evals": "count",
        "search.refused_ratio": "1",
        "entropy.triangle_bytes_computed": "bytes",
        "cli.import_s": "s", "cli.parse_s": "s",
        "trace.overhead_ratio": "1",
    })
    return units


class Totals:
    """Per-span-name sums over any number of span files."""

    def __init__(self):
        self.calls: dict = {}
        self.self_s: dict = {}
        self.total_s: dict = {}
        self.fields: dict = {}
        self.peaks: dict = {}
        self.refused_calls = 0
        self.refused_s = 0.0
        self.max_space_n = 0

    def add_file(self, path: str) -> None:
        spans = []
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                spans.append(json.loads(line))
        child = {}
        for s in spans:
            if s.get("parent") is not None:
                child[s["parent"]] = child.get(s["parent"], 0.0) + (s["end"] - s["start"])
        for s in spans:
            name = s["name"]
            if s.get("counter"):
                self.calls[name] = self.calls.get(name, 0) + s["calls"]
                for key, value in s.items():
                    if key not in ("name", "counter", "calls"):
                        self.fields[(name, key)] = self.fields.get((name, key), 0) + value
                continue
            dur = s["end"] - s["start"]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.total_s[name] = self.total_s.get(name, 0.0) + dur
            self.self_s[name] = self.self_s.get(name, 0.0) + dur - child.get(s["id"], 0.0)
            for key, value in s.items():
                if key in ("id", "name", "start", "end", "parent", "thread", "error"):
                    continue
                if key.endswith("_bytes"):
                    self.peaks[(name, key)] = max(self.peaks.get((name, key), 0), value)
                else:
                    self.fields[(name, key)] = self.fields.get((name, key), 0) + value
            if name in EXACT_ENGINES and s.get("error") == "EngineRefusal":
                self.refused_calls += 1
                self.refused_s += dur
            if name == "entropy.metric_space_init":
                self.max_space_n = max(self.max_space_n, s.get("n", 0))

    def stat(self, span: str, stat: str):
        if stat == "calls":
            return self.calls.get(span, 0)
        if stat == "self_s":
            return self.self_s.get(span, 0.0)
        if stat.endswith("_bytes"):
            return self.peaks.get((span, stat), 0)
        return self.fields.get((span, stat), 0)

    def _field_sum(self, spans, key) -> int:
        return sum(self.fields.get((s, key), 0) for s in spans)

    def metrics(self, overhead_ratio: float) -> dict:
        """Every per-layer metric, as {name: value}."""
        out = {f"{span}.{stat}": self.stat(span, stat)
               for span, stats in SPAN_STATS for stat in stats}
        engine_calls = sum(self.calls.get(s, 0) for s in EXACT_ENGINES)
        entries = self._field_sum(SEARCHES, "entries")
        out.update({
            "norms.refusals": self.refused_calls,
            "norms.refused_s": self.refused_s,
            "norms.refusal_ratio": self.refused_calls / engine_calls if engine_calls else 0.0,
            "search.candidates": self._field_sum(SEARCHES, "candidates"),
            "search.local_evals": self._field_sum(SEARCHES, "local_evals"),
            "search.refused_ratio": (self._field_sum(SEARCHES, "refused") / entries
                                     if entries else 0.0),
            "entropy.triangle_bytes_computed": self.max_space_n ** 3 * 8,
            "cli.import_s": self.total_s.get("cli.import", 0.0),
            "cli.parse_s": (self.total_s.get("cli.build_parser", 0.0)
                            + self.total_s.get("cli.parse_args", 0.0)),
            "trace.overhead_ratio": overhead_ratio,
        })
        return out
