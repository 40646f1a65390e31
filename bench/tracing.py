"""Spans around rdpinv's public functions, installed from outside the program.

``install`` replaces the functions and methods listed below with wrappers
that record one span per call: name, start, end and the index of the
enclosing span, plus a few counts (output terms, bytes, cache hit).  Spans
stay in memory and are written as JSONL when the pass ends.  Timed runs
never call ``install``; the traced run is separate, and the difference
between the two is the tracing overhead.

``layer_metrics`` turns the spans of one or more passes into per-layer
figures.  Self time is a span's duration minus the part its children
cover, counted within one of two views:

* kernel spans (``poly.*``) subtract only nested kernel spans, so
  ``poly.substitute`` excludes the products it delegates to ``poly.mul``;
* layer spans (every other module) subtract only nested layer spans, so a
  layer's self time includes the kernel calls it makes directly.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

_STAGES = {"rbar_pi": "rbar", "bar_rules": "bar", "psi_rules": "psi",
           "r_pi": "rpi", "versal_rules": "versal"}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, attrs]
        self.stack: list[int] = []
        #: pipeline variant label for pipelines built with a parameter
        self.variant = "key"

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0,
                           self.stack[-1] if self.stack else -1, None])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def note(self, idx: int, key: str, value: float) -> None:
        span = self.spans[idx]
        if span[4] is None:
            span[4] = {}
        span[4][key] = span[4].get(key, 0) + value

    def innermost(self) -> "int | None":
        return self.stack[-1] if self.stack else None

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self.stack)

    def write_jsonl(self, path: Path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, attrs) in enumerate(self.spans):
                rec = {"id": i, "name": name, "start": start, "end": end, "parent": parent}
                if attrs:
                    rec["attrs"] = attrs
                fh.write(json.dumps(rec) + "\n")


def _wrap(tracer: Tracer, owner, attr: str, name, after=None) -> None:
    """Replace ``owner.attr`` by a spanned wrapper.

    ``name`` is a string or a function of the call's arguments; ``after``
    receives (span index, args, kwargs, result) once the span is closed.
    Module-level functions are also replaced in every rdpinv module that
    imported them by name.
    """
    orig = getattr(owner, attr)

    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        idx = tracer.open(name if isinstance(name, str) else name(args))
        try:
            out = orig(*args, **kwargs)
        finally:
            tracer.close(idx)
        if after is not None:
            after(idx, args, kwargs, out)
        return out

    setattr(owner, attr, wrapper)
    if not isinstance(owner, type):
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("rdpinv.") and getattr(mod, attr, None) is orig:
                setattr(mod, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every rdpinv layer."""
    from rdpinv import classify, cli, congruence, distpoly, envres, poly, solvelist

    P = poly.Polynomial

    def terms_out(idx, args, kwargs, out):
        if isinstance(out, P):
            tracer.note(idx, "terms", len(out.terms))

    def substituted(idx, args, kwargs, out):
        terms_out(idx, args, kwargs, out)
        bounded = kwargs.get("max_total_degree", args[2] if len(args) > 2 else None)
        if bounded is not None and tracer.inside("classify.rdp_type"):
            tracer.note(idx, "jet", 1)

    _wrap(tracer, P, "__mul__", "poly.mul", terms_out)
    _wrap(tracer, P, "__rmul__", "poly.mul", terms_out)
    _wrap(tracer, P, "substitute", "poly.substitute", substituted)
    _wrap(tracer, P, "mul_truncated", "poly.mul_truncated", terms_out)
    _wrap(tracer, P, "coefficients_over", "poly.coefficients_over")
    _wrap(tracer, P, "serialize", "poly.serialize")
    _wrap(tracer, poly, "parse", "poly.parse")

    # solve-list engine: the image built inside coefficient_equations and
    # the coefficients it returns are counted on the enclosing expand span
    SL = solvelist.SolveList

    def expanded(idx, args, kwargs, out):
        upto = kwargs.get("upto", args[1] if len(args) > 1 else None)
        pairs = len(args[0].pairs)
        tracer.note(idx, "pairs", pairs if upto is None else min(upto, pairs))

    _wrap(tracer, SL, "expand", "solvelist.expand", expanded)
    _wrap(tracer, SL, "content_key", "solvelist.content_key")
    orig_coeffs = SL.coefficient_equations
    orig_apply = solvelist.RuleSet.apply

    def coefficient_equations(self):
        out = orig_coeffs(self)
        idx = tracer.innermost()
        if idx is not None and tracer.spans[idx][0] == "solvelist.expand":
            tracer.note(idx, "used_terms", sum(len(p.terms) for p in out))
        return out

    def apply(self, p):
        out = orig_apply(self, p)
        idx = tracer.innermost()
        if idx is not None and tracer.spans[idx][0] == "solvelist.expand":
            tracer.note(idx, "image_terms", len(out.terms))
        return out

    SL.coefficient_equations = coefficient_equations
    solvelist.RuleSet.apply = apply

    RC = solvelist.RuleCache
    orig_get, orig_put = RC.get, RC.put

    def cache_get(self, key):
        in_memory = key in self._memory
        idx = tracer.open("solvelist.cache_get")
        try:
            out = orig_get(self, key)
        finally:
            tracer.close(idx)
        tracer.note(idx, "hit" if out is not None else "miss", 1)
        if out is not None and not in_memory:
            tracer.note(idx, "bytes_read", self.path_for(key).stat().st_size)
        return out

    def cache_put(self, key, rules):
        idx = tracer.open("solvelist.cache_put")
        try:
            orig_put(self, key, rules)
        finally:
            tracer.close(idx)
        tracer.note(idx, "bytes_written", self.path_for(key).stat().st_size)

    RC.get, RC.put = cache_get, cache_put

    # pipeline stages, labelled by variant
    VP = envres.VersalPipeline
    orig_init = VP.__init__

    def init(self, n, param=None, *args, **kwargs):
        orig_init(self, n, param, *args, **kwargs)
        self._bench_variant = f"E{n}" if param is None else tracer.variant

    VP.__init__ = init
    for method, stage in _STAGES.items():
        _wrap(tracer, VP, method,
              lambda args, stage=stage: f"envres.{args[0]._bench_variant}.{stage}")
    _wrap(tracer, envres, "solve_e8_sextic", "envres.sextic")

    # Weyl checks: the action's RuleSet.apply gets its own span
    _wrap(tracer, distpoly, "t_expand", "distpoly.t_expand")
    _wrap(tracer, distpoly, "symmetric_reduce", "distpoly.symmetric_reduce")
    orig_weyl = distpoly.weyl_action

    class WeylRules:
        def __init__(self, rules):
            self.rules = rules

        def apply(self, p):
            idx = tracer.open("distpoly.weyl_apply")
            try:
                return self.rules.apply(p)
            finally:
                tracer.close(idx)

    distpoly.weyl_action = lambda spec, generator: WeylRules(orig_weyl(spec, generator))

    for fn in ("key_constant", "derive_restricted", "pullback_eps"):
        _wrap(tracer, congruence, fn, f"congruence.{fn}")
    _wrap(tracer, classify, "rdp_type", "classify.rdp_type")
    _wrap(tracer, classify, "section_type", "classify.section_type")
    _wrap(tracer, cli, "verify_appendix0", "cli.verify_appendix0")
    _wrap(tracer, cli, "verify_appendix",
          lambda args: f"cli.verify_appendix{1 if args[0] == 6 else 2}")
    _wrap(tracer, cli, "cmd_congruence", "cli.congruence_all")


# -- aggregation ------------------------------------------------------------------

_COUNTS = {
    # metric: (span name, attribute or None for the number of spans)
    "poly.mul_calls": ("poly.mul", None),
    "poly.mul_terms_out": ("poly.mul", "terms"),
    "poly.substitute_calls": ("poly.substitute", None),
    "poly.substitute_terms_out": ("poly.substitute", "terms"),
    "poly.mul_truncated_calls": ("poly.mul_truncated", None),
    "solvelist.expand_pairs": ("solvelist.expand", "pairs"),
    "solvelist.image_terms": ("solvelist.expand", "image_terms"),
    "solvelist.used_terms": ("solvelist.expand", "used_terms"),
    "solvelist.cache_hits": ("solvelist.cache_get", "hit"),
    "solvelist.cache_misses": ("solvelist.cache_get", "miss"),
    "solvelist.cache_bytes_read": ("solvelist.cache_get", "bytes_read"),
    "solvelist.cache_bytes_written": ("solvelist.cache_put", "bytes_written"),
}


def _is_kernel(span: dict) -> bool:
    return span["name"].startswith("poly.")


def read_spans(path: Path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def layer_metrics(passes: list[list[dict]]) -> dict[str, float]:
    """Per-pass means of self times and counts over the given passes."""
    self_s: dict[str, float] = defaultdict(float)
    totals: dict[tuple[str, "str | None"], float] = defaultdict(float)
    for spans in passes:
        covered = [0.0] * len(spans)
        for sp in spans:
            parent = sp["parent"]
            if parent >= 0 and _is_kernel(sp) == _is_kernel(spans[parent]):
                covered[parent] += sp["end"] - sp["start"]
        for sp, cov in zip(spans, covered):
            self_s[sp["name"]] += sp["end"] - sp["start"] - cov
            totals[(sp["name"], None)] += 1
            for key, value in (sp.get("attrs") or {}).items():
                totals[(sp["name"], key)] += value
    n = max(1, len(passes))
    out = {f"{name}_s": value / n for name, value in self_s.items()}
    for metric, key in _COUNTS.items():
        out[metric] = totals.get(key, 0.0) / n
    image = totals.get(("solvelist.expand", "image_terms"), 0.0)
    used = totals.get(("solvelist.expand", "used_terms"), 0.0)
    out["solvelist.image_use_ratio"] = used / image if image else 0.0
    hits = totals.get(("solvelist.cache_get", "hit"), 0.0)
    lookups = hits + totals.get(("solvelist.cache_get", "miss"), 0.0)
    out["solvelist.cache_hit_ratio"] = hits / lookups if lookups else 0.0
    rdp = totals.get(("classify.rdp_type", None), 0.0)
    jets = totals.get(("poly.substitute", "jet"), 0.0)
    out["classify.jet_substitutions"] = jets / rdp if rdp else 0.0
    return out
