"""Spans around the calls into each ringcache module, and the per-layer metrics.

Tracing rebinds each public function in the namespace its caller looks it up
in (``ringcache.cli.worst_case_load``, ``ringcache.converse.dedup_rows``,
``ringcache.exactlp.solve``, ...), so no product code changes. A span is
``[name, start, end, parent, job, counts]``: ``parent`` is the index of the
enclosing span (-1 for none) and ``counts`` holds the counters read from the
call's arguments and result. Spans stay in memory until the pass ends.

Per-row and per-byte helpers (``genie_inequality``,
``LinearInequality.value_at``, ``_xor``, ``transcript_size``) are never
wrapped: a span per call would cost more than the work it measures.
"""

from __future__ import annotations

import inspect
import math
from collections import defaultdict
from time import perf_counter


def _product_of_sizes(ds) -> int:
    return math.prod(len(s) for s in ds.demands)


def _tableau_cells(constraints, n_vars: int, exactlp) -> int:
    """Rows x columns (structural, slack, artificial, rhs) of solve's first tableau.

    A row starts with its slack in the basis when it reads ``<=`` after solve
    flips rows with a negative right-hand side; every other row gets an
    artificial column.
    """
    slack = sum(1 for con in constraints if con.sense != exactlp.EQUAL)
    basic = sum(1 for con in constraints
                if con.sense == (exactlp.LESS_EQ if con.rhs >= 0 else exactlp.GREATER_EQ))
    artificial = len(constraints) - basic
    return len(constraints) * (n_vars + slack + artificial + 1)


def _wrapped(ringcache):
    """(namespace, attribute, span name, counter) for every traced call."""
    cli, converse, exactlp = ringcache.cli, ringcache.converse, ringcache.exactlp
    return [
        (cli, "build_demand_structure", "model.build_demand_structure", None),
        (cli, "make_scheme", "schemes.make_scheme", None),
        (cli, "worst_case_load", "schemes.worst_case_load",
         lambda a, r: {"model.demand_vectors": _product_of_sizes(a["ds"])}),
        (cli, "fill_caches", "schemes.fill_caches",
         lambda a, r: {"schemes.cache_bytes": sum(len(v) for node in r.values()
                                                  for v in node.values())}),
        (cli, "deliver_bits", "schemes.deliver_bits",
         lambda a, r: {"schemes.broadcast_bytes": sum(len(m.payload) for m in r.messages)}),
        (cli, "decode", "schemes.decode", lambda a, r: {"schemes.decoded_bytes": len(r)}),
        (cli, "deliver", "schemes.deliver", None),
        (cli, "closed_form_points", "bounds.closed_form_points", None),
        (cli, "gap_check", "bounds.gap_check", None),
        (cli, "rstar_u", "bounds.rstar_u", None),
        (converse, "full_family", "converse.full_family",
         lambda a, r: {"converse.full_family.rows": len(r)}),
        (converse, "selected_family", "converse.selected_family",
         lambda a, r: {"converse.selected_family.rows": len(r)}),
        (converse, "dedup_rows", "converse.dedup_rows",
         lambda a, r: {"converse.dedup_rows.rows_in": len(a["rows"]),
                       "converse.dedup_rows.rows_out": len(r)}),
        (converse, "build_lp", "converse.build_lp",
         lambda a, r: {"converse.build_lp.vars": len(r.var_keys)}),
        (converse, "symmetrize", "converse.symmetrize",
         lambda a, r: {"converse.orbit_rows": r.n_rows, "converse.orbit_vars": len(r.var_keys)}),
        (converse, "solve_lp", "converse.solve_lp", None),
        (converse, "certificate_report", "converse.certificate_report", None),
        (converse, "sum_all_bound", "converse.sum_all_bound", None),
        (exactlp, "solve", "exactlp.solve",
         lambda a, r: {"exactlp.solve.rows_max": len(a["constraints"]),
                       "exactlp.solve.cells": _tableau_cells(a["constraints"], a["n_vars"], exactlp)}),
    ]


class Tracer:
    """Records one span per call of every wrapped function."""

    def __init__(self):
        self.spans: list = []
        self.counter_errors: list = []
        self.job = -1
        self._stack: list = []

    def wrap(self, name: str, fn, counter=None):
        signature = inspect.signature(fn)
        materialize = name == "converse.dedup_rows"

        def traced(*args, **kwargs):
            if materialize:
                # symmetrize passes a generator; projecting its rows is
                # symmetrize's own work, so it runs before the span opens.
                args = (list(args[0]),) + args[1:]
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, 0.0, 0.0, parent, self.job, None]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            if counter is not None:
                try:
                    bound = signature.bind(*args, **kwargs).arguments
                    span[5] = counter(bound, result)
                except Exception as exc:  # a counter must never fail the job
                    self.counter_errors.append(f"{name}: {exc!r}")
            return result

        return traced

    def install(self, ringcache) -> None:
        for namespace, attr, name, counter in _wrapped(ringcache):
            setattr(namespace, attr, self.wrap(name, getattr(namespace, attr), counter))


_INCLUSIVE = (
    "model.build_demand_structure", "schemes.make_scheme", "schemes.worst_case_load",
    "schemes.fill_caches", "schemes.deliver_bits", "schemes.decode", "schemes.deliver",
    "converse.full_family", "converse.selected_family", "converse.dedup_rows",
    "converse.build_lp", "converse.certificate_report", "converse.sum_all_bound",
    "exactlp.solve",
)
_SUMMED = (
    "model.demand_vectors", "schemes.cache_bytes", "schemes.broadcast_bytes",
    "schemes.decoded_bytes", "converse.full_family.rows", "converse.selected_family.rows",
    "converse.dedup_rows.rows_in", "converse.dedup_rows.rows_out", "converse.build_lp.vars",
    "converse.orbit_rows", "converse.orbit_vars", "exactlp.solve.cells",
)


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced pass; the root spans are ``cli.main``."""
    children = [0.0] * len(spans)
    for name, start, end, parent, _job, _counts in spans:
        if parent >= 0:
            children[parent] += end - start
    inclusive: dict = defaultdict(float)
    self_time: dict = defaultdict(float)
    calls: dict = defaultdict(int)
    counts: dict = defaultdict(int)
    rows_max = 0
    for index, (name, start, end, _parent, _job, span_counts) in enumerate(spans):
        inclusive[name] += end - start
        self_time[name] += end - start - children[index]
        calls[name] += 1
        for key, value in (span_counts or {}).items():
            if key == "exactlp.solve.rows_max":
                rows_max = max(rows_max, value)
            else:
                counts[key] += value

    out = {f"{name}.s": inclusive[name] for name in _INCLUSIVE}
    out.update({key: counts[key] for key in _SUMMED})
    out["cli.self_s"] = self_time["cli.main"]
    out["converse.symmetrize.self_s"] = self_time["converse.symmetrize"]
    out["converse.solve_lp.self_s"] = self_time["converse.solve_lp"]
    out["bounds.s"] = sum(t for name, t in inclusive.items() if name.startswith("bounds."))
    out["schemes.worst_case_load.calls"] = calls["schemes.worst_case_load"]
    wcl = inclusive["schemes.worst_case_load"]
    out["schemes.vectors_per_s"] = counts["model.demand_vectors"] / wcl if wcl else 0.0
    rows_in = counts["converse.dedup_rows.rows_in"]
    out["converse.dedup_rows.keep_ratio"] = (
        counts["converse.dedup_rows.rows_out"] / rows_in if rows_in else 0.0)
    out["exactlp.solve.calls"] = calls["exactlp.solve"]
    out["exactlp.solve.rows_max"] = rows_max
    return out


def layer_shares(spans) -> dict:
    """Share of the handlers' time spent in each module, counting outermost spans only."""
    total = sum(end - start for name, start, end, _p, _j, _c in spans if name == "cli.main")
    names = [s[0] for s in spans]
    module_time: dict = defaultdict(float)
    for name, start, end, parent, _job, _counts in spans:
        if parent < 0 or names[parent] != "cli.main":
            continue
        module = name.split(".")[0]
        module_time["converse+exactlp" if module in ("converse", "exactlp") else module] += (
            end - start)
    shares = {module: t / total for module, t in module_time.items()} if total else {}
    shares["cli.self"] = layer_metrics(spans)["cli.self_s"] / total if total else 0.0
    return shares


PER_LAYER_UNITS = {
    "cli.self_s": "s",
    "model.build_demand_structure.s": "s",
    "model.demand_vectors": "count",
    "schemes.make_scheme.s": "s",
    "schemes.worst_case_load.s": "s",
    "schemes.worst_case_load.calls": "count",
    "schemes.vectors_per_s": "1/s",
    "schemes.fill_caches.s": "s",
    "schemes.cache_bytes": "bytes",
    "schemes.deliver_bits.s": "s",
    "schemes.broadcast_bytes": "bytes",
    "schemes.decode.s": "s",
    "schemes.decoded_bytes": "bytes",
    "schemes.deliver.s": "s",
    "bounds.s": "s",
    "converse.full_family.s": "s",
    "converse.full_family.rows": "count",
    "converse.selected_family.s": "s",
    "converse.selected_family.rows": "count",
    "converse.dedup_rows.s": "s",
    "converse.dedup_rows.rows_in": "count",
    "converse.dedup_rows.rows_out": "count",
    "converse.dedup_rows.keep_ratio": "ratio",
    "converse.build_lp.s": "s",
    "converse.build_lp.vars": "count",
    "converse.symmetrize.self_s": "s",
    "converse.orbit_rows": "count",
    "converse.orbit_vars": "count",
    "converse.solve_lp.self_s": "s",
    "converse.certificate_report.s": "s",
    "converse.sum_all_bound.s": "s",
    "exactlp.solve.s": "s",
    "exactlp.solve.calls": "count",
    "exactlp.solve.rows_max": "count",
    "exactlp.solve.cells": "count",
    "src.nonblank_lines": "lines",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_ratio": "ratio",
}
