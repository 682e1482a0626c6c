"""Span tracing for the benchmark's traced run.

The traced run wraps the public entry point of each layer *at its use
site* — several layers are imported by name (``from x import f``), so
the wrapper replaces the name in the module that calls it, or the
method on its class.  Nothing under ``src/`` changes; :meth:`install`
patches and :meth:`uninstall` restores the originals, so an untraced
window runs the unmodified program.

A span records ``(id, parent, request, name, start, end, attrs)``.  The
parent is the innermost open span on the same thread; the request id is
set per benchmark operation (or per server job on the worker thread)
and shared by every span of that operation.  Spans stay in memory
until :meth:`write` dumps them as JSON lines.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover; :func:`layer_metrics` turns self times
and span attributes into the per-layer metrics named in
``BENCHMARK.json``.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
import time
from collections import defaultdict

#: ``(module[:Class], attribute, span name, observer)`` for every
#: wrapped entry point.  Observers turn a call's arguments and result
#: into span attributes (counts the ratios are built from).
TARGETS = (
    ("repro.core.engine", "parse", "paql.parse", None),
    ("repro.core.engine", "analyze", "paql.parse", None),
    ("repro.paql.rewrite", "rewrite_query", "paql.parse", None),
    (
        "repro.core.strategies.base",
        "translate",
        "translate.translate",
        lambda args, kwargs, out: {"variables": out.model.num_variables},
    ),
    (
        "repro.core.strategies.base",
        "solve_milp",
        "solver.milp",
        lambda args, kwargs, out: {"nodes": out.nodes},
    ),
    ("repro.solver.branch_and_bound", "solve_lp", "solver.lp", None),
    ("repro.core.pipeline", "derive_bounds", "pruning.bounds", None),
    (
        "repro.core.pipeline",
        "apply_reduction",
        "reduction.reduce",
        lambda args, kwargs, out: {"input": len(args[2]), "kept": len(out[0])},
    ),
    ("repro.core.vectorize:VectorEvaluator", "predicate_mask", "vectorize.mask", None),
    ("repro.core.engine", "validate", "validator.validate", None),
    ("repro.core.engine:PackageQueryEvaluator", "evaluate", "engine.evaluate", None),
    (
        "repro.core.session:EvaluationSession",
        "evaluate",
        "session.evaluate",
        lambda args, kwargs, out: {
            "hit": int(out.stats.get("session", {}).get("result_cache") == "hit")
        },
    ),
    (
        "repro.core.session:ArtifactCache",
        "cached_where",
        "session.where_lookup",
        lambda args, kwargs, out: {"hit": int(out is not None)},
    ),
    (
        "repro.core.session:ArtifactCache",
        "cached_translation",
        "session.translation_lookup",
        lambda args, kwargs, out: {"hit": int(out is not None)},
    ),
    ("repro.relational.sharding:ShardedRelation", "append", "sharding.mutate", None),
    ("repro.relational.sharding:ShardedRelation", "delete", "sharding.mutate", None),
    (
        "repro.core.pushdown",
        "run_where",
        "pushdown.where",
        lambda args, kwargs, out: {
            "zones": out.zones_total,
            "kept_zones": out.zones_kept,
        },
    ),
    ("repro.core.pushdown", "stream_residents", "pushdown.stream", None),
    (
        "repro.relational.sql_relation:SqlRelation",
        "zone_stats",
        "sql_relation.zone_stats",
        None,
    ),
)

#: Generator methods: each ``next()`` becomes one span, so the span
#: covers the fetch and decode of one batch, not the consumer's work.
BATCH_TARGETS = (
    ("repro.relational.sql_relation:SqlRelation", "iter_batches", "sql_relation.batch"),
)

#: Per-layer time metrics: metric name -> span names whose self time
#: it sums (per completed operation, in ms).
TIME_METRICS = {
    "paql.parse_ms": ("paql.parse",),
    "translate.translate_ms": ("translate.translate",),
    "solver.milp_ms": ("solver.milp", "solver.lp"),
    "reduction.reduce_ms": ("reduction.reduce",),
    "pruning.bounds_ms": ("pruning.bounds",),
    "vectorize.mask_ms": ("vectorize.mask",),
    "validator.validate_ms": ("validator.validate",),
    "session.evaluate_ms": ("session.evaluate",),
    "sharding.mutate_ms": ("sharding.mutate",),
    "pushdown.where_ms": ("pushdown.where",),
    "pushdown.stream_ms": ("pushdown.stream",),
    "sql_relation.zone_stats_ms": ("sql_relation.zone_stats",),
    "sql_relation.fetch_ms": ("sql_relation.batch",),
    "engine.evaluate_ms": ("engine.evaluate",),
}


def _resolve(target):
    module_name, _, class_name = target.partition(":")
    owner = importlib.import_module(module_name)
    if class_name:
        owner = getattr(owner, class_name)
    return owner


class Tracer:
    """In-memory span recorder that patches layer entry points."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches = []
        self.origin = time.perf_counter()

    # -- request and span context -------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin_request(self):
        """Start a new request on this thread; returns its id."""
        request = next(self._ids)
        self._local.request = request
        return request

    def _call(self, name, function, observe, args, kwargs):
        stack = self._stack()
        parent = stack[-1] if stack else None
        span_id = next(self._ids)
        stack.append(span_id)
        attrs = None
        start = time.perf_counter()
        try:
            result = function(*args, **kwargs)
            if observe is not None:
                attrs = observe(args, kwargs, result)
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                (
                    span_id,
                    parent,
                    getattr(self._local, "request", None),
                    name,
                    start,
                    end,
                    attrs,
                )
            )

    # -- patching -------------------------------------------------------------

    def _patch(self, target, attribute, wrap):
        """Replace ``attribute`` of ``target`` with ``wrap(original)``."""
        owner = _resolve(target)
        original = owner.__dict__[attribute]
        setattr(owner, attribute, wrap(original))
        self._patches.append((owner, attribute, original))

    def install(self):
        """Wrap every target; undo with :meth:`uninstall`."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        tracer = self

        def spanned(name, observe):
            def wrap(original):
                def traced(*args, **kwargs):
                    return tracer._call(name, original, observe, args, kwargs)

                return traced

            return wrap

        def batched(name):
            def wrap(original):
                def traced(*args, **kwargs):
                    iterator = original(*args, **kwargs)
                    while True:
                        try:
                            item = tracer._call(
                                name, next, _batch_observer, (iterator,), {}
                            )
                        except StopIteration:
                            return
                        yield item

                return traced

            return wrap

        def server_job(original):
            # Each job gets its own request id on its worker thread.
            def traced(server, job):
                previous = getattr(tracer._local, "request", None)
                tracer.begin_request()
                try:
                    return tracer._call(
                        "server.execute", original, None, (server, job), {}
                    )
                finally:
                    tracer._local.request = previous

            return traced

        for target, attribute, name, observe in TARGETS:
            self._patch(target, attribute, spanned(name, observe))
        for target, attribute, name in BATCH_TARGETS:
            self._patch(target, attribute, batched(name))
        self._patch("repro.core.server:PackageQueryServer", "_execute", server_job)

    def uninstall(self):
        """Restore every patched attribute (reverse order)."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- output -----------------------------------------------------------------

    def write(self, path):
        """Dump the spans as JSON lines (times relative to the tracer)."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, request, name, start, end, attrs in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "request": request,
                            "name": name,
                            "start": start - self.origin,
                            "end": end - self.origin,
                            "attrs": attrs,
                        }
                    )
                    + "\n"
                )


def _batch_observer(args, kwargs, out):
    return {"rows": len(out[0])}


def self_times(spans):
    """``{span id: self seconds}``: duration minus child coverage."""
    children = defaultdict(list)
    for span in spans:
        if span[1] is not None:
            children[span[1]].append((span[4], span[5]))
    out = {}
    for span_id, _, _, _, start, end, _ in spans:
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(span_id, ())):
            child_start = max(child_start, cursor)
            child_end = min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        out[span_id] = (end - start) - covered
    return out


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans, operations, round_trips=()):
    """Per-layer metrics from the spans of ``operations`` completed ops.

    ``round_trips`` are the client-side seconds of the reads sent
    through the HTTP server; ``server.overhead_ms`` is their sum minus
    the in-worker ``session.evaluate`` spans, per request.
    """
    ops = max(1, operations)
    own = self_times(spans)
    self_by_name = defaultdict(float)
    total_by_name = defaultdict(float)
    attrs_by_name = defaultdict(lambda: defaultdict(int))
    calls_by_name = defaultdict(int)
    for span in spans:
        span_id, _, _, name, start, end, attrs = span
        self_by_name[name] += own[span_id]
        total_by_name[name] += end - start
        calls_by_name[name] += 1
        if attrs:
            for key, value in attrs.items():
                attrs_by_name[name][key] += value
    metrics = {
        metric: 1000.0 * sum(self_by_name[name] for name in names) / ops
        for metric, names in TIME_METRICS.items()
    }
    reduce = attrs_by_name["reduction.reduce"]
    where = attrs_by_name["pushdown.where"]
    batches = sum(
        1
        for span in spans
        if span[3] == "sql_relation.batch" and span[6] and span[6]["rows"]
    )
    metrics.update(
        {
            "translate.variables": attrs_by_name["translate.translate"][
                "variables"
            ]
            / ops,
            "solver.lp_calls": calls_by_name["solver.lp"] / ops,
            "solver.nodes": attrs_by_name["solver.milp"]["nodes"] / ops,
            "reduction.kept_ratio": _ratio(reduce["kept"], reduce["input"]),
            "session.result_hit_ratio": _ratio(
                attrs_by_name["session.evaluate"]["hit"],
                calls_by_name["session.evaluate"],
            ),
            "session.where_hit_ratio": _ratio(
                attrs_by_name["session.where_lookup"]["hit"],
                calls_by_name["session.where_lookup"],
            ),
            "session.translation_hit_ratio": _ratio(
                attrs_by_name["session.translation_lookup"]["hit"],
                calls_by_name["session.translation_lookup"],
            ),
            "server.overhead_ms": (
                1000.0
                * (sum(round_trips) - total_by_name["session.evaluate"])
                / len(round_trips)
                if round_trips
                else 0.0
            ),
            "sql_relation.batches": batches / ops,
            "pushdown.zones_skipped_ratio": _ratio(
                where["zones"] - where["kept_zones"], where["zones"]
            ),
            "engine.unattributed_ratio": _ratio(
                self_by_name["engine.evaluate"],
                total_by_name["engine.evaluate"],
            ),
        }
    )
    return metrics
