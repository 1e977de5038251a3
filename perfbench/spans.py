"""In-memory span tracer that instruments ``repro`` from the outside.

The traced pass of the benchmark wraps the public entry points of each
layer (module functions and class methods) with a timing wrapper; the
program itself is unchanged.  Every call becomes one span::

    (span_id, parent_id, name, start_ns, end_ns, query_id, thread_id)

Parents come from a per-thread stack, so a span's children are the
wrapped calls it made on the same thread.  A span's *self time* is its
duration minus its children's durations; summing self times per layer
gives the per-layer split.  Spans stay in memory and are written out
once, when the run ends.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Iterable

#: (module, owner attribute or None for a module function, attribute,
#: span name).  The layer of a span is the text before the first dot.
TARGETS: tuple[tuple[str, str | None, str, str], ...] = (
    ("repro.datasets.registry", None, "load_dataset", "datasets.load_dataset"),
    ("repro.datasets.synthetic", None, "make_synthetic", "datasets.make_synthetic"),
    ("repro.core.cache", "JudgmentCache", "count", "judgment_cache.count"),
    ("repro.core.cache", "JudgmentCache", "bag", "judgment_cache.bag"),
    ("repro.core.cache", "JudgmentCache", "bags_for", "judgment_cache.bags_for"),
    ("repro.core.cache", "JudgmentCache", "append", "judgment_cache.append"),
    ("repro.core.cache", "JudgmentCache", "append_rows", "judgment_cache.append_rows"),
    ("repro.core.cache", "JudgmentCache", "defer_rows", "judgment_cache.defer_rows"),
    ("repro.core.cache", "JudgmentCache", "settle", "judgment_cache.settle"),
    ("repro.core.cache", "JudgmentCache", "moments", "judgment_cache.moments"),
    ("repro.core.cache", "JudgmentCache", "pairs", "judgment_cache.pairs"),
    ("repro.core.cache", "JudgmentCache", "total_samples", "judgment_cache.total_samples"),
    ("repro.core.cache", "JudgmentCache", "pair_count", "judgment_cache.pair_count"),
    ("repro.service.cache", "TenantCache", "count", "service_cache.count"),
    ("repro.service.cache", "TenantCache", "bag", "service_cache.bag"),
    ("repro.service.cache", "TenantCache", "bags_for", "service_cache.bags_for"),
    ("repro.service.cache", "TenantCache", "append", "service_cache.append"),
    ("repro.service.cache", "TenantCache", "append_rows", "service_cache.append_rows"),
    ("repro.service.cache", "TenantCache", "defer_rows", "service_cache.defer_rows"),
    ("repro.service.cache", "TenantCache", "settle", "service_cache.settle"),
    ("repro.service.cache", "TenantCache", "moments", "service_cache.moments"),
    ("repro.service.cache", "TenantCache", "pairs", "service_cache.pairs"),
    ("repro.service.cache", "TenantCache", "total_samples", "service_cache.total_samples"),
    ("repro.service.cache", "TenantCache", "pair_count", "service_cache.pair_count"),
    ("repro.crowd.oracle", "LatentScoreOracle", "draw_pairs", "oracle.draw_pairs"),
    ("repro.crowd.oracle", "LatentScoreOracle", "draw", "oracle.draw"),
    ("repro.crowd.oracle", "HistogramOracle", "draw_pairs", "oracle.draw_pairs"),
    ("repro.crowd.oracle", "HistogramOracle", "draw", "oracle.draw"),
    ("repro.crowd.oracle", "UserTableOracle", "draw_pairs", "oracle.draw_pairs"),
    ("repro.crowd.oracle", "UserTableOracle", "draw", "oracle.draw"),
    ("repro.crowd.pool", "RacingPool", "__init__", "pool.setup"),
    ("repro.crowd.pool", "RacingPool", "round", "pool.round"),
    ("repro.crowd.group", None, "race_group", "group.race_group"),
    ("repro.core.estimators.student", "StudentTester", "decision_codes", "estimator.decide"),
    ("repro.core.estimators.stein", "SteinTester", "decision_codes", "estimator.decide"),
    ("repro.core.estimators.stein", "SteinTester", "frozen_codes", "estimator.decide"),
    ("repro.core.estimators.hoeffding", "HoeffdingTester", "decision_codes", "estimator.decide"),
    ("repro.core.estimators.pac", "PACTester", "decision_codes", "estimator.decide"),
    ("repro.crowd.session", "CrowdSession", "compare", "session.compare"),
    ("repro.crowd.session", "CrowdSession", "compare_many", "session.compare_many"),
    ("repro.core.sorting", None, "crowd_max", "sorting.crowd_max"),
    ("repro.core.sorting", None, "crowd_max_many", "sorting.crowd_max_many"),
    ("repro.core.spr.select", None, "select_reference", "spr.select"),
    ("repro.core.spr.partition", None, "partition", "spr.partition"),
    ("repro.core.spr.rank", None, "reference_sort", "spr.rank"),
    ("repro.core.spr.spr", None, "spr_topk", "spr.topk"),
    ("repro.algorithms.bdp", None, "score_pairs", "bdp.score_pairs"),
    ("repro.algorithms.bdp", None, "bdp_topk", "bdp.topk"),
    ("repro.experiments.runner", None, "run_methods", "experiments.run_methods"),
    ("repro.service.service", "QueryService", "submit", "service.submit"),
    ("repro.service.runner", None, "session_for", "service.session_for"),
    ("repro.service.runner", None, "execute_spec", "service.execute_spec"),
    ("repro.service.runner", None, "run_query", "service.run_query"),
    ("repro.service.scheduler", "MarketplaceLane", "gate", "marketplace.gate"),
    ("repro.persistence", None, "save_checkpoint", "persistence.save_checkpoint"),
)

#: Layers in report order; ``unattributed`` is lane time outside every span.
LAYERS = (
    "datasets", "judgment_cache", "service_cache", "oracle", "pool", "group",
    "estimator", "session", "sorting", "spr", "bdp", "experiments",
    "service", "marketplace", "persistence",
)


#: Benchmark modules that call ``repro`` functions they imported by name.
CALLERS = frozenset({"workloads"})

#: Algorithm entry points: called outside a service query, each call is
#: a query of its own.
QUERY_ROOTS = frozenset({"spr.topk", "bdp.topk"})

#: Spans whose callees are not traced: a checkpoint reads every cached
#: bag, and one span per bag would swamp the run.
SUPPRESSING = frozenset({"persistence.save_checkpoint"})


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Records spans from wrapped calls; see the module docstring.

    ``service.*`` spans take their query id from the spec among their
    arguments (see :meth:`bind_service`); an algorithm entry point called
    outside any query opens a new one.  Calls made inside a
    ``SUPPRESSING`` span run unwrapped, so they count toward that span's
    self time.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, int, int, str | None, int]] = []
        self.notes: dict[str, list[float]] = defaultdict(list)
        self._spec_queries: dict[int, str] = {}
        self._keep: list = []  # bound specs stay alive, so ids stay unique
        self._local = threading.local()
        #: While set, wrapped calls run untraced (on every thread).
        self.paused = False
        self._ids = itertools.count(1)
        self._queries = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def _state(self):
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
            local.query = None
            local.suppress = False
        return local, stack

    def bind_service(self, specs) -> None:
        """Name the query of each spec (by identity) for ``service.*`` spans."""
        base = len(self._spec_queries)
        for number, spec in enumerate(specs):
            self._spec_queries[id(spec)] = f"q{base + number}"
        self._keep.extend(specs)

    def _query_of(self, args: tuple) -> str | None:
        for arg in args:
            query = self._spec_queries.get(id(arg))
            if query is not None:
                return query
        return None

    def note(self, key: str, value: float) -> None:
        self.notes[key].append(value)

    def wrap(self, fn: Callable, name: str, after: Callable | None = None) -> Callable:
        spans, ids, clock = self.spans, self._ids, time.perf_counter_ns
        from_spec = name.startswith("service.")
        opens_query = name in QUERY_ROOTS
        suppresses = name in SUPPRESSING
        query_of = self._query_of
        queries = self._queries

        def traced(*args, **kwargs):
            local, stack = self._state()
            if local.suppress or self.paused:
                return fn(*args, **kwargs)
            previous_query = local.query
            if from_spec:
                local.query = query_of(args) or previous_query
            elif opens_query and previous_query is None:
                local.query = f"r{next(queries)}"
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            local.suppress = suppresses
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(self, args, kwargs, result)
                return result
            finally:
                end = clock()
                local.suppress = False
                stack.pop()
                spans.append(
                    (span_id, parent, name, start, end, local.query,
                     threading.get_ident())
                )
                local.query = previous_query

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------------------
    def install(self, targets: Iterable[tuple[str, str | None, str, str]] = TARGETS,
                after: dict[str, Callable] | None = None) -> None:
        """Wrap every target; module functions are replaced wherever bound."""
        import importlib
        import sys

        after = after or {}
        for module_name, owner_name, attr, name in targets:
            module = importlib.import_module(module_name)
            if owner_name is not None:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                if isinstance(original, property):
                    wrapped = property(self.wrap(original.fget, name, after.get(name)))
                else:
                    wrapped = self.wrap(original, name, after.get(name))
                self._set(owner, attr, wrapped)
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(original, name, after.get(name))
            for loaded_name, loaded in list(sys.modules.items()):
                if loaded is None or not (
                    loaded_name.startswith("repro") or loaded_name in CALLERS
                ):
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        self._set(loaded, key, wrapped)
                    elif type(value) is dict:
                        for dict_key, dict_value in list(value.items()):
                            if dict_value is original:
                                value[dict_key] = wrapped
                                self._patches.append((value, dict_key, original))

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, getattr(owner, "__dict__", {}).get(attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Put every original back (in reverse order of patching)."""
        for owner, attr, original in reversed(self._patches):
            if type(owner) is dict:
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    def window(self, start_ns: int, end_ns: int) -> "SpanSet":
        """The spans that lie wholly inside ``[start_ns, end_ns]``."""
        return SpanSet(
            [s for s in self.spans if s[3] >= start_ns and s[4] <= end_ns],
            end_ns - start_ns,
        )

    def dump(self, path: str) -> None:
        """Write every span as one JSON line (times in ns from the first span)."""
        origin = min((s[3] for s in self.spans), default=0)
        with open(path, "w", encoding="utf-8") as sink:
            for span_id, parent, name, start, end, query, thread in self.spans:
                sink.write(json.dumps({
                    "id": span_id, "parent": parent, "name": name,
                    "layer": layer_of(name), "start_ns": start - origin,
                    "end_ns": end - origin, "query": query, "thread": thread,
                }, separators=(",", ":")) + "\n")


class SpanSet:
    """Spans of one time window, with the per-layer split over it."""

    def __init__(self, spans: list[tuple], wall_ns: int) -> None:
        self.spans = spans
        self.wall_s = wall_ns / 1e9
        #: Every thread that recorded a span is a lane covering the window.
        self.lanes = len({s[6] for s in spans}) or 1
        self._by_id = {s[0]: s for s in spans}

    def self_seconds(self) -> dict[str, float]:
        """Self seconds per layer plus ``unattributed``.

        A span's self time is its duration minus its children's.  Lane
        time outside every span is ``unattributed``, so the values sum to
        ``lanes * wall_s`` by construction.
        """
        child_ns: dict[int, int] = defaultdict(int)
        for _, parent, _, start, end, _, _ in self.spans:
            if parent:
                child_ns[parent] += end - start
        totals = dict.fromkeys(LAYERS, 0)
        root_ns = 0
        for span_id, parent, name, start, end, _, _ in self.spans:
            totals[layer_of(name)] += end - start - child_ns[span_id]
            if not parent or parent not in self._by_id:
                root_ns += end - start
        out = {layer: ns / 1e9 for layer, ns in totals.items()}
        out["unattributed"] = self.lanes * self.wall_s - root_ns / 1e9
        return out

    def named(self, *names: str) -> list[tuple]:
        return [s for s in self.spans if s[2] in names]

    def outer_seconds(self, *names: str) -> float:
        """Summed duration of ``names`` spans not nested in another of them."""
        total = 0
        for span in self.named(*names):
            parent = self._by_id.get(span[1])
            while parent is not None and parent[2] not in names:
                parent = self._by_id.get(parent[1])
            if parent is None:
                total += span[4] - span[3]
        return total / 1e9

    def calls(self, name: str) -> int:
        return len(self.named(name))
