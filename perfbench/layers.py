"""The traced pass: install the span tracer and turn spans into metrics.

Per-layer metrics, with the end-to-end metric each should move:

* self seconds per layer (``<layer>.self_s``) plus ``unattributed.self_s``
  sum to ``trace.lane_s`` (traced wall time times lanes);
* ``judgment_cache.*``, ``oracle.*``, ``pool.*``, ``estimator.*``,
  ``sorting.*`` and ``spr.*`` move ``wall_s`` and ``microtasks_per_s`` on
  ``catalog_spr``;
* ``session.*``, ``bdp.*`` and ``parallel.*`` move ``query_p50_s`` and
  ``queries_per_s`` on ``bdp_experiment``;
* ``service.*``, ``marketplace.*`` and ``service_cache.*`` move the
  latency metrics and ``tmc`` on ``service_tenants``;
* ``persistence.*`` moves ``queries_per_s`` on ``service_durable``.

Times are totals over the traced units unless named ``_p50_s`` or
``per_group``; counts are totals; a layer that does not run reports 0.
"""

from __future__ import annotations

import os
import statistics

from spans import LAYERS, TARGETS, Tracer

#: (metric name, unit) in report order; BENCHMARK.json lists the same.
PER_LAYER: tuple[tuple[str, str], ...] = (
    *((f"{layer}.self_s", "s") for layer in LAYERS),
    ("unattributed.self_s", "s"),
    ("trace.lane_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.lanes", "count"),
    ("trace.spans", "count"),
    ("trace.queries", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("datasets.load_s", "s"),
    ("judgment_cache.pairs", "count"),
    ("judgment_cache.samples", "count"),
    ("judgment_cache.hit_ratio", "ratio"),
    ("oracle.draw_s", "s"),
    ("oracle.useful_ratio", "ratio"),
    ("pool.rounds", "count"),
    ("pool.round_s", "s"),
    ("pool.setup_per_group_s", "s"),
    ("pool.groups", "count"),
    ("estimator.decide_s", "s"),
    ("session.compare_many_s", "s"),
    ("session.compare_many_calls", "count"),
    ("session.pairs_per_call", "count"),
    ("sorting.crowd_max_many_s", "s"),
    ("spr.select_s", "s"),
    ("spr.partition_s", "s"),
    ("spr.rank_s", "s"),
    ("bdp.score_pairs_s", "s"),
    ("bdp.score_pairs_calls", "count"),
    ("parallel.tasks", "count"),
    ("parallel.worker_busy_ratio", "ratio"),
    ("service.queue_wait_p50_s", "s"),
    ("service.exec_p50_s", "s"),
    ("service.admissions_admitted", "count"),
    ("service.admissions_queued", "count"),
    ("service.admissions_rejected", "count"),
    ("marketplace.grant_wait_s", "s"),
    ("marketplace.grant_waits", "count"),
    ("service_cache.hit_ratio", "ratio"),
    ("service_cache.hits_query", "count"),
    ("service_cache.hits_raw", "count"),
    ("service_cache.evictions", "count"),
    ("service_cache.bytes_peak", "bytes"),
    ("persistence.checkpoint_p50_s", "s"),
    ("persistence.checkpoint_total_s", "s"),
    ("persistence.checkpoints", "count"),
    ("persistence.checkpoint_bytes", "bytes"),
    ("persistence.pairs_per_checkpoint", "count"),
)


def _pairs_per_call(tracer, args, kwargs, result) -> None:
    tracer.note("session.pairs", len(result))


def _bag_read(tracer, args, kwargs, result) -> None:
    tracer.note("service_cache.read", float(result.size > 0))


def _bags_read(tracer, args, kwargs, result) -> None:
    for values in result:
        tracer.note("service_cache.read", float(values.size > 0))


def _checkpoint(tracer, args, kwargs, result) -> None:
    _, cache, path = args[:3]
    tracer.note("persistence.bytes", os.path.getsize(path))
    tracer.note("persistence.pairs", cache.pair_count)


def _answer(tracer, args, kwargs, result) -> None:
    k = args[2] if len(args) > 2 else kwargs["k"]
    tracer.note("answers", (tuple(args[1]), k, tuple(result.topk)))


#: Hooks run inside their span.  Cache reads made by a checkpoint are
#: not traced at all (see ``spans.SUPPRESSING``), so ``service_cache.read``
#: counts the reads query execution makes and nothing else.
HOOKS = {
    "session.compare_many": _pairs_per_call,
    "service_cache.bag": _bag_read,
    "service_cache.bags_for": _bags_read,
    "persistence.save_checkpoint": _checkpoint,
    "spr.topk": _answer,
    "bdp.topk": _answer,
}


def install(tracer: Tracer, targets=TARGETS) -> None:
    tracer.install(targets, HOOKS)


def answer_tracer() -> Tracer:
    """A tracer on the two algorithm entry points only, to collect answers."""
    tracer = Tracer()
    install(tracer, [t for t in TARGETS if t[3] in ("spr.topk", "bdp.topk")])
    return tracer


def _counter(units, name: str) -> float:
    return sum(u.counters.get(name, 0.0) for u in units)


def _extra(units, key: str) -> list[float]:
    return [x for u in units for x in u.extra.get(key, [])]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _p50(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _queue_waits(spans) -> list[float]:
    """Per query: first ``session_for`` start minus ``submit`` end."""
    submitted = {s[5]: s[4] for s in spans.named("service.submit") if s[5]}
    started: dict[str, int] = {}
    for s in spans.named("service.session_for"):
        if s[5] in submitted:
            started[s[5]] = min(started.get(s[5], s[3]), s[3])
    return [(started[q] - submitted[q]) / 1e9 for q in started]


def per_layer(tracer, reference, units, setup_window, traced_window, setups) -> tuple[dict, dict]:
    spans = tracer.window(*traced_window)
    setup_spans = tracer.window(*setup_window)
    own = spans.self_seconds()
    notes = tracer.notes
    queries = sum(u.attempted for u in units)
    microtasks = _counter(units, "crowd_microtasks_total")
    reads = notes.get("service_cache.read", [])
    checkpoint_durations = [
        (s[4] - s[3]) / 1e9 for s in spans.named("persistence.save_checkpoint")]
    tasks = _extra(reference, "parallel.tasks")
    common = min(len(reference), len(units))
    values = {f"{layer}.self_s": own[layer] for layer in LAYERS}
    values.update({
        "unattributed.self_s": own["unattributed"],
        "trace.lane_s": spans.lanes * spans.wall_s,
        "trace.wall_s": spans.wall_s,
        "trace.lanes": spans.lanes,
        "trace.spans": len(spans.spans),
        "trace.queries": queries,
        "trace.overhead_ratio": _ratio(
            sum(u.overhead_basis for u in units[:common]),
            sum(u.overhead_basis for u in reference[:common])),
        "datasets.load_s": setup_spans.self_seconds()["datasets"] / setups,
        "judgment_cache.pairs": max(_extra(units, "judgment_cache.pairs"), default=0),
        "judgment_cache.samples": max(_extra(units, "judgment_cache.samples"), default=0),
        "judgment_cache.hit_ratio": _ratio(
            _counter(units, "crowd_cache_hits_total"),
            _counter(units, "crowd_comparisons_total")),
        "oracle.draw_s": spans.outer_seconds("oracle.draw_pairs", "oracle.draw"),
        "oracle.useful_ratio": _ratio(microtasks, _counter(units, "oracle_judgments_total")),
        "pool.rounds": _ratio(_counter(units, "crowd_pool_rounds_total"), queries),
        "pool.round_s": spans.outer_seconds("pool.round"),
        "pool.setup_per_group_s": _ratio(
            spans.outer_seconds("pool.setup"), spans.calls("pool.setup")),
        "pool.groups": spans.calls("pool.setup"),
        "estimator.decide_s": spans.outer_seconds("estimator.decide"),
        "session.compare_many_s": spans.outer_seconds("session.compare_many"),
        "session.compare_many_calls": spans.calls("session.compare_many"),
        "session.pairs_per_call": statistics.fmean(notes["session.pairs"])
        if notes.get("session.pairs") else 0.0,
        "sorting.crowd_max_many_s": spans.outer_seconds("sorting.crowd_max_many"),
        "spr.select_s": spans.outer_seconds("spr.select"),
        "spr.partition_s": spans.outer_seconds("spr.partition"),
        "spr.rank_s": spans.outer_seconds("spr.rank"),
        "bdp.score_pairs_s": spans.outer_seconds("bdp.score_pairs"),
        "bdp.score_pairs_calls": spans.calls("bdp.score_pairs"),
        "parallel.tasks": sum(tasks),
        "parallel.worker_busy_ratio": _ratio(
            sum(_extra(reference, "parallel.busy_s")),
            sum(u.wall_s for u in reference) * max(_extra(reference, "parallel.jobs")))
        if sum(tasks) else 0.0,
        "service.queue_wait_p50_s": _p50(_queue_waits(spans)),
        "service.exec_p50_s": _p50(
            [(s[4] - s[3]) / 1e9 for s in spans.named("service.execute_spec")]),
        "service.admissions_admitted": _counter(units, "admissions_admitted"),
        "service.admissions_queued": _counter(units, "admissions_queued"),
        "service.admissions_rejected": _counter(units, "admissions_rejected"),
        "marketplace.grant_wait_s": spans.outer_seconds("marketplace.gate"),
        "marketplace.grant_waits": _counter(units, "service_grant_waits_total"),
        "service_cache.hit_ratio": _ratio(sum(reads), len(reads)),
        "service_cache.hits_query": sum(reads),
        "service_cache.hits_raw": _counter(units, "service_cache_hits_total"),
        "service_cache.evictions": _counter(units, "service_cache_evictions_total"),
        "service_cache.bytes_peak": max(_extra(units, "service_cache.bytes_peak"), default=0),
        "persistence.checkpoint_p50_s": _p50(checkpoint_durations),
        "persistence.checkpoint_total_s": sum(checkpoint_durations),
        "persistence.checkpoints": len(checkpoint_durations),
        "persistence.checkpoint_bytes": statistics.fmean(notes["persistence.bytes"])
        if notes.get("persistence.bytes") else 0.0,
        "persistence.pairs_per_checkpoint": statistics.fmean(notes["persistence.pairs"])
        if notes.get("persistence.pairs") else 0.0,
    })
    metrics = {name: (float(values[name]), unit) for name, unit in PER_LAYER}
    split_sum = sum(own.values())
    detail = {
        "units": len(units),
        "queries": queries,
        "self_s_sum": split_sum,
        "lane_s": spans.lanes * spans.wall_s,
        "reference_units": len(reference),
        "answers_checked": len(notes.get("answers", [])),
    }
    return metrics, detail
