"""The four benchmark workloads.

Each workload is a set-up function and a *unit* function.  Set-up runs
several times per run and builds the inputs from the workload seed;
``unit(ctx, index)`` runs one repeatable slice of work (a query, an
experiment cell, or a whole service run) and returns a :class:`Unit` holding
its samples and its output checks.  ``run.py`` repeats units until the
run's time is used.  Unit ``index`` fixes the unit's own seeds, so the
traced pass can replay the untraced reference unit exactly.
"""

from __future__ import annotations

import os
import shutil
import statistics
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro import spr_topk
from repro.datasets import load_dataset, make_synthetic
from repro.datasets.registry import clear_dataset_cache
from repro.experiments.params import ExperimentParams
from repro.experiments.runner import run_methods
from repro.metrics import ndcg_at_k, top_k_precision
from repro.service import QueryService, QuerySpec, run_query
from repro.telemetry import MetricsRegistry, use_registry

#: Scratch space inside the checkout (durable state, spans, results).
STATE_ROOT = ".perfbench"


@dataclass
class Unit:
    """One unit's samples.  ``latencies`` are per query, in seconds."""

    wall_s: float
    latencies: list[float] = field(default_factory=list)
    tmc: list[int] = field(default_factory=list)
    rounds: list[int] = field(default_factory=list)
    precision: list[float] = field(default_factory=list)
    ndcg: list[float] = field(default_factory=list)
    microtasks: int = 0
    attempted: int = 0
    failed: int = 0
    #: The number compared between the untraced and the traced replay
    #: of a unit to give the tracing overhead.
    overhead_basis: float = 0.0
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)
    extra: dict[str, list[float]] = field(default_factory=dict)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    def add(self, key: str, value: float) -> None:
        self.extra.setdefault(key, []).append(value)


@dataclass
class Context:
    seed: int
    seconds: float = 0.0
    tracer: object | None = None
    inputs: object = None


def _subset_check(unit: Unit, topk, working_ids, k: int, label: str) -> None:
    universe = set(working_ids)
    ok = len(topk) == k and len(set(topk)) == k and all(i in universe for i in topk)
    unit.check("valid_topk", ok, f"{label}: {list(topk)[:k + 2]}")


def _count_check(unit: Unit, requested: int, got: int, label: str) -> None:
    unit.check("n_items_honest", requested == got, f"{label}: asked {requested}, got {got}")


def _sum_counters(registry: MetricsRegistry, unit: Unit, names: tuple[str, ...]) -> None:
    for name in names:
        unit.counters[name] = unit.counters.get(name, 0.0) + registry.counter_total(name)


CROWD_COUNTERS = (
    "crowd_microtasks_total", "crowd_comparisons_total", "crowd_cache_hits_total",
    "oracle_judgments_total", "crowd_pool_rounds_total",
)
SERVICE_COUNTERS = CROWD_COUNTERS + (
    "service_cache_hits_total", "service_cache_evictions_total",
    "service_grant_waits_total",
)


# ----------------------------------------------------------------------
# catalog_spr: SPR top-10 queries, each over its own synthetic catalog
# ----------------------------------------------------------------------
CATALOG_ITEMS = 10_000
CATALOG_K = 10


def _catalog(seed: int, index: int):
    dataset = make_synthetic(seed=np.random.default_rng([seed, 1, index]), n_items=CATALOG_ITEMS)
    ids = dataset.items.ids.tolist()
    if len(ids) != CATALOG_ITEMS:
        raise RuntimeError(f"catalog has {len(ids)} items, asked {CATALOG_ITEMS}")
    return dataset, ids


def catalog_setup(ctx: Context):
    """Build the first unit's catalog; later units build their own."""
    return _catalog(ctx.seed, 0)


def catalog_unit(ctx: Context, index: int) -> Unit:
    """One query on its own catalog: the catalog's score draw, not only the
    crowd's noise, sets a query's cost, so a run spans many catalogs."""
    dataset, ids = ctx.inputs if index == 0 else _catalog(ctx.seed, index)
    with use_registry(MetricsRegistry()) as registry:
        session = dataset.session(seed=[ctx.seed, 1, index])
        started = time.perf_counter()
        result = spr_topk(session, ids, k=CATALOG_K)
        wall = time.perf_counter() - started
    topk = list(result.topk)
    unit = Unit(wall_s=wall, latencies=[wall], overhead_basis=wall)
    unit.tmc.append(session.total_cost)
    unit.rounds.append(session.total_rounds)
    unit.precision.append(top_k_precision(dataset.items, topk, CATALOG_K))
    unit.ndcg.append(ndcg_at_k(dataset.items, topk, CATALOG_K))
    unit.microtasks = session.total_cost
    unit.attempted = 1
    _subset_check(unit, topk, ids, CATALOG_K, f"catalog query {index}")
    charged = registry.counter_value("crowd_microtasks_total")
    unit.check(
        "microtasks_eq_ledger", charged == session.total_cost,
        f"catalog query {index}: counter {charged} vs ledger {session.total_cost}",
    )
    _sum_counters(registry, unit, CROWD_COUNTERS)
    unit.add("judgment_cache.pairs", session.cache.pair_count)
    unit.add("judgment_cache.samples", session.cache.total_samples)
    return unit


# ----------------------------------------------------------------------
# bdp_experiment: the spr_vs_bdp experiment cell, fanned over 2 processes
# ----------------------------------------------------------------------
BDP_DATASET = "imdb"
BDP_ITEMS = 20
BDP_K = 5
BDP_RUNS = 4
BDP_JOBS = 2
BDP_METHODS = ("spr", "bdp")


def bdp_setup(ctx: Context):
    clear_dataset_cache()
    dataset = load_dataset(BDP_DATASET)
    if len(dataset) <= BDP_ITEMS:
        raise RuntimeError(f"{BDP_DATASET} has {len(dataset)} items, cell asks {BDP_ITEMS}")
    return dataset


def _bdp_params(seed: int, index: int, n_items: int = BDP_ITEMS, runs: int = BDP_RUNS):
    return ExperimentParams(
        dataset=BDP_DATASET, n_items=n_items, k=BDP_K, n_runs=runs,
        seed=int(np.random.SeedSequence([seed, 2, index]).generate_state(1)[0]),
    )


def _aggregates(stats) -> dict:
    return {
        method: (
            s.mean_cost, s.std_cost, s.mean_rounds, s.mean_ndcg, s.mean_precision,
            tuple((r.cost, r.rounds, r.ndcg, r.precision) for r in s.runs),
        )
        for method, s in stats.items()
    }


def bdp_cell(ctx: Context, index: int, n_jobs: int) -> Unit:
    """One experiment cell: every (method x run) of the cell."""
    params = _bdp_params(ctx.seed, index)
    with use_registry(MetricsRegistry()) as registry:
        started = time.perf_counter()
        stats = run_methods(list(BDP_METHODS), params, n_jobs=n_jobs)
        wall = time.perf_counter() - started
    unit = Unit(wall_s=wall)
    runs = [r for method in BDP_METHODS for r in stats[method].runs]
    # The per-query metrics are taken over the BDP runs: the SPR arm is
    # ~30x shorter and ~6x cheaper, so a median over both arms would sit
    # between two modes.  Throughput counts every run of the cell.
    for record in stats["bdp"].runs:
        unit.latencies.append(record.wall_seconds)
        unit.tmc.append(record.cost)
        unit.rounds.append(record.rounds)
        unit.precision.append(record.precision)
        unit.ndcg.append(record.ndcg)
    unit.microtasks = sum(r.cost for r in runs)
    unit.attempted = len(runs)
    unit.overhead_basis = sum(r.wall_seconds for r in runs)
    unit.add("parallel.busy_s", sum(r.wall_seconds for r in runs))
    unit.add("parallel.tasks", len(runs) if n_jobs > 1 else 0)
    unit.add("parallel.jobs", n_jobs)
    charged = registry.counter_value("crowd_microtasks_total")
    unit.check(
        "microtasks_eq_ledger", charged == unit.microtasks,
        f"bdp cell {index}: counter {charged} vs ledgers {unit.microtasks}",
    )
    _sum_counters(registry, unit, CROWD_COUNTERS)
    unit.extra["aggregates"] = [_aggregates(stats)]
    return unit


def bdp_unit(ctx: Context, index: int) -> Unit:
    return bdp_cell(ctx, index, BDP_JOBS)


def _parity_check(unit: Unit, parallel: dict, serial: dict, label: str) -> None:
    unit.check("parallel_eq_serial", parallel == serial,
               f"{label}: parallel and serial aggregates differ")


def bdp_small_parity(ctx: Context) -> Unit:
    """A small cell run with 1 and 2 jobs; aggregates must be identical.
    Its seed index lies past any unit's, so its inputs are its own."""
    params = _bdp_params(ctx.seed, 1_000_000, n_items=12, runs=2)
    out = {}
    for jobs in (1, BDP_JOBS):
        with use_registry(MetricsRegistry()):
            out[jobs] = _aggregates(run_methods(list(BDP_METHODS), params, n_jobs=jobs))
    unit = Unit(wall_s=0.0)
    _parity_check(unit, out[BDP_JOBS], out[1], "small cell")
    return unit


# ----------------------------------------------------------------------
# service workloads: three tenants through one QueryService
# ----------------------------------------------------------------------
#: tenant -> (dataset, k, working-set sizes, cost SLA); each size is one
#: query kind, and every block of specs holds one query of each kind.
#: Sizes are first-n subsets, so a tenant's queries share items.  The
#: three tenants' costs form three clusters (jester 30%, book 40%, imdb
#: 30% of queries), which puts the median and the tail percentile inside
#: a cluster rather than on the edge between two.
TENANTS = {
    "heavy": ("imdb", 10, (200, 250, 300), 1_500_000),
    "jester": ("jester", 5, (30, 40, 50), 400_000),
    "book": ("book", 5, (50, 60, 70, 80), 400_000),
}
#: One worker.  Two workers contend for the interpreter lock, and on a
#: shared 2-core host their throughput moved by 45% between two sets of
#: runs as the host's other load changed (one marketplace slot for two
#: workers also spread it by 28%), too much for any regression bound.
SERVICE_WORKERS = 1
#: Smaller than the tenants' working sets together: the cache evicts all
#: the time and most judgments are bought again, so a query's cost does
#: not hinge on which queries happened to run before it.
CACHE_ENTRIES = 2_000
#: Two heavy queries' cost SLAs exceed the capacity, so some submissions
#: park in admission control.
ADMISSION_CAPACITY = 2_500_000
#: Closed loops: clients (the load generator's threads, at most 2) each
#: wait for a reply before sending the next spec from one seeded list
#: (capped at MAX_QUERIES); a run waits DRAIN_S at most for its last
#: replies.
TENANTS_CLIENTS = 2
TENANTS_SLA_S = 1.0
MAX_QUERIES = 2_000
DRAIN_S = 60.0
#: The durable mix is the book tenant of the tenants mix (one cost
#: cluster): every round rewrites the namespace, fsync times dominate,
#: and a mix of tenants spread latency by 28-37%.
DURABLE_CLIENTS = 2
DURABLE_TENANTS = {"book": TENANTS["book"]}
#: A checkpoint writes every resident bag, so the durable service's cache
#: bound also bounds each checkpoint; the first query fills it.
DURABLE_CACHE_ENTRIES = 100
DURABLE_SLA_S = 10.0
#: The cold-namespace probe runs on the workload's own service, after the
#: measured queries.  Its pairs (at most 12*11/2 = 66) stay below every
#: cache bound used here: a query whose own pairs exceed the global bound
#: evicts its own judgments, buys them again and so departs from
#: run_query of its spec (seen once in 10 runs with a 30-item probe).
PROBE_TENANT = "probe"
PROBE_ITEMS = 12
PROBE_K = 3


def service_setup(ctx: Context):
    clear_dataset_cache()
    datasets = {name: load_dataset(name) for name in ("imdb", "jester", "book")}
    for tenant, (dataset, k, sizes, _) in {**TENANTS, **DURABLE_TENANTS}.items():
        for n in sizes:
            spec = QuerySpec(method="spr", k=k, dataset=dataset, n_items=n, tenant=tenant)
            got = len(spec.resolve_items(datasets[dataset]))
            if got != n:
                raise RuntimeError(
                    f"{tenant}: asked {n} items of {dataset}, resolve_items gave {got}")
    return datasets


def _mix(tenants: dict, count: int, rng: np.random.Generator) -> list[QuerySpec]:
    """``count`` specs in seeded order; every block of one spec per kind
    is a permutation of the kinds, so any prefix has a balanced mix."""
    kinds = [
        (tenant, dataset, k, n, sla)
        for tenant, (dataset, k, sizes, sla) in tenants.items()
        for n in sizes
    ]
    chosen = []
    while len(chosen) < count:
        chosen.extend(kinds[i] for i in rng.permutation(len(kinds)))
    seeds = rng.integers(0, 2**31 - 1, size=count)
    return [
        QuerySpec(method="spr", k=k, dataset=dataset, n_items=n, tenant=tenant,
                  cost_sla=sla, seed=int(seed))
        for (tenant, dataset, k, n, sla), seed in zip(chosen, seeds)
    ]


def _score(unit: Unit, datasets: dict, spec: QuerySpec, outcome, label: str) -> None:
    working = datasets[spec.dataset].sample_items(spec.n_items)
    _count_check(unit, spec.n_items, len(working), label)
    _subset_check(unit, outcome.topk, working.ids.tolist(), spec.k, label)
    unit.tmc.append(outcome.cost)
    unit.rounds.append(outcome.rounds)
    unit.precision.append(top_k_precision(working, outcome.topk, spec.k))
    unit.ndcg.append(ndcg_at_k(working, outcome.topk, spec.k))
    unit.microtasks += outcome.cost


def _cold_probe(unit: Unit, service: QueryService, spec: QuerySpec) -> int:
    """A query on an unused tenant must match the standalone run of its spec."""
    outcome = service.submit(spec).result(timeout=120)
    with use_registry(MetricsRegistry()):
        alone = run_query(spec)
    same = (list(outcome.topk), outcome.cost, outcome.rounds) == (
        list(alone.topk), alone.cost, alone.rounds)
    unit.check("cold_service_eq_run_query", same,
               f"service {outcome.cost}/{outcome.rounds} vs run_query {alone.cost}/{alone.rounds}")
    return outcome.cost


class _Sampler:
    """Tracks the service's peak accounted cache bytes between calls."""

    def __init__(self, service: QueryService) -> None:
        self.service = service
        self.peak = 0

    def __call__(self) -> None:
        self.peak = max(self.peak, self.service.cache.bytes)


def _warm_up(ctx: Context, service: QueryService, tenants: dict,
             rng: np.random.Generator) -> int:
    """Run one query of each kind, untimed and untraced, so the shared
    cache starts measurement in its steady state (full, evicting) rather
    than in an order-dependent cold start.  Returns the microtasks bought."""
    if ctx.tracer is not None:
        ctx.tracer.paused = True
    try:
        kinds = sum(len(sizes) for _, _, sizes, _ in tenants.values())
        handles = [service.submit(spec) for spec in _mix(tenants, kinds, rng)]
        return sum(handle.result(timeout=DRAIN_S).cost for handle in handles)
    finally:
        if ctx.tracer is not None:
            ctx.tracer.paused = False


def _finish_service(unit: Unit, service: QueryService, registry: MetricsRegistry,
                    ctx: Context, index: int, sampler: _Sampler, warm_cost: int) -> None:
    probe = QuerySpec(method="spr", k=PROBE_K, dataset="jester", n_items=PROBE_ITEMS,
                      tenant=PROBE_TENANT, seed=ctx.seed * 1000 + index)
    sampler()
    probe_cost = _cold_probe(unit, service, probe)
    service.close()
    charged = registry.counter_value("crowd_microtasks_total")
    ledgers = unit.microtasks + probe_cost + warm_cost
    unit.check("microtasks_eq_ledger", charged == ledgers,
               f"run {index}: counter {charged} vs ledgers {ledgers}")
    _sum_counters(registry, unit, SERVICE_COUNTERS)
    for decision in ("admitted", "queued", "rejected"):
        unit.counters[f"admissions_{decision}"] = registry.counter_value(
            "service_admissions_total", decision=decision)
    unit.add("service_cache.bytes_peak", sampler.peak)


def _new_service(registry: MetricsRegistry, state_dir: str | None,
                 cache_entries: int) -> QueryService:
    return QueryService(
        max_workers=SERVICE_WORKERS, capacity=ADMISSION_CAPACITY,
        cache_entries=cache_entries,
        state_dir=state_dir, checkpoint_every=1, registry=registry,
    )


def _closed_loop(ctx: Context, service: QueryService, specs: list[QuerySpec],
                 clients: int, unit: Unit, sampler: "_Sampler") -> None:
    """``clients`` threads take the next spec from ``specs`` and wait for
    its reply, until ``ctx.seconds`` have passed; in-flight queries finish."""
    results: list = [None] * len(specs)
    lock = threading.Lock()
    issued = [0]
    start = time.perf_counter()
    stop_at = start + ctx.seconds

    def client() -> None:
        while time.perf_counter() < stop_at:
            with lock:
                i = issued[0]
                if i >= len(specs):
                    return
                issued[0] += 1
            sent = time.perf_counter()
            handle = service.submit(specs[i])
            handle.wait(timeout=DRAIN_S)
            results[i] = (handle, time.perf_counter() - sent)
            sampler()

    threads = [threading.Thread(target=client) for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=ctx.seconds + DRAIN_S)
    unit.wall_s = time.perf_counter() - start
    unit.attempted = issued[0]
    for i in range(issued[0]):
        entry = results[i]
        if entry is None or not entry[0].done or entry[0].error is not None:
            unit.failed += 1
            unit.latencies.append(float("inf"))
            continue
        handle, latency = entry
        unit.latencies.append(latency)
        _score(unit, ctx.inputs, specs[i], handle.outcome, f"query {i}")
    unit.check("no_failed_queries", unit.failed == 0, f"{unit.failed} failed")
    unit.overhead_basis = statistics.median(unit.latencies)


def tenants_unit(ctx: Context, index: int) -> Unit:
    """Closed loop for the whole run: two clients, one shared cache."""
    rng = np.random.default_rng([ctx.seed, 3, index])
    registry = MetricsRegistry()
    service = _new_service(registry, None, CACHE_ENTRIES)
    sampler = _Sampler(service)
    warm_cost = _warm_up(ctx, service, TENANTS, rng)
    specs = _mix(TENANTS, MAX_QUERIES, rng)
    if ctx.tracer is not None:
        ctx.tracer.bind_service(specs)
    unit = Unit(wall_s=0.0)
    _closed_loop(ctx, service, specs, TENANTS_CLIENTS, unit, sampler)
    _finish_service(unit, service, registry, ctx, index, sampler, warm_cost)
    return unit


def durable_unit(ctx: Context, index: int) -> Unit:
    """Closed loop for the whole run on a durable service (checkpoint every round)."""
    rng = np.random.default_rng([ctx.seed, 4, index])
    state_dir = os.path.join(STATE_ROOT, "state", f"run-{os.getpid()}-{index}")
    shutil.rmtree(state_dir, ignore_errors=True)
    registry = MetricsRegistry()
    service = _new_service(registry, state_dir, DURABLE_CACHE_ENTRIES)
    sampler = _Sampler(service)
    specs = _mix(DURABLE_TENANTS, MAX_QUERIES, rng)
    if ctx.tracer is not None:
        ctx.tracer.bind_service(specs)
    unit = Unit(wall_s=0.0)
    _closed_loop(ctx, service, specs, DURABLE_CLIENTS, unit, sampler)
    _finish_service(unit, service, registry, ctx, index, sampler, 0)
    shutil.rmtree(state_dir, ignore_errors=True)
    return unit


def answers_check(tracer) -> list[tuple[str, bool, str]]:
    """Every answer an algorithm returned is a k-subset of its items."""
    unit = Unit(wall_s=0.0)
    for items, k, topk in tracer.notes.get("answers", []):
        _subset_check(unit, topk, items, k, f"{len(items)} items")
    return unit.checks


def no_final_checks(ctx: Context, units: list, reference: list | None) -> list:
    return []


def bdp_final_checks(ctx: Context, units: list, reference: list | None) -> list:
    """Small-cell parity with answer validation; in the traced pass also
    each untraced (parallel) cell against its serial traced replay."""
    import layers

    tracer = layers.answer_tracer()
    try:
        unit = bdp_small_parity(ctx)
    finally:
        tracer.uninstall()
    checks = unit.checks + answers_check(tracer)
    if reference is not None:
        unit = Unit(wall_s=0.0)
        for parallel, serial in zip(reference, units):
            _parity_check(unit, parallel.extra["aggregates"][0],
                          serial.extra["aggregates"][0], "traced cell")
        checks += unit.checks
    return checks


@dataclass(frozen=True)
class Workload:
    name: str
    setup: object
    unit: object
    traced_unit: object
    final_checks: object
    sla_s: float
    loop: str


WORKLOADS = {
    "catalog_spr": Workload(
        "catalog_spr", catalog_setup, catalog_unit, catalog_unit, no_final_checks,
        15.0, "serial, one query at a time"),
    "bdp_experiment": Workload(
        "bdp_experiment", bdp_setup, bdp_unit, lambda ctx, i: bdp_cell(ctx, i, 1),
        bdp_final_checks, 10.0,
        f"experiment cells on {BDP_JOBS} worker processes; traced cells run serially"),
    "service_tenants": Workload(
        "service_tenants", service_setup, tenants_unit, tenants_unit, no_final_checks,
        TENANTS_SLA_S, f"closed loop, {TENANTS_CLIENTS} clients"),
    "service_durable": Workload(
        "service_durable", service_setup, durable_unit, durable_unit, no_final_checks,
        DURABLE_SLA_S, f"closed loop, {DURABLE_CLIENTS} clients"),
}
