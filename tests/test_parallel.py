"""The parallel experiment engine: determinism, merging, job resolution.

The engine's contract is *bit-for-bit identity* with the serial runner:
every (method × cell × run) work unit receives the same pre-spawned RNG
streams the serial loop would have used, so the only fields allowed to
differ are wall-clock timings.  These tests pin that contract for
``run_method``/``run_methods``, a multi-cell sweep, and the merged
telemetry snapshot (whose microtask counters must reconcile with the
summed cost ledgers, exactly as in a serial run).
"""

from __future__ import annotations

import os

import pytest

from repro.errors import ConfigError
from repro.experiments import ExperimentParams, run_method, run_methods
from repro.experiments.parallel import (
    RunSpec,
    get_default_jobs,
    resolve_jobs,
    run_specs,
    set_default_jobs,
    use_jobs,
)
from repro.experiments.runner import _validated_kwargs
from repro.experiments.scalability import run_scalability
from repro.telemetry import use_registry


def deterministic_runs(stats):
    """The per-run fields that must not depend on the execution mode."""
    return [(r.cost, r.rounds, r.ndcg, r.precision) for r in stats.runs]


def deterministic_aggregates(stats):
    return (
        stats.method, stats.n_runs, stats.mean_cost, stats.std_cost,
        stats.mean_rounds, stats.std_rounds, stats.mean_ndcg,
        stats.std_ndcg, stats.mean_precision,
    )


def comparable_counters(registry):
    """All counters except the execution engines' own bookkeeping.

    Which engine ran (pool workers or plain serial) is allowed to
    differ between the legs under comparison, so the process pool's own
    instrumentation is excluded from parity.
    """
    return {
        (c.name, c.labels): c.value
        for c in registry._counters.values()
        if not c.name.startswith("experiment_parallel")
    }


CELLS = (
    ExperimentParams(dataset="jester", n_items=12, k=3, n_runs=3, seed=5),
    ExperimentParams(dataset="jester", n_items=14, k=2, n_runs=2, seed=11),
)
METHODS = ["spr", "heapsort"]


class TestJobResolution:
    def test_default_is_serial(self):
        assert resolve_jobs(None) == 1
        assert resolve_jobs(1) == 1

    def test_zero_means_cpu_count(self):
        assert resolve_jobs(0) == (os.cpu_count() or 1)

    def test_negative_and_bool_rejected(self):
        with pytest.raises(ConfigError):
            resolve_jobs(-1)
        with pytest.raises(ConfigError):
            resolve_jobs(True)

    def test_use_jobs_scopes_and_restores(self):
        before = get_default_jobs()
        with use_jobs(3):
            assert get_default_jobs() == 3
            assert resolve_jobs(None) == 3
            assert resolve_jobs(2) == 2  # explicit wins over ambient
        assert get_default_jobs() == before

    def test_set_default_jobs_returns_previous(self):
        previous = set_default_jobs(2)
        try:
            assert get_default_jobs() == 2
        finally:
            set_default_jobs(previous)


class TestDeterminismRegression:
    """Serial vs pooled execution of a small (methods × cells) sweep."""

    @pytest.fixture(scope="class")
    def executions(self):
        with use_registry() as serial_registry:
            serial = [run_methods(METHODS, cell) for cell in CELLS]
        with use_registry() as parallel_registry:
            parallel = [
                run_methods(METHODS, cell, n_jobs=4) for cell in CELLS
            ]
        return serial, parallel, serial_registry, parallel_registry

    def test_run_records_identical(self, executions):
        serial, parallel, _, _ = executions
        for cell_serial, cell_parallel in zip(serial, parallel):
            for method in METHODS:
                assert deterministic_runs(cell_serial[method]) == (
                    deterministic_runs(cell_parallel[method])
                )

    def test_method_stats_aggregates_identical(self, executions):
        serial, parallel, _, _ = executions
        for cell_serial, cell_parallel in zip(serial, parallel):
            for method in METHODS:
                assert deterministic_aggregates(cell_serial[method]) == (
                    deterministic_aggregates(cell_parallel[method])
                )

    def test_merged_counters_match_serial_registry(self, executions):
        _, _, serial_registry, parallel_registry = executions
        assert comparable_counters(serial_registry) == (
            comparable_counters(parallel_registry)
        )

    def test_microtask_counter_reconciles_with_summed_ledgers(self, executions):
        serial, _, _, parallel_registry = executions
        total_cost = sum(
            record.cost
            for cell in serial
            for stats in cell.values()
            for record in stats.runs
        )
        assert (
            parallel_registry.counter_value("crowd_microtasks_total")
            == total_cost
        )

    def test_merged_spans_match_serial_structure(self, executions):
        _, _, serial_registry, parallel_registry = executions
        serial_spans = [
            (s.name, s.parent, s.depth, s.cost, s.rounds)
            for s in serial_registry.spans
        ]
        parallel_spans = [
            (s.name, s.parent, s.depth, s.cost, s.rounds)
            for s in parallel_registry.spans
        ]
        assert serial_spans == parallel_spans

    def test_merged_histograms_match_below_reservoir(self, executions):
        _, _, serial_registry, parallel_registry = executions
        for key, serial_hist in serial_registry._histograms.items():
            if "seconds" in serial_hist.name:
                continue  # wall time legitimately differs
            parallel_hist = parallel_registry._histograms[key]
            assert parallel_hist.count == serial_hist.count, serial_hist.name
            assert sorted(parallel_hist._values) == sorted(
                serial_hist._values
            ), serial_hist.name


class TestEntryPoints:
    def test_run_method_jobs_matches_serial(self):
        params = CELLS[0]
        serial = run_method("heapsort", params)
        pooled = run_method("heapsort", params, n_jobs=2)
        assert deterministic_runs(serial) == deterministic_runs(pooled)
        assert deterministic_aggregates(serial) == deterministic_aggregates(pooled)

    def test_run_method_kwargs_cross_the_process_boundary(self):
        params = CELLS[0]
        serial = run_method("spr", params, spr_config=params.spr_config())
        pooled = run_method(
            "spr", params, n_jobs=2, spr_config=params.spr_config()
        )
        assert deterministic_runs(serial) == deterministic_runs(pooled)

    def test_ambient_jobs_routes_through_engine(self):
        params = CELLS[0]
        serial = run_method("heapsort", params)
        with use_registry() as registry, use_jobs(2):
            ambient = run_method("heapsort", params)
        assert deterministic_runs(serial) == deterministic_runs(ambient)
        assert registry.counter_value("experiment_parallel_tasks_total") == (
            params.n_runs
        )

    def test_unknown_method_raises_before_spawning(self):
        from repro.errors import AlgorithmError

        with pytest.raises(AlgorithmError):
            run_method("nope", CELLS[0], n_jobs=2)

    def test_run_specs_empty(self):
        assert run_specs([], n_jobs=2) == []

    def test_run_specs_infimum(self):
        params = CELLS[1]
        from repro.experiments import run_infimum

        serial = run_infimum(params)
        pooled = run_infimum(params, n_jobs=2)
        assert deterministic_runs(serial) == deterministic_runs(pooled)

    def test_run_specs_grid_order_is_spec_major(self):
        params = CELLS[0]
        specs = [
            RunSpec(
                kind="algorithm", method=m, params=params,
                method_kwargs=_validated_kwargs(m, params, {}),
            )
            for m in METHODS
        ]
        pooled = run_specs(specs, n_jobs=2)
        serial = [run_method(m, params) for m in METHODS]
        for s, p in zip(serial, pooled):
            assert s.method == p.method
            assert deterministic_runs(s) == deterministic_runs(p)


class TestSweepParallel:
    def test_scalability_sweep_identical(self):
        params = ExperimentParams(
            dataset="jester", n_items=10, k=3, n_runs=2, seed=3
        )
        kwargs = dict(
            vary="k", params=params, values=(2, 3), methods=("heapsort",),
            include_infimum=True,
        )
        serial_tmc, serial_lat = run_scalability(**kwargs)
        pooled_tmc, pooled_lat = run_scalability(**kwargs, n_jobs=3)
        assert serial_tmc.to_text() == pooled_tmc.to_text()
        assert serial_lat.to_text() == pooled_lat.to_text()
