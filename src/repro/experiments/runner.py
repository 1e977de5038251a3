"""Multi-run experiment execution with seed management.

``run_method`` executes one algorithm on one parameter cell ``n_runs``
times — fresh session and (for cardinality sweeps) a fresh random item
subset per run — and aggregates cost, latency and quality.  All randomness
flows from the cell's seed, so every number in EXPERIMENTS.md is
regenerable bit-for-bit.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np

from ..algorithms import ALGORITHMS, infimum_estimate
from ..algorithms.base import TopKOutcome
from ..datasets import load_dataset
from ..errors import AlgorithmError
from ..metrics import ndcg_at_k, top_k_precision
from ..rng import make_rng, spawn_many
from ..telemetry import get_registry
from .params import ExperimentParams

logger = logging.getLogger(__name__)

__all__ = ["RunRecord", "MethodStats", "run_method", "run_methods", "run_infimum"]


@dataclass(frozen=True)
class RunRecord:
    """One run's measurements."""

    method: str
    cost: int
    rounds: int
    ndcg: float
    precision: float
    wall_seconds: float
    extras: dict


@dataclass(frozen=True)
class MethodStats:
    """Aggregates of one method on one parameter cell."""

    method: str
    n_runs: int
    mean_cost: float
    std_cost: float
    mean_rounds: float
    std_rounds: float
    mean_ndcg: float
    std_ndcg: float
    mean_precision: float
    runs: tuple[RunRecord, ...]

    @classmethod
    def from_runs(cls, method: str, runs: list[RunRecord]) -> "MethodStats":
        if not runs:
            raise AlgorithmError("cannot aggregate zero runs")
        costs = np.asarray([r.cost for r in runs], dtype=np.float64)
        rounds = np.asarray([r.rounds for r in runs], dtype=np.float64)
        ndcgs = np.asarray([r.ndcg for r in runs], dtype=np.float64)
        precisions = np.asarray([r.precision for r in runs], dtype=np.float64)
        return cls(
            method=method,
            n_runs=len(runs),
            mean_cost=float(costs.mean()),
            std_cost=float(costs.std(ddof=1)) if len(runs) > 1 else 0.0,
            mean_rounds=float(rounds.mean()),
            std_rounds=float(rounds.std(ddof=1)) if len(runs) > 1 else 0.0,
            mean_ndcg=float(ndcgs.mean()),
            std_ndcg=float(ndcgs.std(ddof=1)) if len(runs) > 1 else 0.0,
            mean_precision=float(precisions.mean()),
            runs=tuple(runs),
        )


def _make_execute(kind: str, method: str, params: ExperimentParams, method_kwargs: dict):
    """Build the per-run ``(session, working, rng) -> TopKOutcome`` callable.

    Shared by the serial loop below and by the pool workers of
    :mod:`repro.experiments.parallel`, which rebuild it from a declarative
    :class:`~repro.experiments.parallel.RunSpec` on the worker side (a
    closure cannot cross a process boundary, a spec can).
    """
    if kind == "infimum":

        def execute(session, working, _rng) -> TopKOutcome:
            return infimum_estimate(session, working, params.k)

    else:
        algorithm = ALGORITHMS[method]

        def execute(session, working, _rng) -> TopKOutcome:
            return algorithm(session, working.ids.tolist(), params.k, **method_kwargs)

    return execute


def _single_run(
    dataset,
    params: ExperimentParams,
    execute,  # (session, working ItemSet, run rng) -> TopKOutcome
    method_name: str,
    run: int,
    subset_rng: np.random.Generator,
    session_rng: np.random.Generator,
) -> RunRecord:
    """One seeded run: subset, session, execution, metric collection.

    This is the unit of work the parallel engine ships to pool workers;
    the serial loop calls it with the very same RNG streams, which is what
    keeps the two paths bit-for-bit identical.
    """
    telemetry = get_registry()
    working = dataset.sample_items(params.n_items, subset_rng)
    session = dataset.session(params.comparison_config(), seed=session_rng)
    started = time.perf_counter()
    with telemetry.span(
        "experiment.run",
        session=session,
        method=method_name,
        dataset=params.dataset,
        run=run,
    ):
        outcome = execute(session, working, session_rng)
    elapsed = time.perf_counter() - started
    telemetry.counter("experiment_runs_total", method=method_name).inc()
    telemetry.histogram(
        "experiment_run_wall_seconds", method=method_name
    ).observe(elapsed)
    telemetry.histogram(
        "experiment_run_cost", method=method_name
    ).observe(outcome.cost)
    logger.debug(
        "run %d/%d of %s on %s: %d microtasks, %d rounds, %.3fs",
        run + 1, params.n_runs, method_name, params.dataset,
        outcome.cost, outcome.rounds, elapsed,
    )
    return RunRecord(
        method=method_name,
        cost=outcome.cost,
        rounds=outcome.rounds,
        ndcg=ndcg_at_k(working, outcome.topk, params.k),
        precision=top_k_precision(working, outcome.topk, params.k),
        wall_seconds=elapsed,
        extras=outcome.extras,
    )


def _execute_runs(
    params: ExperimentParams,
    execute,
    method_name: str,
) -> MethodStats:
    """Serial run loop: seeds, subsets, sessions, metric collection."""
    dataset = load_dataset(params.dataset, seed=params.dataset_seed)
    root = make_rng(params.seed)
    subset_rngs = spawn_many(root, params.n_runs)
    session_rngs = spawn_many(root, params.n_runs)
    runs = [
        _single_run(
            dataset, params, execute, method_name,
            run, subset_rngs[run], session_rngs[run],
        )
        for run in range(params.n_runs)
    ]
    return MethodStats.from_runs(method_name, runs)


def _validated_kwargs(
    method: str, params: ExperimentParams, method_kwargs: dict
) -> dict:
    """Validate ``method`` and inject the cell's SPR config when needed."""
    if method not in ALGORITHMS:
        known = ", ".join(sorted(ALGORITHMS))
        raise AlgorithmError(f"unknown method {method!r}; known: {known}")
    if method == "spr" and "spr_config" not in method_kwargs:
        method_kwargs = {**method_kwargs, "spr_config": params.spr_config()}
    return method_kwargs


def run_method(
    method: str,
    params: ExperimentParams,
    *,
    n_jobs: int | None = None,
    **method_kwargs: object,
) -> MethodStats:
    """Run one registered algorithm over ``params.n_runs`` fresh runs.

    ``method_kwargs`` are forwarded to the algorithm (e.g. ``budget=`` for
    the budget-matched baselines, ``spr_config=`` overrides).  ``n_jobs``
    fans the runs out over a process pool (``1`` = serial, ``0`` = one
    worker per CPU, ``None`` = the ambient default — see
    :func:`repro.experiments.parallel.use_jobs`).  Results are bit-for-bit
    identical either way.
    """
    method_kwargs = _validated_kwargs(method, params, dict(method_kwargs))
    from .parallel import resolve_jobs, run_specs, RunSpec

    if resolve_jobs(n_jobs) == 1:
        execute = _make_execute("algorithm", method, params, method_kwargs)
        return _execute_runs(params, execute, method)
    spec = RunSpec(
        kind="algorithm", method=method, params=params,
        method_kwargs=method_kwargs,
    )
    return run_specs([spec], n_jobs=n_jobs)[0]


def run_methods(
    methods: list[str],
    params: ExperimentParams,
    *,
    n_jobs: int | None = None,
) -> dict[str, MethodStats]:
    """Run several methods on the same cell (independent seed streams).

    With ``n_jobs != 1`` every (method × run) work unit goes through one
    shared process pool, so slow methods overlap with fast ones.
    """
    from .parallel import resolve_jobs, run_specs, RunSpec

    if resolve_jobs(n_jobs) == 1:
        return {method: run_method(method, params) for method in methods}
    specs = [
        RunSpec(
            kind="algorithm", method=method, params=params,
            method_kwargs=_validated_kwargs(method, params, {}),
        )
        for method in methods
    ]
    stats = run_specs(specs, n_jobs=n_jobs)
    return dict(zip(methods, stats))


def run_infimum(
    params: ExperimentParams,
    *,
    n_jobs: int | None = None,
) -> MethodStats:
    """Measure the Lemma-1 infimum on a parameter cell (same run regime)."""
    from .parallel import resolve_jobs, run_specs, RunSpec

    if resolve_jobs(n_jobs) == 1:
        execute = _make_execute("infimum", "infimum", params, {})
        return _execute_runs(params, execute, "infimum")
    spec = RunSpec(kind="infimum", method="infimum", params=params, method_kwargs={})
    return run_specs([spec], n_jobs=n_jobs)[0]
