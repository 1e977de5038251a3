"""Process-pool run scheduler for the experiment harness.

Every figure and table of the paper averages *independent* repeated runs
(100 per cell in §6): all randomness is pre-spawned per run from the
cell's seed, so the runs form an embarrassingly parallel workload.  This
module fans (method × parameter-cell × run) work units out over a
:class:`~concurrent.futures.ProcessPoolExecutor` while keeping results
**bit-for-bit identical** to the serial loop in
:mod:`repro.experiments.runner`:

* each work unit ships the *exact* pre-spawned ``subset``/``session``
  generators the serial loop would have used (NumPy generators pickle
  their full bit-generator state), so every draw sequence is unchanged;
* each worker executes its run under a private fresh
  :class:`~repro.telemetry.MetricsRegistry`; the parent merges the worker
  registries into the ambient registry **in task order** (the serial
  execution order), so counters, histograms and span lists reconcile with
  the summed cost ledgers exactly as in a serial run;
* aggregation (:class:`~repro.experiments.runner.MethodStats`) happens in
  the parent from the returned records, in run order.

``n_jobs`` semantics everywhere in the harness: ``1`` = today's serial
path (the default), ``0`` = one worker per CPU, ``None`` = the ambient
default installed by :func:`use_jobs` / :func:`set_default_jobs` (how the
benchmark suite routes every figure through the pool without touching
each benchmark).  Only wall-clock fields (``wall_seconds``, span
``seconds``) differ between serial and parallel runs.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from ..datasets import load_dataset
from ..errors import ConfigError
from ..rng import make_rng, spawn_many
from ..telemetry import MetricsRegistry, get_registry, use_registry
from .params import ExperimentParams
from .runner import MethodStats, RunRecord, _make_execute, _single_run

__all__ = [
    "RunSpec",
    "RunTask",
    "run_specs",
    "resolve_jobs",
    "get_default_jobs",
    "set_default_jobs",
    "use_jobs",
]

logger = logging.getLogger(__name__)

#: Ambient job count used when an entry point is called with
#: ``n_jobs=None``.  ``1`` keeps every path serial unless opted in.
_default_jobs: int = 1


def get_default_jobs() -> int:
    """The ambient ``n_jobs`` used when callers pass ``None``."""
    return _default_jobs


def set_default_jobs(n_jobs: int) -> int:
    """Install a new ambient ``n_jobs``; returns the previous one."""
    global _default_jobs
    previous = _default_jobs
    _default_jobs = _validate_jobs(n_jobs)
    return previous


@contextmanager
def use_jobs(n_jobs: int) -> Iterator[int]:
    """Scope an ambient ``n_jobs`` to a ``with`` block (restored after)."""
    previous = set_default_jobs(n_jobs)
    try:
        yield _default_jobs
    finally:
        set_default_jobs(previous)


def _validate_jobs(n_jobs: int) -> int:
    if not isinstance(n_jobs, int) or isinstance(n_jobs, bool) or n_jobs < 0:
        raise ConfigError(f"n_jobs must be a non-negative int, got {n_jobs!r}")
    return n_jobs


def resolve_jobs(n_jobs: int | None = None) -> int:
    """Resolve an ``n_jobs`` argument to a concrete worker count.

    ``None`` reads the ambient default (see :func:`use_jobs`); ``0`` means
    one worker per available CPU; any other value passes through.
    """
    if n_jobs is None:
        n_jobs = _default_jobs
    n_jobs = _validate_jobs(n_jobs)
    if n_jobs == 0:
        return os.cpu_count() or 1
    return n_jobs


@dataclass(frozen=True)
class RunSpec:
    """Declarative description of one (method × parameter-cell) execution.

    Everything a worker needs to rebuild the serial loop's ``execute``
    closure on its side of the process boundary: ``kind`` selects the
    algorithm table or the Lemma-1 infimum, ``method_kwargs`` carry
    algorithm overrides (already validated/augmented by the caller).
    """

    kind: str  # "algorithm" | "infimum"
    method: str
    params: ExperimentParams
    method_kwargs: dict = field(default_factory=dict)


@dataclass(frozen=True)
class RunTask:
    """One work unit: a spec, a run index, and that run's RNG streams."""

    spec_index: int
    run: int
    spec: RunSpec
    subset_rng: np.random.Generator
    session_rng: np.random.Generator


def _build_tasks(specs: list[RunSpec]) -> list[RunTask]:
    """Expand specs into tasks with exactly the serial loop's seed streams."""
    tasks: list[RunTask] = []
    for spec_index, spec in enumerate(specs):
        root = make_rng(spec.params.seed)
        subset_rngs = spawn_many(root, spec.params.n_runs)
        session_rngs = spawn_many(root, spec.params.n_runs)
        for run in range(spec.params.n_runs):
            tasks.append(
                RunTask(
                    spec_index=spec_index,
                    run=run,
                    spec=spec,
                    subset_rng=subset_rngs[run],
                    session_rng=session_rngs[run],
                )
            )
    return tasks


def _run_task(task: RunTask) -> tuple[RunRecord, MetricsRegistry]:
    """Execute one run under a private registry (pool worker entry point)."""
    spec = task.spec
    dataset = load_dataset(spec.params.dataset, seed=spec.params.dataset_seed)
    execute = _make_execute(spec.kind, spec.method, spec.params, spec.method_kwargs)
    with use_registry(MetricsRegistry()) as registry:
        record = _single_run(
            dataset, spec.params, execute, spec.method,
            task.run, task.subset_rng, task.session_rng,
        )
    return record, registry


def _pool_context():
    """Prefer fork where available: workers inherit the dataset cache."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return None


def run_specs(
    specs: list[RunSpec],
    n_jobs: int | None = None,
) -> list[MethodStats]:
    """Execute every spec's runs, serially or over a process pool.

    Returns one :class:`MethodStats` per spec, in order.  Worker telemetry
    is merged into the ambient registry in task order *before* returning,
    so a snapshot taken afterwards reconciles with the summed cost ledgers
    exactly like a serial run's would.
    """
    if not specs:
        return []
    jobs = resolve_jobs(n_jobs)
    tasks = _build_tasks(specs)

    if jobs == 1:
        # Serial fallback: same work units, ambient registry, no merge.
        results = [_run_task_serial(task) for task in tasks]
    else:
        # Warm the parent's dataset cache so forked workers inherit the
        # (immutable) datasets instead of regenerating them per process.
        for spec in specs:
            load_dataset(spec.params.dataset, seed=spec.params.dataset_seed)
        workers = min(jobs, len(tasks))
        telemetry = get_registry()
        telemetry.counter("experiment_parallel_batches_total").inc()
        telemetry.gauge("experiment_parallel_workers").set(workers)
        logger.info(
            "parallel engine: %d tasks (%d specs) on %d workers",
            len(tasks), len(specs), workers,
        )
        chunksize = max(1, len(tasks) // (workers * 4))
        with ProcessPoolExecutor(
            max_workers=workers, mp_context=_pool_context()
        ) as pool:
            outcomes = list(pool.map(_run_task, tasks, chunksize=chunksize))
        results = []
        for task, (record, registry) in zip(tasks, outcomes):
            telemetry.merge(registry)
            telemetry.counter("experiment_parallel_tasks_total").inc()
            results.append(record)

    grouped: dict[int, list[RunRecord]] = {}
    for task, record in zip(tasks, results):
        grouped.setdefault(task.spec_index, []).append(record)
    return [
        MethodStats.from_runs(spec.method, grouped[spec_index])
        for spec_index, spec in enumerate(specs)
    ]


def _run_task_serial(task: RunTask) -> RunRecord:
    """Run one task in-process under the ambient registry (serial path)."""
    spec = task.spec
    dataset = load_dataset(spec.params.dataset, seed=spec.params.dataset_seed)
    execute = _make_execute(spec.kind, spec.method, spec.params, spec.method_kwargs)
    return _single_run(
        dataset, spec.params, execute, spec.method,
        task.run, task.subset_rng, task.session_rng,
    )
