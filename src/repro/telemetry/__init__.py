"""Process-wide, injectable observability for the crowd simulator.

The evaluation of a crowdsourced ranker is an accounting problem: every
design decision shows up as microtasks bought, latency rounds charged, or
phase time spent.  This package provides the instruments:

* :class:`MetricsRegistry` with :class:`Counter` / :class:`Gauge` /
  :class:`Histogram` families and a nested :meth:`~MetricsRegistry.span`
  API that attributes crowd spending to timed regions.
* Sinks: :class:`JsonlSink` (machine-readable events + snapshots),
  ``registry.expose_text()`` (Prometheus text format) and
  ``registry.summary_table()`` (human digest).
* Live serving: :class:`ObservatoryServer` exposes ``/metrics``,
  ``/healthz``, ``/queries`` and ``/events`` over HTTP from a daemon
  thread; :class:`FlightRecorder` keeps a bounded ring of structured
  events and dumps it to JSON on crashes or on demand.
* A process-wide default registry with injection points: hot paths call
  :func:`get_registry` at use time, so :func:`use_registry` can scope a
  fresh registry to one query, benchmark, or test without plumbing a
  handle through every call signature.  ``CrowdSession`` additionally
  accepts an explicit per-session registry for full isolation.

Metric naming follows Prometheus conventions (``snake_case``, ``_total``
suffix on counters); ``docs/observability.md`` catalogues every name the
library emits.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from .recorder import FlightRecorder
from .registry import Counter, Gauge, Histogram, MetricsRegistry, Span
from .server import ObservatoryServer, QueryBoard, get_query_board, parse_address
from .sinks import JsonlSink, read_jsonl

__all__ = [
    "Counter",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "JsonlSink",
    "MetricsRegistry",
    "ObservatoryServer",
    "QueryBoard",
    "Span",
    "get_query_board",
    "get_registry",
    "parse_address",
    "read_jsonl",
    "set_registry",
    "use_registry",
]

#: The process-wide default registry; never None.
_registry: MetricsRegistry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The currently installed registry."""
    return _registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Install ``registry`` process-wide; returns the previous one."""
    global _registry
    previous = _registry
    _registry = registry
    return previous


@contextmanager
def use_registry(registry: MetricsRegistry | None = None) -> Iterator[MetricsRegistry]:
    """Scope a (fresh by default) registry to a ``with`` block.

    Instrumented code that resolves the registry at call time — all of
    ``repro``'s built-in instrumentation — lands in ``registry`` for the
    duration of the block; the previous registry is restored afterwards.
    """
    registry = registry if registry is not None else MetricsRegistry()
    previous = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)
