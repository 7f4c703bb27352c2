"""Observability: metrics registry, request tracing, structured logs.

Stdlib-only and determinism-neutral by contract — nothing in this
package touches any RNG, and none of its types may be stored in fitted
state or checkpoints (enforced by the ``obs-no-state-leak`` lint rule
plus the instrumentation-parity test suites).  See ENGINE.md §9.
"""

from .log import JsonLineFormatter, attach_stderr_handler, get_logger, log_event
from .metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    parse_prometheus_text,
)
from .session import COMPUTE_PHASES, ENGINE_PHASES, EngineObserver
from .trace import Span, current_span, make_request_id, normalize_request_id, request_span

__all__ = [
    "COMPUTE_PHASES",
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "ENGINE_PHASES",
    "EngineObserver",
    "Gauge",
    "Histogram",
    "JsonLineFormatter",
    "MetricsRegistry",
    "Span",
    "attach_stderr_handler",
    "current_span",
    "get_logger",
    "log_event",
    "make_request_id",
    "normalize_request_id",
    "parse_prometheus_text",
    "request_span",
]
