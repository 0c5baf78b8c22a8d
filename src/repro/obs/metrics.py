"""Counters and histograms for the quantities the paper reasons about.

A :class:`MetricsRegistry` holds two deterministic stores:

* **counters** — monotonically increasing integers (``count()``):
  wait-stall cycles, run-time LBD/LFD pair counts, cache hits, fast-path
  vs event-walk dispatch, ...
* **histograms** — value → occurrence maps (``observe()``): Wait→Send
  spans ``i − j``, per-pair stall totals, ready-list lengths, ...

Both stores are plain integer maps, so merging registries (e.g. from
:class:`~repro.perf.parallel.ParallelEvaluator` workers) is commutative
and associative: aggregates are **identical regardless of how the work
was partitioned** — the same discipline as the profile merge of PR 1.

Metric names are dotted.  The first component is the namespace; the
:data:`DETERMINISTIC_NAMESPACES` (``sim``, ``sched``) hold quantities
recorded once per loop evaluation, which are therefore identical across
``--jobs 1`` and ``--jobs 4`` runs.  Other namespaces (``cache``,
``parallel``, ``sched_pass``) describe *how* the run executed — cache
warmth and worker partitioning legitimately change them.  Use
:meth:`MetricsRegistry.deterministic_subset` to compare runs.

The ``robust.*`` namespace (see :mod:`repro.robust` and
``docs/robustness.md``) is likewise **non-deterministic by design**: it
counts injected faults taking effect (``robust.faults.*``), diagnosed
deadlocks (``robust.deadlock.detected``), degraded-mode recoveries in
the parallel evaluator (``robust.parallel.timeouts`` / ``retries`` /
``broken_pool`` / ``serial_reruns``), quarantined work
(``robust.quarantine.loops`` / ``jobs``) and discarded on-disk caches
(``robust.cache.corrupt``) — all functions of the fault plan, the host,
and timing, not of the workload alone.

Two further stores serve the service telemetry layer (PR 8) — they keep
the same commutative-merge discipline, but hold operational quantities:

* **distributions** — fixed-bucket :class:`Histogram`\\ s (``record_value()``)
  for continuous measurements: request latency in seconds, coalesced
  group size.  Bucket counts are plain integers, so merging is
  exact; the p50/p95/p99 estimators interpolate within a bucket.
* **gauges** — :class:`Gauge` point-in-time values (``set_gauge()``):
  queue depth, in-flight requests.  Merging keeps the maximum (the only
  commutative, associative choice without timestamps) plus min/max/
  update counts.

The module-level :func:`count` / :func:`observe` / :func:`record_value`
/ :func:`set_gauge` helpers write to the registry installed with
:func:`enable_metrics` **and** to the context-local registry installed
with :func:`metrics_scope` (a :mod:`contextvars` scope, so concurrent
service handler threads each collect into their own registry without
sharing one global).  The disabled path costs two module-global reads.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

__all__ = [
    "DEFAULT_LATENCY_BOUNDS",
    "DETERMINISTIC_NAMESPACES",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "active_metrics",
    "context_metrics",
    "count",
    "disable_metrics",
    "enable_metrics",
    "metrics_scope",
    "observe",
    "percentile",
    "record_value",
    "set_gauge",
]

# Namespaces whose metrics depend only on (corpus, machine, options) —
# never on caching, worker count or partitioning.
DETERMINISTIC_NAMESPACES = ("sim", "sched")

#: Default bucket upper bounds (seconds) for :class:`Histogram`: a
#: 1-2.5-5 decade ladder from 1 ms to 30 s, sized for request latencies.
DEFAULT_LATENCY_BOUNDS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)


def percentile(values: Iterable[float], q: float) -> float:
    """Nearest-rank percentile of raw samples.

    The shared client-side convention (``repro loadtest`` and friends):
    sort, take index ``floor(q * len)`` clamped to the last sample.
    For bucketed server-side estimates use :meth:`Histogram.percentile`.
    """
    ordered = sorted(values)
    if not ordered:
        return 0.0
    index = min(len(ordered) - 1, int(q * len(ordered)))
    return ordered[index]


class Histogram:
    """A fixed-bucket distribution with quantile estimation.

    ``bounds`` are inclusive bucket upper bounds (Prometheus ``le``
    semantics); one overflow bucket catches everything above the last
    bound.  All merge state is integer bucket counts plus exact min/max,
    so :meth:`merge` is commutative and associative like the counter
    stores (the float ``sum`` is the one field subject to float
    association error).  :meth:`percentile` interpolates linearly within
    the bucket holding the target rank and clamps to the observed
    min/max, so p50/p95/p99 are deterministic functions of the merged
    counts.
    """

    __slots__ = ("bounds", "bucket_counts", "total", "value_sum", "minimum", "maximum")

    def __init__(self, bounds: Iterable[float] = DEFAULT_LATENCY_BOUNDS) -> None:
        cleaned = tuple(sorted({float(bound) for bound in bounds}))
        if not cleaned:
            raise ValueError("Histogram needs at least one bucket bound")
        self.bounds = cleaned
        self.bucket_counts = [0] * (len(cleaned) + 1)  # +1: overflow
        self.total = 0
        self.value_sum = 0.0
        self.minimum: float | None = None
        self.maximum: float | None = None

    def record(self, value: float) -> None:
        value = float(value)
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.total += 1
        self.value_sum += value
        self.minimum = value if self.minimum is None else min(self.minimum, value)
        self.maximum = value if self.maximum is None else max(self.maximum, value)

    def merge(self, other: "Histogram") -> None:
        if self.bounds != other.bounds:
            raise ValueError(
                f"cannot merge histograms with different bounds: "
                f"{self.bounds} vs {other.bounds}"
            )
        for index, occurrences in enumerate(other.bucket_counts):
            self.bucket_counts[index] += occurrences
        self.total += other.total
        self.value_sum += other.value_sum
        for attr in ("minimum", "maximum"):
            mine, theirs = getattr(self, attr), getattr(other, attr)
            if theirs is not None:
                pick = min if attr == "minimum" else max
                setattr(self, attr, theirs if mine is None else pick(mine, theirs))

    def percentile(self, q: float) -> float:
        """Estimated ``q``-quantile (``q`` in [0, 1]); 0.0 when empty."""
        if self.total == 0:
            return 0.0
        target = min(max(q, 0.0), 1.0) * self.total
        cumulative = 0
        previous = 0.0
        for bound, occurrences in zip(self.bounds, self.bucket_counts):
            if occurrences and cumulative + occurrences >= target:
                fraction = (target - cumulative) / occurrences
                return self._clamp(previous + (bound - previous) * fraction)
            cumulative += occurrences
            previous = bound
        # Overflow bucket: the exact maximum is the only honest bound.
        return self._clamp(self.maximum if self.maximum is not None else previous)

    def _clamp(self, estimate: float) -> float:
        if self.minimum is not None:
            estimate = max(estimate, self.minimum)
        if self.maximum is not None:
            estimate = min(estimate, self.maximum)
        return estimate

    def summary(self) -> dict[str, Any]:
        buckets = {
            repr(bound): occurrences
            for bound, occurrences in zip(self.bounds, self.bucket_counts)
        }
        buckets["+Inf"] = self.bucket_counts[-1]
        return {
            "count": self.total,
            "sum": round(self.value_sum, 9),
            "min": self.minimum,
            "max": self.maximum,
            "mean": round(self.value_sum / self.total, 9) if self.total else 0.0,
            "p50": round(self.percentile(0.50), 9),
            "p95": round(self.percentile(0.95), 9),
            "p99": round(self.percentile(0.99), 9),
            "buckets": buckets,
        }

    def copy(self) -> "Histogram":
        twin = Histogram(self.bounds)
        twin.merge(self)
        return twin

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Histogram):
            return NotImplemented
        return (
            self.bounds == other.bounds
            and self.bucket_counts == other.bucket_counts
            and self.total == other.total
            and self.value_sum == other.value_sum
            and self.minimum == other.minimum
            and self.maximum == other.maximum
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram(count={self.total}, sum={self.value_sum:.6f})"


class Gauge:
    """A point-in-time value (queue depth, in-flight requests).

    :meth:`merge` keeps the **maximum** of the two current values — the
    only commutative, associative combination available without
    timestamps — and folds min/max/update counts exactly, so merged
    snapshots stay order-independent like every other store here.
    """

    __slots__ = ("value", "minimum", "maximum", "updates")

    def __init__(self) -> None:
        self.value: float = 0
        self.minimum: float | None = None
        self.maximum: float | None = None
        self.updates = 0

    def set(self, value: float) -> None:
        self.value = value
        self.updates += 1
        self.minimum = value if self.minimum is None else min(self.minimum, value)
        self.maximum = value if self.maximum is None else max(self.maximum, value)

    def merge(self, other: "Gauge") -> None:
        if other.updates == 0:
            return
        self.value = other.value if self.updates == 0 else max(self.value, other.value)
        self.updates += other.updates
        for attr in ("minimum", "maximum"):
            mine, theirs = getattr(self, attr), getattr(other, attr)
            if theirs is not None:
                pick = min if attr == "minimum" else max
                setattr(self, attr, theirs if mine is None else pick(mine, theirs))

    def summary(self) -> dict[str, Any]:
        return {
            "value": self.value,
            "min": self.minimum,
            "max": self.maximum,
            "updates": self.updates,
        }

    def copy(self) -> "Gauge":
        twin = Gauge()
        twin.merge(self)
        return twin

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Gauge):
            return NotImplemented
        return (
            self.value == other.value
            and self.minimum == other.minimum
            and self.maximum == other.maximum
            and self.updates == other.updates
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge(value={self.value}, updates={self.updates})"


@dataclass
class MetricsRegistry:
    """Deterministically mergeable counters and histograms."""

    counters: dict[str, int] = field(default_factory=dict)
    histograms: dict[str, dict[int, int]] = field(default_factory=dict)
    distributions: dict[str, Histogram] = field(default_factory=dict)
    gauges: dict[str, Gauge] = field(default_factory=dict)

    # -- recording -----------------------------------------------------------

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def observe(self, name: str, value: int) -> None:
        bucket = self.histograms.setdefault(name, {})
        bucket[value] = bucket.get(value, 0) + 1

    def record_value(
        self, name: str, value: float, bounds: Iterable[float] | None = None
    ) -> None:
        """Record one sample into the named fixed-bucket distribution.

        ``bounds`` only takes effect when the distribution is created by
        this call (default: :data:`DEFAULT_LATENCY_BOUNDS`).
        """
        histogram = self.distributions.get(name)
        if histogram is None:
            histogram = self.distributions[name] = Histogram(
                bounds if bounds is not None else DEFAULT_LATENCY_BOUNDS
            )
        histogram.record(value)

    def set_gauge(self, name: str, value: float) -> None:
        gauge = self.gauges.get(name)
        if gauge is None:
            gauge = self.gauges[name] = Gauge()
        gauge.set(value)

    # -- aggregation ---------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry's totals in (commutative)."""
        for name, amount in other.counters.items():
            self.counters[name] = self.counters.get(name, 0) + amount
        for name, buckets in other.histograms.items():
            mine = self.histograms.setdefault(name, {})
            for value, occurrences in buckets.items():
                mine[value] = mine.get(value, 0) + occurrences
        for name, histogram in other.distributions.items():
            mine_h = self.distributions.get(name)
            if mine_h is None:
                self.distributions[name] = histogram.copy()
            else:
                mine_h.merge(histogram)
        for name, gauge in other.gauges.items():
            mine_g = self.gauges.get(name)
            if mine_g is None:
                self.gauges[name] = gauge.copy()
            else:
                mine_g.merge(gauge)

    def deterministic_subset(self) -> "MetricsRegistry":
        """Only the metrics guaranteed identical across execution
        strategies (see :data:`DETERMINISTIC_NAMESPACES`)."""

        def keep(name: str) -> bool:
            return name.split(".", 1)[0] in DETERMINISTIC_NAMESPACES

        return MetricsRegistry(
            counters={k: v for k, v in self.counters.items() if keep(k)},
            histograms={
                k: dict(v) for k, v in self.histograms.items() if keep(k)
            },
            distributions={
                k: v.copy() for k, v in self.distributions.items() if keep(k)
            },
            gauges={k: v.copy() for k, v in self.gauges.items() if keep(k)},
        )

    # -- export --------------------------------------------------------------

    def histogram_summary(self, name: str) -> dict[str, Any]:
        buckets = self.histograms[name]
        total = sum(buckets.values())
        weighted = sum(value * occurrences for value, occurrences in buckets.items())
        return {
            "count": total,
            "sum": weighted,
            "min": min(buckets),
            "max": max(buckets),
            "mean": round(weighted / total, 4) if total else 0.0,
            "buckets": {str(value): buckets[value] for value in sorted(buckets)},
        }

    def as_dict(self) -> dict[str, Any]:
        """Snapshot with stable key order, ready for JSON export.

        The ``distributions``/``gauges`` keys appear **only when
        non-empty**: one-shot pipeline snapshots (report records,
        ``repro metrics --json``) never record them, and their output
        must stay byte-identical to the pre-telemetry schema.
        """
        snapshot: dict[str, Any] = {
            "counters": {name: self.counters[name] for name in sorted(self.counters)},
            "histograms": {
                name: self.histogram_summary(name) for name in sorted(self.histograms)
            },
        }
        if self.distributions:
            snapshot["distributions"] = {
                name: self.distributions[name].summary()
                for name in sorted(self.distributions)
            }
        if self.gauges:
            snapshot["gauges"] = {
                name: self.gauges[name].summary() for name in sorted(self.gauges)
            }
        return snapshot

    def format(self) -> str:
        """Aligned human-readable table, counters then histograms."""
        if not self:
            return "no metrics recorded"
        lines: list[str] = []
        if self.counters:
            width = max(len(name) for name in self.counters)
            lines.append(f"{'counter':<{width}}  {'value':>12}")
            for name in sorted(self.counters):
                lines.append(f"{name:<{width}}  {self.counters[name]:>12}")
        if self.histograms:
            if lines:
                lines.append("")
            width = max(len(name) for name in self.histograms)
            lines.append(
                f"{'histogram':<{width}}  {'count':>8}  {'sum':>10}  "
                f"{'min':>6}  {'max':>6}  {'mean':>9}"
            )
            for name in sorted(self.histograms):
                s = self.histogram_summary(name)
                lines.append(
                    f"{name:<{width}}  {s['count']:>8}  {s['sum']:>10}  "
                    f"{s['min']:>6}  {s['max']:>6}  {s['mean']:>9.2f}"
                )
        if self.distributions:
            if lines:
                lines.append("")
            width = max(len(name) for name in self.distributions)
            lines.append(
                f"{'distribution':<{width}}  {'count':>8}  {'p50':>10}  "
                f"{'p95':>10}  {'p99':>10}  {'max':>10}"
            )
            for name in sorted(self.distributions):
                s = self.distributions[name].summary()
                lines.append(
                    f"{name:<{width}}  {s['count']:>8}  {s['p50']:>10.4f}  "
                    f"{s['p95']:>10.4f}  {s['p99']:>10.4f}  {s['max'] or 0.0:>10.4f}"
                )
        if self.gauges:
            if lines:
                lines.append("")
            width = max(len(name) for name in self.gauges)
            lines.append(
                f"{'gauge':<{width}}  {'value':>10}  {'min':>10}  "
                f"{'max':>10}  {'updates':>8}"
            )
            for name in sorted(self.gauges):
                s = self.gauges[name].summary()
                lines.append(
                    f"{name:<{width}}  {s['value']:>10}  {s['min'] or 0:>10}  "
                    f"{s['max'] or 0:>10}  {s['updates']:>8}"
                )
        return "\n".join(lines)

    def __bool__(self) -> bool:
        return bool(
            self.counters or self.histograms or self.distributions or self.gauges
        )


_ACTIVE: MetricsRegistry | None = None

# Context-local collector (PR 8): the service wraps each request's
# execution in metrics_scope(), so concurrent handler threads never
# share one global registry.  _SCOPES counts entered scopes process-wide
# so the disabled hot path stays at two module-global reads (no
# ContextVar lookup until someone actually opens a scope).
_SCOPED: ContextVar[MetricsRegistry | None] = ContextVar(
    "repro_obs_metrics_scope", default=None
)
_SCOPES = 0
_SCOPES_LOCK = threading.Lock()


def enable_metrics(registry: MetricsRegistry | None = None) -> MetricsRegistry:
    """Install ``registry`` (or a fresh one) as the active collector."""
    global _ACTIVE
    _ACTIVE = registry if registry is not None else MetricsRegistry()
    return _ACTIVE


def disable_metrics() -> MetricsRegistry | None:
    """Deactivate and return the previously active registry, if any."""
    global _ACTIVE
    previous, _ACTIVE = _ACTIVE, None
    return previous


def active_metrics() -> MetricsRegistry | None:
    return _ACTIVE


@contextmanager
def metrics_scope(
    registry: MetricsRegistry | None = None,
) -> Iterator[MetricsRegistry]:
    """Collect into ``registry`` (or a fresh one) for this context only.

    Context-local (:mod:`contextvars`): a scope entered on one thread is
    invisible to every other, so the service can give each request its
    own collector while the process-global :func:`enable_metrics`
    registry (if any) keeps receiving everything.  Scopes nest; the
    innermost wins.
    """
    global _SCOPES
    registry = registry if registry is not None else MetricsRegistry()
    token = _SCOPED.set(registry)
    with _SCOPES_LOCK:
        _SCOPES += 1
    try:
        yield registry
    finally:
        with _SCOPES_LOCK:
            _SCOPES -= 1
        _SCOPED.reset(token)


def context_metrics() -> MetricsRegistry | None:
    """The registry installed by the innermost :func:`metrics_scope`."""
    return _SCOPED.get()


def count(name: str, amount: int = 1) -> None:
    """Bump a counter on the active registry; no-op when disabled."""
    registry = _ACTIVE
    if registry is not None:
        registry.count(name, amount)
    if _SCOPES:
        scoped = _SCOPED.get()
        if scoped is not None and scoped is not registry:
            scoped.count(name, amount)


def observe(name: str, value: int) -> None:
    """Record a histogram observation; no-op when disabled."""
    registry = _ACTIVE
    if registry is not None:
        registry.observe(name, value)
    if _SCOPES:
        scoped = _SCOPED.get()
        if scoped is not None and scoped is not registry:
            scoped.observe(name, value)


def record_value(name: str, value: float, bounds: Iterable[float] | None = None) -> None:
    """Record a distribution sample; no-op when disabled."""
    registry = _ACTIVE
    if registry is not None:
        registry.record_value(name, value, bounds)
    if _SCOPES:
        scoped = _SCOPED.get()
        if scoped is not None and scoped is not registry:
            scoped.record_value(name, value, bounds)


def set_gauge(name: str, value: float) -> None:
    """Set a gauge; no-op when disabled."""
    registry = _ACTIVE
    if registry is not None:
        registry.set_gauge(name, value)
    if _SCOPES:
        scoped = _SCOPED.get()
        if scoped is not None and scoped is not registry:
            scoped.set_gauge(name, value)
