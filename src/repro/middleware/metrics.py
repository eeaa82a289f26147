"""Prometheus-style metrics over the interception seam.

:class:`MetricsMiddleware` maintains a counter/gauge registry fed by
the middleware hooks (events, batches, matches, sink errors, attach /
detach / flush lifecycle, watermark) and can *snapshot* any stats
object exposing ``to_dict()`` — :class:`~repro.spectre.engine.RunStats`,
:class:`~repro.hub.core.HubStats` (including its nested attachment and
sharing sections) — into gauges.  ``render()`` emits the standard text
exposition format, ready for a ``/metrics`` endpoint::

    metrics = MetricsMiddleware()
    hub = StreamHub(middleware=[metrics])
    ...
    metrics.observe_stats(hub.stats().to_dict())
    print(metrics.render())
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Optional

from repro.middleware.base import Middleware, MiddlewareContext

__all__ = ["Counter", "Gauge", "MetricsRegistry", "MetricsMiddleware"]

_NO_LABELS: tuple = ()


class _Metric:
    """Shared storage: one value per label-value tuple."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str = "",
                 labelnames: tuple[str, ...] = ()) -> None:
        self.name = name
        self.help = help_text
        self.labelnames = tuple(labelnames)
        self.values: dict[tuple, float] = {}

    def value(self, labels: tuple = _NO_LABELS) -> float:
        return self.values.get(labels, 0.0)

    def samples(self):
        return sorted(self.values.items())


class Counter(_Metric):
    """Monotonically increasing value (per label tuple)."""

    kind = "counter"

    def inc(self, amount: float = 1.0, labels: tuple = _NO_LABELS) -> None:
        self.values[labels] = self.values.get(labels, 0.0) + amount


class Gauge(_Metric):
    """Point-in-time value (per label tuple)."""

    kind = "gauge"

    def set(self, value: float, labels: tuple = _NO_LABELS) -> None:
        self.values[labels] = value


class MetricsRegistry:
    """A named collection of metrics with text exposition."""

    def __init__(self, prefix: str = "repro") -> None:
        self.prefix = prefix
        self._metrics: dict[str, _Metric] = {}

    def counter(self, name: str, help_text: str = "",
                labelnames: tuple[str, ...] = ()) -> Counter:
        return self._register(Counter, name, help_text, labelnames)

    def gauge(self, name: str, help_text: str = "",
              labelnames: tuple[str, ...] = ()) -> Gauge:
        return self._register(Gauge, name, help_text, labelnames)

    def _register(self, cls, name: str, help_text: str,
                  labelnames) -> _Metric:
        full = f"{self.prefix}_{name}" if self.prefix else name
        metric = self._metrics.get(full)
        if metric is None:
            metric = cls(full, help_text, tuple(labelnames))
            self._metrics[full] = metric
        elif not isinstance(metric, cls):
            raise ValueError(f"metric {full!r} already registered "
                             f"as a {metric.kind}")
        return metric  # type: ignore[return-value]

    def snapshot(self) -> dict[str, dict[str, float]]:
        """JSON-safe dump: ``{metric: {label-suffix: value}}``."""
        out: dict[str, dict[str, float]] = {}
        for name, metric in sorted(self._metrics.items()):
            cell: dict[str, float] = {}
            for labels, value in metric.samples():
                key = ",".join(f"{k}={v}" for k, v
                               in zip(metric.labelnames, labels)) or ""
                cell[key] = value
            out[name] = cell
        return out

    def render(self) -> str:
        """Prometheus text exposition format."""
        lines: list[str] = []
        for name, metric in sorted(self._metrics.items()):
            if metric.help:
                lines.append(f"# HELP {name} {metric.help}")
            lines.append(f"# TYPE {name} {metric.kind}")
            for labels, value in metric.samples():
                if labels:
                    rendered = ",".join(
                        f'{k}="{v}"' for k, v
                        in zip(metric.labelnames, labels))
                    lines.append(f"{name}{{{rendered}}} {value:g}")
                else:
                    lines.append(f"{name} {value:g}")
        return "\n".join(lines) + "\n"


def _scope(context: MiddlewareContext) -> str:
    if context.attachment is not None:
        return context.attachment.name
    if context.name is not None:  # on_attach: attachment not built yet
        return context.name
    return "hub" if context.hub is not None else "session"


class MetricsMiddleware(Middleware):
    """Count and gauge everything crossing the interception seam.

    Works at any scope: installed on a pipeline it labels samples
    ``scope="session"``, installed on a hub it sees hub ingestion
    (``scope="hub"``) plus every attachment's matches and errors
    (labelled by attachment name).  All hooks act *before* delegating,
    so the middleware composes unchanged under the asyncio facade.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry or MetricsRegistry()
        reg = self.registry
        scope = ("scope",)
        self.events_total = reg.counter(
            "events_pushed_total", "Events offered via push/push_many",
            scope)
        self.batches_total = reg.counter(
            "push_batches_total",
            "Batches offered (a single push is a 1-event batch)", scope)
        self.matches_total = reg.counter(
            "matches_total", "Complex events delivered", scope)
        self.sink_errors_total = reg.counter(
            "sink_errors_total", "Sink callbacks that raised", scope)
        self.flushes_total = reg.counter(
            "flushes_total", "End-of-stream flushes", scope)
        self.attach_total = reg.counter(
            "attachments_attached_total", "Queries attached", scope)
        self.detach_total = reg.counter(
            "attachments_detached_total", "Queries detached", scope)
        self.watermark_gauge = reg.gauge(
            "watermark", "Low watermark of the intercepted layer", scope)

    # -- hooks -------------------------------------------------------------

    def on_push_many(self, context: MiddlewareContext, call_next):
        labels = (_scope(context),)
        self.events_total.inc(float(len(context.events)), labels)
        self.batches_total.inc(1.0, labels)
        self._set_watermark(context, labels)
        return call_next(context)

    def on_match(self, context: MiddlewareContext, call_next):
        self.matches_total.inc(1.0, (_scope(context),))
        return call_next(context)

    def on_error(self, context: MiddlewareContext, call_next):
        self.sink_errors_total.inc(1.0, (_scope(context),))
        return call_next(context)

    def on_flush(self, context: MiddlewareContext, call_next):
        labels = (_scope(context),)
        self.flushes_total.inc(1.0, labels)
        self._set_watermark(context, labels)
        return call_next(context)

    def _set_watermark(self, context: MiddlewareContext,
                       labels: tuple) -> None:
        watermark = context.watermark
        if watermark is not None and watermark != float("-inf"):
            self.watermark_gauge.set(watermark, labels)

    def on_attach(self, context: MiddlewareContext, call_next):
        self.attach_total.inc(1.0, (_scope(context),))
        return call_next(context)

    def on_detach(self, context: MiddlewareContext, call_next):
        self.detach_total.inc(1.0, (_scope(context),))
        return call_next(context)

    # -- stats snapshotting ------------------------------------------------

    def observe_stats(self, stats, prefix: str = "stats") -> None:
        """Flatten a ``to_dict()``-style snapshot into gauges.

        Accepts either the dict itself or any object exposing
        ``to_dict()`` (``RunStats``, ``HubStats``, ``SharingStats``,
        ``AttachmentStats``).  Nested mappings extend the metric name;
        the hub's ``attachments`` list is labelled by attachment name;
        non-numeric leaves are skipped.
        """
        if hasattr(stats, "to_dict"):
            stats = stats.to_dict()
        self._walk(prefix, stats, _NO_LABELS)

    def _walk(self, path: str, node, labels: tuple) -> None:
        if isinstance(node, Mapping):
            for key, value in node.items():
                self._walk(f"{path}_{key}", value, labels)
        elif isinstance(node, (list, tuple)):
            for entry in node:
                if isinstance(entry, Mapping) and "name" in entry:
                    self._walk(path, {k: v for k, v in entry.items()
                                      if k != "name"},
                               labels + (str(entry["name"]),))
        elif isinstance(node, bool):
            self._set_gauge(path, float(node), labels)
        elif isinstance(node, (int, float)):
            self._set_gauge(path, float(node), labels)

    def _set_gauge(self, path: str, value: float, labels: tuple) -> None:
        labelnames = ("scope",) * len(labels)
        self.registry.gauge(path, labelnames=labelnames).set(value, labels)

    def observe_durability(self, durability: dict) -> None:
        """Set the durability gauges from a manager's ``stats_dict()``
        (the registry prefix makes them ``repro_wal_bytes``,
        ``repro_checkpoint_age_seconds``,
        ``repro_recovery_replayed_events``)."""
        recovery = durability.get("recovery") or {}
        self.registry.gauge(
            "wal_bytes",
            "Bytes across all live WAL segments").set(
            float(durability.get("wal_bytes", 0)))
        self.registry.gauge(
            "checkpoint_age_seconds",
            "Seconds since the last snapshot checkpoint").set(
            float(durability.get("checkpoint_age_seconds", 0.0)))
        self.registry.gauge(
            "recovery_replayed_events",
            "Events replayed by the last crash recovery").set(
            float(recovery.get("replayed_events", 0)))

    # -- convenience -------------------------------------------------------

    def snapshot(self) -> dict[str, dict[str, float]]:
        return self.registry.snapshot()

    def render(self) -> str:
        return self.registry.render()
