"""Process-wide metrics registry: Counter / Gauge / Histogram + exporters.

Pure standard library.  Instruments are created idempotently through a
:class:`MetricsRegistry` (module-level helpers use the shared process
registry), support Prometheus-style labels, and render to the two formats
the service and CLI expose:

* :meth:`MetricsRegistry.render_prometheus` — the text exposition format
  scraped from ``GET /metrics`` (``# HELP``/``# TYPE`` headers, escaped
  label values, cumulative histogram ``_bucket``/``_sum``/``_count``
  series);
* :meth:`MetricsRegistry.snapshot` — a canonical JSON document folded into
  ``/stats`` and ``RuntimeStatistics``, and written by ``--metrics-out``.

Thread safety: every label child carries its own lock; families guard their
child maps with a registry-independent lock.  Reads are copy-on-read — an
exporter never blocks a writer for longer than one child update.

Writes are always on, so their cost is inside every end-to-end timing that
perfbench takes of the program.
"""

from __future__ import annotations

import json
import math
import re
import threading
import time
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple, Type, Union

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "PROMETHEUS_CONTENT_TYPE",
    "counter",
    "gauge",
    "get_registry",
    "histogram",
    "render_digest",
]

PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Fixed log-scale latency buckets: {1, 2.5, 5} per decade from 1 µs to 5 s,
#: closed by a 10 s bound.  Wide enough for a microsecond-scale stage-cache
#: hit and a multi-second exploration batch in the same histogram family.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = tuple(
    round(base * 10.0**exponent, 12)
    for exponent in range(-6, 1)
    for base in (1.0, 2.5, 5.0)
) + (10.0,)

def _format_value(value: float) -> str:
    """Render a sample value the way Prometheus expects."""
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if value != value:  # NaN
        return "NaN"
    as_float = float(value)
    if as_float.is_integer() and abs(as_float) < 1e15:
        return str(int(as_float))
    return repr(as_float)


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label_value(text: str) -> str:
    return (
        text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _render_labels(names: Sequence[str], values: Sequence[str]) -> str:
    if not names:
        return ""
    parts = [
        f'{name}="{_escape_label_value(value)}"'
        for name, value in zip(names, values)
    ]
    return "{" + ",".join(parts) + "}"


# --------------------------------------------------------------------------
# children (one per unique label-value tuple)
# --------------------------------------------------------------------------
class _CounterChild:
    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters can only increase")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class _GaugeChild:
    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        return self._value


class _HistogramChild:
    __slots__ = ("_lock", "_bounds", "_counts", "_sum", "_count")

    def __init__(self, bounds: Tuple[float, ...]) -> None:
        self._lock = threading.Lock()
        self._bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # final slot is +Inf
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        index = bisect_left(self._bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    def time(self) -> "_HistogramTimer":
        """``with hist.time(): ...`` — observe the block's wall duration."""
        return _HistogramTimer(self)

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """``[(le, cumulative_count), ..., (inf, total)]`` — copy-on-read."""
        with self._lock:
            counts = list(self._counts)
        cumulative: List[Tuple[float, int]] = []
        running = 0
        for bound, bucket_count in zip(self._bounds, counts):
            running += bucket_count
            cumulative.append((bound, running))
        cumulative.append((math.inf, running + counts[-1]))
        return cumulative


class _HistogramTimer:
    __slots__ = ("_child", "_started")

    def __init__(self, child: _HistogramChild) -> None:
        self._child = child
        self._started = 0.0

    def __enter__(self) -> "_HistogramTimer":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *_exc: object) -> None:
        self._child.observe(time.perf_counter() - self._started)


_Child = Union[_CounterChild, _GaugeChild, _HistogramChild]


# --------------------------------------------------------------------------
# families
# --------------------------------------------------------------------------
class _MetricFamily:
    """One named metric with zero or more label dimensions."""

    kind = "untyped"

    def __init__(
        self, name: str, documentation: str, labelnames: Sequence[str] = ()
    ) -> None:
        if not _METRIC_NAME_RE.match(name):
            raise ValueError(f"invalid metric name: {name!r}")
        for label in labelnames:
            if not _LABEL_NAME_RE.match(label) or label.startswith("__"):
                raise ValueError(f"invalid label name: {label!r}")
        if self.kind == "histogram" and "le" in labelnames:
            raise ValueError("histograms reserve the 'le' label")
        self.name = name
        self.documentation = documentation
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()
        self._children: Dict[Tuple[str, ...], _Child] = {}
        self._default: Optional[_Child] = None
        if not self.labelnames:
            self._default = self._make_child()

    def _make_child(self) -> _Child:
        raise NotImplementedError

    def labels(self, *values: object) -> _Child:
        """The child for one label-value tuple (created on first use)."""
        if len(values) != len(self.labelnames):
            raise ValueError(
                f"{self.name}: expected {len(self.labelnames)} label values, "
                f"got {len(values)}"
            )
        key = tuple(str(value) for value in values)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.get(key)
                if child is None:
                    child = self._make_child()
                    self._children[key] = child
        return child

    def _unlabelled(self) -> _Child:
        if self._default is None:
            raise ValueError(
                f"{self.name} declares labels {self.labelnames}; "
                "use .labels(...)"
            )
        return self._default

    def children(self) -> List[Tuple[Tuple[str, ...], _Child]]:
        """Sorted copy-on-read view of every child."""
        if self._default is not None:
            return [((), self._default)]
        with self._lock:
            items = list(self._children.items())
        return sorted(items, key=lambda item: item[0])

    def reset(self) -> None:
        """Zero every child (families and label sets stay registered)."""
        with self._lock:
            for key in list(self._children):
                self._children[key] = self._make_child()
            if self._default is not None:
                self._default = self._make_child()


class Counter(_MetricFamily):
    kind = "counter"

    def _make_child(self) -> _CounterChild:
        return _CounterChild()

    def inc(self, amount: float = 1.0) -> None:
        self._unlabelled().inc(amount)  # type: ignore[union-attr]

    @property
    def value(self) -> float:
        return self._unlabelled().value


class Gauge(_MetricFamily):
    kind = "gauge"

    def _make_child(self) -> _GaugeChild:
        return _GaugeChild()

    def set(self, value: float) -> None:
        self._unlabelled().set(value)  # type: ignore[union-attr]

    def inc(self, amount: float = 1.0) -> None:
        self._unlabelled().inc(amount)  # type: ignore[union-attr]

    def dec(self, amount: float = 1.0) -> None:
        self._unlabelled().dec(amount)  # type: ignore[union-attr]

    @property
    def value(self) -> float:
        return self._unlabelled().value


class Histogram(_MetricFamily):
    kind = "histogram"

    def __init__(
        self,
        name: str,
        documentation: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        bounds = tuple(sorted(set(float(bound) for bound in buckets)))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if math.inf in bounds:
            bounds = tuple(bound for bound in bounds if bound != math.inf)
        self.buckets = bounds
        super().__init__(name, documentation, labelnames)

    def _make_child(self) -> _HistogramChild:
        return _HistogramChild(self.buckets)

    def observe(self, value: float) -> None:
        self._unlabelled().observe(value)  # type: ignore[union-attr]

    def time(self) -> _HistogramTimer:
        return self._unlabelled().time()  # type: ignore[union-attr]


# --------------------------------------------------------------------------
# registry
# --------------------------------------------------------------------------
class MetricsRegistry:
    """A named collection of metric families with idempotent getters."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: Dict[str, _MetricFamily] = {}

    def _get_or_create(
        self,
        cls: Type[_MetricFamily],
        name: str,
        documentation: str,
        labelnames: Sequence[str],
        **kwargs: object,
    ) -> _MetricFamily:
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"{name} already registered as {existing.kind}, "
                        f"not {cls.kind}"
                    )
                if existing.labelnames != tuple(labelnames):
                    raise ValueError(
                        f"{name} already registered with labels "
                        f"{existing.labelnames}, not {tuple(labelnames)}"
                    )
                return existing
            family = cls(name, documentation, labelnames, **kwargs)  # type: ignore[arg-type]
            self._families[name] = family
            return family

    def counter(
        self, name: str, documentation: str, labelnames: Sequence[str] = ()
    ) -> Counter:
        return self._get_or_create(Counter, name, documentation, labelnames)  # type: ignore[return-value]

    def gauge(
        self, name: str, documentation: str, labelnames: Sequence[str] = ()
    ) -> Gauge:
        return self._get_or_create(Gauge, name, documentation, labelnames)  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        documentation: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(  # type: ignore[return-value]
            Histogram, name, documentation, labelnames, buckets=buckets
        )

    def families(self) -> List[_MetricFamily]:
        with self._lock:
            families = list(self._families.values())
        return sorted(families, key=lambda family: family.name)

    def reset(self) -> None:
        """Zero all values; families stay registered so module-level
        instrument references held by the instrumented layers stay live."""
        for family in self.families():
            family.reset()

    # ---------------------------------------------------------- exporters
    def render_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        lines: List[str] = []
        for family in self.families():
            lines.append(
                f"# HELP {family.name} {_escape_help(family.documentation)}"
            )
            lines.append(f"# TYPE {family.name} {family.kind}")
            for labelvalues, child in family.children():
                if isinstance(child, _HistogramChild):
                    for bound, cumulative in child.cumulative_buckets():
                        bucket_labels = _render_labels(
                            family.labelnames + ("le",),
                            labelvalues + (_format_value(bound),),
                        )
                        lines.append(
                            f"{family.name}_bucket{bucket_labels} {cumulative}"
                        )
                    suffix = _render_labels(family.labelnames, labelvalues)
                    lines.append(
                        f"{family.name}_sum{suffix} "
                        f"{_format_value(child.sum)}"
                    )
                    lines.append(f"{family.name}_count{suffix} {child.count}")
                else:
                    suffix = _render_labels(family.labelnames, labelvalues)
                    lines.append(
                        f"{family.name}{suffix} {_format_value(child.value)}"
                    )
        return "\n".join(lines) + "\n"

    def snapshot(self) -> Dict[str, object]:
        """Canonical JSON document: ``{name: {type, help, samples}}``."""
        document: Dict[str, object] = {}
        for family in self.families():
            samples: List[Dict[str, object]] = []
            for labelvalues, child in family.children():
                sample: Dict[str, object] = {
                    "labels": dict(zip(family.labelnames, labelvalues))
                }
                if isinstance(child, _HistogramChild):
                    sample["count"] = child.count
                    sample["sum"] = child.sum
                    sample["buckets"] = {
                        _format_value(bound): cumulative
                        for bound, cumulative in child.cumulative_buckets()
                    }
                else:
                    sample["value"] = child.value
                samples.append(sample)
            document[family.name] = {
                "type": family.kind,
                "help": family.documentation,
                "samples": samples,
            }
        return document

    def render_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def series_count(self) -> int:
        """Number of live (label-expanded) series across all families."""
        return sum(len(family.children()) for family in self.families())


_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The shared process-wide registry."""
    return _REGISTRY


def counter(
    name: str, documentation: str, labelnames: Sequence[str] = ()
) -> Counter:
    return _REGISTRY.counter(name, documentation, labelnames)


def gauge(
    name: str, documentation: str, labelnames: Sequence[str] = ()
) -> Gauge:
    return _REGISTRY.gauge(name, documentation, labelnames)


def histogram(
    name: str,
    documentation: str,
    labelnames: Sequence[str] = (),
    buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
) -> Histogram:
    return _REGISTRY.histogram(name, documentation, labelnames, buckets)


def render_digest(
    registry: Optional[MetricsRegistry] = None, limit: int = 40
) -> List[str]:
    """Human-readable one-line-per-series digest (``--profile``, examples).

    Zero-valued series are skipped; histograms render count/mean/total.
    """
    registry = registry or _REGISTRY
    lines: List[str] = []
    for family in registry.families():
        for labelvalues, child in family.children():
            label_text = _render_labels(family.labelnames, labelvalues)
            if isinstance(child, _HistogramChild):
                if child.count == 0:
                    continue
                mean_ms = child.sum / child.count * 1e3
                lines.append(
                    f"{family.name}{label_text} count={child.count} "
                    f"mean={mean_ms:.3f}ms total={child.sum:.4f}s"
                )
            else:
                if child.value == 0:
                    continue
                lines.append(
                    f"{family.name}{label_text} {_format_value(child.value)}"
                )
    if len(lines) > limit:
        hidden = len(lines) - limit
        lines = lines[:limit] + [f"... (+{hidden} more series)"]
    return lines
