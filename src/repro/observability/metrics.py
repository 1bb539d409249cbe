"""Process-wide metrics registry: counters, gauges, histograms with labels.

The registry is the *accounting* half of the observability layer (the
:mod:`repro.observability.trace` span tracer is the *timeline* half).  It
follows the Prometheus data model in miniature:

* :class:`Counter` — monotonically increasing totals (cycles per
  controller state, multiplications issued, gate evaluations);
* :class:`Gauge` — last-written values (array length, logic depth);
* :class:`Histogram` — distributions (cycles per multiplication, gates
  evaluated per settle phase), bucketed by powers of two because every
  quantity we measure is a count.

Each metric carries free-form labels supplied at observation time
(``registry.counter("controller.state_cycles").inc(state="MUL1")``); one
metric object holds one time series per distinct label set.  The whole
registry snapshots to a plain dict (and therefore JSON) so benchmarks can
drop a machine-readable record next to their ``results/*.txt`` artifacts.

A read-modify-write such as ``+=`` is not atomic under the GIL: a
thread switch between the read and the write loses the other thread's
update.  The serving plane counts from its collector, reader and monitor
threads at once, so :meth:`Counter.inc`, :meth:`Histogram.observe` and
:meth:`Histogram.merge_snapshot_row` each take their metric's lock.
:meth:`Gauge.set` is a single store and takes none.
"""

from __future__ import annotations

import json
import re
import threading
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "parse_prometheus_text",
]

LabelKey = Tuple[Tuple[str, str], ...]

#: Default histogram bucket upper bounds: powers of two spanning one cycle
#: up to ~1M cycles (an l=512 exponentiation); values above fall into +Inf.
DEFAULT_BUCKETS: Tuple[int, ...] = tuple(2 ** k for k in range(0, 21))


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    """Canonical, hashable form of a label set (values stringified)."""
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _prom_name(name: str) -> str:
    """Metric name in the Prometheus charset (``[a-zA-Z_:][a-zA-Z0-9_:]*``)."""
    cleaned = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    return "_" + cleaned if cleaned[:1].isdigit() else cleaned


def _prom_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    parts = []
    for k, v in sorted(labels.items()):
        escaped = str(v).replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")
        parts.append(f'{re.sub(r"[^a-zA-Z0-9_]", "_", k)}="{escaped}"')
    return "{" + ",".join(parts) + "}"


def _prom_num(value: Any) -> str:
    """Render a sample value: integral floats drop the trailing ``.0``."""
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


class _Metric:
    """Shared name/help/series plumbing for the three metric kinds."""

    kind = "metric"

    def __init__(self, name: str, help: str = "") -> None:
        if not name:
            raise ValueError("metric name must be non-empty")
        self.name = name
        self.help = help
        self._series: Dict[LabelKey, Any] = {}
        self._lock = threading.Lock()  # guards read-modify-writes of a series

    def _labelled_rows(self) -> Iterable[Tuple[LabelKey, Any]]:
        return sorted(self._series.items())


class Counter(_Metric):
    """Monotonically increasing total, one value per label set."""

    kind = "counter"

    def inc(self, amount: int = 1, **labels: Any) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (got {amount})")
        key = _label_key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0) + amount

    def value(self, **labels: Any) -> int:
        return self._series.get(_label_key(labels), 0)

    def total(self, **labels: Any) -> int:
        """Sum over every label set matching the given subset.

        With no arguments this is the un-labelled grand total; with
        labels it sums every series whose label set contains them
        (``total(backend="integer")`` sums across workers).
        """
        if not labels:
            return sum(self._series.values())
        want = set(_label_key(labels))
        return sum(v for k, v in self._series.items() if want <= set(k))

    def snapshot(self) -> List[Dict[str, Any]]:
        return [
            {"labels": dict(key), "value": v} for key, v in self._labelled_rows()
        ]


class Gauge(_Metric):
    """Last-written value, one per label set."""

    kind = "gauge"

    def set(self, value: float, **labels: Any) -> None:
        self._series[_label_key(labels)] = value

    def value(self, **labels: Any) -> Optional[float]:
        return self._series.get(_label_key(labels))

    def snapshot(self) -> List[Dict[str, Any]]:
        return [
            {"labels": dict(key), "value": v} for key, v in self._labelled_rows()
        ]


class _HistogramSeries:
    __slots__ = ("count", "sum", "min", "max", "bucket_counts")

    def __init__(self, num_buckets: int) -> None:
        self.count = 0
        self.sum = 0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        # one slot per finite bound, plus the +Inf overflow slot
        self.bucket_counts = [0] * (num_buckets + 1)


class Histogram(_Metric):
    """Distribution of observed values over fixed buckets.

    ``buckets`` are inclusive upper bounds in increasing order; a value
    lands in the first bucket whose bound is >= the value, or in the
    implicit ``+Inf`` bucket past the last bound.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Tuple[int, ...] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help)
        if list(buckets) != sorted(buckets) or len(set(buckets)) != len(buckets):
            raise ValueError(f"histogram buckets must strictly increase: {buckets}")
        self.buckets = tuple(buckets)

    def observe(self, value: float, **labels: Any) -> None:
        key = _label_key(labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = _HistogramSeries(len(self.buckets))
            series.count += 1
            series.sum += value
            if series.min is None or value < series.min:
                series.min = value
            if series.max is None or value > series.max:
                series.max = value
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    series.bucket_counts[i] += 1
                    return
            series.bucket_counts[-1] += 1

    def series(self, **labels: Any) -> Optional[_HistogramSeries]:
        return self._series.get(_label_key(labels))

    def aggregate(self, **labels: Any) -> Optional[_HistogramSeries]:
        """Merged view of every series whose labels contain the given subset.

        ``aggregate(backend="integer")`` folds the per-worker series of one
        backend into a single distribution; ``aggregate()`` folds everything.
        Returns ``None`` when nothing matches.
        """
        want = set(_label_key(labels))
        merged: Optional[_HistogramSeries] = None
        for key, s in self._series.items():
            if not want <= set(key):
                continue
            if merged is None:
                merged = _HistogramSeries(len(self.buckets))
            merged.count += s.count
            merged.sum += s.sum
            if s.min is not None and (merged.min is None or s.min < merged.min):
                merged.min = s.min
            if s.max is not None and (merged.max is None or s.max > merged.max):
                merged.max = s.max
            for i, c in enumerate(s.bucket_counts):
                merged.bucket_counts[i] += c
        return merged

    def percentile(self, q: float, **labels: Any) -> Optional[float]:
        """Estimate the ``q``-th percentile (0–100) over matching series.

        Classic bucketed estimation: find the bucket holding the rank-``q``
        sample, interpolate linearly between its bounds, and clamp into the
        observed ``[min, max]`` window (which makes single-valued series
        exact).  A rank landing in the ``+Inf`` overflow bucket returns the
        observed maximum.  Returns ``None`` for an empty/missing series.
        """
        if not 0 <= q <= 100:
            raise ValueError(f"percentile q must be in [0, 100], got {q}")
        return self._series_percentile(self.aggregate(**labels), q)

    def _series_percentile(
        self, s: Optional[_HistogramSeries], q: float
    ) -> Optional[float]:
        if s is None or s.count == 0:
            return None
        if q == 0:
            return s.min
        rank = s.count * q / 100.0
        cum = 0.0
        lower = 0.0
        for bound, c in zip(self.buckets, s.bucket_counts):
            if c:
                if cum + c >= rank:
                    frac = (rank - cum) / c
                    value = lower + frac * (bound - lower)
                    if s.min is not None:
                        value = max(value, s.min)
                    if s.max is not None:
                        value = min(value, s.max)
                    return value
                cum += c
            lower = bound
        return s.max  # the rank falls in the +Inf overflow bucket

    def _percentiles(self, s: _HistogramSeries) -> Dict[str, Optional[float]]:
        """The snapshot's p50/p95/p99 summary for one series."""
        return {
            "p50": self._series_percentile(s, 50),
            "p95": self._series_percentile(s, 95),
            "p99": self._series_percentile(s, 99),
        }

    def merge_snapshot_row(self, row: Dict[str, Any], **labels: Any) -> None:
        """Fold one exported snapshot row into the series for ``labels``.

        The inverse of :meth:`snapshot`: bucket counts land on the first
        local bound >= the exported bound (exact when both sides use the
        same bucket layout, which every registry in this codebase does).
        """
        key = _label_key(labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = _HistogramSeries(len(self.buckets))
            series.count += row["count"]
            series.sum += row["sum"]
            for edge in ("min", "max"):
                value = row.get(edge)
                if value is None:
                    continue
                current = getattr(series, edge)
                if (
                    current is None
                    or (edge == "min" and value < current)
                    or (edge == "max" and value > current)
                ):
                    setattr(series, edge, value)
            for bound_str, count in row.get("buckets", {}).items():
                if bound_str == "+Inf":
                    series.bucket_counts[-1] += count
                    continue
                bound = float(bound_str)
                for i, local in enumerate(self.buckets):
                    if bound <= local:
                        series.bucket_counts[i] += count
                        break
                else:
                    series.bucket_counts[-1] += count

    def snapshot(self) -> List[Dict[str, Any]]:
        rows = []
        for key, s in self._labelled_rows():
            buckets = {
                str(bound): c
                for bound, c in zip(self.buckets, s.bucket_counts)
                if c
            }
            if s.bucket_counts[-1]:
                buckets["+Inf"] = s.bucket_counts[-1]
            rows.append(
                {
                    "labels": dict(key),
                    "count": s.count,
                    "sum": s.sum,
                    "min": s.min,
                    "max": s.max,
                    **self._percentiles(s),
                    "buckets": buckets,
                }
            )
        return rows


_KIND_CLASSES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """Get-or-create home for every metric in one observation session.

    Accessors are idempotent: ``registry.counter("x")`` returns the same
    object every call, creating it on first use — so instrumentation sites
    never need set-up code.  Asking for an existing name with a different
    kind raises ``TypeError``.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, _Metric] = {}

    # ------------------------------------------------------------------
    def _get_or_create(self, cls, name: str, help: str, **kwargs) -> _Metric:
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise TypeError(
                    f"metric {name!r} already registered as {existing.kind}, "
                    f"requested {cls.kind}"
                )
            return existing
        metric = cls(name, help, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(
        self, name: str, help: str = "", buckets: Tuple[int, ...] = DEFAULT_BUCKETS
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, buckets=buckets)

    # ------------------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def reset(self) -> None:
        """Drop every metric (a fresh session)."""
        self._metrics.clear()

    # ------------------------------------------------------------------
    # Merge (cross-process telemetry)
    # ------------------------------------------------------------------
    def merge(
        self,
        source: Union["MetricsRegistry", Dict[str, Any]],
        **extra_labels: Any,
    ) -> None:
        """Fold another registry (or an exported snapshot dict) into this one.

        The workhorse of cross-process telemetry: a worker process runs
        under its own registry, ships ``registry.snapshot()`` back with the
        result, and the parent merges it here with identifying labels
        (``parent.merge(snapshot, worker="shard0")``).  Counters add,
        gauges last-write-win, histograms merge bucket-by-bucket; every
        merged row gains ``extra_labels`` on top of its own.
        """
        snap = source.snapshot() if isinstance(source, MetricsRegistry) else source
        for row in snap.get("counters", ()):
            labels = {**row["labels"], **extra_labels}
            self.counter(row["name"], row.get("help", "")).inc(
                row["value"], **labels
            )
        for row in snap.get("gauges", ()):
            labels = {**row["labels"], **extra_labels}
            self.gauge(row["name"], row.get("help", "")).set(row["value"], **labels)
        for row in snap.get("histograms", ()):
            labels = {**row["labels"], **extra_labels}
            self.histogram(row["name"], row.get("help", "")).merge_snapshot_row(
                row, **labels
            )

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """The whole registry as a JSON-serializable dict."""
        out: Dict[str, Any] = {"counters": [], "gauges": [], "histograms": []}
        for name in sorted(self._metrics):
            m = self._metrics[name]
            for row in m.snapshot():
                out[m.kind + "s"].append({"name": name, "help": m.help, **row})
        return out

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def write_json(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json() + "\n")

    def to_prometheus(self) -> str:
        """The registry in Prometheus text exposition format (0.0.4).

        Metric names are sanitised to the Prometheus charset (dots become
        underscores), counters gain the conventional ``_total`` suffix, and
        histograms expand to cumulative ``_bucket{le=...}`` series plus
        ``_sum`` / ``_count`` — directly scrapeable from the ``/metrics``
        endpoint ``repro serve --http-port`` exposes.
        """
        lines: List[str] = []
        for name in sorted(self._metrics):
            m = self._metrics[name]
            pname = _prom_name(name)
            if m.kind == "counter":
                pname += "_total"
            if m.help:
                lines.append(f"# HELP {pname} {m.help}")
            lines.append(f"# TYPE {pname} {m.kind}")
            if m.kind in ("counter", "gauge"):
                for key, value in m._labelled_rows():
                    lines.append(f"{pname}{_prom_labels(dict(key))} {_prom_num(value)}")
            else:
                for key, s in m._labelled_rows():
                    labels = dict(key)
                    cum = 0
                    for bound, c in zip(m.buckets, s.bucket_counts):
                        cum += c
                        le = {**labels, "le": _prom_num(bound)}
                        lines.append(f"{pname}_bucket{_prom_labels(le)} {cum}")
                    le = {**labels, "le": "+Inf"}
                    lines.append(f"{pname}_bucket{_prom_labels(le)} {s.count}")
                    lines.append(f"{pname}_sum{_prom_labels(labels)} {_prom_num(s.sum)}")
                    lines.append(f"{pname}_count{_prom_labels(labels)} {s.count}")
        return "\n".join(lines) + ("\n" if lines else "")

    def write_prometheus(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_prometheus())

    @staticmethod
    def parse_prometheus_text(text: str) -> Dict[str, Dict[str, Any]]:
        return parse_prometheus_text(text)

    def render_text(self) -> str:
        """Human-readable snapshot for ``repro observe`` / ``--metrics``."""
        snap = self.snapshot()
        lines: List[str] = []

        def fmt_labels(labels: Dict[str, str]) -> str:
            if not labels:
                return ""
            inner = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
            return "{" + inner + "}"

        if snap["counters"]:
            lines.append("counters:")
            for row in snap["counters"]:
                lines.append(
                    f"  {row['name']}{fmt_labels(row['labels'])} = {row['value']}"
                )
        if snap["gauges"]:
            lines.append("gauges:")
            for row in snap["gauges"]:
                lines.append(
                    f"  {row['name']}{fmt_labels(row['labels'])} = {row['value']}"
                )
        if snap["histograms"]:
            lines.append("histograms:")
            for row in snap["histograms"]:
                mean = row["sum"] / row["count"] if row["count"] else 0.0
                quantiles = " ".join(
                    f"{q}={row[q]:g}"
                    for q in ("p50", "p95", "p99")
                    if row.get(q) is not None
                )
                lines.append(
                    f"  {row['name']}{fmt_labels(row['labels'])}: "
                    f"count={row['count']} sum={row['sum']} "
                    f"min={row['min']} mean={mean:g} max={row['max']}"
                    + (f" {quantiles}" if quantiles else "")
                )
        return "\n".join(lines) if lines else "(no metrics recorded)"


# ----------------------------------------------------------------------
# Prometheus text parsing (the scrape side of `repro top`)
# ----------------------------------------------------------------------
_PROM_SAMPLE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})?\s+(\S+)\s*$"
)
_PROM_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_prometheus_text(text: str) -> Dict[str, Dict[str, Any]]:
    """Parse Prometheus text exposition (0.0.4) into a plain dict.

    The inverse of :meth:`MetricsRegistry.to_prometheus`, used by
    ``repro top`` to read a live ``/metrics`` endpoint.  Returns
    ``{sample_name: {"type": kind, "samples": [(labels_dict, value), ...]}}``
    where ``sample_name`` is the exposition name as written (counters keep
    their ``_total`` suffix; histograms appear as separate ``_bucket`` /
    ``_sum`` / ``_count`` entries).  Unparseable lines are skipped — a
    scraper must tolerate exposition it does not fully understand.
    """
    out: Dict[str, Dict[str, Any]] = {}
    types: Dict[str, str] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 4 and parts[1] == "TYPE":
                types[parts[2]] = parts[3].strip()
            continue
        m = _PROM_SAMPLE.match(line)
        if m is None:
            continue
        name, labelstr, raw = m.groups()
        try:
            value = float(raw)
        except ValueError:
            continue
        labels: Dict[str, str] = {}
        if labelstr:
            for lm in _PROM_LABEL.finditer(labelstr):
                labels[lm.group(1)] = (
                    lm.group(2)
                    .replace(r"\"", '"')
                    .replace(r"\n", "\n")
                    .replace("\\\\", "\\")
                )
        base = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[: -len(suffix)] in types:
                base = name[: -len(suffix)]
                break
        entry = out.setdefault(
            name, {"type": types.get(base, types.get(name, "untyped")), "samples": []}
        )
        entry["samples"].append((labels, value))
    return out
