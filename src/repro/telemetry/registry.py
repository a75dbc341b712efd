"""Typed metrics registry with Prometheus-style text exposition.

Every subsystem in the library used to keep its own counter dialect —
``BrokerMetrics`` attributes, ``RouterPool`` private ints,
``IncrementalBuilder._counts``, ``CostLedger`` phase lists.  This module
is the one vocabulary they all now speak: three instrument types
(:class:`Counter`, :class:`Gauge`, :class:`Histogram`), each with an
optional label set, collected in a :class:`MetricsRegistry` that renders
the standard text exposition format any Prometheus-compatible scraper
(or ``repro telemetry snapshot``) understands.

Design constraints, in contract order:

* **Dependency-free and cheap.**  Plain dicts and floats; an
  uncontended ``inc()`` is two attribute loads and an add.  No numpy,
  no threads, no background collection.
* **Process-global default plus injectable instances.**
  :func:`get_registry` returns the process-wide default registry;
  every consumer takes a ``registry=`` parameter so tests (and
  multi-instance servers) can isolate their counters in a fresh
  :class:`MetricsRegistry` instead of sharing global state.
* **Get-or-create by name.**  Asking a registry for an instrument that
  already exists returns the existing one — so two components can
  share a series — but asking with a different type or label schema is
  a hard :class:`~repro.exceptions.ParameterError`: a series must mean
  one thing.
* **Round-trippable exposition.**  :meth:`MetricsRegistry.render`
  emits the text format; :func:`parse_exposition` parses it back
  (escaping included), which is how the scrape tests assert that what
  a server exposes is exactly what its registry holds.

Snapshot compatibility: migrated consumers (``BrokerMetrics``,
``RouterPool``, ``IncrementalBuilder``, the load generator, the
``CostLedger``) keep their existing ``snapshot()``/``summary()``/
``stats()`` dict schemas — those dicts are now *read from* registry
instruments instead of ad-hoc attributes, pinned by
``tests/telemetry/test_schema_stability.py``.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from itertools import accumulate
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..exceptions import ParameterError

#: Default histogram bucket upper bounds, in seconds — tuned for the
#: sub-millisecond-to-seconds range serve latencies and swap/rebuild
#: durations actually span.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0)


def _escape_label_value(value: str) -> str:
    """Escape a label value per the exposition format: backslash,
    double-quote and newline."""
    return (value.replace("\\", r"\\")
                 .replace('"', r'\"')
                 .replace("\n", r"\n"))


def _unescape_label_value(value: str) -> str:
    out: List[str] = []
    it = iter(value)
    for ch in it:
        if ch != "\\":
            out.append(ch)
            continue
        nxt = next(it, "")
        out.append({"n": "\n", '"': '"', "\\": "\\"}.get(nxt, "\\" + nxt))
    return "".join(out)


def _format_value(value: float) -> str:
    """Exposition-format number: integers stay integral, floats use
    ``repr`` (shortest round-trip), infinities spell ``+Inf``."""
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int) or (isinstance(value, float)
                                  and value.is_integer()
                                  and abs(value) < 2 ** 53):
        return str(int(value))
    return repr(float(value))


def _valid_name(name: str) -> bool:
    if not name:
        return False
    head = name[0]
    if not (head.isalpha() or head in "_:"):
        return False
    return all(ch.isalnum() or ch in "_:" for ch in name)


class _Child:
    """One (instrument, label-values) time series."""

    __slots__ = ("_lock",)

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock


class _CounterChild(_Child):
    __slots__ = ("_value",)

    def __init__(self, lock: threading.Lock) -> None:
        super().__init__(lock)
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ParameterError(
                f"counters only go up; inc({amount}) is not allowed")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class _GaugeChild(_Child):
    __slots__ = ("_value", "_function")

    def __init__(self, lock: threading.Lock) -> None:
        super().__init__(lock)
        self._value = 0.0
        self._function: Optional[Callable[[], float]] = None

    def set(self, value: float) -> None:
        with self._lock:
            self._function = None
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    def set_function(self, fn: Callable[[], float]) -> None:
        """Live gauge: sampled at collection time (e.g. queue depth)."""
        with self._lock:
            self._function = fn

    @property
    def value(self) -> float:
        fn = self._function
        if fn is not None:
            try:
                return float(fn())
            except Exception:
                return 0.0
        return self._value


class _HistogramChild(_Child):
    __slots__ = ("buckets", "_counts", "_sum", "_count")

    def __init__(self, lock: threading.Lock,
                 buckets: Tuple[float, ...]) -> None:
        super().__init__(lock)
        self.buckets = buckets
        #: observations per bucket, *not* cumulative: slot ``i`` counts
        #: values whose smallest bound is ``buckets[i]``; the last slot
        #: takes what no bound covers (above the last one, or NaN)
        self._counts = [0] * (len(buckets) + 1)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        self.observe_many((value,))

    def observe_many(self, values: Sequence[float]) -> None:
        """Record a batch under one lock acquisition; each value costs
        one bisect instead of a pass over every bound."""
        buckets = self.buckets
        counts = self._counts
        with self._lock:
            for value in values:
                # value <= bound for exactly the bounds from the
                # bisect point on; NaN compares below none of them
                counts[bisect_left(buckets, value)
                       if value == value else -1] += 1
                self._sum += value
            self._count += len(values)

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def cumulative_counts(self) -> List[int]:
        """Per-bucket cumulative counts (``le`` semantics), excluding
        the implicit ``+Inf`` bucket (which equals :attr:`count`)."""
        return list(accumulate(self._counts[:-1]))


_CHILD_TYPES = {"counter": _CounterChild, "gauge": _GaugeChild,
                "histogram": _HistogramChild}


class _Instrument:
    """One named metric family: type + help + label schema + children."""

    def __init__(self, name: str, kind: str, help_text: str,
                 labelnames: Tuple[str, ...],
                 buckets: Tuple[float, ...] = ()) -> None:
        if not _valid_name(name):
            raise ParameterError(
                f"invalid metric name {name!r}: use letters, digits, "
                "'_' and ':'; must not start with a digit")
        for label in labelnames:
            if not _valid_name(label) or label.startswith("__"):
                raise ParameterError(
                    f"invalid label name {label!r} on metric {name!r}")
        self.name = name
        self.kind = kind
        self.help = help_text
        self.labelnames = labelnames
        self.buckets = buckets
        self._lock = threading.Lock()
        self._children: Dict[Tuple[str, ...], _Child] = {}

    def labels(self, *values, **kv):
        """The child series for these label values (created on first
        use).  Positional and keyword forms are both accepted;
        label-less instruments take no arguments."""
        if kv:
            if values:
                raise ParameterError(
                    "pass labels positionally or by keyword, not both")
            try:
                values = tuple(str(kv[name]) for name in self.labelnames)
            except KeyError as exc:
                raise ParameterError(
                    f"metric {self.name!r} needs labels "
                    f"{list(self.labelnames)}, missing {exc}") from None
            if len(kv) != len(self.labelnames):
                extra = set(kv) - set(self.labelnames)
                raise ParameterError(
                    f"metric {self.name!r} got unexpected labels "
                    f"{sorted(extra)}")
        else:
            values = tuple(str(v) for v in values)
        if len(values) != len(self.labelnames):
            raise ParameterError(
                f"metric {self.name!r} takes {len(self.labelnames)} "
                f"label value(s) {list(self.labelnames)}, got "
                f"{len(values)}")
        child = self._children.get(values)
        if child is None:
            with self._lock:
                child = self._children.get(values)
                if child is None:
                    if self.kind == "histogram":
                        child = _HistogramChild(self._lock, self.buckets)
                    else:
                        child = _CHILD_TYPES[self.kind](self._lock)
                    self._children[values] = child
        return child

    # label-less convenience passthroughs -------------------------------
    def _default(self):
        return self.labels()

    def inc(self, amount: float = 1.0) -> None:
        self._default().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._default().dec(amount)

    def set(self, value: float) -> None:
        self._default().set(value)

    def set_function(self, fn: Callable[[], float]) -> None:
        self._default().set_function(fn)

    def observe(self, value: float) -> None:
        self._default().observe(value)

    def observe_many(self, values: Sequence[float]) -> None:
        self._default().observe_many(values)

    @property
    def value(self) -> float:
        return self._default().value

    @property
    def count(self) -> int:
        return self._default().count

    @property
    def sum(self) -> float:
        return self._default().sum

    def cumulative_counts(self) -> List[int]:
        return self._default().cumulative_counts()

    def children(self) -> Dict[Tuple[str, ...], _Child]:
        """Label values -> child series (live view for snapshots)."""
        return dict(self._children)


class Counter(_Instrument):
    def __init__(self, name, help_text="", labelnames=()):
        super().__init__(name, "counter", help_text, tuple(labelnames))


class Gauge(_Instrument):
    def __init__(self, name, help_text="", labelnames=()):
        super().__init__(name, "gauge", help_text, tuple(labelnames))


class Histogram(_Instrument):
    def __init__(self, name, help_text="", labelnames=(),
                 buckets: Sequence[float] = DEFAULT_BUCKETS):
        buckets = tuple(float(b) for b in buckets)
        if not buckets:
            raise ParameterError("histogram needs at least one bucket")
        if any(b >= c for b, c in zip(buckets, buckets[1:])):
            raise ParameterError(
                f"histogram buckets must be strictly increasing, got "
                f"{buckets}")
        super().__init__(name, "histogram", help_text, tuple(labelnames),
                         buckets=buckets)


class MetricsRegistry:
    """A collection of instruments with get-or-create semantics and
    text exposition.

    >>> reg = MetricsRegistry()
    >>> served = reg.counter("repro_served_total", "requests served",
    ...                      labelnames=("op",))
    >>> served.labels(op="route").inc()
    >>> print(reg.render())     # doctest: +SKIP
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: "Dict[str, _Instrument]" = {}

    # -- creation -------------------------------------------------------
    def _get_or_create(self, cls, name: str, help_text: str,
                       labelnames: Sequence[str], **kwargs):
        labelnames = tuple(labelnames)
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                want_kind = cls.__name__.lower()
                if existing.kind != want_kind:
                    raise ParameterError(
                        f"metric {name!r} already registered as a "
                        f"{existing.kind}, cannot re-register as a "
                        f"{want_kind}")
                if existing.labelnames != labelnames:
                    raise ParameterError(
                        f"metric {name!r} already registered with "
                        f"labels {list(existing.labelnames)}, cannot "
                        f"re-register with {list(labelnames)}")
                return existing
            instrument = cls(name, help_text, labelnames, **kwargs)
            self._instruments[name] = instrument
            return instrument

    def counter(self, name: str, help_text: str = "",
                labelnames: Sequence[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help_text, labelnames)

    def gauge(self, name: str, help_text: str = "",
              labelnames: Sequence[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help_text, labelnames)

    def histogram(self, name: str, help_text: str = "",
                  labelnames: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_BUCKETS
                  ) -> Histogram:
        return self._get_or_create(Histogram, name, help_text,
                                   labelnames, buckets=buckets)

    # -- access ---------------------------------------------------------
    def get(self, name: str) -> Optional[_Instrument]:
        return self._instruments.get(name)

    def names(self) -> List[str]:
        return sorted(self._instruments)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def unregister(self, name: str) -> None:
        self._instruments.pop(name, None)

    def clear(self) -> None:
        """Drop every instrument (tests reset the default registry)."""
        with self._lock:
            self._instruments.clear()

    # -- exposition -----------------------------------------------------
    def render(self) -> str:
        """The Prometheus text exposition format, sorted by name.

        An empty registry renders the empty string (a valid scrape
        body).  Histogram children emit the standard ``_bucket`` /
        ``_sum`` / ``_count`` series with cumulative ``le`` buckets and
        a final ``+Inf`` bucket equal to ``_count``.
        """
        lines: List[str] = []
        for name in sorted(self._instruments):
            instrument = self._instruments[name]
            children = instrument.children()
            if not children:
                continue
            if instrument.help:
                safe_help = (instrument.help.replace("\\", r"\\")
                             .replace("\n", r"\n"))
                lines.append(f"# HELP {name} {safe_help}")
            lines.append(f"# TYPE {name} {instrument.kind}")
            for values in sorted(children):
                child = children[values]
                labels = dict(zip(instrument.labelnames, values))
                if instrument.kind == "histogram":
                    cumulative = child.cumulative_counts()
                    for bound, count in zip(child.buckets, cumulative):
                        lines.append(_series_line(
                            f"{name}_bucket",
                            {**labels, "le": _format_value(bound)},
                            count))
                    lines.append(_series_line(
                        f"{name}_bucket", {**labels, "le": "+Inf"},
                        child.count))
                    lines.append(_series_line(f"{name}_sum", labels,
                                              child.sum))
                    lines.append(_series_line(f"{name}_count", labels,
                                              child.count))
                else:
                    lines.append(_series_line(name, labels, child.value))
        return "\n".join(lines) + ("\n" if lines else "")


def _series_line(name: str, labels: Dict[str, str],
                 value: float) -> str:
    if labels:
        body = ",".join(
            f'{key}="{_escape_label_value(str(val))}"'
            for key, val in labels.items())
        return f"{name}{{{body}}} {_format_value(value)}"
    return f"{name} {_format_value(value)}"


# ----------------------------------------------------------------------
# Exposition parser (round-trip testing + the CLI snapshot renderer)
# ----------------------------------------------------------------------
class ParsedMetric:
    """One metric family parsed back out of exposition text."""

    __slots__ = ("name", "kind", "help", "samples")

    def __init__(self, name: str, kind: str = "untyped",
                 help_text: str = "") -> None:
        self.name = name
        self.kind = kind
        self.help = help_text
        #: ``(("label", "value"), ...)`` (sorted) -> sample value
        self.samples: Dict[Tuple[Tuple[str, str], ...], float] = {}


def _parse_labels(body: str) -> Dict[str, str]:
    labels: Dict[str, str] = {}
    i = 0
    while i < len(body):
        eq = body.index("=", i)
        key = body[i:eq].strip()
        if body[eq + 1] != '"':
            raise ParameterError(
                f"unquoted label value in exposition: {body!r}")
        j = eq + 2
        raw: List[str] = []
        while body[j] != '"':
            if body[j] == "\\":
                raw.append(body[j:j + 2])
                j += 2
            else:
                raw.append(body[j])
                j += 1
        labels[key] = _unescape_label_value("".join(raw))
        i = j + 1
        if i < len(body) and body[i] == ",":
            i += 1
    return labels


def parse_exposition(text: str) -> Dict[str, ParsedMetric]:
    """Parse exposition text into ``{family name: ParsedMetric}``.

    Histogram ``_bucket``/``_sum``/``_count`` series are folded back
    into their family (the family name is what ``# TYPE`` declared).
    Raises :class:`~repro.exceptions.ParameterError` on malformed
    lines, so the round-trip tests fail loudly rather than silently
    skipping series.
    """
    metrics: Dict[str, ParsedMetric] = {}
    types: Dict[str, str] = {}
    helps: Dict[str, str] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            name, _, help_text = rest.partition(" ")
            helps[name] = (help_text.replace(r"\n", "\n")
                           .replace(r"\\", "\\"))
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, kind = rest.partition(" ")
            types[name] = kind.strip()
            continue
        if line.startswith("#"):
            continue
        if "{" in line:
            if "}" not in line:
                raise ParameterError(
                    f"malformed exposition line (unclosed label "
                    f"block): {line!r}")
            name = line[:line.index("{")]
            body = line[line.index("{") + 1:line.rindex("}")]
            labels = _parse_labels(body)
            value_text = line[line.rindex("}") + 1:].strip()
        else:
            name, _, value_text = line.partition(" ")
            labels = {}
            value_text = value_text.strip()
        if value_text == "+Inf":
            value = math.inf
        elif value_text == "-Inf":
            value = -math.inf
        else:
            try:
                value = float(value_text)
            except ValueError:
                raise ParameterError(
                    f"unparseable exposition value in line "
                    f"{line!r}") from None
        family = name
        for suffix in ("_bucket", "_sum", "_count"):
            base = name[:-len(suffix)] if name.endswith(suffix) else None
            if base and types.get(base) == "histogram":
                family = base
                labels = {**labels, "__series__": suffix.lstrip("_")}
                break
        metric = metrics.get(family)
        if metric is None:
            metric = ParsedMetric(family, types.get(family, "untyped"),
                                  helps.get(family, ""))
            metrics[family] = metric
        metric.kind = types.get(family, metric.kind)
        metric.help = helps.get(family, metric.help)
        key = tuple(sorted(labels.items()))
        metric.samples[key] = value
    return metrics


# ----------------------------------------------------------------------
# Process-global default
# ----------------------------------------------------------------------
_DEFAULT = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-global default registry.

    Long-lived singletons (the CLI's serve path, the quickstart)
    report here; components that may be instantiated many times per
    process (brokers, pools, builders, load runs) default to private
    registries so their ``snapshot()`` dicts stay per-instance — pass
    ``registry=get_registry()`` to aggregate them globally instead.
    """
    return _DEFAULT


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-global default (tests); returns the old one."""
    global _DEFAULT
    old = _DEFAULT
    _DEFAULT = registry
    return old
