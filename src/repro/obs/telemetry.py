"""Time-series telemetry: typed instruments sampled over simulated time.

The run-level scalars in :class:`repro.sim.metrics.SimMetrics` answer
"what happened over the measured window"; this module answers "*when* did
it happen".  Three pieces compose:

* :class:`MetricsRegistry` -- a typed registry of named, labelled
  instruments (:class:`Counter` / :class:`Gauge` / :class:`Histogram`).
  Instruments are either *stored* (incremented on the request path) or
  *callback-backed* (a ``fn`` read at snapshot time, e.g. a cache's
  ``occupancy_bytes``), so instrumenting a layer costs nothing until someone
  actually samples it.
* :class:`Timeline` -- snapshots every instrument into fixed-width bins
  of **simulated** time (``bin_s``, default one hour).  Each closed bin
  records counter *deltas* and gauge *values*; deltas telescope, so the
  per-bin rows re-sum exactly to the run totals.
* :class:`RunTelemetry` -- the engine-facing bundle: one per
  :func:`repro.sim.engine.run_simulation` call.  It registers the
  request-path counters (labelled ``window=warmup|measured`` so the
  measured slice reconciles with ``SimMetrics`` while warmup bins feed
  the convergence check), binds the architecture's caches and hint
  directory via :func:`bind_architecture`, and mirrors the fault
  injector's node states as up/down gauges via :func:`bind_injector`.

Telemetry is strictly opt-in: without a :class:`RunTelemetry` the engine
pays one pointer check per site, and nothing here ever feeds the content
addresses in :mod:`repro.runner.fingerprint` -- telemetry is output
*about* a run, never input *to* one.
"""

from __future__ import annotations

import bisect
import math
import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator, Mapping, Sequence

from repro.netmodel.model import AccessPoint
from repro.obs import profiling

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.faults.injector import FaultInjector
    from repro.hierarchy.base import AccessResult, Architecture
    from repro.traces.records import Request

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default response-time buckets (ms), chosen to straddle the testbed's
#: charge points (local hit ~2 ms, probes ~10s of ms, origin ~1-2 s).
DEFAULT_BUCKETS_MS = (
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0,
    200.0, 500.0, 1000.0, 2000.0, 5000.0, 10000.0,
)


def _escape_label_value(value: str) -> str:
    """Escape per the Prometheus exposition format: ``\\``, ``"``, newline."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


_UNESCAPE_RE = re.compile(r"\\(.)")


def _unescape_label_value(raw: str) -> str:
    # Single pass: sequential str.replace calls corrupt values where one
    # replacement manufactures another's pattern (a literal backslash
    # followed by ``n`` escapes to ``\\n``, which ``.replace("\\n", ...)``
    # would then wrongly turn into a newline).
    return _UNESCAPE_RE.sub(lambda m: "\n" if m.group(1) == "n" else m.group(1), raw)


def render_metric_key(name: str, labels: Mapping[str, str]) -> str:
    """Canonical ``name{k="v",...}`` selector (labels sorted by key).

    This one renderer is shared by the Prometheus exposition and the
    timeline rows, so a JSONL consumer can match row keys against scrape
    selectors verbatim.
    """
    if not labels:
        return name
    inner = ",".join(
        f'{key}="{_escape_label_value(str(labels[key]))}"' for key in sorted(labels)
    )
    return f"{name}{{{inner}}}"


def parse_metric_key(key: str) -> tuple[str, dict[str, str]]:
    """Invert :func:`render_metric_key`; raises ``ValueError`` on bad input."""
    brace = key.find("{")
    if brace == -1:
        if not _NAME_RE.match(key):
            raise ValueError(f"bad metric name {key!r}")
        return key, {}
    name, rest = key[:brace], key[brace:]
    if not _NAME_RE.match(name) or not rest.endswith("}"):
        raise ValueError(f"bad metric key {key!r}")
    labels: dict[str, str] = {}
    body = rest[1:-1]
    position = 0
    pattern = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"(,|$)')
    while position < len(body):
        match = pattern.match(body, position)
        if match is None:
            raise ValueError(f"bad label block in {key!r}")
        labels[match.group(1)] = _unescape_label_value(match.group(2))
        position = match.end()
    return name, labels


class Instrument:
    """Base of all instruments: a name, a label set, and a canonical key."""

    kind = "abstract"

    def __init__(self, name: str, labels: Mapping[str, str]) -> None:
        self.name = name
        self.labels = dict(labels)
        self.key = render_metric_key(name, self.labels)


class Counter(Instrument):
    """Monotonically non-decreasing count.

    Either *stored* (use :meth:`inc`) or *callback-backed* (constructed
    with ``fn``; the source -- e.g. ``cache.insertions`` -- must itself be
    monotone).  A callback-backed counter rejects :meth:`inc`.
    """

    kind = "counter"

    def __init__(
        self,
        name: str,
        labels: Mapping[str, str],
        fn: Callable[[], float] | None = None,
    ) -> None:
        super().__init__(name, labels)
        self._value = 0.0
        self._fn = fn

    def inc(self, amount: float = 1.0) -> None:
        if self._fn is not None:
            raise RuntimeError(f"counter {self.key} is callback-backed; cannot inc()")
        if amount < 0:
            raise ValueError(f"counter increments must be non-negative, got {amount}")
        self._value += amount

    def bind(self, fn: Callable[[], float]) -> None:
        """(Re)attach the value callback -- used when a fresh architecture
        re-registers under an existing instrument key."""
        self._fn = fn

    @property
    def value(self) -> float:
        return float(self._fn()) if self._fn is not None else self._value


class Gauge(Instrument):
    """Point-in-time value (occupancy bytes, node up/down, load factor)."""

    kind = "gauge"

    def __init__(
        self,
        name: str,
        labels: Mapping[str, str],
        fn: Callable[[], float] | None = None,
    ) -> None:
        super().__init__(name, labels)
        self._value = 0.0
        self._fn = fn

    def set(self, value: float) -> None:
        if self._fn is not None:
            raise RuntimeError(f"gauge {self.key} is callback-backed; cannot set()")
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.set(self._value + amount)

    def dec(self, amount: float = 1.0) -> None:
        self.set(self._value - amount)

    def bind(self, fn: Callable[[], float]) -> None:
        self._fn = fn

    @property
    def value(self) -> float:
        return float(self._fn()) if self._fn is not None else self._value


class Histogram(Instrument):
    """Fixed-bucket distribution with Prometheus cumulative semantics.

    Exposes ``sum``/``count`` (both monotone, so the timeline treats them
    as counters) and per-bucket cumulative counts for the text exposition.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: Mapping[str, str],
        buckets: Sequence[float] = DEFAULT_BUCKETS_MS,
    ) -> None:
        super().__init__(name, labels)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if len(set(bounds)) != len(bounds):
            raise ValueError(f"duplicate histogram bounds in {bounds}")
        self.bounds = bounds
        self._bucket_counts = [0] * (len(bounds) + 1)  # last = +Inf overflow
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        if value < 0:
            raise ValueError(f"histogram observations must be non-negative, got {value}")
        self._bucket_counts[bisect.bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """``(le_bound, cumulative_count)`` pairs ending with ``(inf, count)``."""
        pairs: list[tuple[float, int]] = []
        running = 0
        for bound, bucket in zip(self.bounds, self._bucket_counts):
            running += bucket
            pairs.append((bound, running))
        pairs.append((math.inf, self.count))
        return pairs


@dataclass
class _Family:
    """One metric name: its kind, label schema, help text, and children."""

    name: str
    kind: str
    label_keys: tuple[str, ...]
    help: str
    instruments: dict[tuple[str, ...], Instrument] = field(default_factory=dict)


class MetricsRegistry:
    """Typed, labelled instrument registry with get-or-create semantics.

    Invariants (enforced, pinned by tests):

    * a metric name has exactly one kind -- re-registering ``foo`` as a
      gauge after a counter raises ``TypeError``;
    * a metric name has exactly one label-key schema -- children may vary
      label *values* but never label *keys*;
    * names and label keys must be Prometheus-legal identifiers;
    * the same ``(name, label values)`` always returns the same instrument.
    """

    def __init__(self) -> None:
        self._families: dict[str, _Family] = {}
        #: Bumped on every new family/child; snapshot plans key off it.
        self._generation = 0
        self._plans: dict[str | None, tuple] = {}

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def counter(
        self,
        name: str,
        labels: Mapping[str, str] | None = None,
        *,
        help: str = "",
        fn: Callable[[], float] | None = None,
    ) -> Counter:
        """Get or create the counter child for ``(name, labels)``."""
        instrument = self._get_or_create(name, "counter", labels, help, fn=fn)
        assert isinstance(instrument, Counter)
        return instrument

    def gauge(
        self,
        name: str,
        labels: Mapping[str, str] | None = None,
        *,
        help: str = "",
        fn: Callable[[], float] | None = None,
    ) -> Gauge:
        """Get or create the gauge child for ``(name, labels)``."""
        instrument = self._get_or_create(name, "gauge", labels, help, fn=fn)
        assert isinstance(instrument, Gauge)
        return instrument

    def histogram(
        self,
        name: str,
        labels: Mapping[str, str] | None = None,
        *,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS_MS,
    ) -> Histogram:
        """Get or create the histogram child for ``(name, labels)``."""
        instrument = self._get_or_create(name, "histogram", labels, help, buckets=buckets)
        assert isinstance(instrument, Histogram)
        return instrument

    def _get_or_create(
        self,
        name: str,
        kind: str,
        labels: Mapping[str, str] | None,
        help: str,
        fn: Callable[[], float] | None = None,
        buckets: Sequence[float] | None = None,
    ) -> Instrument:
        if not _NAME_RE.match(name):
            raise ValueError(f"bad metric name {name!r}")
        labels = {str(k): str(v) for k, v in (labels or {}).items()}
        for key in labels:
            if not _LABEL_RE.match(key):
                raise ValueError(f"bad label key {key!r} on metric {name!r}")
        label_keys = tuple(sorted(labels))
        family = self._families.get(name)
        if family is None:
            family = self._families[name] = _Family(
                name=name, kind=kind, label_keys=label_keys, help=help
            )
        else:
            if family.kind != kind:
                raise TypeError(
                    f"metric {name!r} is a {family.kind}, cannot re-register as {kind}"
                )
            if family.label_keys != label_keys:
                raise ValueError(
                    f"metric {name!r} uses label keys {family.label_keys}, "
                    f"got {label_keys}"
                )
            if help and not family.help:
                family.help = help
        child_key = tuple(labels[k] for k in label_keys)
        instrument = family.instruments.get(child_key)
        if instrument is None:
            if kind == "counter":
                instrument = Counter(name, labels, fn=fn)
            elif kind == "gauge":
                instrument = Gauge(name, labels, fn=fn)
            else:
                instrument = Histogram(name, labels, buckets=buckets or DEFAULT_BUCKETS_MS)
            family.instruments[child_key] = instrument
            self._generation += 1
        elif fn is not None:
            # A fresh run re-registering the same key rebinds the callback
            # to the new live object (e.g. a rebuilt cache).
            instrument.bind(fn)  # type: ignore[union-attr]
        return instrument

    # ------------------------------------------------------------------
    # iteration / snapshots
    # ------------------------------------------------------------------
    def families(self) -> Iterator[_Family]:
        """Families sorted by metric name (exposition order)."""
        for name in sorted(self._families):
            yield self._families[name]

    def instruments(self) -> Iterator[Instrument]:
        """Every instrument, sorted by name then label values."""
        for family in self.families():
            for child_key in sorted(family.instruments):
                yield family.instruments[child_key]

    def _snapshot_plan(self, arch: str | None) -> tuple:
        """Memoized ``(generation, counter_entries, gauge_entries)`` for
        one ``arch`` filter.

        A timeline close used to re-sort every family and child, re-walk
        three generator layers, and re-render each histogram's series
        keys -- per bin, so over hundreds of bins that walk dominated the
        cost of enabled telemetry.  All of it is invariant between
        registrations, so the plan caches the sorted order, the kind
        split, and the pre-rendered keys, invalidated by the registration
        generation.  Entries hold the *instrument* (never its callback):
        ``bind()`` rebinds in place, so value reads stay live.
        """
        plan = self._plans.get(arch)
        if plan is not None and plan[0] == self._generation:
            return plan
        counter_entries: list[tuple] = []
        gauge_entries: list[tuple[str, Instrument]] = []
        for instrument in self.instruments():
            if arch is not None and instrument.labels.get("arch", arch) != arch:
                continue
            if isinstance(instrument, Counter):
                counter_entries.append((instrument.key, None, instrument))
            elif isinstance(instrument, Histogram):
                counter_entries.append(
                    (
                        render_metric_key(instrument.name + "_sum", instrument.labels),
                        render_metric_key(
                            instrument.name + "_count", instrument.labels
                        ),
                        instrument,
                    )
                )
            elif isinstance(instrument, Gauge):
                gauge_entries.append((instrument.key, instrument))
        plan = (self._generation, tuple(counter_entries), tuple(gauge_entries))
        self._plans[arch] = plan
        return plan

    def counter_items(self, *, arch: str | None = None) -> Iterator[tuple[str, float]]:
        """``(key, value)`` for everything monotone: counters plus each
        histogram's ``_sum``/``_count`` series.

        ``arch`` filters to instruments whose ``arch`` label matches (or
        that carry no ``arch`` label at all) -- a shared registry can hold
        several runs' instruments without cross-talk in their timelines.
        """
        for key, count_key, instrument in self._snapshot_plan(arch)[1]:
            if count_key is None:
                yield key, instrument.value
            else:
                yield key, instrument.sum
                yield count_key, float(instrument.count)

    def gauge_items(self, *, arch: str | None = None) -> Iterator[tuple[str, float]]:
        """``(key, value)`` for every gauge (same ``arch`` filter rule)."""
        for key, instrument in self._snapshot_plan(arch)[2]:
            yield key, instrument.value


class Timeline:
    """Snapshots a registry into fixed-width simulated-time bins.

    Bin ``i`` covers ``[i*bin_s, (i+1)*bin_s)``; a request exactly on a
    bin edge therefore belongs to the *later* bin (and closes the earlier
    one first).  Rows are emitted for every bin in ``[0, end_time]``,
    including empty ones, so the series has no gaps; the final row may be
    partial (``t_end == end_time``) when the trace does not end on an
    edge.  Counter values are recorded as deltas -- they telescope, so
    summing any column over all rows reproduces the run total exactly.
    """

    def __init__(
        self, registry: MetricsRegistry, *, bin_s: float = 3600.0, arch: str | None = None
    ) -> None:
        if bin_s <= 0:
            raise ValueError(f"bin width must be positive, got {bin_s}")
        self.registry = registry
        self.bin_s = float(bin_s)
        self.arch = arch
        self.rows: list[dict] = []
        self._bin = 0
        self._last: dict[str, float] = {}
        self._close_hooks: list[Callable[[float], None]] = []
        self._finished = False

    def add_close_hook(self, hook: Callable[[float], None]) -> None:
        """Call ``hook(t_end)`` just before each bin's snapshot.

        :class:`RunTelemetry` registers the fault injector's ``advance``
        here, so up/down gauges reflect the plan's state exactly at the
        bin boundary (``advance`` is monotone and idempotent, and the
        boundary never exceeds the next request's time).
        """
        self._close_hooks.append(hook)

    def advance(self, t: float) -> None:
        """Clock moved to ``t``: close every bin that ended at or before it."""
        target = int(t // self.bin_s)
        while self._bin < target:
            self._close((self._bin + 1) * self.bin_s)

    def finish(self, end_time: float) -> None:
        """Close out the run at ``end_time`` (idempotent).

        Emits all remaining bins through ``end_time``; the last row's
        ``t_end`` is ``end_time`` itself when the run ends mid-bin.
        """
        if self._finished:
            return
        target = int(end_time // self.bin_s)
        if end_time > 0 and end_time == target * self.bin_s:
            target -= 1  # ending exactly on an edge: the last bin is full
        target = max(target, self._bin)
        while self._bin < target:
            self._close((self._bin + 1) * self.bin_s)
        self._close(max(end_time, self._bin * self.bin_s))
        self._finished = True

    def _close(self, t_end: float) -> None:
        # Host-profiling hook: bin closes are the telemetry hot spot (one
        # registry snapshot each), so they get their own span when a
        # profiler is attached -- one pointer check per *bin* otherwise.
        profiler = profiling.active()
        if profiler is not None:
            with profiler.span(
                "telemetry_bin_close",
                category="telemetry",
                bin=self._bin,
                arch=self.arch or "",
            ):
                self._close_impl(t_end)
            return
        self._close_impl(t_end)

    def _close_impl(self, t_end: float) -> None:
        for hook in self._close_hooks:
            hook(t_end)
        counters: dict[str, float] = {}
        for key, value in self.registry.counter_items(arch=self.arch):
            delta = value - self._last.get(key, 0.0)
            self._last[key] = value
            if delta != 0.0:
                counters[key] = delta
        gauges = dict(self.registry.gauge_items(arch=self.arch))
        self.rows.append(
            {
                "arch": self.arch or "",
                "bin": self._bin,
                "t_start": self._bin * self.bin_s,
                "t_end": t_end,
                "counters": counters,
                "gauges": gauges,
            }
        )
        self._bin += 1


class _WindowChannel:
    """One window's ("warmup"/"measured") instruments, pre-resolved.

    The request path used to pay a tuple construction + dict hash per
    instrument per request (eight of them).  Resolving each call site's
    instrument once at ``begin`` and holding it in a slot (or a list
    indexed by the AccessPoint int) turns ``observe`` into direct
    attribute access -- the memoized-lookup satellite of the fastpath PR.
    """

    __slots__ = (
        "requests",
        "bytes",
        "response",
        "intercache",
        "false_positive",
        "false_negative",
        "suboptimal_positive",
        "push_hit",
        "timeout_fallback",
        "stale_hint_forward",
        "fault_ms",
    )

    def __init__(self, registry: MetricsRegistry, arch: str, window: str) -> None:
        # Index 0 is unused: AccessPoint ints start at 1.
        self.requests: list[Counter | None] = [None] * (len(AccessPoint) + 1)
        self.bytes: list[Counter | None] = [None] * (len(AccessPoint) + 1)
        for point in AccessPoint:
            labels = {"arch": arch, "point": point.name, "window": window}
            self.requests[int(point)] = registry.counter(
                "repro_requests_total",
                labels,
                help="Requests satisfied per access point",
            )
            self.bytes[int(point)] = registry.counter(
                "repro_bytes_total",
                labels,
                help="Bytes served per access point",
            )
        window_labels = {"arch": arch, "window": window}
        self.response = registry.histogram(
            "repro_response_time_ms",
            window_labels,
            help="Per-request response time distribution",
        )
        self.intercache = registry.counter(
            "repro_intercache_bytes_total",
            window_labels,
            help="Bytes moved cache-to-cache (remote hits)",
        )
        for flag in (
            "false_positive",
            "false_negative",
            "suboptimal_positive",
            "push_hit",
            "timeout_fallback",
            "stale_hint_forward",
        ):
            setattr(
                self,
                flag,
                registry.counter(
                    "repro_result_flags_total",
                    {"arch": arch, "flag": flag, "window": window},
                    help="Per-request result pathology flags",
                ),
            )
        self.fault_ms = registry.counter(
            "repro_fault_added_ms_total",
            window_labels,
            help="Response-time milliseconds attributable to faults",
        )


class RunTelemetry:
    """Everything the engine needs to narrate one run over time.

    Construct one per :func:`repro.sim.engine.run_simulation` call (it
    refuses to be reused) and pass it as ``telemetry=``.  Several
    ``RunTelemetry`` objects may share one :class:`MetricsRegistry` -- the
    constant ``arch`` label keeps their instruments (and their timelines)
    apart, which is how the CLI's ``timeline`` verb exports all four
    architectures through one registry.
    """

    def __init__(
        self, registry: MetricsRegistry | None = None, *, bin_s: float = 3600.0
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.bin_s = float(bin_s)
        self.timeline: Timeline | None = None
        self.arch = ""

    # ------------------------------------------------------------------
    # engine-facing lifecycle
    # ------------------------------------------------------------------
    def begin(
        self, architecture: "Architecture", injector: "FaultInjector | None" = None
    ) -> None:
        """Wire instruments for one run (engine calls this before the loop)."""
        if self.timeline is not None:
            raise RuntimeError("RunTelemetry drives exactly one run; build a new one")
        self.arch = architecture.name
        self.timeline = Timeline(self.registry, bin_s=self.bin_s, arch=self.arch)
        self._warmup = _WindowChannel(self.registry, self.arch, "warmup")
        self._measured = _WindowChannel(self.registry, self.arch, "measured")
        architecture.register_telemetry(self.registry)
        if injector is not None:
            bind_injector(self.registry, injector, arch=self.arch)
            self.timeline.add_close_hook(injector.advance)

    def advance(self, t: float) -> None:
        """Clock hook; the engine calls this *before* the injector advances."""
        self.timeline.advance(t)

    def observe(self, request: "Request", result: "AccessResult", *, measured: bool) -> None:
        """Account one processed request into the current bin's window."""
        channel = self._measured if measured else self._warmup
        point = int(result.point)
        channel.requests[point].inc()
        channel.bytes[point].inc(request.size)
        channel.response.observe(result.time_ms)
        if result.remote_hit:
            channel.intercache.inc(request.size)
        if result.false_positive:
            channel.false_positive.inc()
        if result.false_negative:
            channel.false_negative.inc()
        if result.suboptimal_positive:
            channel.suboptimal_positive.inc()
        if result.push_hit:
            channel.push_hit.inc()
        if result.timeout_fallback:
            channel.timeout_fallback.inc()
        if result.stale_hint_forward:
            channel.stale_hint_forward.inc()
        if result.fault_added_ms:
            channel.fault_ms.inc(result.fault_added_ms)

    def observe_values(
        self,
        *,
        point: int,
        size: int,
        time_ms: float,
        measured: bool,
        remote_hit: bool = False,
        false_positive: bool = False,
        false_negative: bool = False,
        suboptimal_positive: bool = False,
        push_hit: bool = False,
        timeout_fallback: bool = False,
        stale_hint_forward: bool = False,
        fault_added_ms: float = 0.0,
    ) -> None:
        """:meth:`observe` from plain scalars (the fast engine's decoder).

        Identical accounting without requiring ``Request``/``AccessResult``
        objects, so a columnar run can stream decoded rows directly.
        """
        channel = self._measured if measured else self._warmup
        channel.requests[point].inc()
        channel.bytes[point].inc(size)
        channel.response.observe(time_ms)
        if remote_hit:
            channel.intercache.inc(size)
        if false_positive:
            channel.false_positive.inc()
        if false_negative:
            channel.false_negative.inc()
        if suboptimal_positive:
            channel.suboptimal_positive.inc()
        if push_hit:
            channel.push_hit.inc()
        if timeout_fallback:
            channel.timeout_fallback.inc()
        if stale_hint_forward:
            channel.stale_hint_forward.inc()
        if fault_added_ms:
            channel.fault_ms.inc(fault_added_ms)

    def finish(self, end_time: float) -> None:
        """Close the timeline at the trace's end (engine calls after loop)."""
        self.timeline.finish(end_time)

    @property
    def rows(self) -> list[dict]:
        """The per-bin rows collected so far (empty before ``begin``)."""
        return self.timeline.rows if self.timeline is not None else []


# ----------------------------------------------------------------------
# layer bindings (callback-backed instruments; zero request-path cost)
# ----------------------------------------------------------------------
def bind_cache(
    registry: MetricsRegistry,
    cache,
    *,
    arch: str,
    level: str,
    node: int,
) -> None:
    """Register occupancy/churn instruments for one data cache.

    Works for any cache satisfying the
    :class:`repro.cache.policy.ReplacementPolicy` protocol's observation
    surface: ``occupancy_bytes``/``__len__`` plus the always-on
    ``insertions``/``evictions``/``invalidations`` counters (every policy
    cache and :class:`repro.cache.ttl.TTLCache`) -- one uniform accessor,
    no per-class fallbacks.
    """
    labels = {"arch": arch, "level": level, "node": str(node)}
    registry.gauge(
        "repro_cache_occupancy_bytes",
        labels,
        help="Bytes currently cached",
        fn=lambda c=cache: float(c.occupancy_bytes),
    )
    registry.gauge(
        "repro_cache_entries",
        labels,
        help="Objects currently cached",
        fn=lambda c=cache: float(len(c)),
    )
    registry.counter(
        "repro_cache_insertions_total",
        labels,
        help="Objects stored since construction",
        fn=lambda c=cache: float(c.insertions),
    )
    registry.counter(
        "repro_cache_evictions_total",
        labels,
        help="Capacity evictions since construction",
        fn=lambda c=cache: float(c.evictions),
    )
    registry.counter(
        "repro_cache_invalidations_total",
        labels,
        help="Consistency invalidations since construction",
        fn=lambda c=cache: float(c.invalidations),
    )


def bind_architecture(registry: MetricsRegistry, architecture: "Architecture") -> None:
    """Introspect an architecture and register its layers' instruments.

    Covers every shipped architecture by structural convention:
    ``l1_caches``/``l2_caches`` lists and a single ``l3_cache`` become
    per-node cache instruments; a ``directory``
    (:class:`repro.hints.directory.HintDirectory`) becomes hint-count,
    propagation, staleness-correction and false-probe instruments; ICP's
    sibling counters ride along when present.
    """
    arch = architecture.name
    for node, cache in enumerate(getattr(architecture, "l1_caches", ()) or ()):
        bind_cache(registry, cache, arch=arch, level="l1", node=node)
    for node, cache in enumerate(getattr(architecture, "l2_caches", ()) or ()):
        bind_cache(registry, cache, arch=arch, level="l2", node=node)
    l3 = getattr(architecture, "l3_cache", None)
    if l3 is not None:
        bind_cache(registry, l3, arch=arch, level="l3", node=0)
    directory = getattr(architecture, "directory", None)
    if directory is not None:
        labels = {"arch": arch}
        registry.gauge(
            "repro_hint_entries",
            labels,
            help="Objects with at least one visible hint",
            fn=lambda d=directory: float(d.visible_entries),
        )
        registry.counter(
            "repro_hint_informs_total",
            labels,
            help="Inform events (new copies announced)",
            fn=lambda d=directory: float(d.inform_events),
        )
        registry.counter(
            "repro_hint_retracts_total",
            labels,
            help="Retract events (copies withdrawn)",
            fn=lambda d=directory: float(d.retract_events),
        )
        registry.counter(
            "repro_hint_corrections_total",
            labels,
            help="Stale hints dropped after a probe found the copy gone",
            fn=lambda d=directory: float(d.corrections),
        )
        registry.counter(
            "repro_hint_false_negative_lookups_total",
            labels,
            help="Lookups that missed although a remote copy existed",
            fn=lambda d=directory: float(d.false_negatives),
        )
        registry.counter(
            "repro_hint_false_positive_probes_total",
            labels,
            help="Probes that found the advertised copy gone",
            fn=lambda d=directory: float(d.false_positives_recorded),
        )
    if hasattr(architecture, "sibling_queries"):
        registry.counter(
            "repro_icp_sibling_queries_total",
            {"arch": arch},
            help="ICP sibling queries issued",
            fn=lambda a=architecture: float(a.sibling_queries),
        )
    if hasattr(architecture, "sibling_hits"):
        registry.counter(
            "repro_icp_sibling_hits_total",
            {"arch": arch},
            help="ICP sibling queries answered by a sibling copy",
            fn=lambda a=architecture: float(a.sibling_hits),
        )


#: Gauges :func:`bind_injector` registers.  They mirror the fault plan's
#: state, so every partition of a sharded run reports the same value.
FAULT_PLAN_GAUGES = frozenset(
    {
        "repro_node_up",
        "repro_fault_origin_factor",
        "repro_fault_latency_mult",
        "repro_fault_hint_loss_prob",
    }
)


def bind_injector(
    registry: MetricsRegistry, injector: "FaultInjector", *, arch: str
) -> None:
    """Mirror a fault injector's state as gauges.

    Every node the plan ever crashes or recovers gets a ``repro_node_up``
    gauge (1 up, 0 down); the level-wide conditions (origin slowdown,
    link degradation, hint loss) become gauges too, so degradation
    windows are visible in the same timeline as the hit-rate dip they
    cause.
    """
    from repro.faults.events import NodeCrash, NodeRecover

    targets: set[tuple[str, int]] = set()
    for event in injector.plan.events:
        if isinstance(event, (NodeCrash, NodeRecover)):
            targets.add((event.kind.value, event.node))
    for kind, node in sorted(targets):
        registry.gauge(
            "repro_node_up",
            {"arch": arch, "kind": kind, "node": str(node)},
            help="1 while the node is reachable, 0 while crashed",
            fn=lambda i=injector, k=kind, n=node: 0.0 if i.is_down(k, n) else 1.0,
        )
    labels = {"arch": arch}
    registry.gauge(
        "repro_fault_origin_factor",
        labels,
        help="Current origin-fetch latency multiplier",
        fn=lambda i=injector: float(i.origin_factor),
    )
    registry.gauge(
        "repro_fault_latency_mult",
        labels,
        help="Current network-charge latency multiplier",
        fn=lambda i=injector: float(i.latency_mult),
    )
    registry.gauge(
        "repro_fault_hint_loss_prob",
        labels,
        help="Current hint-batch loss probability",
        fn=lambda i=injector: float(i.hint_loss_prob),
    )


# ----------------------------------------------------------------------
# warmup convergence
# ----------------------------------------------------------------------
@dataclass
class ConvergenceReport:
    """When (and whether) a run's L1 hit rate stabilized.

    ``series`` is the cumulative hit rate for ``point`` after each
    non-empty bin; ``converged_at_s`` is the end of the earliest bin from
    which every later cumulative rate stays within ``tolerance`` of the
    final rate -- i.e. the clock time after which measuring would have
    been safe.  ``converged`` is False when only the final bin qualifies
    (the rate was still moving at the end of the trace).
    """

    arch: str
    point: str
    tolerance: float
    converged: bool
    converged_at_s: float | None
    final_rate: float
    series: list[tuple[float, float]]

    def summary_line(self) -> str:
        """One human-readable line for CLI output."""
        if not self.series:
            return f"{self.arch}: no requests observed"
        if not self.converged:
            return (
                f"{self.arch}: {self.point} hit rate still moving at trace end "
                f"(final {self.final_rate:.3f})"
            )
        hours = (self.converged_at_s or 0.0) / 3600.0
        return (
            f"{self.arch}: {self.point} hit rate within {self.tolerance:.0%} of "
            f"final ({self.final_rate:.3f}) after {hours:.1f} h"
        )


def warmup_convergence(
    rows: Sequence[Mapping],
    *,
    point: str = "L1",
    tolerance: float = 0.02,
) -> ConvergenceReport:
    """Judge warmup convergence from one architecture's timeline rows.

    Uses *cumulative* hit rate at ``point`` over all windows (warmup and
    measured alike -- that is the point: the warmup bins are exactly the
    data the end-of-run scalars cannot show).  Validates the paper's
    two-day warmup by reporting when measurement would have become safe.
    """
    if tolerance <= 0:
        raise ValueError(f"tolerance must be positive, got {tolerance}")
    arch = str(rows[0].get("arch", "")) if rows else ""
    cumulative_requests = 0.0
    cumulative_point = 0.0
    series: list[tuple[float, float]] = []
    for row in rows:
        bin_requests = 0.0
        bin_point = 0.0
        for key, delta in row["counters"].items():
            if not key.startswith("repro_requests_total"):
                continue
            _name, labels = parse_metric_key(key)
            bin_requests += delta
            if labels.get("point") == point:
                bin_point += delta
        if bin_requests == 0.0:
            continue
        cumulative_requests += bin_requests
        cumulative_point += bin_point
        series.append((float(row["t_end"]), cumulative_point / cumulative_requests))
    if not series:
        return ConvergenceReport(
            arch=arch,
            point=point,
            tolerance=tolerance,
            converged=False,
            converged_at_s=None,
            final_rate=0.0,
            series=[],
        )
    final_rate = series[-1][1]
    converged_at = series[-1][0]
    for index in range(len(series) - 1, -1, -1):
        if abs(series[index][1] - final_rate) > tolerance:
            break
        converged_at = series[index][0]
    converged = len(series) > 1 and converged_at < series[-1][0]
    return ConvergenceReport(
        arch=arch,
        point=point,
        tolerance=tolerance,
        converged=converged,
        converged_at_s=converged_at if converged else None,
        final_rate=final_rate,
        series=series,
    )


def merge_timeline_rows(row_lists: Sequence[Sequence[Mapping]]) -> list[dict]:
    """Merge per-partition timeline rows of one architecture, bin by bin.

    The sharded runner gives every virtual partition its own
    :class:`RunTelemetry` over the same trace clock (same ``bin_s``, same
    ``finish`` time), so the per-partition row lists are congruent: same
    length, same ``bin``/``t_start``/``t_end``/``arch`` per position.
    The merge sums counter *deltas* (they telescope, so merged bins
    re-sum to the merged run totals exactly) and sums gauge values --
    cache occupancies and entry counts add across partitions.  The
    :data:`FAULT_PLAN_GAUGES` mirror one plan into every partition, so
    they merge to their common value instead.

    Callers fold partitions in canonical partition order: summing floats
    in a fixed order is what keeps merged rows byte-identical for any
    shard count.  Raises ``ValueError`` on incongruent row lists and on
    partitions that disagree on a fault-plan gauge.
    """
    row_lists = [list(rows) for rows in row_lists]
    if not row_lists:
        return []
    first = row_lists[0]
    for rows in row_lists[1:]:
        if len(rows) != len(first):
            raise ValueError(
                f"cannot merge timelines of {len(rows)} vs {len(first)} bins"
            )
    merged: list[dict] = []
    for index, base in enumerate(first):
        counters: dict[str, float] = {}
        gauges: dict[str, float] = {}
        for rows in row_lists:
            row = rows[index]
            for field_name in ("arch", "bin", "t_start", "t_end"):
                if row[field_name] != base[field_name]:
                    raise ValueError(
                        f"bin {index}: field {field_name!r} mismatch "
                        f"({row[field_name]!r} vs {base[field_name]!r})"
                    )
            for key, delta in row.get("counters", {}).items():
                counters[key] = counters.get(key, 0.0) + delta
            for key, value in row.get("gauges", {}).items():
                if key.split("{", 1)[0] not in FAULT_PLAN_GAUGES:
                    gauges[key] = gauges.get(key, 0.0) + value
                elif gauges.setdefault(key, value) != value:
                    raise ValueError(
                        f"bin {index}: partitions disagree on {key} "
                        f"({value!r} vs {gauges[key]!r})"
                    )
        merged.append(
            {
                "arch": base["arch"],
                "bin": base["bin"],
                "t_start": base["t_start"],
                "t_end": base["t_end"],
                "counters": dict(sorted(counters.items())),
                "gauges": dict(sorted(gauges.items())),
            }
        )
    return merged
