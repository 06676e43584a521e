"""End-to-end and per-layer benchmark of the trace-driven cache simulator.

Four workloads, each one call sequence in one process (see README.md for
why each exists and what every metric should move):

* ``paper-all`` -- every registered experiment, in registry order, rendered.
* ``dec-unbounded`` -- the standard four architectures on one DEC trace,
  unbounded caches, fast engine.
* ``dec-bounded-timeline`` -- the same with LRU-bounded capacities and a
  1 h telemetry timeline (``timeline --policy lru --engine fast``).
* ``dec-sharded`` -- the standard four through ``run_comparison_sharded``
  (4 shards, 16 virtual partitions, 2 jobs) over a fresh on-disk trace
  store, timeline rows collected in 1-day bins.

All timing is host time taken from outside the program: the benchmark's
own spans wrap its calls into each layer's public functions.  A traced
run additionally attaches the program's ``repro.obs.profiling``
``SpanProfiler`` to read the spans that already exist inside it.
End-to-end times are rescaled to a reference host speed (``HostClock``),
and ``run_s`` sums each operation's median over the run's passes.
"""

from __future__ import annotations

import dataclasses
import functools
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import types
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DIGESTS_PATH = os.path.join(HERE, "digests.json")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
SPANS_DIR = os.path.join(ROOT, ".perfbench_out")

ARCHS = ("hierarchy", "icp", "hints", "directory")
#: Set-up (trace building) repeats per run; ``setup_s`` reports the median.
SETUP_ROUNDS = 3
TIMELINE_BIN_S = 3600.0
#: ``dec-sharded`` bins: with 1 h bins closing them in all 16 partitions
#: was most of a pass, which then took longer than a run.
SHARD_TIMELINE_BIN_S = 86400.0
SHARDS = 4
VIRTUAL_PARTITIONS = 16
SHARD_JOBS = 2
#: Host-speed probe size, and the probe's duration on the reference host.
PROBE_SIZE = 200_000
REF_PROBE_S = 0.013

#: The registry's experiments when the benchmark was defined; each gets an
#: ``experiments.<name>.s`` per-layer metric (0 if a later registry drops it).
EXPERIMENTS = (
    "figure1", "table3", "table4", "figure2", "figure3", "figure5", "figure6",
    "table5", "figure8", "table6", "figure10", "figure11", "client_hints",
    "message_level", "load_sensitivity", "failure_sensitivity",
    "queueing_validation", "seed_sensitivity", "scaling", "ablations",
)


@dataclass(frozen=True)
class Workload:
    name: str
    scale: float
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "paper-all", 0.00003,
            "every registered experiment in process on the reference engine: "
            "what users run to regenerate the paper",
        ),
        Workload(
            "dec-unbounded", 0.005,
            "standard four, unbounded caches, fast engine: the kernels' "
            "per-request state loop and trace generation",
        ),
        Workload(
            "dec-bounded-timeline", 0.005,
            "standard four with LRU capacities and a 1 h telemetry timeline: "
            "evictions couple objects and telemetry costs a quarter",
        ),
        Workload(
            "dec-sharded", 0.005,
            "standard four through the sharded runner with 2 worker processes "
            "and an on-disk trace store",
        ),
    )
}

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("total_s", "s"),
    ("sim_rps", "req/s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    [
        ("traces.generate_s", "s"),
        ("traces.generate_ns_per_request", "ns"),
        ("traces.requests", "count"),
        ("traces.columns_s", "s"),
    ]
    + [(f"sim.{arch}.s", "s") for arch in ARCHS]
    + [(f"sim.{arch}.ns_per_request", "ns") for arch in ARCHS]
    + [
        ("fastpath.classify_s", "s"),
        ("fastpath.metrics_fold_s", "s"),
        ("fastpath.cost_reconstruct_s", "s"),
        ("fastpath.telemetry_decode_s", "s"),
        ("telemetry.bin_close_s", "s"),
        ("telemetry.rows", "count"),
    ]
    + [(f"cache.{arch}.evictions", "count") for arch in ARCHS]
    + [(f"hierarchy.{arch}.hit_ratio", "ratio") for arch in ARCHS]
    + [("engine.simulate_s", "s"), ("engine.reference_loop_s", "s")]
    + [(f"experiments.{name}.s", "s") for name in EXPERIMENTS]
    + [
        ("reporting.render_s", "s"),
        ("trace_cache.cold_get_s", "s"),
        ("trace_cache.warm_get_s", "s"),
        ("trace_cache.generations", "count"),
        ("sharding.split_s", "s"),
        ("sharding.partitions", "count"),
        ("sharding.max_partition_requests", "count"),
        ("sharding.mismatched_archs", "count"),
        ("trace.overhead_pct", "%"),
        ("trace.unaccounted_s", "s"),
        ("failed_ops_ratio", "ratio"),
    ]
)

#: Self time of these program-internal profiler spans -> per-layer metric.
PROFILER_SELF = {
    "classify": "fastpath.classify_s",
    "metrics_fold": "fastpath.metrics_fold_s",
    "cost_reconstruct": "fastpath.cost_reconstruct_s",
    "telemetry_decode": "fastpath.telemetry_decode_s",
    "telemetry_bin_close": "telemetry.bin_close_s",
    "reference_loop": "engine.reference_loop_s",
}


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
class Tracer:
    """In-memory spans: ``[name, start, end, parent index]``, written at the end."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def durations(self, name: str, since: int = 0) -> list[float]:
        return [end - start for n, start, end, _ in self.spans[since:] if n == name]

    def self_time(self, name: str, since: int = 0) -> float:
        """Summed duration of ``name`` spans minus what their children cover."""
        total = 0.0
        for index in range(since, len(self.spans)):
            span_name, start, end, _ = self.spans[index]
            if span_name != name:
                continue
            children = sum(
                e - s for _, s, e, parent in self.spans[index + 1:] if parent == index
            )
            total += (end - start) - children
        return total

    def top_level_time(self, since: int) -> float:
        """Time covered by the spans opened at the outermost level after ``since``."""
        root = self.spans[since][3] if since < len(self.spans) else None
        return sum(e - s for _, s, e, parent in self.spans[since:] if parent == root)

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        keys = ("name", "start", "end", "parent")
        with open(path, "w", encoding="utf-8") as stream:
            json.dump([dict(zip(keys, span)) for span in self.spans], stream)


class NullTracer:
    """Tracing off: spans cost one call returning a shared null context."""

    _null = nullcontext()

    def span(self, name: str):
        return self._null


@contextmanager
def wrapped(owner, attribute: str, tracer: Tracer, span_name: str):
    """Replace ``owner.attribute`` with a span-recording wrapper, then restore."""
    original = getattr(owner, attribute)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        with tracer.span(span_name):
            return original(*args, **kwargs)

    setattr(owner, attribute, wrapper)
    try:
        yield
    finally:
        setattr(owner, attribute, original)


@contextmanager
def counting_simulations(m, counter: list[int]):
    """Count requests simulated through ``run_simulation`` by every caller.

    Experiment modules bind the function at import, so every loaded
    ``repro`` module holding the original is re-pointed for the duration.
    """
    original = m.engine.run_simulation

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        metrics = original(*args, **kwargs)
        counter[0] += metrics.measured_requests + metrics.warmup_requests
        return metrics

    holders = [
        module
        for name, module in list(sys.modules.items())
        if name.startswith("repro") and getattr(module, "run_simulation", None) is original
    ]
    for module in holders:
        module.run_simulation = wrapper
    try:
        yield
    finally:
        for module in holders:
            module.run_simulation = original


class HostClock:
    """Wall time rescaled to a reference host speed.

    The machines this runs on share their cores with other tenants, and
    their speed drifts: the same pass took 2.9 s to 5.3 s within four
    minutes on a 2-vCPU VM.  A short fixed NumPy probe, run after the
    imports, after every set-up build and after every timed operation,
    samples that speed.  A run's wall times (probes excluded) are
    scaled by ``REF_PROBE_S`` over the run's median probe, so on a host
    where the probe takes ``REF_PROBE_S`` the result is plain wall time.
    The probe is benchmark code: no change to the program can change it.
    (A pure-Python dict loop and an ``OrderedDict`` LRU were tried as
    probes too; both swing more than the workloads do, and scaled
    ``paper-all`` and ``dec-bounded-timeline`` passes spread more with
    them than with this probe.)
    """

    def __init__(self) -> None:
        import numpy

        self._numpy = numpy
        self._floats = numpy.random.default_rng(0).random(PROBE_SIZE)
        self._ints = (self._floats * 1000).astype(numpy.int64)
        self.samples: list[float] = []
        self.probe_s = 0.0
        self.probe()

    def probe(self) -> None:
        """Sample the host speed: the median of three probe runs."""
        np = self._numpy
        runs = []
        for _ in range(3):
            start = time.perf_counter()
            np.sort(self._floats)
            np.cumsum(self._floats)
            np.unique(self._ints)
            runs.append(time.perf_counter() - start)
        self.probe_s += sum(runs)
        self.samples.append(statistics.median(runs))

    def scale(self) -> float:
        """Reference seconds per wall second, from every sample so far."""
        return REF_PROBE_S / statistics.median(self.samples)


# ----------------------------------------------------------------------
# the program's layers
# ----------------------------------------------------------------------
MODULES = {
    "config": "repro.sim.config",
    "synthetic": "repro.traces.synthetic",
    "records": "repro.traces.records",
    "engine": "repro.sim.engine",
    "testbed": "repro.netmodel.testbed",
    "data_hierarchy": "repro.hierarchy.data_hierarchy",
    "icp": "repro.hierarchy.icp",
    "hint_hierarchy": "repro.hierarchy.hint_hierarchy",
    "directory_arch": "repro.hierarchy.directory_arch",
    "policy": "repro.cache.policy",
    "specs": "repro.runner.specs",
    "tables": "repro.reporting.tables",
    "telemetry": "repro.obs.telemetry",
    "profiling": "repro.obs.profiling",
    "trace_cache": "repro.runner.trace_cache",
}
EXTRA_MODULES = {
    "paper-all": {"registry": "repro.experiments.registry", "profiles": "repro.traces.profiles"},
    "dec-sharded": {"sharding": "repro.runner.sharding"},
}


def load_layers(workload: str):
    """Import NumPy and the program modules the workload uses."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import numpy  # noqa: F401  (part of what a user's run imports)

    names = dict(MODULES, **EXTRA_MODULES.get(workload, {}))
    return types.SimpleNamespace(
        **{key: importlib.import_module(path) for key, path in names.items()}
    )


def standard_specs(m, config, bounded: bool):
    """The standard four as picklable specs; ``bounded`` = ``--policy lru``."""
    topology, cost = config.topology, m.testbed.TestbedCostModel()
    data_kwargs: dict = {}
    hint_kwargs: dict = {}
    if bounded:
        policies = m.policy.parse_policy_map("lru")
        data_kwargs = dict(
            l1_bytes=config.l1_cache_bytes,
            l2_bytes=config.l1_cache_bytes,
            l3_bytes=config.l1_cache_bytes,
            l1_policy=policies.get("l1"),
            l2_policy=policies.get("l2"),
            l3_policy=policies.get("l3"),
        )
        hint_kwargs = dict(l1_bytes=config.hint_data_cache_bytes, l1_policy=policies.get("l1"))
    spec = m.specs.ArchitectureSpec
    return [
        spec(m.data_hierarchy.DataHierarchy, (topology, cost), data_kwargs),
        spec(m.icp.IcpHierarchy, (topology, cost), data_kwargs),
        spec(m.hint_hierarchy.HintHierarchy, (topology, cost), hint_kwargs),
        spec(m.directory_arch.CentralizedDirectoryArchitecture, (topology, cost), hint_kwargs),
    ]


def metrics_digest(metrics) -> str:
    """Digest of what a simulation answers: its summary plus request counts."""
    payload = {
        "summary": metrics.summary(),
        "measured_requests": metrics.measured_requests,
        "warmup_requests": metrics.warmup_requests,
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def evictions(architecture) -> int:
    """Capacity evictions over every data cache the architecture holds."""
    caches = list(getattr(architecture, "l1_caches", ()) or ())
    caches += list(getattr(architecture, "l2_caches", ()) or ())
    if getattr(architecture, "l3_cache", None) is not None:
        caches.append(architecture.l3_cache)
    return sum(cache.evictions for cache in caches)


@dataclass
class Pass:
    """One timed pass: per-operation digests (None = raised), wall seconds
    per timed operation, and side outputs."""

    ops: dict = dataclasses.field(default_factory=dict)
    op_s: dict = dataclasses.field(default_factory=dict)
    requests: int = 0
    results: dict = dataclasses.field(default_factory=dict)
    architectures: dict = dataclasses.field(default_factory=dict)
    timeline_rows: int = 0
    comparison: object = None


# ----------------------------------------------------------------------
# workloads: set-up builds the traces a workload reads; a pass is timed
# ----------------------------------------------------------------------
class Bench:
    def __init__(self, workload: str, seed: int, scale: float | None, tracer, work_dir: str):
        self.workload = WORKLOADS[workload]
        self.scale = self.workload.scale if scale is None else scale
        self.seed = seed
        self.tracer = tracer
        self.work_dir = work_dir
        start = time.perf_counter()
        self.m = load_layers(workload)
        self.import_s = time.perf_counter() - start
        self.clock = HostClock()
        self.config = dataclasses.replace(
            self.m.config.default_config().with_scale(self.scale), seed=seed
        )
        self.state = None
        self.store = None

    # -- set-up ----------------------------------------------------------
    def setup_once(self, round_index: int) -> None:
        m, config, tracer = self.m, self.config, self.tracer
        self.state = None
        with tracer.span("setup"):
            if self.workload.name == "paper-all":
                cache = m.trace_cache.TraceCache()
                for profile in m.profiles.all_profiles():
                    with tracer.span("trace_cache.get"):
                        cache.get(config.profile(profile.name), config.seed)
                self.state = cache
            elif self.workload.name == "dec-sharded":
                self.store = os.path.join(self.work_dir, f"store-{round_index}")
                cache = m.trace_cache.TraceCache(self.store)
                with tracer.span("trace_cache.get"):
                    self.state = cache.get(config.profile("dec"), config.seed)
                self.setup_generations = cache.stats.generations
            else:
                generator = m.synthetic.SyntheticTraceGenerator(
                    config.profile("dec"), seed=config.seed
                )
                self.state = generator.generate()

    def setup(self) -> list[float]:
        """Build the set-up ``SETUP_ROUNDS`` times; wall seconds per round."""
        times = []
        for round_index in range(SETUP_ROUNDS):
            if self.store is not None:
                shutil.rmtree(self.store, ignore_errors=True)
            start = time.perf_counter()
            self.setup_once(round_index)
            times.append(time.perf_counter() - start)
            self.clock.probe()
        return times

    @contextmanager
    def timed_op(self, out: "Pass", name: str):
        """Time one operation into ``out.op_s``, then sample the host speed."""
        start = time.perf_counter()
        try:
            yield
        finally:
            out.op_s[name] = out.op_s.get(name, 0.0) + time.perf_counter() - start
            self.clock.probe()

    def timed_pass(self, prepared) -> tuple["Pass", float]:
        """One pass: its output and wall seconds, probes excluded."""
        probed = self.clock.probe_s
        start = time.perf_counter()
        out = self.run_pass(prepared)
        return out, time.perf_counter() - start - (self.clock.probe_s - probed)

    # -- passes ----------------------------------------------------------
    def fresh_trace(self):
        """A new ``Trace`` over the set-up rows, so each pass builds its columns."""
        trace = self.state
        return self.m.records.Trace(
            profile_name=trace.profile_name,
            requests=trace.requests,
            n_objects=trace.n_objects,
            n_clients=trace.n_clients,
            duration=trace.duration,
            warmup=trace.warmup,
        )

    def prepare(self):
        """Untimed per-pass input, so every pass starts from the same state."""
        if self.workload.name == "paper-all":
            # A fresh memo warmed with the set-up traces: traces that
            # experiments generate at other configs are generated in every pass.
            cache = self.m.trace_cache.TraceCache()
            for profile in self.m.profiles.all_profiles():
                cache.get(self.config.profile(profile.name), self.config.seed)
            return cache
        if self.workload.name == "dec-sharded":
            return os.path.join(self.work_dir, f"timeline-{time.perf_counter_ns()}")
        return self.fresh_trace()

    def run_pass(self, prepared) -> Pass:
        name = self.workload.name
        if name == "paper-all":
            return self._pass_paper(prepared)
        if name == "dec-sharded":
            return self._pass_sharded(prepared)
        return self._pass_dec(prepared, bounded=name == "dec-bounded-timeline")

    def _pass_paper(self, cache) -> Pass:
        m, tracer, out = self.m, self.tracer, Pass()
        previous = m.trace_cache.set_trace_cache(cache)
        counter = [0]
        try:
            with counting_simulations(m, counter):
                for name in m.registry.all_experiments():
                    with self.timed_op(out, name):
                        try:
                            with tracer.span(f"experiments.{name}"):
                                result = m.registry.get_experiment(name)(self.config)
                            with tracer.span("reporting.render"):
                                text = result.render()
                            out.ops[name] = text_digest(text)
                        except Exception:  # an operation that raises is a failed operation
                            out.ops[name] = None
        finally:
            m.trace_cache.set_trace_cache(previous)
        out.requests = counter[0]
        return out

    def _pass_dec(self, trace, bounded: bool) -> Pass:
        m, tracer, out = self.m, self.tracer, Pass()
        registry = m.telemetry.MetricsRegistry() if bounded else None
        for arch, spec in zip(ARCHS, standard_specs(m, self.config, bounded)):
            with self.timed_op(out, arch):
                try:
                    architecture = spec.build()
                    telemetry = (
                        m.telemetry.RunTelemetry(registry, bin_s=TIMELINE_BIN_S)
                        if bounded
                        else None
                    )
                    with tracer.span(f"sim.{arch}"):
                        metrics = m.engine.run_simulation(
                            trace, architecture, telemetry=telemetry, engine="fast"
                        )
                    metrics.validate(expected_requests=len(trace.requests))
                    out.ops[arch] = metrics_digest(metrics)
                except Exception:  # an operation that raises is a failed operation
                    out.ops[arch] = None
                    continue
            out.results[arch] = metrics
            out.architectures[arch] = architecture
            out.requests += metrics.measured_requests + metrics.warmup_requests
            if telemetry is not None:
                out.timeline_rows += len(telemetry.rows)
        with self.timed_op(out, "render"), tracer.span("reporting.render"):
            m.tables.format_comparison_table(out.results, title="architecture comparison (dec)")
        return out

    def _pass_sharded(self, timeline_dir: str) -> Pass:
        m, tracer, out = self.m, self.tracer, Pass()
        specs = standard_specs(m, self.config, bounded=False)
        try:
            with self.timed_op(out, "sharded"), tracer.span("sharding.run"):
                comparison = m.sharding.run_comparison_sharded(
                    self.config.profile("dec"),
                    self.config.seed,
                    specs,
                    shards=SHARDS,
                    virtual_partitions=VIRTUAL_PARTITIONS,
                    jobs=SHARD_JOBS,
                    trace_cache_dir=self.store,
                    timeline_dir=timeline_dir,
                    timeline_bin_s=SHARD_TIMELINE_BIN_S,
                    engine="fast",
                )
        except Exception:  # the whole fan-out raised: every architecture failed
            out.ops = dict.fromkeys(ARCHS)
            return out
        finally:
            shutil.rmtree(timeline_dir, ignore_errors=True)
        for arch, metrics in comparison.results.items():
            try:
                metrics.validate()
                out.ops[arch] = metrics_digest(metrics)
            except Exception:  # a merged result that fails validation
                out.ops[arch] = None
                continue
            out.results[arch] = metrics
            out.requests += metrics.measured_requests + metrics.warmup_requests
            out.timeline_rows += len(comparison.timeline_rows.get(arch, ()))
        out.comparison = comparison
        with self.timed_op(out, "render"), tracer.span("reporting.render"):
            m.tables.format_comparison_table(out.results, title="architecture comparison (dec)")
        return out


# ----------------------------------------------------------------------
# output check
# ----------------------------------------------------------------------
def digest_key(workload: str, scale: float) -> str:
    return f"{workload}@{scale!r}"


def load_digests(path: str = DIGESTS_PATH) -> dict:
    try:
        with open(path, encoding="utf-8") as stream:
            return json.load(stream)
    except FileNotFoundError:
        return {}


def count_failures(ops: dict, expected: dict | None) -> int:
    """Operations that raised, or (at a recorded seed) whose digest differs."""
    failed = 0
    for name, digest in ops.items():
        if digest is None or (expected is not None and expected.get(name) != digest):
            failed += 1
    return failed


# ----------------------------------------------------------------------
# host facts
# ----------------------------------------------------------------------
def source_digest() -> str:
    digest = hashlib.sha256()
    for directory, dirs, files in os.walk(SRC):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as stream:
                    digest.update(stream.read())
    return digest.hexdigest()


def git_commit() -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def host_facts(workload: str, scale: float, seed: int) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "workload": workload,
        "scale": scale,
        "seed": seed,
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest finished child (Linux: KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# ----------------------------------------------------------------------
# runs
# ----------------------------------------------------------------------
def timed_passes(bench: Bench, seconds: float) -> tuple[list[float], list[Pass]]:
    """Repeat whole passes while the next one is expected to end within ``seconds``.

    The next pass, with its preparation and probes, is expected to take as
    long as the slowest so far.  Returns each pass's wall seconds and output.
    """
    raw: list[float] = []
    passes: list[Pass] = []
    slowest = 0.0
    started = time.perf_counter()
    while True:
        iteration_start = time.perf_counter()
        prepared = bench.prepare()
        gc.collect()
        out, wall_s = bench.timed_pass(prepared)
        raw.append(wall_s)
        # Keep only what the result needs, so a pass does not hold the last
        # one's architectures in memory (peak RSS stays one pass deep).
        passes.append(Pass(ops=out.ops, op_s=out.op_s, requests=out.requests))
        del out, prepared
        now = time.perf_counter()
        slowest = max(slowest, now - iteration_start)
        if now - started + slowest > seconds:
            return raw, passes


def median_run_s(passes: list[Pass]) -> float:
    """Each timed operation's median over the passes, summed.

    A slow spell of the host lengthens a few operations of one pass; the
    per-operation medians drop each of them, where a whole-pass median
    keeps whatever spells its middle pass caught.
    """
    names = dict.fromkeys(name for p in passes for name in p.op_s)
    return sum(statistics.median(p.op_s.get(name, 0.0) for p in passes) for name in names)


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    scale: float | None = None,
    digests_path: str = DIGESTS_PATH,
    spans_path: str | None = None,
) -> dict:
    """One benchmark run; returns the result object the CLI prints."""
    os.makedirs(WORK_ROOT, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_ROOT)
    try:
        tracer = Tracer() if trace else NullTracer()
        bench = Bench(workload, seed, scale, tracer, work_dir)
        if trace:
            result = _traced_run(bench)
            if spans_path is not None:
                tracer.write(spans_path)
        else:
            setup_wall = bench.import_s + statistics.median(bench.setup())
            run_times, passes = timed_passes(bench, seconds)
            run_wall = median_run_s(passes)
            scale = bench.clock.scale()
            setup_s, run_s = setup_wall * scale, run_wall * scale
            result = {
                "passes": passes,
                "metrics": {
                    "setup_s": setup_s,
                    "run_s": run_s,
                    "total_s": setup_s + run_s,
                    "sim_rps": passes[0].requests / run_s,
                    "peak_rss_mb": peak_rss_mb(),
                },
                "wall": {
                    "setup_s": setup_wall,
                    "run_s": run_wall,
                    "scale": scale,
                    "passes": len(passes),
                    "pass_s": run_times,
                    "probe_s": statistics.median(bench.clock.samples),
                },
            }
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    expected = load_digests(digests_path).get(digest_key(workload, bench.scale), {}).get(str(seed))
    attempted = sum(len(p.ops) for p in result["passes"])
    failed = sum(count_failures(p.ops, expected) for p in result["passes"])
    metrics = result["metrics"]
    if trace:
        metrics["failed_ops_ratio"] = failed / attempted
    units = dict(PER_LAYER if trace else END_TO_END)
    return {
        "host": host_facts(workload, bench.scale, seed),
        "wall": result.get("wall"),
        "digest_checked": expected is not None,
        "ops": result["passes"][0].ops,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
            for name, unit in units.items()
        },
    }


def _traced_run(bench: Bench) -> dict:
    """Per-layer metrics: one untraced pass, then one traced pass, then probes."""
    m, tracer, name = bench.m, bench.tracer, bench.workload.name
    layer: dict[str, float] = {}
    generator = m.synthetic.SyntheticTraceGenerator
    with wrapped(generator, "generate", tracer, "traces.generate"):
        marks = []
        for round_index in range(SETUP_ROUNDS):
            if bench.store is not None:
                shutil.rmtree(bench.store, ignore_errors=True)
            marks.append(len(tracer.spans))
            bench.setup_once(round_index)
    per_round = []
    for start, stop in zip(marks, marks[1:] + [len(tracer.spans)]):
        window = tracer.spans[start:stop]
        per_round.append(
            (
                sum(e - s for n, s, e, _ in window if n == "traces.generate"),
                sum(e - s for n, s, e, _ in window if n == "trace_cache.get"),
            )
        )
    layer["traces.generate_s"] = statistics.median(r[0] for r in per_round)
    layer["trace_cache.cold_get_s"] = statistics.median(r[1] for r in per_round)
    requests = _setup_requests(bench)
    layer["traces.requests"] = requests
    layer["traces.generate_ns_per_request"] = (
        layer["traces.generate_s"] / requests * 1e9 if requests else 0.0
    )

    untraced_tracer, bench.tracer = bench.tracer, NullTracer()
    prepared = bench.prepare()
    gc.collect()
    untraced, untraced_s = bench.timed_pass(prepared)
    bench.tracer = untraced_tracer

    profiler = m.profiling.SpanProfiler()
    prepared = bench.prepare()
    gc.collect()
    mark = len(tracer.spans)
    with wrapped(m.records.Trace, "columns", tracer, "traces.columns"), \
            m.profiling.attached(profiler):
        traced, traced_s = bench.timed_pass(prepared)
    layer["trace.overhead_pct"] = (traced_s / untraced_s - 1.0) * 100.0
    layer["trace.unaccounted_s"] = traced_s - tracer.top_level_time(mark)
    layer["traces.columns_s"] = tracer.self_time("traces.columns", mark)
    layer["reporting.render_s"] = tracer.self_time("reporting.render", mark)
    for experiment in EXPERIMENTS:
        layer[f"experiments.{experiment}.s"] = tracer.self_time(f"experiments.{experiment}", mark)
    aggregated = {row["span"]: row for row in m.profiling.aggregate_spans(profiler.roots)}
    for span_name, metric in PROFILER_SELF.items():
        layer[metric] = aggregated.get(span_name, {}).get("self_s", 0.0)
    # run_simulation as a whole (its prologue, loop and epilogue).
    layer["engine.simulate_s"] = aggregated.get("simulate", {}).get("cumulative_s", 0.0)
    layer["telemetry.rows"] = traced.timeline_rows
    for arch, metrics in traced.results.items():
        simulated = metrics.measured_requests + metrics.warmup_requests
        sim_s = sum(tracer.durations(f"sim.{arch}", mark))
        layer[f"sim.{arch}.s"] = sim_s
        layer[f"sim.{arch}.ns_per_request"] = sim_s / simulated * 1e9 if sim_s else 0.0
        layer[f"hierarchy.{arch}.hit_ratio"] = metrics.hit_ratio
    for arch, architecture in traced.architectures.items():
        layer[f"cache.{arch}.evictions"] = evictions(architecture)
    if name == "paper-all":
        layer["trace_cache.generations"] = prepared.stats.generations
    if name == "dec-sharded":
        _sharding_probes(bench, traced, layer)
    return {"passes": [untraced, traced], "metrics": layer}


def _setup_requests(bench: Bench) -> int:
    if bench.workload.name == "paper-all":
        return sum(
            len(bench.state.get(bench.config.profile(p.name), bench.config.seed).requests)
            for p in bench.m.profiles.all_profiles()
        )
    return len(bench.state.requests)


def _sharding_probes(bench: Bench, traced: Pass, layer: dict) -> None:
    """Untimed layer probes for the sharded runner, after the traced pass."""
    m, tracer, config = bench.m, bench.tracer, bench.config
    layer["trace_cache.generations"] = bench.setup_generations
    with tracer.span("trace_cache.warm_get"):
        trace = m.trace_cache.TraceCache(bench.store).get(config.profile("dec"), config.seed)
    layer["trace_cache.warm_get_s"] = tracer.durations("trace_cache.warm_get")[-1]
    plan = m.sharding.ShardPlan(shards=SHARDS, virtual_partitions=VIRTUAL_PARTITIONS)
    with tracer.span("sharding.split"):
        m.sharding.split_trace(trace, plan)
    layer["sharding.split_s"] = tracer.durations("sharding.split")[-1]
    comparison = traced.comparison
    if comparison is not None:
        layer["sharding.partitions"] = len(comparison.partition_requests)
        layer["sharding.max_partition_requests"] = max(comparison.partition_requests)
    # ROADMAP item 1's known defect as a count: sharded vs unsharded answers.
    bench.tracer = NullTracer()
    try:
        unsharded = bench._pass_dec(trace, bounded=False)
    finally:
        bench.tracer = tracer
    layer["sharding.mismatched_archs"] = sum(
        1 for arch, digest in traced.ops.items() if unsharded.ops.get(arch) != digest
    )


def record_digests(workload: str, seed: int, *, scale: float | None = None,
                   digests_path: str = DIGESTS_PATH) -> dict:
    """Run one pass and store its operation digests as the expected outputs."""
    os.makedirs(WORK_ROOT, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_ROOT)
    try:
        bench = Bench(workload, seed, scale, NullTracer(), work_dir)
        bench.setup_once(0)
        ops = bench.run_pass(bench.prepare()).ops
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if any(digest is None for digest in ops.values()):
        raise RuntimeError(f"{workload} seed {seed}: an operation raised; nothing recorded")
    digests = load_digests(digests_path)
    digests.setdefault(digest_key(workload, bench.scale), {})[str(seed)] = ops
    with open(digests_path, "w", encoding="utf-8") as stream:
        json.dump(digests, stream, indent=1, sort_keys=True)
        stream.write("\n")
    return ops
