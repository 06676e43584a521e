"""Sharded multi-process simulation: exactly the unsharded answer, or a refusal.

The single-process engine caps the population one comparison can hold in
memory; this module hash-partitions the **object space** across shard
engines so a run's working set splits across worker processes -- the
partitioning shape of distributed cache deployments, where independent
keys shard for free.

The contract is **sharded == unsharded**.  Splitting a trace by object is
exact whenever no two objects share state, which is the paper's default
regime of effectively unbounded caches: every cache, hint and directory
entry belongs to one object, so each object's requests see the same
history whichever other objects run beside them.  Three layers make that
hold for any shard count:

* **Fixed virtual partitions.**  A :class:`ShardPlan` maps every object
  id to one of ``virtual_partitions`` *virtual* partitions via a stable
  hash (:func:`repro.common.ids.partition_of_object` -- never Python's
  randomized ``hash``).  Each virtual partition gets its own sub-trace
  (its objects' requests, time order preserved) and its own architecture
  instance over the full topology, and runs through
  :func:`~repro.sim.engine.run_simulation`.  Physical shards own *sets*
  of virtual partitions through a consistent-hash ring, so changing
  ``shards`` only regroups identical per-partition computations.
  Peer resolution stays inside the owning partition, enforced per
  request by :meth:`repro.hierarchy.base.Architecture.check_shard_owns`
  (a routing leak raises :class:`~repro.common.errors.ShardRoutingError`).

* **Canonical-order merge.**  Workers return per-partition results
  *unmerged*; the coordinator folds
  :meth:`repro.sim.metrics.SimMetrics.merge` and
  :func:`repro.obs.telemetry.merge_timeline_rows` in ascending partition
  order, so the float-addition order is pinned and results are
  bit-identical for any shard count and any job count.  Against the
  unsharded run, counters and histograms are equal; float latency sums
  can differ in their last bits because they are added in a different
  order.

* **Refusal of object coupling.**  Before any worker is spawned,
  :func:`run_comparison_sharded` builds each spec once and raises
  ``ValueError`` for any configuration that couples objects: a data
  cache or hint directory with a byte capacity (evictions and set
  conflicts tie objects together), and any architecture or fault event
  that draws from a shared random stream (client-hint false-negative
  coins, random push targets, message-level flush jitter, hint-batch
  loss), or shares one push-bandwidth budget across objects.  Splitting
  such a run by object would approximate the model, not compute it.

Fault plans replay per partition: every partition sees the same node
crash/recover schedule, which is exact because a crash empties each
partition's slice of the node.
"""

from __future__ import annotations

import bisect
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

from repro.common.ids import mix64, partitions_of_objects
from repro.common.timing import Stopwatch
from repro.faults.events import FaultPlan, HintBatchLoss
from repro.faults.injector import check_fault_model
from repro.hierarchy.base import Architecture, ShardInfo
from repro.hierarchy.message_hints import MessageLevelHintHierarchy
from repro.push.hierarchical import HierarchicalPushOnMiss
from repro.push.update_push import UpdatePush
from repro.runner.specs import ArchitectureSpec
from repro.runner.trace_cache import cached_trace
from repro.sim.engine import run_simulation
from repro.sim.metrics import SimMetrics
from repro.traces.profiles import WorkloadProfile
from repro.traces.records import Trace

#: Default number of virtual partitions.  Fixed independently of the
#: shard count -- this is the invariance anchor: results depend on the
#: partition layout, never on how partitions are grouped into shards.
DEFAULT_VIRTUAL_PARTITIONS = 16

#: Ring points per shard on the consistent-hash ring.  Enough replicas
#: to spread partitions evenly at small shard counts.
RING_REPLICAS = 64


@dataclass(frozen=True)
class ShardPlan:
    """How one sharded run partitions the object space.

    Attributes:
        shards: Physical shard engines (process-pool work units per
            architecture).
        virtual_partitions: Fixed hash-space granularity; must be at
            least ``shards``.  Changing ``shards`` never changes a result
            bit; changing ``virtual_partitions`` only reorders the merge's
            float additions, so latency sums may move in their last bits.
    """

    shards: int
    virtual_partitions: int = DEFAULT_VIRTUAL_PARTITIONS

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError(f"shards must be at least 1, got {self.shards}")
        if self.virtual_partitions < self.shards:
            raise ValueError(
                f"virtual_partitions ({self.virtual_partitions}) must be >= "
                f"shards ({self.shards}); each shard owns at least one"
            )

    @cached_property
    def _ring(self) -> tuple[list[int], list[int]]:
        """Sorted (point hashes, owning shard) consistent-hash ring."""
        points = sorted(
            (mix64(0x5348_4152_4421, shard, replica), shard)
            for shard in range(self.shards)
            for replica in range(RING_REPLICAS)
        )
        return [point for point, _ in points], [shard for _, shard in points]

    def owner_of(self, partition: int) -> int:
        """The shard owning ``partition`` (first ring point clockwise)."""
        if not 0 <= partition < self.virtual_partitions:
            raise ValueError(
                f"partition {partition} outside [0, {self.virtual_partitions})"
            )
        hashes, shards = self._ring
        index = bisect.bisect_right(hashes, mix64(0x5041_5254, partition))
        return shards[index % len(shards)]

    def partitions_of_shard(self, shard: int) -> tuple[int, ...]:
        """The virtual partitions ``shard`` owns, ascending."""
        if not 0 <= shard < self.shards:
            raise ValueError(f"shard {shard} outside [0, {self.shards})")
        return tuple(
            partition
            for partition in range(self.virtual_partitions)
            if self.owner_of(partition) == shard
        )

    def shard_info(self, partition: int) -> ShardInfo:
        """The :class:`~repro.hierarchy.base.ShardInfo` for one partition."""
        return ShardInfo(
            partition=partition, virtual_partitions=self.virtual_partitions
        )


def split_trace(trace: Trace, plan: ShardPlan) -> list[Trace]:
    """Split a trace into per-partition sub-traces (time order preserved).

    Each sub-trace keeps the parent's metadata (``n_objects``,
    ``n_clients``, ``duration``, ``warmup``), so warmup boundaries and
    timeline bin layouts agree across partitions; only the request rows
    are filtered to the partition's objects.
    """
    import numpy as np

    columns = trace.columns()
    owners = partitions_of_objects(columns.object, plan.virtual_partitions)
    from repro.traces.columns import TraceColumns

    sub_traces: list[Trace] = []
    for partition in range(plan.virtual_partitions):
        mask = owners == partition
        sub_columns = TraceColumns(
            time=np.ascontiguousarray(columns.time[mask]),
            client=np.ascontiguousarray(columns.client[mask]),
            object=np.ascontiguousarray(columns.object[mask]),
            size=np.ascontiguousarray(columns.size[mask]),
            version=np.ascontiguousarray(columns.version[mask]),
            cacheable=np.ascontiguousarray(columns.cacheable[mask]),
            error=np.ascontiguousarray(columns.error[mask]),
        )
        sub_traces.append(
            Trace.from_columns(
                profile_name=trace.profile_name,
                columns=sub_columns,
                n_objects=trace.n_objects,
                n_clients=trace.n_clients,
                duration=trace.duration,
                warmup=trace.warmup,
            )
        )
    return sub_traces


def _coupling_reason(architecture: Architecture) -> str | None:
    """Why ``architecture`` couples objects, so cannot be split by object."""
    caches = [
        *(getattr(architecture, "l1_caches", None) or ()),
        *(getattr(architecture, "l2_caches", None) or ()),
    ]
    l3 = getattr(architecture, "l3_cache", None)
    if l3 is not None:
        caches.append(l3)
    if any(cache.capacity_bytes is not None for cache in caches):
        return "a bounded data cache's evictions couple objects"
    directory = getattr(architecture, "directory", None)
    if directory is not None and directory.capacity_bytes is not None:
        return "a bounded hint directory's set conflicts couple objects"
    if isinstance(architecture, MessageLevelHintHierarchy):
        return "message-level hint flush jitter draws from a shared random stream"
    if getattr(architecture, "client_false_negative_rate", 0.0) > 0.0:
        return "client-hint false negatives draw from a shared random stream"
    push = getattr(architecture, "push_policy", None)
    if isinstance(push, HierarchicalPushOnMiss) and push.mode != "push-all":
        return f"{push.mode} targets draw from a shared random stream"
    if isinstance(push, UpdatePush) and push.max_bandwidth_bytes_per_s is not None:
        return "a capped update push shares one bandwidth budget across objects"
    return None


@dataclass
class ShardedComparison:
    """Everything one sharded comparison produced.

    Attributes:
        plan: The shard plan the run executed under.
        results: Architecture name -> merged :class:`SimMetrics`, in spec
            order -- the same shape :func:`run_comparison_parallel`
            returns, and the object the invariance pins compare.
        partition_metrics: Architecture name -> per-partition metrics in
            ascending partition order (the unmerged inputs).
        partition_requests: Requests per partition (sums to the trace).
        partition_objects: Distinct objects per partition -- the
            working-set split: with ``N`` shards each engine holds about
            ``1/N`` of the population, which is the scaling claim the
            EXPERIMENTS log records.
        timeline_rows: Architecture name -> merged timeline rows (empty
            when the run collected no telemetry).
        wall_s: End-to-end wall-clock of the comparison.
    """

    plan: ShardPlan
    results: dict[str, SimMetrics]
    partition_metrics: dict[str, list[SimMetrics]]
    partition_requests: list[int]
    partition_objects: list[int]
    timeline_rows: dict[str, list[dict]] = field(default_factory=dict)
    wall_s: float = 0.0

    @property
    def max_shard_objects(self) -> int:
        """Distinct objects held by the fullest shard (working-set peak)."""
        per_shard = [0] * self.plan.shards
        for partition, count in enumerate(self.partition_objects):
            per_shard[self.plan.owner_of(partition)] += count
        return max(per_shard)


def _shard_task(
    profile: WorkloadProfile,
    seed: int,
    spec: ArchitectureSpec,
    shard: int,
    plan: ShardPlan,
    warmup_s: float | None,
    include_uncachable: bool,
    fault_plan: FaultPlan | None,
    collect_timeline: bool,
    timeline_bin_s: float,
    engine: str,
) -> list[tuple[int, SimMetrics, list[dict] | None, int]]:
    """One (architecture, shard) work unit.

    Runs every virtual partition the shard owns through
    :func:`~repro.sim.engine.run_simulation` and returns the *unmerged*
    per-partition results ``(partition, metrics, timeline rows, distinct
    objects)`` -- merging happens in the coordinator, in canonical
    partition order, so the fold order never depends on which worker ran
    what.
    """
    trace = cached_trace(profile, seed)
    sub_traces = split_trace(trace, plan)
    results = []
    for partition in plan.partitions_of_shard(shard):
        architecture = spec.build()
        architecture.bind_shard(plan.shard_info(partition))
        telemetry = None
        if collect_timeline:
            from repro.obs.telemetry import RunTelemetry

            telemetry = RunTelemetry(bin_s=timeline_bin_s)
        metrics = run_simulation(
            sub_traces[partition],
            architecture,
            warmup_s=warmup_s,
            include_uncachable=include_uncachable,
            fault_plan=fault_plan,
            telemetry=telemetry,
            engine=engine,
        )
        rows = list(telemetry.rows) if telemetry is not None else None
        results.append(
            (partition, metrics, rows, sub_traces[partition].distinct_objects())
        )
    return results


def run_comparison_sharded(
    profile: WorkloadProfile,
    seed: int,
    specs: Sequence[ArchitectureSpec],
    *,
    shards: int,
    virtual_partitions: int = DEFAULT_VIRTUAL_PARTITIONS,
    jobs: int = 1,
    warmup_s: float | None = None,
    include_uncachable: bool = False,
    trace_cache_dir: str | None = None,
    fault_plan: FaultPlan | None = None,
    timeline_dir: str | None = None,
    timeline_bin_s: float = 3600.0,
    engine: str = "reference",
) -> ShardedComparison:
    """Sharded twin of :func:`~repro.runner.parallel.run_comparison_parallel`.

    Fans ``len(specs) * shards`` work units into the process pool (one
    per architecture per shard; ``jobs=1`` runs them inline) and merges
    the per-partition outputs in canonical partition order.  Results
    equal the unsharded :func:`~repro.runner.parallel.run_comparison_parallel`
    (float latency sums up to their addition order) and are bit-identical
    for any ``shards`` and any ``jobs``.

    Raises ``ValueError`` before any worker is spawned when a spec or the
    fault plan couples objects (see the module docstring): such a run
    cannot be split by object without changing its answer.  A non-empty
    ``fault_plan`` on a spec whose walk does not model faults is refused
    at the same point, with the fault injector's own check.

    ``timeline_dir`` mirrors the parallel runner: merged per-bin rows
    land in ``<timeline_dir>/<architecture>.jsonl``, canonical JSONL,
    byte-identical for any shard/job count.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    plan = ShardPlan(shards=shards, virtual_partitions=virtual_partitions)
    # Pre-flight, before any worker is spawned: building a spec is cheap
    # (empty caches), and a refusal here beats an in-worker traceback.
    if fault_plan is not None and any(
        isinstance(event, HintBatchLoss) and event.prob > 0.0
        for event in fault_plan.events
    ):
        raise ValueError(
            "cannot shard under HintBatchLoss: its loss coins draw from a "
            "shared random stream; run it unsharded"
        )
    for spec in specs:
        architecture = spec.build()
        if engine == "fast":
            from repro.sim.fastpath import fast_unsupported_reason

            reason = fast_unsupported_reason(architecture)
            if reason is not None:
                raise ValueError(reason)
        reason = _coupling_reason(architecture)
        if reason is not None:
            raise ValueError(
                f"cannot shard {architecture.name!r}: {reason}; "
                "run it unsharded"
            )
        if fault_plan:
            check_fault_model(architecture)
    collect_timeline = timeline_dir is not None

    tasks = [
        (spec_index, shard)
        for spec_index in range(len(specs))
        for shard in range(plan.shards)
    ]
    with Stopwatch() as stopwatch:
        if jobs == 1:
            outcomes = [
                _shard_task(
                    profile,
                    seed,
                    specs[spec_index],
                    shard,
                    plan,
                    warmup_s,
                    include_uncachable,
                    fault_plan,
                    collect_timeline,
                    timeline_bin_s,
                    engine,
                )
                for spec_index, shard in tasks
            ]
        else:
            from repro.runner.parallel import _worker_init

            with ProcessPoolExecutor(
                max_workers=jobs,
                initializer=_worker_init,
                initargs=(trace_cache_dir,),
            ) as pool:
                futures = [
                    pool.submit(
                        _shard_task,
                        profile,
                        seed,
                        specs[spec_index],
                        shard,
                        plan,
                        warmup_s,
                        include_uncachable,
                        fault_plan,
                        collect_timeline,
                        timeline_bin_s,
                        engine,
                    )
                    for spec_index, shard in tasks
                ]
                outcomes = [future.result() for future in futures]

    # Regroup: (spec index -> partition -> (metrics, rows)); completion
    # order never matters because every partition lands in its slot.
    by_spec: list[dict[int, tuple[SimMetrics, list[dict] | None]]] = [
        {} for _ in specs
    ]
    partition_objects = [0] * plan.virtual_partitions
    for (spec_index, _shard), task_results in zip(tasks, outcomes):
        for partition, metrics, rows, objects in task_results:
            by_spec[spec_index][partition] = (metrics, rows)
            partition_objects[partition] = objects

    results: dict[str, SimMetrics] = {}
    partition_metrics: dict[str, list[SimMetrics]] = {}
    timeline_rows: dict[str, list[dict]] = {}
    partition_requests = [0] * plan.virtual_partitions
    for spec_index in range(len(specs)):
        slots = by_spec[spec_index]
        ordered = [slots[partition] for partition in range(plan.virtual_partitions)]
        merged: SimMetrics | None = None
        for metrics, _rows in ordered:
            if merged is None:
                merged = SimMetrics(
                    architecture=metrics.architecture,
                    cost_model=metrics.cost_model,
                )
            merged.merge(metrics)
        assert merged is not None  # virtual_partitions >= 1
        if merged.architecture in results:
            raise ValueError(
                f"duplicate architecture name {merged.architecture!r}"
            )
        merged.validate()
        results[merged.architecture] = merged
        partition_metrics[merged.architecture] = [m for m, _ in ordered]
        if spec_index == 0:
            for partition, (metrics, _rows) in enumerate(ordered):
                partition_requests[partition] = (
                    metrics.measured_requests
                    + metrics.warmup_requests
                    + metrics.skipped_error
                    + metrics.skipped_uncachable
                )
        if collect_timeline:
            from repro.obs.telemetry import merge_timeline_rows

            timeline_rows[merged.architecture] = merge_timeline_rows(
                [rows for _metrics, rows in ordered]
            )

    if timeline_dir is not None:
        import os

        from repro.obs.export import write_timeline_jsonl

        os.makedirs(timeline_dir, exist_ok=True)
        for name, rows in timeline_rows.items():
            write_timeline_jsonl(
                rows, os.path.join(timeline_dir, f"{name}.jsonl")
            )

    return ShardedComparison(
        plan=plan,
        results=results,
        partition_metrics=partition_metrics,
        partition_requests=partition_requests,
        partition_objects=partition_objects,
        timeline_rows=timeline_rows,
        wall_s=stopwatch.elapsed,
    )
