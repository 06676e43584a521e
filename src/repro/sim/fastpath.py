"""Columnar batch engine: the vectorized twin of :mod:`repro.sim.engine`.

The reference engine materializes one ``Request`` tuple, one ``Journey``,
several ``Step`` tuples, and one ``AccessResult`` per trace record, then
folds each into ``SimMetrics`` a counter at a time.  At ~30-50k req/s that
object churn is the simulation's entire cost.  This module keeps the trace
columnar end-to-end: requests live as NumPy arrays (time, client, object,
size, version, cachability), classification/warmup masking/accounting are
vectorized per batch, and per-request Python survives only for the state
transitions that genuinely need it -- LRU lookups/inserts (evictions), hint
directory traffic, push-policy RNG draws, and active fault windows.

Parity contract
---------------
A fast-engine run produces **byte-identical** :class:`SimMetrics` to the
reference engine on the same trace and a freshly built architecture:

* identical integer counters, by construction (same cache/directory method
  calls in the same order drive the same hit/miss/pathology outcomes);
* identical floats: every reference accumulation is a left-to-right
  ``total += value`` chain, which :func:`_sequential_sum` replays exactly
  via ``np.cumsum`` (``ufunc.accumulate`` is defined as the running sum,
  ``r[i] = r[i-1] + a[i]``), per-request times are slot sums ``(s0 + s1) +
  s2`` with unused slots padded by ``+0.0`` (exact identity for the finite
  non-negative costs involved), and batch cost pricing uses the cost
  models' ``*_ms_batch`` methods, which replay the scalar arithmetic
  elementwise;
* identical histograms: :meth:`LatencyHistogram.bulk_record` routes every
  distinct value through the same scalar binning formula as ``record``.

The kernels are **policy-agnostic**: every state mutation on a *bounded*
cache goes through the real ``lookup``/``insert``/``invalidate`` methods,
so a non-LRU replacement policy (:mod:`repro.cache.policy` -- LFU
frequency counters, Random victim streams) advances exactly as in the
reference loop and the parity contract holds for any per-level policy
mix.  The only method bypass -- the warm-hit raw ``_entries`` dict probe
-- is taken solely for *unbounded* caches, where no eviction can ever
happen and policy bookkeeping is therefore unobservable.

Journeys and telemetry are *decoders* over the batch's column store: a
detached run (no sink, no telemetry) pays one pointer check per batch,
while an attached run reconstructs journeys / feeds
``RunTelemetry.observe_values`` from the already-priced columns.

Fault residual
--------------
Fault plans no longer dispatch wholesale to the reference loop.  The
driver splits the trace into spans at batch boundaries, telemetry bin
edges, *and fault-event edges* (``searchsorted`` over the plan's event
times), so no span ever straddles an injector state change.  Each span
then runs in one of two modes:

* **quiescent** (``injector.faults_active`` is false after advancing to
  the span's start): the vectorized kernel runs its one state loop.
  Every architecture has a single fault-aware ``process`` walk, and in a
  quiescent window that walk is the healthy one -- ``degraded_ms`` is the
  identity at multiplier 1.0, no node is down, and no hint-loss draw
  happens at probability 0.0.  There is no kernel faulted mode, with one
  exception: the directory walk trusts its visible map whenever a plan is
  bound (DESIGN.md section 7), which :class:`DirectoryKernel` mirrors as
  its map-trust branch.  Walks that do not model faults (push policies,
  ideal-push accounting, client and message-level hints) are refused by
  :meth:`repro.faults.injector.FaultInjector.bind` before any span runs;
* **active** (any node down / multiplier != 1 / loss probability > 0):
  the span falls back to a per-request loop over ``architecture.process``
  -- byte-identical because it *is* the reference loop body.

Audit hooks remain inherently per-request (checkpoints walk live state
between requests), so audited runs still dispatch to the reference loop.

Adding an architecture = writing one ``_Kernel`` subclass: a per-batch
state loop emitting (pattern, point, aux, flags) small-int columns, a
``STEP_TABLE`` mapping patterns to journey shapes, and a cost-pricing
method.  The driver (batching, warmup masking, metrics folding, telemetry
bin splitting, fault-span splitting, journey decode) is
architecture-independent.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.cache.lru import LookupResult
from repro.netmodel.model import AccessPoint
from repro.obs import profiling
from repro.sim.metrics import SimMetrics, StepAggregate

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.events import FaultPlan
    from repro.faults.injector import FaultInjector
    from repro.hierarchy.base import AccessResult, Architecture
    from repro.obs.sink import JourneySink
    from repro.obs.telemetry import RunTelemetry
    from repro.traces.records import Trace

#: Default batch size; parity is batch-size-independent (tests sweep it).
DEFAULT_BATCH_SIZE = 4096

#: Result-flag bits (column ``flags``), decoded into SimMetrics counters
#: and telemetry observations.
FLAG_REMOTE_HIT = 1
FLAG_FALSE_POSITIVE = 2
FLAG_FALSE_NEGATIVE = 4
FLAG_SUBOPTIMAL = 8
FLAG_PUSH_HIT = 16
FLAG_STALE_FORWARD = 32


def _sequential_sum(initial: float, values: np.ndarray) -> float:
    """``((initial + v0) + v1) + ...`` bit-for-bit, without a Python loop.

    ``np.cumsum`` is ``np.add.accumulate``, whose contract is the strict
    running sum -- the same left-to-right IEEE additions the reference
    engine's ``total += value`` chain performs (pinned by a unit test).
    """
    buffer = np.empty(len(values) + 1, dtype=np.float64)
    buffer[0] = initial
    buffer[1:] = values
    return float(np.cumsum(buffer)[-1])


class _BatchResult:
    """Column store for one processed batch (small ints + slot costs)."""

    __slots__ = ("pattern", "point", "aux", "flags", "slot_costs", "time_ms")

    def __init__(self, pattern, point, aux, flags, slot_costs):
        self.pattern = pattern  # kernel-defined path shape per row
        self.point = point  # AccessPoint int per row
        self.aux = aux  # kernel-defined (target node / probe point)
        self.flags = flags  # FLAG_* bitmask per row
        self.slot_costs = slot_costs  # list of float64 arrays, journey order
        # Per-request charged time: left-to-right slot sum with zero-padded
        # unused slots, elementwise-identical to the journey's step sum.
        time_ms = slot_costs[0]
        for costs in slot_costs[1:]:
            time_ms = time_ms + costs
        self.time_ms = time_ms


class _Kernel:
    """One architecture's batchable hot path (state loop + pricing)."""

    #: pattern -> ((slot, StepKind.value, wasted), ...) in journey order.
    STEP_TABLE: dict[int, tuple[tuple[int, str, bool], ...]] = {}

    #: Kernels whose state loop passes real ``Request`` objects to live
    #: collaborators (push policies) need the materialized request list.
    NEEDS_REQUESTS = False

    def __init__(self, architecture: "Architecture", columns, requests=None) -> None:
        self.arch = architecture
        self.columns = columns
        self.requests = requests

    def span_begin(self) -> None:
        """Per-span hook before a quiescent span of a plan (default no-op)."""

    def process_batch(self, idx: np.ndarray) -> _BatchResult:
        raise NotImplementedError

    def result_for(self, batch: _BatchResult, row: int) -> "AccessResult":
        raise NotImplementedError

    def _kind_table(self):
        """kind -> [(pattern, slot, wasted), ...], derived from STEP_TABLE."""
        table: dict[str, list[tuple[int, int, bool]]] = {}
        for pattern, slots in self.STEP_TABLE.items():
            for slot, kind, wasted in slots:
                table.setdefault(kind, []).append((pattern, slot, wasted))
        return table


class HierarchyKernel(_Kernel):
    """Vectorized path of :class:`DataHierarchy`.

    Pattern ids double as AccessPoint ints (the hierarchy's single journey
    step is fully determined by the deepest level reached).
    """

    STEP_TABLE = {
        1: ((0, "local_lookup", False),),
        2: ((0, "level_traversal", False),),
        3: ((0, "level_traversal", False),),
        4: ((0, "origin_fetch", False),),
    }

    def __init__(self, architecture, columns, requests=None) -> None:
        super().__init__(architecture, columns, requests)
        topology = architecture.topology
        self._l1_all = topology.l1_of_clients(columns.client)
        self._l2_all = self._l1_all // topology.l1_per_l2
        # Unbounded caches never evict, so replacement bookkeeping (LRU
        # recency order, LFU frequencies, Random's key table) is
        # unobservable on the healthy path: a pure HIT's only state effect
        # (``_touch``) can be skipped and the lookup becomes one dict
        # probe.  STALE and MISS rows still take the real method calls,
        # and *bounded* caches take them for every row -- that is what
        # keeps the kernels policy-agnostic (module docstring).  (Crash
        # events empty ``_entries`` in place, so the dict references stay
        # valid across fault windows.)
        self._l1_entries = [
            cache._entries if cache.capacity_bytes is None else None
            for cache in architecture.l1_caches
        ]

    def process_batch(self, idx: np.ndarray) -> _BatchResult:
        columns = self.columns
        oids = columns.object[idx].tolist()
        versions = columns.version[idx].tolist()
        sizes_list = columns.size[idx].tolist()
        l1_list = self._l1_all[idx].tolist()
        l2_list = self._l2_all[idx].tolist()

        arch = self.arch
        l1_caches = arch.l1_caches
        l1_entries = self._l1_entries
        l2_caches = arch.l2_caches
        l3 = arch.l3_cache
        l3_lookup = l3.lookup
        l3_insert = l3.insert
        hit = LookupResult.HIT
        pattern_list = []
        append = pattern_list.append
        for oid, version, size, l1i, l2i in zip(
            oids, versions, sizes_list, l1_list, l2_list
        ):
            entries = l1_entries[l1i]
            if entries is not None:
                entry = entries.get(oid)
                if entry is not None and entry.version >= version:
                    append(1)
                    continue
                l1 = l1_caches[l1i]
                if entry is not None:
                    l1.lookup(oid, version)  # STALE: invalidates the copy
            else:
                l1 = l1_caches[l1i]
                if l1.lookup(oid, version) is hit:
                    append(1)
                    continue
            l2 = l2_caches[l2i]
            if l2.lookup(oid, version) is hit:
                l1.insert(oid, size, version)
                append(2)
                continue
            if l3_lookup(oid, version) is hit:
                l2.insert(oid, size, version)
                l1.insert(oid, size, version)
                append(3)
                continue
            l3_insert(oid, size, version)
            l2.insert(oid, size, version)
            l1.insert(oid, size, version)
            append(4)

        pattern = np.array(pattern_list, dtype=np.int64)
        sizes = columns.size[idx]
        cost = arch.cost_model
        s0 = np.empty(len(pattern), dtype=np.float64)
        for point in AccessPoint:
            rows = pattern == int(point)
            if rows.any():
                s0[rows] = cost.hierarchical_ms_batch(point, sizes[rows])
        flags = np.where(
            (pattern == 2) | (pattern == 3), FLAG_REMOTE_HIT, 0
        ).astype(np.int64)
        # aux carries the requester's L1 index (the L2 parent is derived).
        aux = self._l1_all[idx]
        return _BatchResult(pattern, pattern, aux, flags, [s0])

    def result_for(self, batch: _BatchResult, row: int) -> "AccessResult":
        from repro.obs.journey import Journey

        pattern = int(batch.pattern[row])
        cost = float(batch.slot_costs[0][row])
        l1_index = int(batch.aux[row])
        journey = Journey()
        if pattern == 1:
            journey.local_lookup(cost, target=f"l1:{l1_index}")
            return journey.result(AccessPoint.L1, hit=True)
        if pattern == 2:
            l2_index = l1_index // self.arch.topology.l1_per_l2
            journey.level_traversal(cost, target=f"l2:{l2_index}")
            return journey.result(AccessPoint.L2, hit=True, remote_hit=True)
        if pattern == 3:
            journey.level_traversal(cost, target="l3")
            return journey.result(AccessPoint.L3, hit=True, remote_hit=True)
        journey.origin_fetch(cost)
        return journey.result(AccessPoint.SERVER, hit=False)


class IcpKernel(_Kernel):
    """Vectorized path of :class:`IcpHierarchy` (sibling-query fan-out).

    Every local miss pays the sibling query round trip (slot 0), then
    resolves at the first sibling holding a current copy, the L2 parent,
    the L3 root, or the origin server.
    """

    P_LOCAL = 1
    P_SIBLING = 2
    P_L2 = 3
    P_L3 = 4
    P_MISS = 5

    STEP_TABLE = {
        1: ((0, "local_lookup", False),),
        2: ((0, "peer_probe", False), (1, "transfer", False)),
        3: ((0, "peer_probe", False), (1, "level_traversal", False)),
        4: ((0, "peer_probe", False), (1, "level_traversal", False)),
        5: ((0, "peer_probe", False), (1, "origin_fetch", False)),
    }

    def __init__(self, architecture, columns, requests=None) -> None:
        super().__init__(architecture, columns, requests)
        topology = architecture.topology
        self._l1_all = topology.l1_of_clients(columns.client)
        self._l2_all = self._l1_all // topology.l1_per_l2
        self._siblings = [
            topology.siblings_of(l1) for l1 in range(topology.n_l1)
        ]
        self._l1_entries = [
            cache._entries if cache.capacity_bytes is None else None
            for cache in architecture.l1_caches
        ]

    def process_batch(self, idx: np.ndarray) -> _BatchResult:
        columns = self.columns
        oids = columns.object[idx].tolist()
        versions = columns.version[idx].tolist()
        sizes_list = columns.size[idx].tolist()
        l1_list = self._l1_all[idx].tolist()
        l2_list = self._l2_all[idx].tolist()

        arch = self.arch
        l1_caches = arch.l1_caches
        l1_entries = self._l1_entries
        l2_caches = arch.l2_caches
        l3 = arch.l3_cache
        siblings_table = self._siblings
        hit = LookupResult.HIT
        pattern_list = []
        append = pattern_list.append
        sib_rows: list[int] = []
        sib_vals: list[int] = []
        row = -1
        for oid, version, size, l1i, l2i in zip(
            oids, versions, sizes_list, l1_list, l2_list
        ):
            row += 1
            entries = l1_entries[l1i]
            if entries is not None:
                entry = entries.get(oid)
                if entry is not None and entry.version >= version:
                    append(1)
                    continue
                l1 = l1_caches[l1i]
                if entry is not None:
                    l1.lookup(oid, version)  # STALE: invalidates the copy
            else:
                l1 = l1_caches[l1i]
                if l1.lookup(oid, version) is hit:
                    append(1)
                    continue
            arch.sibling_queries += 1
            found = -1
            for sibling in siblings_table[l1i]:
                if l1_caches[sibling].lookup(oid, version) is hit:
                    arch.sibling_hits += 1
                    l1.insert(oid, size, version)
                    found = sibling
                    break
            if found >= 0:
                append(2)
                sib_rows.append(row)
                sib_vals.append(found)
                continue
            if l2_caches[l2i].lookup(oid, version) is hit:
                l1.insert(oid, size, version)
                append(3)
                continue
            if l3.lookup(oid, version) is hit:
                l2_caches[l2i].insert(oid, size, version)
                l1.insert(oid, size, version)
                append(4)
                continue
            l3.insert(oid, size, version)
            l2_caches[l2i].insert(oid, size, version)
            l1.insert(oid, size, version)
            append(5)

        pattern = np.array(pattern_list, dtype=np.int64)
        n = len(pattern)
        sizes = columns.size[idx]
        cost = arch.cost_model
        s0 = np.zeros(n, dtype=np.float64)
        s1 = np.zeros(n, dtype=np.float64)
        local_rows = pattern == 1
        if local_rows.any():
            s0[local_rows] = cost.hierarchical_ms_batch(
                AccessPoint.L1, sizes[local_rows]
            )
        nonlocal_rows = ~local_rows
        s0[nonlocal_rows] = cost.probe_ms(AccessPoint.L2)
        sib_hit = pattern == 2
        if sib_hit.any():
            s1[sib_hit] = cost.via_l1_ms_batch(AccessPoint.L2, sizes[sib_hit])
        for pat, point in (
            (3, AccessPoint.L2),
            (4, AccessPoint.L3),
            (5, AccessPoint.SERVER),
        ):
            rows = pattern == pat
            if rows.any():
                s1[rows] = cost.hierarchical_ms_batch(point, sizes[rows])

        result_point = np.where(
            local_rows,
            1,
            np.where(pattern <= 3, 2, np.where(pattern == 4, 3, 4)),
        )
        flags = np.where(
            (pattern >= 2) & (pattern <= 4), FLAG_REMOTE_HIT, 0
        ).astype(np.int64)
        # aux: serving sibling for sibling hits, requester's L1 otherwise.
        aux = self._l1_all[idx].copy()
        if sib_rows:
            aux[np.array(sib_rows, dtype=np.int64)] = np.array(
                sib_vals, dtype=np.int64
            )
        return _BatchResult(pattern, result_point, aux, flags, [s0, s1])

    def result_for(self, batch: _BatchResult, row: int) -> "AccessResult":
        from repro.obs.journey import Journey

        pattern = int(batch.pattern[row])
        s0 = float(batch.slot_costs[0][row])
        s1 = float(batch.slot_costs[1][row])
        aux = int(batch.aux[row])
        journey = Journey()
        if pattern == 1:
            journey.local_lookup(s0, target=f"l1:{aux}")
            return journey.result(AccessPoint.L1, hit=True)
        journey.peer_probe(s0, target="siblings")
        if pattern == 2:
            journey.transfer(s1, target=f"l1:{aux}")
            return journey.result(AccessPoint.L2, hit=True, remote_hit=True)
        if pattern == 3:
            l2_index = aux // self.arch.topology.l1_per_l2
            journey.level_traversal(s1, target=f"l2:{l2_index}")
            return journey.result(AccessPoint.L2, hit=True, remote_hit=True)
        if pattern == 4:
            journey.level_traversal(s1, target="l3")
            return journey.result(AccessPoint.L3, hit=True, remote_hit=True)
        journey.origin_fetch(s1)
        return journey.result(AccessPoint.SERVER, hit=False)


class DirectoryKernel(_Kernel):
    """Vectorized path of :class:`CentralizedDirectoryArchitecture`.

    Healthy runs filter advertised holders by ground-truth freshness (the
    directory is exact), so a forwarded fetch always hits.  With a plan
    bound, the walk's holder selection trusts the nearest *visible* holder
    instead (crashed proxies died without visible retractions), and a
    missing copy produces the stale-forward pattern -- probe wasted,
    entry dropped, origin fetch.  That map-trust branch is the only
    fault-dependent code in any kernel.
    """

    P_LOCAL = 1
    P_REMOTE = 2
    P_MISS = 3
    P_STALE = 4

    STEP_TABLE = {
        1: ((0, "local_lookup", False),),
        2: ((0, "peer_probe", False), (1, "transfer", False)),
        3: ((0, "peer_probe", False), (1, "origin_fetch", False)),
        4: (
            (0, "peer_probe", False),
            (1, "peer_probe", True),
            (2, "origin_fetch", False),
        ),
    }

    def __init__(self, architecture, columns, requests=None) -> None:
        super().__init__(architecture, columns, requests)
        topology = architecture.topology
        self._l1_all = topology.l1_of_clients(columns.client)
        self._dist_rows = topology.distance_matrix().tolist()
        self._trust_visible_map = architecture.faults is not None
        # Pure local hits on unbounded caches skip promotion and the
        # ``_now`` stamp: the directory's zero propagation delay makes the
        # retraction timestamp unobservable, and crash retractions are
        # invisible (no schedule at all).
        self._l1_entries = [
            cache._entries if cache.capacity_bytes is None else None
            for cache in architecture.l1_caches
        ]

    def process_batch(self, idx: np.ndarray) -> _BatchResult:
        columns = self.columns
        times = columns.time[idx].tolist()
        oids = columns.object[idx].tolist()
        versions = columns.version[idx].tolist()
        sizes_list = columns.size[idx].tolist()
        l1_list = self._l1_all[idx].tolist()

        arch = self.arch
        caches = arch.l1_caches
        l1_entries = self._l1_entries
        directory = arch.directory
        find = directory.find
        inform = directory.inform
        drop_visible = directory.drop_visible
        truth = directory._truth
        dist_rows = self._dist_rows
        hit = LookupResult.HIT
        trust_visible_map = self._trust_visible_map

        pattern_list = []
        miss_row_list = []
        holder_list = []
        point_list = []
        p_append = pattern_list.append
        m_append = miss_row_list.append
        h_append = holder_list.append
        a_append = point_list.append
        row = -1
        for t, oid, version, size, l1i in zip(
            times, oids, versions, sizes_list, l1_list
        ):
            row += 1
            entries = l1_entries[l1i]
            if entries is not None:
                entry = entries.get(oid)
                if entry is not None and entry.version >= version:
                    p_append(1)
                    continue
                arch._now = t
                cache = caches[l1i]
                if entry is not None:
                    cache.lookup(oid, version)  # STALE: invalidate + retract
            else:
                arch._now = t
                cache = caches[l1i]
                if cache.lookup(oid, version) is hit:
                    p_append(1)
                    continue
            m_append(row)
            lookup = find(t, oid, l1i)
            holders = lookup.holders
            if trust_visible_map:
                # A plan is bound: trust the visible map without the
                # freshness filter, and discover missing copies via the
                # probe itself.
                if holders:
                    drow = dist_rows[l1i]
                    holder = min(holders, key=lambda h: (drow[h], h))
                    point = drow[holder]
                    if caches[holder].lookup(oid, version) is hit:
                        cache.insert(oid, size, version)
                        inform(t, oid, l1i, version)
                        p_append(2)
                        h_append(holder)
                        a_append(point)
                        continue
                    drop_visible(oid, holder)
                    cache.insert(oid, size, version)
                    inform(t, oid, l1i, version)
                    p_append(4)
                    h_append(holder)
                    a_append(point)
                    continue
                cache.insert(oid, size, version)
                inform(t, oid, l1i, version)
                p_append(3)
                h_append(-1)
                a_append(4)
                continue
            holder = None
            if holders:
                truth_map = truth.get(oid)
                if truth_map:
                    fresh = [
                        h for h in holders if truth_map.get(h, -1) >= version
                    ]
                else:
                    fresh = []
                if fresh:
                    drow = dist_rows[l1i]
                    holder = min(fresh, key=lambda h: (drow[h], h))
            if holder is not None:
                point = dist_rows[l1i][holder]
                caches[holder].lookup(oid, version)  # refresh peer LRU
                cache.insert(oid, size, version)
                inform(t, oid, l1i, version)
                p_append(2)
                h_append(holder)
                a_append(point)
                continue
            cache.insert(oid, size, version)
            inform(t, oid, l1i, version)
            p_append(3)
            h_append(-1)
            a_append(4)

        pattern = np.array(pattern_list, dtype=np.int64)
        n = len(pattern)
        miss_rows = np.array(miss_row_list, dtype=np.int64)
        aux_point = np.full(n, 4, dtype=np.int64)
        if miss_rows.size:
            aux_point[miss_rows] = np.array(point_list, dtype=np.int64)
        sizes = columns.size[idx]
        cost = arch.cost_model

        s0 = np.zeros(n, dtype=np.float64)
        s1 = np.zeros(n, dtype=np.float64)
        s2 = np.zeros(n, dtype=np.float64)
        local_rows = pattern == 1
        if local_rows.any():
            s0[local_rows] = cost.via_l1_ms_batch(
                AccessPoint.L1, sizes[local_rows]
            )
        nonlocal_rows = ~local_rows
        s0[nonlocal_rows] = cost.probe_ms(arch.directory_point)
        remote_rows = pattern == 2
        for point in (AccessPoint.L2, AccessPoint.L3):
            rows = remote_rows & (aux_point == int(point))
            if rows.any():
                s1[rows] = cost.via_l1_ms_batch(point, sizes[rows])
        plain_miss = pattern == 3
        if plain_miss.any():
            s1[plain_miss] = cost.via_l1_ms_batch(
                AccessPoint.SERVER, sizes[plain_miss]
            )
        stale_rows = pattern == 4
        if stale_rows.any():
            for point in (AccessPoint.L2, AccessPoint.L3):
                rows = stale_rows & (aux_point == int(point))
                if rows.any():
                    s1[rows] = cost.probe_ms(point)
            s2[stale_rows] = cost.via_l1_ms_batch(
                AccessPoint.SERVER, sizes[stale_rows]
            )

        result_point = np.where(
            local_rows, 1, np.where(remote_rows, aux_point, 4)
        )
        flags = np.zeros(n, dtype=np.int64)
        flags[remote_rows] = FLAG_REMOTE_HIT
        flags[stale_rows] = FLAG_STALE_FORWARD
        holder = self._l1_all[idx].copy()
        if miss_rows.size:
            holder[miss_rows] = np.array(holder_list, dtype=np.int64)
        return _BatchResult(pattern, result_point, holder, flags, [s0, s1, s2])

    def result_for(self, batch: _BatchResult, row: int) -> "AccessResult":
        from repro.obs.journey import Journey

        pattern = int(batch.pattern[row])
        s0 = float(batch.slot_costs[0][row])
        s1 = float(batch.slot_costs[1][row])
        aux = int(batch.aux[row])
        journey = Journey()
        if pattern == 1:
            journey.local_lookup(s0, target=f"l1:{aux}")
            return journey.result(AccessPoint.L1, hit=True)
        journey.peer_probe(s0, target="directory")
        if pattern == 2:
            journey.transfer(s1, target=f"l1:{aux}")
            return journey.result(
                AccessPoint(int(batch.point[row])), hit=True, remote_hit=True
            )
        if pattern == 4:
            journey.peer_probe(s1, target=f"l1:{aux}", wasted=True)
            journey.mark_stale_forward()
            journey.origin_fetch(float(batch.slot_costs[2][row]))
            return journey.result(AccessPoint.SERVER, hit=False)
        journey.origin_fetch(s1)
        return journey.result(AccessPoint.SERVER, hit=False)


class HintKernel(_Kernel):
    """Vectorized path of plain :class:`HintHierarchy`.

    Plain = no push policy and no ideal-push accounting; under those the
    reference path's stale-holder snapshot and push-mark consumption are
    provably free of state effects, so the healthy loop below calls
    exactly the mutating operations the reference calls, in the same
    order: L1 lookup, directory find, nearest-holder probe, false-positive
    recording, push-stats clock/byte accounting, demand store + inform.

    In a quiescent span of a fault plan the same loop runs;
    :meth:`span_begin` only restores the propagation delay.
    """

    P_LOCAL = 1
    P_REMOTE = 2
    P_MISS = 3
    P_MISS_FP = 4
    P_MISS_FN = 5

    STEP_TABLE = {
        1: ((0, "local_lookup", False),),
        2: ((0, "hint_lookup", False), (1, "transfer", False)),
        3: ((0, "hint_lookup", False), (1, "origin_fetch", False)),
        4: (
            (0, "hint_lookup", False),
            (1, "peer_probe", True),
            (2, "origin_fetch", False),
        ),
        5: ((0, "hint_lookup", False), (1, "origin_fetch", False)),
    }

    def __init__(self, architecture, columns, requests=None) -> None:
        super().__init__(architecture, columns, requests)
        topology = architecture.topology
        self._l1_all = topology.l1_of_clients(columns.client)
        self._dist_rows = topology.distance_matrix().tolist()
        # Same unbounded-cache shortcut as the hierarchy kernel: a pure
        # local HIT mutates nothing observable, so it needs neither the
        # LRU promotion nor the ``arch._now`` stamp (which only eviction
        # retractions read).
        self._l1_entries = [
            cache._entries if cache.capacity_bytes is None else None
            for cache in architecture.l1_caches
        ]

    def span_begin(self) -> None:
        # StaleHintDrift: ``process`` re-assigns the drifted propagation
        # delay per request, so an active window's last request leaves the
        # drifted value behind.  A quiescent span has zero skew; restore
        # the delay the walk would assign before the kernel informs.
        arch = self.arch
        arch.directory.propagation_delay_s = (
            arch._base_hint_delay_s + arch.faults.hint_delay_skew_s
        )

    def process_batch(self, idx: np.ndarray) -> _BatchResult:
        columns = self.columns
        times = columns.time[idx].tolist()
        oids = columns.object[idx].tolist()
        versions = columns.version[idx].tolist()
        sizes_list = columns.size[idx].tolist()
        l1_list = self._l1_all[idx].tolist()

        arch = self.arch
        caches = arch.l1_caches
        l1_entries = self._l1_entries
        directory = arch.directory
        find = directory.find
        record_fp = directory.record_false_positive
        inform = directory.inform
        truth = directory._truth
        push_stats = arch.push_stats
        note_time = push_stats.note_time
        dist_rows = self._dist_rows
        hit = LookupResult.HIT

        # Local hits append only a pattern; holder/point/flag for them are
        # the requester's L1 / AccessPoint.L1 / 0, scattered in afterwards.
        pattern_list = []
        miss_row_list = []  # batch-local row index of each non-local row
        holder_list = []
        aux_point_list = []
        flag_list = []
        p_append = pattern_list.append
        m_append = miss_row_list.append
        h_append = holder_list.append
        a_append = aux_point_list.append
        f_append = flag_list.append
        row = -1
        for t, oid, version, size, l1i in zip(
            times, oids, versions, sizes_list, l1_list
        ):
            row += 1
            entries = l1_entries[l1i]
            if entries is not None:
                entry = entries.get(oid)
                if entry is not None and entry.version >= version:
                    p_append(1)
                    continue
                arch._now = t
                cache = caches[l1i]
                if entry is not None:
                    cache.lookup(oid, version)  # STALE: invalidate + retract
            else:
                arch._now = t
                cache = caches[l1i]
                if cache.lookup(oid, version) is hit:
                    p_append(1)
                    continue
            m_append(row)
            lookup = find(t, oid, l1i)
            holders = lookup.holders
            if holders:
                drow = dist_rows[l1i]
                holder = min(holders, key=lambda h: (drow[h], h))
                point = drow[holder]
                if caches[holder].lookup(oid, version) is hit:
                    held_map = truth.get(oid)
                    suboptimal = False
                    if held_map:
                        for node, held in held_map.items():
                            if (
                                held >= version
                                and node != l1i
                                and drow[node] < point
                            ):
                                suboptimal = True
                                break
                    note_time(t)
                    push_stats.demand_bytes += size
                    cache.insert(oid, size, version)
                    inform(t, oid, l1i, version)
                    p_append(2)
                    h_append(holder)
                    a_append(point)
                    f_append(
                        FLAG_REMOTE_HIT | FLAG_SUBOPTIMAL
                        if suboptimal
                        else FLAG_REMOTE_HIT
                    )
                    continue
                record_fp()
                note_time(t)
                push_stats.demand_bytes += size
                cache.insert(oid, size, version)
                inform(t, oid, l1i, version)
                p_append(4)
                h_append(holder)
                a_append(point)
                f_append(FLAG_FALSE_POSITIVE)
                continue
            note_time(t)
            push_stats.demand_bytes += size
            cache.insert(oid, size, version)
            inform(t, oid, l1i, version)
            if lookup.false_negative:
                p_append(5)
                f_append(FLAG_FALSE_NEGATIVE)
            else:
                p_append(3)
                f_append(0)
            h_append(-1)
            a_append(4)

        return self._finalize(
            idx, pattern_list, miss_row_list, holder_list, aux_point_list,
            flag_list,
        )

    def _finalize(
        self,
        idx,
        pattern_list,
        miss_row_list,
        holder_list,
        aux_point_list,
        flag_list,
        push_hit_rows=None,
    ) -> _BatchResult:
        """Price one hint batch (cost reconstruction gets its own span)."""
        profiler = profiling.active()
        if profiler is None:
            return self._price(
                idx, pattern_list, miss_row_list, holder_list, aux_point_list,
                flag_list, push_hit_rows,
            )
        with profiler.span(
            "cost_reconstruct", category="fastpath", rows=len(pattern_list)
        ):
            return self._price(
                idx, pattern_list, miss_row_list, holder_list, aux_point_list,
                flag_list, push_hit_rows,
            )

    def _price(
        self,
        idx,
        pattern_list,
        miss_row_list,
        holder_list,
        aux_point_list,
        flag_list,
        push_hit_rows=None,
    ) -> _BatchResult:
        """Price one hint batch from the state loop's row lists."""
        columns = self.columns
        arch = self.arch
        pattern = np.array(pattern_list, dtype=np.int64)
        n = len(pattern)
        miss_rows = np.array(miss_row_list, dtype=np.int64)
        aux_point = np.ones(n, dtype=np.int64)
        if miss_rows.size:
            aux_point[miss_rows] = np.array(aux_point_list, dtype=np.int64)
        sizes = columns.size[idx]
        cost = arch.cost_model
        hint_ms = cost.hint_lookup_ms()

        s0 = np.zeros(n, dtype=np.float64)
        s1 = np.zeros(n, dtype=np.float64)
        s2 = np.zeros(n, dtype=np.float64)
        local_rows = pattern == 1
        if local_rows.any():
            s0[local_rows] = cost.via_l1_ms_batch(
                AccessPoint.L1, sizes[local_rows]
            )
        nonlocal_rows = ~local_rows
        s0[nonlocal_rows] = hint_ms
        remote_rows = pattern == 2
        # L1 appears only under ideal-push accounting (charged point).
        for point in (AccessPoint.L1, AccessPoint.L2, AccessPoint.L3):
            rows = remote_rows & (aux_point == int(point))
            if rows.any():
                s1[rows] = cost.via_l1_ms_batch(point, sizes[rows])
        plain_miss = (pattern == 3) | (pattern == 5)
        if plain_miss.any():
            s1[plain_miss] = cost.via_l1_ms_batch(
                AccessPoint.SERVER, sizes[plain_miss]
            )
        fp_rows = pattern == 4
        if fp_rows.any():
            for point in (AccessPoint.L2, AccessPoint.L3):
                rows = fp_rows & (aux_point == int(point))
                if rows.any():
                    s1[rows] = cost.probe_ms(point)
            s2[fp_rows] = cost.via_l1_ms_batch(AccessPoint.SERVER, sizes[fp_rows])

        result_point = np.where(
            pattern == 1, 1, np.where(remote_rows, aux_point, 4)
        )
        flags = np.zeros(n, dtype=np.int64)
        # aux carries the holder / local proxy index for journey targets
        # (the transfer point of a remote hit is result_point itself).
        holder = self._l1_all[idx].copy()
        if miss_rows.size:
            flags[miss_rows] = np.array(flag_list, dtype=np.int64)
            holder[miss_rows] = np.array(holder_list, dtype=np.int64)
        if push_hit_rows:
            flags[np.array(push_hit_rows, dtype=np.int64)] = FLAG_PUSH_HIT
        return _BatchResult(pattern, result_point, holder, flags, [s0, s1, s2])

    def result_for(self, batch: _BatchResult, row: int) -> "AccessResult":
        from repro.obs.journey import Journey

        pattern = int(batch.pattern[row])
        s0 = float(batch.slot_costs[0][row])
        s1 = float(batch.slot_costs[1][row])
        s2 = float(batch.slot_costs[2][row])
        holder = int(batch.aux[row])
        flags = int(batch.flags[row])
        journey = Journey()
        if pattern == 1:
            journey.local_lookup(s0, target=f"l1:{holder}")
            if flags & FLAG_PUSH_HIT:
                journey.mark_push_hit()
            return journey.result(AccessPoint.L1, hit=True)
        if pattern == 2:
            journey.hint_lookup(s0, target=f"l1:{holder}")
            journey.transfer(s1, target=f"l1:{holder}")
            if flags & FLAG_SUBOPTIMAL:
                journey.mark_suboptimal()
            return journey.result(
                AccessPoint(int(batch.point[row])), hit=True, remote_hit=True
            )
        if pattern == 4:
            journey.hint_lookup(s0)
            journey.peer_probe(s1, target=f"l1:{holder}", wasted=True)
            journey.mark_false_positive()
            journey.origin_fetch(s2)
            return journey.result(AccessPoint.SERVER, hit=False)
        journey.hint_lookup(s0)
        if pattern == 5:
            journey.mark_false_negative()
        journey.origin_fetch(s1)
        return journey.result(AccessPoint.SERVER, hit=False)


class PushHintKernel(HintKernel):
    """Vectorized path of :class:`HintHierarchy` with push accounting.

    Covers push policies (``repro.push.hierarchical`` / ``update_push``)
    and the ideal-push bound (``charge_remote_as_l1``).  The state loop
    drives the *same live policy object* through ``on_remote_fetch`` /
    ``on_server_fetch`` and applies its actions through the
    architecture's own ``_apply_pushes`` -- so seeded target-selection
    RNG streams, budget accounting, pending-push marks, and LRU demotion
    all advance exactly as in the reference loop.  Requires materialized
    requests (policies receive real ``Request`` objects).  Fault plans are
    refused for these configurations (the push model has no fault sites).
    """

    NEEDS_REQUESTS = True

    def process_batch(self, idx: np.ndarray) -> _BatchResult:
        columns = self.columns
        times = columns.time[idx].tolist()
        oids = columns.object[idx].tolist()
        versions = columns.version[idx].tolist()
        sizes_list = columns.size[idx].tolist()
        l1_list = self._l1_all[idx].tolist()
        idx_list = idx.tolist()

        arch = self.arch
        caches = arch.l1_caches
        l1_entries = self._l1_entries
        directory = arch.directory
        find = directory.find
        record_fp = directory.record_false_positive
        inform = directory.inform
        truth = directory._truth
        push_stats = arch.push_stats
        note_time = push_stats.note_time
        dist_rows = self._dist_rows
        hit = LookupResult.HIT
        stale = LookupResult.STALE
        requests = self.requests
        policy = arch.push_policy
        ideal = arch.charge_remote_as_l1
        apply_pushes = arch._apply_pushes
        # Local hits are the steady-state bulk, so the consume-mark check
        # is inlined: one dict pop replaces the method call, and the
        # stats/peek work only runs when a mark actually existed.  The
        # dict itself stays live (eviction pops from the same object).
        pending_pop = arch._pending_push.pop
        peek_caches = [cache.peek for cache in caches]

        pattern_list = []
        miss_row_list = []
        holder_list = []
        aux_point_list = []
        flag_list = []
        push_hit_rows: list[int] = []
        p_append = pattern_list.append
        m_append = miss_row_list.append
        h_append = holder_list.append
        a_append = aux_point_list.append
        f_append = flag_list.append
        row = -1
        for t, oid, version, size, l1i, gi in zip(
            times, oids, versions, sizes_list, l1_list, idx_list
        ):
            row += 1
            entries = l1_entries[l1i]
            local_had_stale = False
            if entries is not None:
                entry = entries.get(oid)
                if entry is not None and entry.version >= version:
                    p_append(1)
                    pushed = pending_pop((l1i, oid), None)
                    if pushed is not None and pushed >= version:
                        push_stats.used_count += 1
                        peeked = peek_caches[l1i](oid)
                        push_stats.used_bytes += peeked.size if peeked else 0
                        push_hit_rows.append(row)
                    continue
                arch._now = t
                cache = caches[l1i]
                if entry is not None:
                    local_had_stale = cache.lookup(oid, version) is stale
            else:
                arch._now = t
                cache = caches[l1i]
                local = cache.lookup(oid, version)
                if local is hit:
                    p_append(1)
                    pushed = pending_pop((l1i, oid), None)
                    if pushed is not None and pushed >= version:
                        push_stats.used_count += 1
                        peeked = peek_caches[l1i](oid)
                        push_stats.used_bytes += peeked.size if peeked else 0
                        push_hit_rows.append(row)
                    continue
                local_had_stale = local is stale
            m_append(row)
            lookup = find(t, oid, l1i)
            holders = lookup.holders
            drow = dist_rows[l1i]
            # Snapshot stale holders before any probe (the reference's
            # "recently invalidated" update-push candidate list).
            truth_map = truth.get(oid)
            if truth_map:
                stale_holders = {
                    node: held
                    for node, held in truth_map.items()
                    if held < version and node != l1i
                }
            else:
                stale_holders = {}
            if holders:
                holder = min(holders, key=lambda h: (drow[h], h))
                point = drow[holder]
                if caches[holder].lookup(oid, version) is hit:
                    charged_point = 1 if ideal else point
                    suboptimal = False
                    if truth_map:
                        for node, held in truth_map.items():
                            if (
                                held >= version
                                and node != l1i
                                and drow[node] < point
                            ):
                                suboptimal = True
                                break
                    note_time(t)
                    push_stats.demand_bytes += size
                    if not ideal:
                        cache.insert(oid, size, version)
                        inform(t, oid, l1i, version)
                    if policy is not None:
                        actions = policy.on_remote_fetch(
                            now=t,
                            request=requests[gi],
                            requester_l1=l1i,
                            source_l1=holder,
                            lca_level=point,
                        )
                        apply_pushes(actions, exclude={l1i, holder})
                    p_append(2)
                    h_append(holder)
                    a_append(charged_point)
                    f_append(
                        FLAG_REMOTE_HIT | FLAG_SUBOPTIMAL
                        if suboptimal
                        else FLAG_REMOTE_HIT
                    )
                    continue
                record_fp()
                communication_miss = local_had_stale or bool(stale_holders)
                note_time(t)
                push_stats.demand_bytes += size
                cache.insert(oid, size, version)
                inform(t, oid, l1i, version)
                if policy is not None:
                    actions = policy.on_server_fetch(
                        now=t,
                        request=requests[gi],
                        requester_l1=l1i,
                        communication_miss=communication_miss,
                        stale_holders=stale_holders,
                    )
                    apply_pushes(actions, exclude={l1i})
                p_append(4)
                h_append(holder)
                a_append(point)
                f_append(FLAG_FALSE_POSITIVE)
                continue
            communication_miss = local_had_stale or bool(stale_holders)
            note_time(t)
            push_stats.demand_bytes += size
            cache.insert(oid, size, version)
            inform(t, oid, l1i, version)
            if policy is not None:
                actions = policy.on_server_fetch(
                    now=t,
                    request=requests[gi],
                    requester_l1=l1i,
                    communication_miss=communication_miss,
                    stale_holders=stale_holders,
                )
                apply_pushes(actions, exclude={l1i})
            if lookup.false_negative:
                p_append(5)
                f_append(FLAG_FALSE_NEGATIVE)
            else:
                p_append(3)
                f_append(0)
            h_append(-1)
            a_append(4)

        return self._finalize(
            idx, pattern_list, miss_row_list, holder_list, aux_point_list,
            flag_list, push_hit_rows=push_hit_rows,
        )


class ClientHintKernel(_Kernel):
    """Vectorized path of :class:`ClientHintHierarchy`.

    Direct client-to-cache pricing, plus the seeded false-negative coin:
    the loop replays the reference's short-circuit draw (``rate > 0.0 and
    rng.random() < rate``) exactly once per non-local request, so the RNG
    stream stays aligned.  The walk has no fault sites, so fault plans
    are refused.
    """

    P_LOCAL = 1
    P_REMOTE = 2
    P_MISS = 3
    P_MISS_FP = 4
    P_MISS_FN = 5

    STEP_TABLE = {
        1: ((0, "local_lookup", False),),
        2: ((0, "transfer", False),),
        3: ((0, "origin_fetch", False),),
        4: ((0, "peer_probe", True), (1, "origin_fetch", False)),
        5: ((0, "origin_fetch", False),),
    }

    def __init__(self, architecture, columns, requests=None) -> None:
        super().__init__(architecture, columns, requests)
        topology = architecture.topology
        self._l1_all = topology.l1_of_clients(columns.client)
        self._dist_rows = topology.distance_matrix().tolist()
        self._l1_entries = [
            cache._entries if cache.capacity_bytes is None else None
            for cache in architecture.l1_caches
        ]

    def process_batch(self, idx: np.ndarray) -> _BatchResult:
        columns = self.columns
        times = columns.time[idx].tolist()
        oids = columns.object[idx].tolist()
        versions = columns.version[idx].tolist()
        sizes_list = columns.size[idx].tolist()
        l1_list = self._l1_all[idx].tolist()

        arch = self.arch
        caches = arch.l1_caches
        l1_entries = self._l1_entries
        directory = arch.directory
        find = directory.find
        record_fp = directory.record_false_positive
        inform = directory.inform
        dist_rows = self._dist_rows
        hit = LookupResult.HIT
        rate = arch.client_false_negative_rate
        rng_random = arch._rng.random

        pattern_list = []
        miss_row_list = []
        holder_list = []
        aux_point_list = []
        flag_list = []
        p_append = pattern_list.append
        m_append = miss_row_list.append
        h_append = holder_list.append
        a_append = aux_point_list.append
        f_append = flag_list.append
        row = -1
        for t, oid, version, size, l1i in zip(
            times, oids, versions, sizes_list, l1_list
        ):
            row += 1
            entries = l1_entries[l1i]
            if entries is not None:
                entry = entries.get(oid)
                if entry is not None and entry.version >= version:
                    p_append(1)
                    continue
                arch._now = t
                cache = caches[l1i]
                if entry is not None:
                    cache.lookup(oid, version)  # STALE: invalidate + retract
            else:
                arch._now = t
                cache = caches[l1i]
                if cache.lookup(oid, version) is hit:
                    p_append(1)
                    continue
            m_append(row)
            degraded = rate > 0.0 and rng_random() < rate
            if not degraded:
                lookup = find(t, oid, l1i)
                holders = lookup.holders
                if holders:
                    drow = dist_rows[l1i]
                    holder = min(holders, key=lambda h: (drow[h], h))
                    point = drow[holder]
                    if caches[holder].lookup(oid, version) is hit:
                        cache.insert(oid, size, version)
                        inform(t, oid, l1i, version)
                        p_append(2)
                        h_append(holder)
                        a_append(point)
                        f_append(FLAG_REMOTE_HIT)
                        continue
                    record_fp()
                    cache.insert(oid, size, version)
                    inform(t, oid, l1i, version)
                    p_append(4)
                    h_append(holder)
                    a_append(point)
                    f_append(FLAG_FALSE_POSITIVE)
                    continue
            cache.insert(oid, size, version)
            inform(t, oid, l1i, version)
            if degraded:
                p_append(5)
                f_append(FLAG_FALSE_NEGATIVE)
            else:
                p_append(3)
                f_append(0)
            h_append(-1)
            a_append(4)

        pattern = np.array(pattern_list, dtype=np.int64)
        n = len(pattern)
        miss_rows = np.array(miss_row_list, dtype=np.int64)
        aux_point = np.ones(n, dtype=np.int64)
        if miss_rows.size:
            aux_point[miss_rows] = np.array(aux_point_list, dtype=np.int64)
        sizes = columns.size[idx]
        cost = arch.cost_model

        s0 = np.zeros(n, dtype=np.float64)
        s1 = np.zeros(n, dtype=np.float64)
        local_rows = pattern == 1
        if local_rows.any():
            s0[local_rows] = cost.direct_ms_batch(
                AccessPoint.L1, sizes[local_rows]
            )
        remote_rows = pattern == 2
        for point in (AccessPoint.L2, AccessPoint.L3):
            rows = remote_rows & (aux_point == int(point))
            if rows.any():
                s0[rows] = cost.direct_ms_batch(point, sizes[rows])
        plain_miss = (pattern == 3) | (pattern == 5)
        if plain_miss.any():
            s0[plain_miss] = cost.direct_ms_batch(
                AccessPoint.SERVER, sizes[plain_miss]
            )
        fp_rows = pattern == 4
        if fp_rows.any():
            for point in (AccessPoint.L2, AccessPoint.L3):
                rows = fp_rows & (aux_point == int(point))
                if rows.any():
                    s0[rows] = cost.probe_ms(point)
            s1[fp_rows] = cost.direct_ms_batch(
                AccessPoint.SERVER, sizes[fp_rows]
            )

        result_point = np.where(
            local_rows, 1, np.where(remote_rows, aux_point, 4)
        )
        flags = np.zeros(n, dtype=np.int64)
        holder = self._l1_all[idx].copy()
        if miss_rows.size:
            flags[miss_rows] = np.array(flag_list, dtype=np.int64)
            holder[miss_rows] = np.array(holder_list, dtype=np.int64)
        return _BatchResult(pattern, result_point, holder, flags, [s0, s1])

    def result_for(self, batch: _BatchResult, row: int) -> "AccessResult":
        from repro.obs.journey import Journey

        pattern = int(batch.pattern[row])
        s0 = float(batch.slot_costs[0][row])
        holder = int(batch.aux[row])
        journey = Journey()
        if pattern == 1:
            journey.local_lookup(s0, target=f"l1:{holder}")
            return journey.result(AccessPoint.L1, hit=True)
        if pattern == 2:
            journey.transfer(s0, target=f"l1:{holder}")
            return journey.result(
                AccessPoint(int(batch.point[row])), hit=True, remote_hit=True
            )
        if pattern == 4:
            journey.peer_probe(s0, target=f"l1:{holder}", wasted=True)
            journey.mark_false_positive()
            journey.origin_fetch(float(batch.slot_costs[1][row]))
            return journey.result(AccessPoint.SERVER, hit=False)
        if pattern == 5:
            journey.mark_false_negative()
        journey.origin_fetch(s0)
        return journey.result(AccessPoint.SERVER, hit=False)


class MessageHintKernel(_Kernel):
    """Vectorized path of :class:`MessageLevelHintHierarchy`.

    The state loop drives the same live :class:`HintCluster` -- packed
    per-node hint caches, batched updates, seeded flush jitter -- through
    ``find_nearest`` / ``local_inform``, so emergent pathologies (in-
    flight invalidations, set-conflict displacement) reproduce exactly.
    The walk has no fault sites, so fault plans are refused.
    """

    P_LOCAL = 1
    P_REMOTE = 2
    P_MISS = 3
    P_MISS_FP = 4
    P_MISS_FN = 5

    STEP_TABLE = {
        1: ((0, "local_lookup", False),),
        2: ((0, "hint_lookup", False), (1, "transfer", False)),
        3: ((0, "origin_fetch", False),),
        4: ((0, "peer_probe", True), (1, "origin_fetch", False)),
        5: ((0, "origin_fetch", False),),
    }

    def __init__(self, architecture, columns, requests=None) -> None:
        super().__init__(architecture, columns, requests)
        topology = architecture.topology
        self._l1_all = topology.l1_of_clients(columns.client)
        self._dist_rows = topology.distance_matrix().tolist()
        self._l1_entries = [
            cache._entries if cache.capacity_bytes is None else None
            for cache in architecture.l1_caches
        ]

    def process_batch(self, idx: np.ndarray) -> _BatchResult:
        columns = self.columns
        times = columns.time[idx].tolist()
        oids = columns.object[idx].tolist()
        versions = columns.version[idx].tolist()
        sizes_list = columns.size[idx].tolist()
        l1_list = self._l1_all[idx].tolist()

        arch = self.arch
        caches = arch.l1_caches
        l1_entries = self._l1_entries
        cluster = arch.cluster
        find_nearest = cluster.find_nearest
        local_inform = cluster.local_inform
        hash_of = arch._hash_of
        other_holder_exists = arch._other_holder_exists
        dist_rows = self._dist_rows
        hit = LookupResult.HIT

        pattern_list = []
        miss_row_list = []
        holder_list = []
        aux_point_list = []
        flag_list = []
        p_append = pattern_list.append
        m_append = miss_row_list.append
        h_append = holder_list.append
        a_append = aux_point_list.append
        f_append = flag_list.append
        row = -1
        for t, oid, version, size, l1i in zip(
            times, oids, versions, sizes_list, l1_list
        ):
            row += 1
            entries = l1_entries[l1i]
            if entries is not None:
                entry = entries.get(oid)
                if entry is not None and entry.version >= version:
                    p_append(1)
                    continue
                arch._now = t
                cache = caches[l1i]
                if entry is not None:
                    cache.lookup(oid, version)  # STALE: invalidate + flush
            else:
                arch._now = t
                cache = caches[l1i]
                if cache.lookup(oid, version) is hit:
                    p_append(1)
                    continue
            m_append(row)
            url_hash = hash_of(oid)
            found = find_nearest(l1i, url_hash, t)
            holder = found.node if found is not None else None
            if holder is not None and holder != l1i:
                point = dist_rows[l1i][holder]
                if caches[holder].lookup(oid, version) is hit:
                    cache.insert(oid, size, version)
                    local_inform(l1i, url_hash, t)
                    p_append(2)
                    h_append(holder)
                    a_append(point)
                    f_append(FLAG_REMOTE_HIT)
                    continue
                arch.false_positive_probes += 1
                cache.insert(oid, size, version)
                local_inform(l1i, url_hash, t)
                p_append(4)
                h_append(holder)
                a_append(point)
                f_append(FLAG_FALSE_POSITIVE)
                continue
            false_negative = other_holder_exists(oid, version, l1i)
            if false_negative:
                arch.false_negative_misses += 1
            cache.insert(oid, size, version)
            local_inform(l1i, url_hash, t)
            if false_negative:
                p_append(5)
                f_append(FLAG_FALSE_NEGATIVE)
            else:
                p_append(3)
                f_append(0)
            h_append(-1)
            a_append(4)

        pattern = np.array(pattern_list, dtype=np.int64)
        n = len(pattern)
        miss_rows = np.array(miss_row_list, dtype=np.int64)
        aux_point = np.ones(n, dtype=np.int64)
        if miss_rows.size:
            aux_point[miss_rows] = np.array(aux_point_list, dtype=np.int64)
        sizes = columns.size[idx]
        cost = arch.cost_model
        hint_ms = cost.hint_lookup_ms()

        s0 = np.zeros(n, dtype=np.float64)
        s1 = np.zeros(n, dtype=np.float64)
        local_rows = pattern == 1
        if local_rows.any():
            s0[local_rows] = cost.via_l1_ms_batch(
                AccessPoint.L1, sizes[local_rows]
            )
        remote_rows = pattern == 2
        if remote_rows.any():
            s0[remote_rows] = hint_ms
            for point in (AccessPoint.L2, AccessPoint.L3):
                rows = remote_rows & (aux_point == int(point))
                if rows.any():
                    s1[rows] = cost.via_l1_ms_batch(point, sizes[rows])
        plain_miss = (pattern == 3) | (pattern == 5)
        if plain_miss.any():
            s0[plain_miss] = cost.via_l1_ms_batch(
                AccessPoint.SERVER, sizes[plain_miss]
            )
        fp_rows = pattern == 4
        if fp_rows.any():
            for point in (AccessPoint.L2, AccessPoint.L3):
                rows = fp_rows & (aux_point == int(point))
                if rows.any():
                    s0[rows] = cost.probe_ms(point)
            s1[fp_rows] = cost.via_l1_ms_batch(
                AccessPoint.SERVER, sizes[fp_rows]
            )

        result_point = np.where(
            local_rows, 1, np.where(remote_rows, aux_point, 4)
        )
        flags = np.zeros(n, dtype=np.int64)
        holder = self._l1_all[idx].copy()
        if miss_rows.size:
            flags[miss_rows] = np.array(flag_list, dtype=np.int64)
            holder[miss_rows] = np.array(holder_list, dtype=np.int64)
        return _BatchResult(pattern, result_point, holder, flags, [s0, s1])

    def result_for(self, batch: _BatchResult, row: int) -> "AccessResult":
        from repro.obs.journey import Journey

        pattern = int(batch.pattern[row])
        s0 = float(batch.slot_costs[0][row])
        s1 = float(batch.slot_costs[1][row])
        holder = int(batch.aux[row])
        journey = Journey()
        if pattern == 1:
            journey.local_lookup(s0, target=f"l1:{holder}")
            return journey.result(AccessPoint.L1, hit=True)
        if pattern == 2:
            journey.hint_lookup(s0, target=f"l1:{holder}")
            journey.transfer(s1, target=f"l1:{holder}")
            return journey.result(
                AccessPoint(int(batch.point[row])), hit=True, remote_hit=True
            )
        if pattern == 4:
            journey.peer_probe(s0, target=f"l1:{holder}", wasted=True)
            journey.mark_false_positive()
            journey.origin_fetch(s1)
            return journey.result(AccessPoint.SERVER, hit=False)
        if pattern == 5:
            journey.mark_false_negative()
        journey.origin_fetch(s0)
        return journey.result(AccessPoint.SERVER, hit=False)


def kernel_class_for(architecture: "Architecture"):
    """The vectorized kernel for this architecture, or ``None``.

    Exact-type matches only: subclasses may override ``process`` and must
    not silently inherit a kernel that bypasses their behavior.
    """
    from repro.hierarchy.client_hints import ClientHintHierarchy
    from repro.hierarchy.data_hierarchy import DataHierarchy
    from repro.hierarchy.directory_arch import CentralizedDirectoryArchitecture
    from repro.hierarchy.hint_hierarchy import HintHierarchy
    from repro.hierarchy.icp import IcpHierarchy
    from repro.hierarchy.message_hints import MessageLevelHintHierarchy

    kind = type(architecture)
    if kind is DataHierarchy:
        return HierarchyKernel
    if kind is IcpHierarchy:
        return IcpKernel
    if kind is HintHierarchy:
        if (
            architecture.push_policy is None
            and not architecture.charge_remote_as_l1
        ):
            return HintKernel
        return PushHintKernel
    if kind is CentralizedDirectoryArchitecture:
        return DirectoryKernel
    if kind is ClientHintHierarchy:
        return ClientHintKernel
    if kind is MessageLevelHintHierarchy:
        return MessageHintKernel
    return None


def fast_unsupported_reason(architecture: "Architecture") -> str | None:
    """Why the vectorized path cannot drive this architecture (or None)."""
    if kernel_class_for(architecture) is None:
        return (
            f"no vectorized kernel for architecture {architecture.name!r} "
            f"({type(architecture).__name__}); supported: hierarchy, icp, "
            "hints (plain, push, and ideal-push), directory, client-hints, "
            "and hints-message-level"
        )
    return None


def run_fast_simulation(
    trace: "Trace",
    architecture: "Architecture",
    *,
    warmup_s: float | None = None,
    include_uncachable: bool = False,
    fault_plan: "FaultPlan | None" = None,
    journey_sink: "JourneySink | None" = None,
    telemetry: "RunTelemetry | None" = None,
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> SimMetrics:
    """Columnar twin of :func:`repro.sim.engine.run_simulation`.

    Accepts configurations the vectorized kernels cover, including fault
    plans: the trace is additionally split at fault-event edges, quiescent
    spans run the kernels, and active windows fall back to a per-request
    loop over ``architecture.process``.  Audit hooks (and architectures
    carrying pre-attached fault/audit state) still dispatch to the
    reference loop via the engine.  Returns byte-identical
    :class:`SimMetrics`.
    """
    if batch_size < 1:
        raise ValueError(f"batch size must be positive, got {batch_size}")
    kernel_cls = kernel_class_for(architecture)
    if kernel_cls is None:
        raise ValueError(fast_unsupported_reason(architecture))
    if architecture.faults is not None or architecture.audit is not None:
        raise ValueError(
            "fast engine drives healthy or plan-scheduled runs on a freshly "
            "built architecture; pass fault schedules via fault_plan= "
            "(pre-attached fault state and audit hooks dispatch to the "
            "reference loop)"
        )
    injector: "FaultInjector | None" = None
    if fault_plan is not None and fault_plan:
        from repro.faults.injector import FaultInjector

        injector = FaultInjector(fault_plan)
        injector.bind(architecture)
    boundary = trace.warmup if warmup_s is None else warmup_s
    metrics = SimMetrics(
        architecture=architecture.name,
        cost_model=architecture.cost_model.name,
    )
    columns = trace.columns()
    n = len(columns)
    if telemetry is not None:
        telemetry.begin(architecture, injector=injector)

    time_col = columns.time
    error = columns.error
    uncachable = (~columns.cacheable) & (~error)
    if include_uncachable:
        metrics.included_error = int(error.sum())
        metrics.included_uncachable = int(uncachable.sum())
        process = np.ones(n, dtype=bool)
    else:
        metrics.skipped_error = int(error.sum())
        metrics.skipped_uncachable = int(uncachable.sum())
        process = ~(error | uncachable)
    measured_mask = process & (time_col >= boundary)
    processed_total = int(process.sum())
    metrics.warmup_requests = processed_total - int(measured_mask.sum())

    # Batch spans: fixed-size chunks, additionally split at telemetry bin
    # edges so each span's clock advance (and therefore every bin-close
    # snapshot) lands exactly where the per-request engine would put it,
    # and at fault-event edges so no span straddles an injector state
    # change (events fire during the advance at a span's start, exactly
    # when the reference's per-request advance would fire them).
    edges = set(range(0, n, batch_size))
    if telemetry is not None and n:
        bins = (time_col // telemetry.bin_s).astype(np.int64)
        edges.update((np.flatnonzero(np.diff(bins) != 0) + 1).tolist())
    if injector is not None and n:
        for event in fault_plan.events:
            e = int(np.searchsorted(time_col, event.time, side="left"))
            if 0 < e < n:
                edges.add(e)
    span_edges = sorted(edges) + [n]

    needs_requests = (
        journey_sink is not None
        or injector is not None
        or kernel_cls.NEEDS_REQUESTS
    )
    requests = trace.requests if needs_requests else None
    kernel = kernel_cls(architecture, columns, requests=requests)
    kind_table = kernel._kind_table()
    sizes_col = columns.size

    # Host profiler: resolved once per run (one pointer check when
    # detached); attached runs get one "batch" span per quiescent span
    # with classify / fold / decode children and hit-miss attributes.
    profiler = profiling.active()

    for start, stop in zip(span_edges, span_edges[1:]):
        if start >= stop:
            continue
        if telemetry is not None:
            telemetry.advance(float(time_col[start]))
        if injector is not None:
            injector.advance(float(time_col[start]))
        idx = np.flatnonzero(process[start:stop]) + start
        if idx.size == 0:
            continue
        if injector is not None:
            if injector.faults_active:
                # Active window: the vectorized residual is this span's
                # per-request loop (the reference loop body, verbatim).
                if profiler is None:
                    _run_residual_span(
                        metrics,
                        architecture,
                        requests,
                        idx,
                        boundary,
                        telemetry,
                        journey_sink,
                    )
                else:
                    with profiler.span(
                        "residual_replay", category="fastpath", rows=int(idx.size)
                    ):
                        _run_residual_span(
                            metrics,
                            architecture,
                            requests,
                            idx,
                            boundary,
                            telemetry,
                            journey_sink,
                        )
                continue
            kernel.span_begin()
        if profiler is None:
            batch = kernel.process_batch(idx)
            span_measured = measured_mask[idx]
            measured_before = metrics.measured_requests
            _fold_measured(
                metrics,
                batch,
                span_measured,
                sizes_col[idx],
                kernel.STEP_TABLE,
                kind_table,
            )
            if telemetry is not None:
                _observe_span(telemetry, batch, span_measured, sizes_col[idx])
            if journey_sink is not None:
                for offset, row in enumerate(np.flatnonzero(span_measured).tolist()):
                    result = kernel.result_for(batch, row)
                    journey_sink.emit(
                        measured_before + offset, requests[int(idx[row])], result
                    )
            continue
        with profiler.span(
            "batch", category="fastpath", rows=int(idx.size)
        ) as batch_span:
            with profiler.span("classify", category="fastpath", rows=int(idx.size)):
                batch = kernel.process_batch(idx)
            hits = int((batch.point == int(AccessPoint.L1)).sum())
            batch_span.attrs["l1_hits"] = hits
            batch_span.attrs["l1_misses"] = int(idx.size) - hits
            span_measured = measured_mask[idx]
            measured_before = metrics.measured_requests
            with profiler.span("metrics_fold", category="fastpath"):
                _fold_measured(
                    metrics,
                    batch,
                    span_measured,
                    sizes_col[idx],
                    kernel.STEP_TABLE,
                    kind_table,
                )
            if telemetry is not None:
                with profiler.span("telemetry_decode", category="fastpath"):
                    _observe_span(telemetry, batch, span_measured, sizes_col[idx])
            if journey_sink is not None:
                with profiler.span("journey_decode", category="fastpath"):
                    for offset, row in enumerate(
                        np.flatnonzero(span_measured).tolist()
                    ):
                        result = kernel.result_for(batch, row)
                        journey_sink.emit(
                            measured_before + offset, requests[int(idx[row])], result
                        )

    architecture.processed_requests += processed_total
    if telemetry is not None:
        telemetry.finish(trace.duration)
    metrics.validate(expected_requests=n)
    return metrics


def _run_residual_span(
    metrics: SimMetrics,
    architecture: "Architecture",
    requests,
    idx: np.ndarray,
    boundary: float,
    telemetry: "RunTelemetry | None",
    journey_sink: "JourneySink | None",
) -> None:
    """Per-request fallback for one active fault window.

    Mirrors the reference loop's body exactly.  Span edges include every
    fault-event time, so no event fires mid-span (the per-request clock
    advances the reference performs here are no-ops) and the window is
    faulted throughout.  Warmup and skip counters are precomputed by the
    driver; only measured accounting happens here.
    """
    process = architecture.process
    record = metrics.record
    for i in idx.tolist():
        request = requests[i]
        result = process(request)
        if request.time < boundary:
            if telemetry is not None:
                telemetry.observe(request, result, measured=False)
            continue
        record(result, request.size, faulted=True)
        if telemetry is not None:
            telemetry.observe(request, result, measured=True)
        if journey_sink is not None:
            journey_sink.emit(metrics.measured_requests - 1, request, result)


def _fold_measured(
    metrics: SimMetrics,
    batch: _BatchResult,
    measured: np.ndarray,
    sizes: np.ndarray,
    step_table,
    kind_table,
) -> None:
    """Fold one batch's measured rows into SimMetrics, bit-identically."""
    count = int(measured.sum())
    if count == 0:
        return
    times = batch.time_ms[measured]
    points = batch.point[measured]
    flags = batch.flags[measured]
    msizes = sizes[measured]

    metrics.measured_requests += count
    metrics.total_ms = _sequential_sum(metrics.total_ms, times)
    metrics.latency.bulk_record(times)
    point_counts = np.bincount(points, minlength=5)
    for point in AccessPoint:
        hits = int(point_counts[int(point)])
        if hits:
            metrics.requests_by_point[point] += hits
            metrics.bytes_by_point[point] += int(msizes[points == int(point)].sum())
    metrics.remote_hits += int((flags & FLAG_REMOTE_HIT != 0).sum())
    metrics.false_positives += int((flags & FLAG_FALSE_POSITIVE != 0).sum())
    metrics.false_negatives += int((flags & FLAG_FALSE_NEGATIVE != 0).sum())
    metrics.suboptimal_positives += int((flags & FLAG_SUBOPTIMAL != 0).sum())
    metrics.push_hits += int((flags & FLAG_PUSH_HIT != 0).sum())
    metrics.degraded.stale_hint_forwards += int(
        (flags & FLAG_STALE_FORWARD != 0).sum()
    )
    metrics.journeyed_requests += count

    # Per-kind step fold.  Aggregates are created in first-seen order
    # (row-major, then slot order within a row) so rendered decomposition
    # tables iterate kinds exactly as the reference engine built them.
    patterns = batch.pattern[measured]
    steps = metrics.steps
    first_seen: dict[str, int] = {}
    for pattern, slots in step_table.items():
        rows = np.flatnonzero(patterns == pattern)
        if rows.size == 0:
            continue
        ordinal_base = int(rows[0]) * 4
        for slot, kind, _wasted in slots:
            if kind not in steps:
                ordinal = ordinal_base + slot
                if kind not in first_seen or ordinal < first_seen[kind]:
                    first_seen[kind] = ordinal
    for kind, _ in sorted(first_seen.items(), key=lambda item: item[1]):
        steps[kind] = StepAggregate(kind=kind)

    n_rows = len(patterns)
    measured_slot_costs = [costs[measured] for costs in batch.slot_costs]
    for kind, occurrences in kind_table.items():
        # A pattern may carry the same kind more than once (e.g. the
        # directory's stale forward probes the directory *and* the dead
        # holder).  The reference folds steps row-major, journey order
        # within a row -- so lay costs out as (row, occurrence) and
        # flatten.
        occ_by_pattern: dict[int, list[tuple[int, bool]]] = {}
        for pattern, slot, wasted in occurrences:
            occ_by_pattern.setdefault(pattern, []).append((slot, wasted))
        width = max(len(slots) for slots in occ_by_pattern.values())
        valid = np.zeros((n_rows, width), dtype=bool)
        cost_grid = np.zeros((n_rows, width), dtype=np.float64)
        wasted_count = 0
        for pattern, slots in occ_by_pattern.items():
            rows = patterns == pattern
            if not rows.any():
                continue
            for occurrence, (slot, wasted) in enumerate(slots):
                valid[rows, occurrence] = True
                cost_grid[rows, occurrence] = measured_slot_costs[slot][rows]
                if wasted:
                    wasted_count += int(rows.sum())
        flat_valid = valid.ravel()
        if not flat_valid.any():
            continue
        costs = cost_grid.ravel()[flat_valid]
        agg = steps[kind]
        agg.count += len(costs)
        agg.total_ms = _sequential_sum(agg.total_ms, costs)
        agg.wasted += wasted_count
        agg.latency.bulk_record(costs)
        # agg.fault_ms stays 0.0: quiescent steps charge fault_ms == 0.0
        # and x += 0.0 is the identity for the fault ledger's
        # non-negatives (active windows fold through metrics.record).


def _observe_span(
    telemetry: "RunTelemetry",
    batch: _BatchResult,
    span_measured: np.ndarray,
    sizes: np.ndarray,
) -> None:
    """Decode one span's rows into telemetry observations, in row order."""
    observe = telemetry.observe_values
    points = batch.point.tolist()
    times = batch.time_ms.tolist()
    flags = batch.flags.tolist()
    size_list = sizes.tolist()
    measured_list = span_measured.tolist()
    for point, time_ms, flag, size, measured in zip(
        points, times, flags, size_list, measured_list
    ):
        observe(
            point=point,
            size=size,
            time_ms=time_ms,
            remote_hit=bool(flag & FLAG_REMOTE_HIT),
            false_positive=bool(flag & FLAG_FALSE_POSITIVE),
            false_negative=bool(flag & FLAG_FALSE_NEGATIVE),
            suboptimal_positive=bool(flag & FLAG_SUBOPTIMAL),
            push_hit=bool(flag & FLAG_PUSH_HIT),
            stale_hint_forward=bool(flag & FLAG_STALE_FORWARD),
            measured=measured,
        )
