"""The paper's architecture: location hints + direct cache-to-cache transfer.

Data lives only at L1 proxy caches.  On a local miss the proxy consults its
hint cache (a local, microsecond operation -- hint propagation happens in
the background); a hint sends the request straight to the peer cache
holding the nearest copy, which returns the data in a single
cache-to-cache hop; no hint sends the request straight to the origin
server.  This satisfies all of: minimize hops, don't slow down misses, and
share data among many caches.

Hint pathologies are modelled per section 3.1.1:

* *false positive* -- the probed peer no longer holds the object (or holds
  a stale version): the peer replies with an error and the request goes to
  the server; no second hint lookup is attempted.
* *false negative* -- the hint cache knows no copy although one exists:
  priced exactly like a plain miss.
* *suboptimal positive* -- a farther peer is named although a nearer one
  has the object: still a hit, charged at the farther distance class.

Push policies (section 4) hook the two fetch events; the ``charge_remote_
as_l1`` flag implements the ideal-push upper bound (every remote hit is
charged as a local hit and the replicas consume no space).

Fault injection (section 5) runs through the same walk: each fault site
is an inline check on ``self.faults``, so a healthy run and a fault
window in which nothing is down charge identically.
"""

from __future__ import annotations

from repro.cache.lru import CacheEntry, LookupResult
from repro.cache.policy import PolicySpec
from repro.hierarchy.base import AccessResult, Architecture, build_l1_caches
from repro.hierarchy.topology import HierarchyTopology
from repro.hints.directory import HintDirectory
from repro.netmodel.model import AccessPoint, CostModel
from repro.obs.journey import Journey
from repro.push.base import PushAction, PushPolicy, PushStats
from repro.traces.records import Request


class HintHierarchy(Architecture):
    """Hint-directory architecture with direct cache-to-cache transfers.

    Args:
        topology: Client / L1 / L2 / L3 grouping (the metadata hierarchy
            follows the same shape).
        cost_model: Access-time parameterization.
        l1_bytes: Per-proxy data-cache capacity (``None`` = infinite).
        hint_capacity_bytes: Hint-cache capacity at 16 bytes/entry
            (``None`` = unbounded; Figure 5 sweeps this).
        hint_delay_s: Hint propagation delay (Figure 6 sweeps this).
        push_policy: Optional push policy (section 4).
        charge_remote_as_l1: Ideal-push accounting -- remote hits are
            charged as L1 hits (section 4.1.1's best case).
        l1_policy: Replacement policy for the per-proxy data caches
            (:class:`~repro.cache.policy.PolicySpec`; default LRU).

    :meth:`process` is the one request walk, healthy or under a fault
    plan.  Only the plain architecture accepts a plan: a push policy or
    ``charge_remote_as_l1`` makes :meth:`fault_unsupported_reason` name
    the gap, and :class:`~repro.faults.injector.FaultInjector` refuses
    the run before its first request rather than dropping the push
    model without saying so.
    """

    name = "hints"

    def __init__(
        self,
        topology: HierarchyTopology,
        cost_model: CostModel,
        l1_bytes: int | None = None,
        hint_capacity_bytes: int | None = None,
        hint_delay_s: float = 0.0,
        push_policy: PushPolicy | None = None,
        charge_remote_as_l1: bool = False,
        l1_policy: PolicySpec | None = None,
    ) -> None:
        super().__init__(cost_model)
        self.topology = topology
        self.directory = HintDirectory(
            capacity_bytes=hint_capacity_bytes,
            propagation_delay_s=hint_delay_s,
        )
        self.push_policy = push_policy
        self.push_stats = PushStats()
        self.charge_remote_as_l1 = charge_remote_as_l1
        if charge_remote_as_l1:
            self.name = "hints-ideal-push"
        elif push_policy is not None:
            self.name = f"hints+{push_policy.name}"

        self._now = 0.0
        self._base_hint_delay_s = hint_delay_s
        # (node, object) -> pushed version, for replicas awaiting first use.
        self._pending_push: dict[tuple[int, int], int] = {}
        self.l1_caches = build_l1_caches(
            topology.n_l1,
            l1_bytes,
            eviction_callback=self._eviction_callback,
            policy=l1_policy,
        )

    # ------------------------------------------------------------------
    # request processing
    # ------------------------------------------------------------------
    def process(self, request: Request) -> AccessResult:
        """Local lookup, then the hint, then one transfer or the server.

        Under a fault plan (section 5's availability argument) the walk
        keeps working when nodes die, because any live peer or the
        origin server remains reachable without a fixed chain of
        parents.  The costs of degradation are wasted forwards to dead
        holders (timeout, counted as ``stale_hint_forward``) and eroding
        hint coverage (lost batches and dead metadata nodes make stores
        invisible, so future lookups miss straight to the server --
        slower, never wrong).
        """
        if self.audit is not None:
            self.audit.checkpoint(self)
        if self.shard is not None:
            self.check_shard_owns(request.object_id)
        faults = self.faults
        self._now = request.time
        if faults is not None:
            # StaleHintDrift: extra visibility lag on top of the configured
            # propagation delay, applied to every event scheduled from now on.
            self.directory.propagation_delay_s = (
                self._base_hint_delay_s + faults.hint_delay_skew_s
            )
        l1_index = self.topology.l1_of_client(request.client_id)
        cache = self.l1_caches[l1_index]
        oid, version, size = request.object_id, request.version, request.size
        cost = self.cost_model

        if faults is not None and faults.is_down("l1", l1_index):
            # The client's own proxy is dead: wait out the timeout, then
            # fetch from the origin directly.  Nothing is cached.
            return self._timeout_to_origin(
                Journey(), cost.via_l1_ms(AccessPoint.SERVER, size), target=f"l1:{l1_index}"
            )

        local = cache.lookup(oid, version)
        if local is LookupResult.HIT:
            charged, added = self._charge(cost.via_l1_ms(AccessPoint.L1, size))
            journey = Journey()
            journey.local_lookup(charged, target=f"l1:{l1_index}", fault_ms=added)
            if self._consume_push_mark(l1_index, oid, version):
                journey.mark_push_hit()
            return journey.result(AccessPoint.L1, hit=True)
        local_had_stale = local is LookupResult.STALE

        lookup = self.directory.find(self._now, oid, l1_index)
        holder = self._nearest_holder(lookup.holders, l1_index)
        # Snapshot stale holders *before* any probe: a probed cache that
        # finds itself stale invalidates on the spot, but it remains an
        # update-push candidate (the paper's "recently invalidated" list).
        stale_holders = {
            node: held
            for node, held in self.directory.truth_holders(oid).items()
            if held < version and node != l1_index
        }

        if holder is not None and faults is not None and faults.is_down("l1", holder):
            # A stale hint forwarded the request to a crashed peer: the
            # probe times out, the requester discards the bad hint, and
            # the request completes at the origin server.
            self.directory.drop_visible(oid, holder)
            self.directory.record_false_positive()
            self._store(l1_index, request)
            journey = Journey()
            journey.hint_lookup(cost.hint_lookup_ms(), target=f"l1:{holder}")
            journey.mark_false_positive()
            return self._timeout_to_origin(
                journey,
                cost.via_l1_ms(AccessPoint.SERVER, size),
                target=f"l1:{holder}",
                stale=True,
            )

        if holder is not None:
            point = self.topology.distance_class(l1_index, holder)
            remote = self.l1_caches[holder].lookup(oid, version)
            if remote is LookupResult.HIT:
                return self._remote_hit(request, l1_index, holder, point)
            # The advertised copy is gone or stale: a false positive.  The
            # probed cache replies with an error; go straight to the server.
            self.directory.record_false_positive()
            probe_ms, probe_added = self._charge(cost.probe_ms(point))
            journey = Journey()
            journey.hint_lookup(cost.hint_lookup_ms())
            journey.peer_probe(
                probe_ms, target=f"l1:{holder}", fault_ms=probe_added, wasted=True
            )
            journey.mark_false_positive()
        else:
            journey = Journey()
            journey.hint_lookup(cost.hint_lookup_ms())
            if lookup.false_negative:
                journey.mark_false_negative()
        return self._server_fetch(
            request, l1_index, journey, local_had_stale, stale_holders
        )

    # ------------------------------------------------------------------
    # fault model
    # ------------------------------------------------------------------
    def fault_unsupported_reason(self) -> str | None:
        # Push actions and the ideal-push bound have no fault sites: a
        # push to a dead node or over a lost batch is not modelled.
        if self.push_policy is not None:
            return f"push policy {self.push_policy.name!r} is not modelled under faults"
        if self.charge_remote_as_l1:
            return "ideal-push accounting is not modelled under faults"
        return None

    def on_fault_crash(self, kind, node: int) -> None:
        """An L1 proxy dies without a goodbye.

        Its data is gone (ground truth updated) but the retractions were
        never sent (``visible=False``), so every hint cache keeps
        advertising the dead node's holdings -- the paper's "stale but
        never wrong" hints become plain wrong until probes discover the
        corpse.  Metadata-node crashes need no state change here; they
        suppress hint visibility on the request path instead.
        """
        from repro.faults.events import NodeKind

        if kind is NodeKind.L1 and node < len(self.l1_caches):
            for key in self.l1_caches[node].clear():
                self.directory.retract(self._now, key, node, visible=False)
                self._pending_push.pop((node, key), None)

    def _meta_node_of(self, l1_index: int) -> int:
        """Metadata-hierarchy node relaying hint updates for this proxy.

        The metadata hierarchy follows the data topology's shape, so the
        interior node covering an L1 proxy is its L2 group index.
        """
        return self.topology.l2_of_l1(l1_index)

    # ------------------------------------------------------------------
    # hit / miss paths
    # ------------------------------------------------------------------
    def _remote_hit(
        self, request: Request, l1_index: int, holder: int, point: AccessPoint
    ) -> AccessResult:
        size = request.size
        charged_point = AccessPoint.L1 if self.charge_remote_as_l1 else point
        # Section 3.1.1's third hint error: a closer cache also held a
        # current copy but the (stale or displaced) hint view named a
        # farther one.  Still a hit, charged at the farther distance.
        suboptimal = any(
            held >= request.version
            and node != l1_index
            and self.topology.distance_class(l1_index, node) < point
            for node, held in self.directory.truth_holders(request.object_id).items()
        )
        self.push_stats.note_time(self._now)
        self.push_stats.demand_bytes += size
        if not self.charge_remote_as_l1:
            # The requester keeps a demand copy (the ideal-push bound skips
            # this so extra replicas never consume disk space).
            self._store(l1_index, request)
        if self.push_policy is not None:
            actions = self.push_policy.on_remote_fetch(
                now=self._now,
                request=request,
                requester_l1=l1_index,
                source_l1=holder,
                lca_level=int(point),
            )
            self._apply_pushes(actions, exclude={l1_index, holder})
        charged, added = self._charge(self.cost_model.via_l1_ms(charged_point, size))
        journey = Journey()
        journey.hint_lookup(self.cost_model.hint_lookup_ms(), target=f"l1:{holder}")
        journey.transfer(charged, target=f"l1:{holder}", fault_ms=added)
        if suboptimal:
            journey.mark_suboptimal()
        return journey.result(charged_point, hit=True, remote_hit=True)

    def _server_fetch(
        self,
        request: Request,
        l1_index: int,
        journey: Journey,
        local_had_stale: bool,
        stale_holders: dict[int, int],
    ) -> AccessResult:
        """Complete a miss at the origin server; ``journey`` carries the
        hint lookup (and any wasted probe) already charged."""
        size = request.size
        communication_miss = local_had_stale or bool(stale_holders)
        self.push_stats.note_time(self._now)
        self.push_stats.demand_bytes += size
        self._store(l1_index, request)
        if self.push_policy is not None:
            actions = self.push_policy.on_server_fetch(
                now=self._now,
                request=request,
                requester_l1=l1_index,
                communication_miss=communication_miss,
                stale_holders=stale_holders,
            )
            self._apply_pushes(actions, exclude={l1_index})
        charged, added = self._charge(
            self.cost_model.via_l1_ms(AccessPoint.SERVER, size), origin=True
        )
        journey.origin_fetch(charged, fault_ms=added)
        return journey.result(AccessPoint.SERVER, hit=False)

    # ------------------------------------------------------------------
    # storage and hint bookkeeping
    # ------------------------------------------------------------------
    def _store(self, l1_index: int, request: Request) -> None:
        """Cache a demand copy at the requester's proxy and advertise it.

        The copy always lands in the data cache (ground truth).  Under a
        plan the announcement is invisible when the seeded batch-loss
        draw says so or when the metadata node relaying this proxy's
        updates is down -- either way the system accrues future false
        negatives, never incorrect data.
        """
        self.l1_caches[l1_index].insert(
            request.object_id, request.size, request.version
        )
        faults = self.faults
        visible = faults is None or not (
            faults.hint_update_dropped()
            or faults.is_down("meta", self._meta_node_of(l1_index))
        )
        self.directory.inform(
            self._now, request.object_id, l1_index, request.version, visible=visible
        )

    def _apply_pushes(self, actions: list[PushAction], exclude: set[int]) -> None:
        for action in actions:
            if action.target_l1 in exclude:
                self.push_stats.skipped_count += 1
                continue
            cache = self.l1_caches[action.target_l1]
            existing = cache.peek(action.object_id)
            if existing is not None and existing.version >= action.version:
                self.push_stats.skipped_count += 1
                continue
            cache.insert(action.object_id, action.size, action.version)
            if action.age_entry:
                # Update-push aging: repeatedly-updated-but-unread objects
                # drift toward eviction instead of staying hot.
                cache.touch_lru_demote(action.object_id)
            self.directory.inform(
                self._now, action.object_id, action.target_l1, action.version
            )
            self._pending_push[(action.target_l1, action.object_id)] = action.version
            self.push_stats.pushed_count += 1
            self.push_stats.pushed_bytes += action.size

    def _consume_push_mark(self, node: int, oid: int, version: int) -> bool:
        pushed_version = self._pending_push.pop((node, oid), None)
        if pushed_version is None or pushed_version < version:
            return False
        self.push_stats.used_count += 1
        size = self.l1_caches[node].peek(oid).size if self.l1_caches[node].peek(oid) else 0
        self.push_stats.used_bytes += size
        return True

    def _eviction_callback(self, node: int):
        def on_evict(key: int, entry: CacheEntry, reason: str) -> None:
            self.directory.retract(self._now, key, node)
            pushed_version = self._pending_push.pop((node, key), None)
            if pushed_version is not None:
                self.push_stats.wasted_count += 1
                self.push_stats.wasted_bytes += entry.size

        return on_evict

    def _nearest_holder(self, holders: tuple[int, ...], requester: int) -> int | None:
        if not holders:
            return None
        return min(
            holders,
            key=lambda h: (int(self.topology.distance_class(requester, h)), h),
        )
