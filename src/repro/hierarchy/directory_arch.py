"""Centralized-directory architecture (CRISP-style; the "Directory" bars).

The CRISP cache (Gadde, Rabinovich, Chase 1997) keeps one *central* mapping
from objects to caches.  An L1 proxy that misses locally asks the central
directory where the object is, then fetches it with a direct cache-to-cache
transfer (or from the server when the directory knows no copy).

Compared with the hint architecture, the lookup is always fresh and
complete -- no false positives or negatives -- but it costs a network round
trip to the directory on **every** local miss, including requests that end
up going to the server, which violates "do not slow down misses".  The
directory sits at the root of the system, so the round trip is priced at
L3 distance.
"""

from __future__ import annotations

from repro.cache.lru import LookupResult
from repro.cache.policy import PolicySpec
from repro.hierarchy.base import AccessResult, Architecture, build_l1_caches
from repro.hierarchy.topology import HierarchyTopology
from repro.hints.directory import HintDirectory
from repro.netmodel.model import AccessPoint, CostModel
from repro.obs.journey import Journey
from repro.traces.records import Request


class CentralizedDirectoryArchitecture(Architecture):
    """One always-fresh global directory queried over the network.

    Args:
        topology: Client / L1 / L2 / L3 grouping.
        cost_model: Access-time parameterization.
        l1_bytes: Per-proxy data-cache capacity (``None`` = infinite).
        directory_point: Distance class of the directory node (L3 -- the
            root -- by default).
        l1_policy: Replacement policy for the per-proxy data caches
            (:class:`~repro.cache.policy.PolicySpec`; default LRU).
    """

    name = "directory"

    def __init__(
        self,
        topology: HierarchyTopology,
        cost_model: CostModel,
        l1_bytes: int | None = None,
        directory_point: AccessPoint = AccessPoint.L3,
        l1_policy: PolicySpec | None = None,
    ) -> None:
        super().__init__(cost_model)
        self.topology = topology
        self.directory_point = directory_point
        # Zero delay, unbounded capacity: the central directory is complete
        # and fresh; its cost is the query round trip, not staleness.
        self.directory = HintDirectory()
        self._now = 0.0
        self.l1_caches = build_l1_caches(
            topology.n_l1,
            l1_bytes,
            eviction_callback=self._eviction_callback,
            policy=l1_policy,
        )

    #: The central directory is metadata node 0 in fault plans.
    DIRECTORY_META_NODE = 0

    def process(self, request: Request) -> AccessResult:
        """Local lookup, then the directory query, then one transfer.

        Under a fault plan a dead directory makes every local miss pay a
        query timeout before going to the origin server, and a forward to
        a dead or emptied holder is a wasted forward.
        """
        if self.audit is not None:
            self.audit.checkpoint(self)
        if self.shard is not None:
            self.check_shard_owns(request.object_id)
        faults = self.faults
        self._now = request.time
        l1_index = self.topology.l1_of_client(request.client_id)
        oid, version, size = request.object_id, request.version, request.size
        cost = self.cost_model

        if faults is not None and faults.is_down("l1", l1_index):
            # Client's own proxy dead: timeout, then direct origin fetch.
            return self._timeout_to_origin(
                Journey(), cost.via_l1_ms(AccessPoint.SERVER, size), target=f"l1:{l1_index}"
            )

        if self.l1_caches[l1_index].lookup(oid, version) is LookupResult.HIT:
            charged, added = self._charge(cost.via_l1_ms(AccessPoint.L1, size))
            journey = Journey()
            journey.local_lookup(charged, target=f"l1:{l1_index}", fault_ms=added)
            return journey.result(AccessPoint.L1, hit=True)

        if faults is not None and faults.is_down("meta", self.DIRECTORY_META_NODE):
            # The directory itself is down: the query times out and the
            # miss goes straight to the origin server.  The copy is still
            # cached locally, but the directory never hears about it --
            # its map silently erodes for the outage's duration.
            self.l1_caches[l1_index].insert(oid, size, version)
            return self._timeout_to_origin(
                Journey(), cost.via_l1_ms(AccessPoint.SERVER, size), target="directory"
            )

        query_ms, query_added = self._charge(cost.probe_ms(self.directory_point))
        journey = Journey()
        journey.peer_probe(query_ms, target="directory", fault_ms=query_added)
        holders = self.directory.find(self._now, oid, l1_index).holders
        if faults is None:
            # Healthy, the directory is exact: the nearest holder of a
            # current version, so the forwarded fetch always hits.
            truth = self.directory.truth_holders(oid)
            holders = tuple(h for h in holders if truth.get(h, -1) >= version)
        # Under a plan the walk trusts the visible map (what a real CRISP
        # client does): crashed proxies died without retracting, so the
        # map may name holders that no longer exist, and the fetch
        # discovers the truth.  This is a change of model, not only of
        # fault state -- a plan whose nodes never go down still differs
        # from the healthy run (DESIGN.md section 7).
        holder = self._nearest_holder(holders, l1_index)

        if holder is not None and faults is not None and faults.is_down("l1", holder):
            # Stale map: the fetch hangs on a dead peer until the timeout,
            # then the directory drops the entry and the request goes to
            # the origin server.
            self.directory.drop_visible(oid, holder)
            self._store(l1_index, request)
            return self._timeout_to_origin(
                journey,
                cost.via_l1_ms(AccessPoint.SERVER, size),
                target=f"l1:{holder}",
                stale=True,
            )

        if holder is not None:
            point = self.topology.distance_class(l1_index, holder)
            if self.l1_caches[holder].lookup(oid, version) is LookupResult.HIT:
                self._store(l1_index, request)
                charged, added = self._charge(cost.via_l1_ms(point, size))
                journey.transfer(charged, target=f"l1:{holder}", fault_ms=added)
                return journey.result(point, hit=True, remote_hit=True)
            # The peer is alive but the copy is gone (it crashed and came
            # back empty while the directory still advertised the entry):
            # a wasted forward, reachable only through the trusted map.
            self.directory.drop_visible(oid, holder)
            probe_ms, probe_added = self._charge(cost.probe_ms(point))
            journey.peer_probe(
                probe_ms, target=f"l1:{holder}", fault_ms=probe_added, wasted=True
            )
            journey.mark_stale_forward()

        self._store(l1_index, request)
        charged, added = self._charge(
            cost.via_l1_ms(AccessPoint.SERVER, size), origin=True
        )
        journey.origin_fetch(charged, fault_ms=added)
        return journey.result(AccessPoint.SERVER, hit=False)

    def _nearest_holder(self, holders: tuple[int, ...], requester: int) -> int | None:
        if not holders:
            return None
        return min(
            holders,
            key=lambda h: (int(self.topology.distance_class(requester, h)), h),
        )

    def _store(self, l1_index: int, request: Request) -> None:
        self.l1_caches[l1_index].insert(request.object_id, request.size, request.version)
        self.directory.inform(self._now, request.object_id, l1_index, request.version)

    def _eviction_callback(self, node: int):
        def on_evict(key: int, entry, reason: str) -> None:
            self.directory.retract(self._now, key, node)

        return on_evict

    # ------------------------------------------------------------------
    # fault callbacks (fired by an attached FaultInjector)
    # ------------------------------------------------------------------
    def on_fault_crash(self, kind, node: int) -> None:
        """Crashes hurt CRISP two ways: dead proxies leave the directory
        pointing at data that no longer exists (the node died without
        retracting), and a dead directory makes *every* local miss pay a
        query timeout before going to the origin server."""
        from repro.faults.events import NodeKind

        if kind is NodeKind.L1 and node < len(self.l1_caches):
            # The node cannot say goodbye: directory entries go stale.
            for key in self.l1_caches[node].clear():
                self.directory.retract(self._now, key, node, visible=False)
