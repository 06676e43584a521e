"""ICP-style sibling-query hierarchy (ablation baseline).

The Internet Cache Protocol (Wessels & Claffy, RFC 2186) lets a cache
multicast a query to its neighbors before forwarding a miss to its parent.
The paper's testbed deliberately ran *without* ICP ("we are interested in
the best costs for traversing a hierarchy"), and its related-work section
argues that multicast queries either limit sharing to nearby nodes or add
hops.  This architecture makes that argument measurable: it is a
:class:`~repro.hierarchy.data_hierarchy.DataHierarchy` whose L1 proxies
first query their L2-group siblings -- paying a sibling round-trip on every
local miss -- and fetch cache-to-cache on a sibling hit.

Expected behaviour (and what the ablation bench shows): ICP beats the plain
hierarchy when sibling hit rates are high, but it slows every miss by the
query timeout and it can never reach copies outside the sibling group,
unlike hints.
"""

from __future__ import annotations

from repro.cache.lru import LookupResult
from repro.cache.policy import DEFAULT_POLICY, PolicySpec
from repro.hierarchy.base import AccessResult, Architecture, build_l1_caches
from repro.hierarchy.topology import HierarchyTopology
from repro.netmodel.model import AccessPoint, CostModel
from repro.obs.journey import Journey
from repro.traces.records import Request


class IcpHierarchy(Architecture):
    """Data hierarchy with ICP-style sibling queries at the L1 level."""

    name = "icp"

    def __init__(
        self,
        topology: HierarchyTopology,
        cost_model: CostModel,
        l1_bytes: int | None = None,
        l2_bytes: int | None = None,
        l3_bytes: int | None = None,
        l1_policy: PolicySpec | None = None,
        l2_policy: PolicySpec | None = None,
        l3_policy: PolicySpec | None = None,
    ) -> None:
        super().__init__(cost_model)
        self.topology = topology
        self.l1_caches = build_l1_caches(topology.n_l1, l1_bytes, policy=l1_policy)
        l2_spec = l2_policy if l2_policy is not None else DEFAULT_POLICY
        l3_spec = l3_policy if l3_policy is not None else DEFAULT_POLICY
        self.l2_caches = [
            l2_spec.build(l2_bytes, salt=topology.n_l1 + node)
            for node in range(topology.n_l2)
        ]
        self.l3_cache = l3_spec.build(
            l3_bytes, salt=topology.n_l1 + topology.n_l2
        )
        self.sibling_hits = 0
        self.sibling_queries = 0

    def process(self, request: Request) -> AccessResult:
        """Local lookup, then the sibling query round, then the parents.

        Under a fault plan the multicast query only completes when every
        queried peer has answered, so *one* dead sibling stalls every
        local miss for the full timeout -- the protocol-level fragility
        the paper's related-work section points at.  Dead parents behave
        as in the plain data hierarchy: timeout, then fall back to the
        origin server.
        """
        if self.audit is not None:
            self.audit.checkpoint(self)
        if self.shard is not None:
            self.check_shard_owns(request.object_id)
        faults = self.faults
        l1_index = self.topology.l1_of_client(request.client_id)
        l2_index = self.topology.l2_of_l1(l1_index)
        oid, version, size = request.object_id, request.version, request.size
        cost = self.cost_model
        l1 = self.l1_caches[l1_index]

        if faults is not None and faults.is_down("l1", l1_index):
            return self._timeout_to_origin(
                Journey(),
                cost.hierarchical_ms(AccessPoint.SERVER, size),
                target=f"l1:{l1_index}",
            )

        if l1.lookup(oid, version) is LookupResult.HIT:
            charged, added = self._charge(cost.hierarchical_ms(AccessPoint.L1, size))
            journey = Journey()
            journey.local_lookup(charged, target=f"l1:{l1_index}", fault_ms=added)
            return journey.result(AccessPoint.L1, hit=True)

        # ICP query: every local miss waits for the sibling round trip.
        self.sibling_queries += 1
        query_ms, query_added = self._charge(cost.probe_ms(AccessPoint.L2))
        journey = Journey()
        journey.peer_probe(query_ms, target="siblings", fault_ms=query_added)
        siblings = self.topology.siblings_of(l1_index)
        if faults is not None:
            live = [sibling for sibling in siblings if not faults.is_down("l1", sibling)]
            if len(live) < len(siblings):
                # The query round only resolves at the timeout deadline.
                faults.note_dead_probe()
                journey.timeout(faults.timeout_ms, target="siblings")
                siblings = live
        for sibling in siblings:
            if self.l1_caches[sibling].lookup(oid, version) is LookupResult.HIT:
                self.sibling_hits += 1
                l1.insert(oid, size, version)
                charged, added = self._charge(cost.via_l1_ms(AccessPoint.L2, size))
                journey.transfer(charged, target=f"l1:{sibling}", fault_ms=added)
                return journey.result(AccessPoint.L2, hit=True, remote_hit=True)

        # No sibling: proceed up the data hierarchy, query time included.
        if faults is not None and faults.is_down("l2", l2_index):
            l1.insert(oid, size, version)
            return self._timeout_to_origin(
                journey,
                cost.hierarchical_ms(AccessPoint.SERVER, size),
                target=f"l2:{l2_index}",
            )
        l2 = self.l2_caches[l2_index]
        if l2.lookup(oid, version) is LookupResult.HIT:
            l1.insert(oid, size, version)
            charged, added = self._charge(cost.hierarchical_ms(AccessPoint.L2, size))
            journey.level_traversal(charged, target=f"l2:{l2_index}", fault_ms=added)
            return journey.result(AccessPoint.L2, hit=True, remote_hit=True)

        if faults is not None and faults.is_down("l3", 0):
            l2.insert(oid, size, version)
            l1.insert(oid, size, version)
            return self._timeout_to_origin(
                journey, cost.hierarchical_ms(AccessPoint.SERVER, size), target="l3"
            )
        if self.l3_cache.lookup(oid, version) is LookupResult.HIT:
            l2.insert(oid, size, version)
            l1.insert(oid, size, version)
            charged, added = self._charge(cost.hierarchical_ms(AccessPoint.L3, size))
            journey.level_traversal(charged, target="l3", fault_ms=added)
            return journey.result(AccessPoint.L3, hit=True, remote_hit=True)

        self.l3_cache.insert(oid, size, version)
        l2.insert(oid, size, version)
        l1.insert(oid, size, version)
        charged, added = self._charge(
            cost.hierarchical_ms(AccessPoint.SERVER, size), origin=True
        )
        journey.origin_fetch(charged, fault_ms=added)
        return journey.result(AccessPoint.SERVER, hit=False)

    # ------------------------------------------------------------------
    # fault callbacks (fired by an attached FaultInjector)
    # ------------------------------------------------------------------
    def on_fault_crash(self, kind, node: int) -> None:
        from repro.faults.events import NodeKind

        if kind is NodeKind.L1 and node < len(self.l1_caches):
            self.l1_caches[node].clear()
        elif kind is NodeKind.L2 and node < len(self.l2_caches):
            self.l2_caches[node].clear()
        elif kind is NodeKind.L3:
            self.l3_cache.clear()
