"""Deterministic fault injection for architecture simulations.

The paper's robustness claim (section 3.4) is that the hint architecture
*degrades gracefully*: a dead metadata node makes hints stale but "never
wrong" -- requests that would have been remote hits fall back to the
origin server, slower but always correct.  This package makes that claim
measurable for **any** architecture run:

* :mod:`repro.faults.events` -- the fault vocabulary.  A
  :class:`FaultPlan` is a time-ordered schedule of
  :class:`NodeCrash`/:class:`NodeRecover` events (data caches and
  metadata nodes), hint-propagation pathologies
  (:class:`HintBatchLoss`, :class:`StaleHintDrift`) and network
  degradations (:class:`OriginSlowdown`, :class:`LinkDegrade`).
* :mod:`repro.faults.profile` -- :class:`FaultProfile` generates plans
  from MTBF/MTTR parameters with a seeded RNG, so crash schedules are
  reproducible and sweepable.
* :mod:`repro.faults.injector` -- :class:`FaultInjector` replays a plan
  against simulation time and answers the architectures' questions
  ("is this node down?", "is this hint update lost?") plus the charged
  surcharges (timeouts, origin slowdown, link degradation).
* :mod:`repro.faults.cluster_driver` -- applies a plan to the live
  event-driven :class:`repro.hints.cluster.HintCluster` (used by
  ``examples/failure_drill.py``).

Injection is strictly opt-in: ``run_simulation(trace, arch)`` without a
plan charges exactly the healthy model and produces byte-identical
metrics.  Architectures whose request walk does not model faults (push
policies, ideal-push accounting, client and message-level hints) refuse
a non-empty plan when the injector binds, before their first request.
"""

from repro.faults.events import (
    FaultEvent,
    FaultPlan,
    HintBatchLoss,
    LinkDegrade,
    NodeCrash,
    NodeKind,
    NodeRecover,
    OriginSlowdown,
    StaleHintDrift,
)
from repro.faults.injector import FaultInjector, FaultStats
from repro.faults.profile import FaultProfile

__all__ = [
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "FaultProfile",
    "FaultStats",
    "HintBatchLoss",
    "LinkDegrade",
    "NodeCrash",
    "NodeKind",
    "NodeRecover",
    "OriginSlowdown",
    "StaleHintDrift",
]
