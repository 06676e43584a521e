"""Parallel experiment runner and content-addressed trace cache.

The batching/caching backbone for reproducing the paper's artifacts at
scale:

* :mod:`repro.runner.fingerprint` -- content address of a synthetic trace
  (a trace is a pure function of ``(profile, seed)``);
* :mod:`repro.runner.trace_cache` -- in-process memo plus optional on-disk
  ``.npz`` store, so each distinct trace is generated exactly once per
  session/machine, with counters proving it;
* :mod:`repro.runner.specs` -- picklable architecture factory specs, so
  worker processes construct fresh state locally;
* :mod:`repro.runner.parallel` -- process-pool fan-out of registry runs and
  architecture comparisons, deterministic for any job count;
* :mod:`repro.runner.sharding` -- hash-partitioned shard engines over the
  same pool, equal to the unsharded run for any shard count.

CLI surface: ``python -m repro.experiments --all --jobs 4 --trace-cache
~/.cache/repro-traces`` (add ``--shards N`` to the comparison verbs).
"""

from repro.runner.fingerprint import GENERATOR_VERSION, trace_fingerprint
from repro.runner.parallel import (
    RunSummary,
    StageTimings,
    run_comparison_parallel,
    run_experiments,
)
from repro.runner.sharding import (
    ShardedComparison,
    ShardPlan,
    run_comparison_sharded,
)
from repro.runner.specs import ArchitectureSpec
from repro.runner.trace_cache import (
    TraceCache,
    TraceCacheStats,
    cached_trace,
    get_trace_cache,
    set_trace_cache,
)

__all__ = [
    "ArchitectureSpec",
    "GENERATOR_VERSION",
    "RunSummary",
    "ShardPlan",
    "ShardedComparison",
    "StageTimings",
    "TraceCache",
    "TraceCacheStats",
    "cached_trace",
    "get_trace_cache",
    "run_comparison_parallel",
    "run_comparison_sharded",
    "run_experiments",
    "set_trace_cache",
    "trace_fingerprint",
]
