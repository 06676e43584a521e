"""Sharded runner: sharded == unsharded is the whole contract.

The headline pins compare ``run_comparison_sharded`` against the
unsharded :func:`run_comparison_parallel` over the same trace: full
:class:`SimMetrics` equality for hierarchy, ICP and the directory, clean
and under a fault plan, and for hints everything but the float latency
sums, which the merge adds in a different order.  Merged timeline rows
equal the unsharded rows byte for byte.  Between sharded runs the pins
are stricter still: ``shards=1``, ``shards=4`` and ``jobs=4`` are
bit-identical.  Every configuration that couples objects is refused
before any worker starts.
"""

from __future__ import annotations

import dataclasses
import filecmp
import math
import os

import pytest

from repro.cache.policy import PolicySpec
from repro.common.errors import ShardRoutingError
from repro.common.ids import partition_of_object, partitions_of_objects
from repro.experiments.cli import main
from repro.faults import FaultPlan, NodeCrash, OriginSlowdown
from repro.faults.events import HintBatchLoss, LinkDegrade, NodeRecover, StaleHintDrift
from repro.hierarchy.base import ShardInfo
from repro.hierarchy.client_hints import ClientHintHierarchy
from repro.hierarchy.data_hierarchy import DataHierarchy
from repro.hierarchy.directory_arch import CentralizedDirectoryArchitecture
from repro.hierarchy.hint_hierarchy import HintHierarchy
from repro.hierarchy.icp import IcpHierarchy
from repro.hierarchy.message_hints import MessageLevelHintHierarchy
from repro.netmodel.testbed import TestbedCostModel
from repro.push.hierarchical import HierarchicalPushOnMiss
from repro.push.update_push import UpdatePush
from repro.runner import sharding
from repro.runner.parallel import run_comparison_parallel
from repro.runner.sharding import ShardPlan, run_comparison_sharded, split_trace
from repro.runner.specs import ArchitectureSpec
from tests.conftest import make_tiny_config

ARCHITECTURES = {
    "hierarchy": DataHierarchy,
    "icp": IcpHierarchy,
    "hints": HintHierarchy,
    "directory": CentralizedDirectoryArchitecture,
}

#: Architectures whose sharded metrics equal the unsharded ones exactly.
EXACT = ("hierarchy", "icp", "directory")

#: Crash, recover and slow the origin: every partition replays the plan.
FAULT_PLAN = FaultPlan(
    events=(
        NodeCrash(time=0.0, kind="l2", node=0),
        NodeCrash(time=3600.0, kind="l1", node=1),
        OriginSlowdown(time=3600.0, factor=2.0),
        NodeRecover(time=30 * 3600.0, kind="l1", node=1),
    ),
    seed=7,
)


def standard_specs(config):
    """The full four-architecture matrix, unbounded caches."""
    return [
        ArchitectureSpec(cls, (config.topology, TestbedCostModel()))
        for cls in ARCHITECTURES.values()
    ]


def unsharded(config, specs, **kwargs):
    return run_comparison_parallel(
        config.profile("dec"), config.seed, specs, **kwargs
    )


def assert_equal_up_to_fold_order(sharded, reference):
    """Equal in every field but the float latency sums, which match closely.

    The merge adds per-partition sums in partition order, the unsharded
    run adds per request in trace order; float addition is not
    associative, so ``total_ms`` and the per-step ``total_ms`` can differ
    in their last bits (order-exact sums are ROADMAP 1(b)).
    """
    assert math.isclose(sharded.total_ms, reference.total_ms, rel_tol=1e-12)
    assert sharded.steps.keys() == reference.steps.keys()
    for kind, step in sharded.steps.items():
        other = reference.steps[kind]
        assert math.isclose(step.total_ms, other.total_ms, rel_tol=1e-12), kind
        assert dataclasses.replace(step, total_ms=0.0) == dataclasses.replace(
            other, total_ms=0.0
        ), kind
    assert dataclasses.replace(
        sharded, total_ms=0.0, steps={}
    ) == dataclasses.replace(reference, total_ms=0.0, steps={})


class TestShardPlan:
    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError, match="shards"):
            ShardPlan(shards=0)

    def test_rejects_more_shards_than_partitions(self):
        with pytest.raises(ValueError, match="virtual_partitions"):
            ShardPlan(shards=5, virtual_partitions=4)

    @pytest.mark.parametrize("shards", [1, 2, 3, 4, 7, 16])
    def test_ownership_partitions_the_partition_set(self, shards):
        plan = ShardPlan(shards=shards, virtual_partitions=16)
        owned = [plan.partitions_of_shard(shard) for shard in range(shards)]
        flat = sorted(p for group in owned for p in group)
        assert flat == list(range(16))  # every partition exactly once
        for shard, group in enumerate(owned):
            for partition in group:
                assert plan.owner_of(partition) == shard

    def test_single_shard_owns_everything(self):
        plan = ShardPlan(shards=1, virtual_partitions=16)
        assert plan.partitions_of_shard(0) == tuple(range(16))

    def test_owner_of_rejects_out_of_range(self):
        plan = ShardPlan(shards=2, virtual_partitions=8)
        with pytest.raises(ValueError, match="partition"):
            plan.owner_of(8)
        with pytest.raises(ValueError, match="shard"):
            plan.partitions_of_shard(2)

    def test_shard_info_round_trip(self):
        plan = ShardPlan(shards=2, virtual_partitions=8)
        info = plan.shard_info(3)
        assert info == ShardInfo(partition=3, virtual_partitions=8)


class TestPartitionHashing:
    def test_scalar_hash_is_stable(self):
        # Pinned: splitmix64 output must never drift (it addresses every
        # on-disk partitioning and every cross-run comparison).
        assert partition_of_object(0, 16) == partition_of_object(0, 16)
        seen = {partition_of_object(obj, 16) for obj in range(1000)}
        assert seen == set(range(16))  # all partitions populated

    def test_vectorized_matches_scalar(self):
        import numpy as np

        objects = np.arange(5000, dtype=np.int64)
        vector = partitions_of_objects(objects, 16)
        assert [partition_of_object(int(o), 16) for o in objects[:200]] == list(
            vector[:200]
        )


class TestSplitTrace:
    def test_partitions_cover_the_trace(self, dec_trace):
        plan = ShardPlan(shards=4, virtual_partitions=16)
        subs = split_trace(dec_trace, plan)
        assert len(subs) == 16
        assert sum(len(s.requests) for s in subs) == len(dec_trace.requests)
        for partition, sub in enumerate(subs):
            assert sub.profile_name == dec_trace.profile_name
            assert sub.duration == dec_trace.duration
            assert sub.warmup == dec_trace.warmup
            owners = partitions_of_objects(sub.columns().object, 16)
            assert (owners == partition).all()

    def test_sub_traces_stay_time_ordered(self, dec_trace):
        plan = ShardPlan(shards=2, virtual_partitions=4)
        for sub in split_trace(dec_trace, plan):
            times = sub.columns().time
            assert (times[1:] >= times[:-1]).all()


@pytest.fixture(scope="module")
def tiny_comparisons(tmp_path_factory):
    """shards=1 and shards=4 runs of the full matrix (shared, read-only)."""
    config = make_tiny_config()
    specs = standard_specs(config)
    runs = {}
    for shards in (1, 4):
        timeline_dir = str(tmp_path_factory.mktemp(f"timeline-{shards}"))
        runs[shards] = run_comparison_sharded(
            config.profile("dec"),
            config.seed,
            specs,
            shards=shards,
            timeline_dir=timeline_dir,
        )
    return runs


class TestMatchesUnsharded:
    def test_clean_run(self, tiny_comparisons):
        config = make_tiny_config()
        reference = unsharded(config, standard_specs(config))
        sharded = tiny_comparisons[4].results
        assert list(sharded) == list(reference) == list(ARCHITECTURES)
        for name in EXACT:
            assert sharded[name] == reference[name], name
        assert_equal_up_to_fold_order(sharded["hints"], reference["hints"])

    def test_fault_plan(self):
        config = make_tiny_config()
        specs = standard_specs(config)
        reference = unsharded(config, specs, fault_plan=FAULT_PLAN)
        sharded = run_comparison_sharded(
            config.profile("dec"),
            config.seed,
            specs,
            shards=2,
            fault_plan=FAULT_PLAN,
        ).results
        for name in EXACT:
            assert sharded[name] == reference[name], name
        assert_equal_up_to_fold_order(sharded["hints"], reference["hints"])
        degraded = sharded["hierarchy"].degraded
        assert degraded.fault_added_ms > 0 or degraded.timeout_fallbacks > 0

    def test_timeline_rows_under_fault_plan(self, tmp_path):
        # The fault-plan gauges (node up, latency and origin multipliers)
        # mirror one plan into every partition: merged, they must read as
        # the unsharded run's values, not as partition-count multiples.
        config = make_tiny_config()
        specs = standard_specs(config)[:1]
        unsharded(
            config, specs, fault_plan=FAULT_PLAN, timeline_dir=str(tmp_path / "one")
        )
        run_comparison_sharded(
            config.profile("dec"),
            config.seed,
            specs,
            shards=2,
            fault_plan=FAULT_PLAN,
            timeline_dir=str(tmp_path / "sharded"),
        )
        assert filecmp.cmp(
            tmp_path / "one" / "hierarchy.jsonl",
            tmp_path / "sharded" / "hierarchy.jsonl",
            shallow=False,
        )

    def test_accepted_variants(self):
        # Every non-standard configuration the refusal checks let through:
        # all of them plan-free, and under a fault plan only the walks that
        # model faults (the rest are refused in TestRefusals).
        config = make_tiny_config()
        topology, cost = config.topology, TestbedCostModel()
        variants = [
            ArchitectureSpec(ClientHintHierarchy, (topology, cost)),
            ArchitectureSpec(
                HintHierarchy,
                (topology, cost),
                dict(push_policy=HierarchicalPushOnMiss(topology, "push-all")),
            ),
            ArchitectureSpec(
                HintHierarchy,
                (topology, cost),
                dict(push_policy=UpdatePush(age_pushed_entries=True)),
            ),
            ArchitectureSpec(
                HintHierarchy, (topology, cost), dict(charge_remote_as_l1=True)
            ),
            ArchitectureSpec(
                DataHierarchy, (topology, cost), dict(l1_policy=PolicySpec("random"))
            ),
        ]
        faultable = [variants[-1], ArchitectureSpec(HintHierarchy, (topology, cost))]
        plan = FaultPlan(
            events=(
                *FAULT_PLAN.events,
                HintBatchLoss(time=0.0, prob=0.0),
                StaleHintDrift(time=3600.0, ttl_skew_s=600.0),
                LinkDegrade(time=7200.0, latency_mult=1.5),
            ),
            seed=7,
        )
        for specs, fault_plan in ((variants, None), (faultable, plan)):
            reference = unsharded(config, specs, fault_plan=fault_plan)
            sharded = run_comparison_sharded(
                config.profile("dec"),
                config.seed,
                specs,
                shards=2,
                fault_plan=fault_plan,
            ).results
            assert list(sharded) == list(reference)
            for name, metrics in sharded.items():
                assert_equal_up_to_fold_order(metrics, reference[name])


class TestShardCountInvariance:
    def test_metrics_identical_across_shard_counts(self, tiny_comparisons):
        one, four = tiny_comparisons[1], tiny_comparisons[4]
        assert list(one.results) == list(four.results) == list(ARCHITECTURES)
        for name in ARCHITECTURES:
            assert one.results[name] == four.results[name], name

    def test_timeline_rows_identical_across_shard_counts(self, tiny_comparisons):
        one, four = tiny_comparisons[1], tiny_comparisons[4]
        assert one.timeline_rows == four.timeline_rows

    def test_partition_layout_identical_across_shard_counts(
        self, tiny_comparisons
    ):
        one, four = tiny_comparisons[1], tiny_comparisons[4]
        assert one.partition_requests == four.partition_requests
        assert one.partition_objects == four.partition_objects
        # The fullest shard shrinks as shards grow -- that is the point.
        assert four.max_shard_objects < one.max_shard_objects
        assert one.max_shard_objects == sum(one.partition_objects)

    def test_requests_conserved(self, tiny_comparisons, dec_trace):
        for comparison in tiny_comparisons.values():
            assert sum(comparison.partition_requests) == len(dec_trace.requests)
            comparison.results["hierarchy"].validate()

    def test_jobs_and_timeline_files_identical(self, tmp_path, tiny_comparisons):
        config = make_tiny_config()
        timeline_dir = str(tmp_path / "timeline")
        fanned = run_comparison_sharded(
            config.profile("dec"),
            config.seed,
            standard_specs(config),
            shards=4,
            jobs=4,
            trace_cache_dir=str(tmp_path / "store"),
            timeline_dir=timeline_dir,
        )
        assert fanned.results == tiny_comparisons[4].results
        inline_dir = str(tmp_path / "timeline-inline")
        inline = run_comparison_sharded(
            config.profile("dec"),
            config.seed,
            standard_specs(config),
            shards=1,
            timeline_dir=inline_dir,
        )
        assert inline.results == fanned.results
        for name in ARCHITECTURES:
            assert filecmp.cmp(
                os.path.join(inline_dir, f"{name}.jsonl"),
                os.path.join(timeline_dir, f"{name}.jsonl"),
                shallow=False,
            ), name

    def test_fault_plan_invariant(self):
        config = make_tiny_config()
        specs = standard_specs(config)[:2]
        runs = {
            shards: run_comparison_sharded(
                config.profile("dec"),
                config.seed,
                specs,
                shards=shards,
                fault_plan=FAULT_PLAN,
            )
            for shards in (1, 2)
        }
        assert runs[1].results == runs[2].results

    def test_fast_engine_matches_reference(self, tiny_comparisons):
        config = make_tiny_config()
        fast = run_comparison_sharded(
            config.profile("dec"),
            config.seed,
            standard_specs(config),
            shards=4,
            engine="fast",
        )
        assert fast.results == tiny_comparisons[4].results

    def test_duplicate_architecture_name_rejected(self):
        config = make_tiny_config()
        specs = standard_specs(config)[:1] * 2
        with pytest.raises(ValueError, match="duplicate"):
            run_comparison_sharded(
                config.profile("dec"), config.seed, specs, shards=2
            )

    def test_rejects_bad_jobs(self):
        config = make_tiny_config()
        with pytest.raises(ValueError, match="jobs"):
            run_comparison_sharded(
                config.profile("dec"),
                config.seed,
                standard_specs(config),
                shards=1,
                jobs=0,
            )


class TestRefusals:
    """Each configuration that couples objects is refused before any work."""

    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        def started(*args, **kwargs):
            raise AssertionError("a shard task or worker pool was started")

        monkeypatch.setattr(sharding, "ProcessPoolExecutor", started)
        monkeypatch.setattr(sharding, "_shard_task", started)

    @staticmethod
    def refuse(spec, match, fault_plan=None):
        config = make_tiny_config()
        with pytest.raises(ValueError, match=match):
            run_comparison_sharded(
                config.profile("dec"),
                config.seed,
                [ArchitectureSpec(DataHierarchy, (config.topology, TestbedCostModel())), spec],
                shards=2,
                jobs=2,
                fault_plan=fault_plan,
            )

    @staticmethod
    def spec(cls, **kwargs):
        config = make_tiny_config()
        return ArchitectureSpec(cls, (config.topology, TestbedCostModel()), kwargs)

    def test_bounded_data_caches_refused(self):
        for policy in ("lru", "random"):
            for level in ("l1", "l2", "l3"):
                spec = self.spec(
                    DataHierarchy,
                    **{f"{level}_bytes": 256 * 1024, f"{level}_policy": PolicySpec(policy)},
                )
                self.refuse(spec, "bounded data cache")
        self.refuse(self.spec(IcpHierarchy, l2_bytes=1 << 20), "bounded data cache")
        self.refuse(self.spec(HintHierarchy, l1_bytes=1 << 20), "bounded data cache")

    def test_bounded_hint_directory_refused(self):
        self.refuse(
            self.spec(HintHierarchy, hint_capacity_bytes=64 * 1024),
            "bounded hint directory",
        )

    def test_client_hint_false_negatives_refused(self):
        self.refuse(
            self.spec(ClientHintHierarchy, client_false_negative_rate=0.3),
            "client-hint false negatives",
        )

    def test_hint_batch_loss_refused(self):
        plan = FaultPlan(events=(HintBatchLoss(time=0.0, prob=0.5),), seed=7)
        self.refuse(self.spec(HintHierarchy), "HintBatchLoss", fault_plan=plan)

    def test_fault_plan_on_unmodelled_walk_refused(self):
        # The fault injector's own check, run before any worker: these
        # walks would otherwise ignore the plan (or part of their model).
        config = make_tiny_config()
        for spec in (
            self.spec(ClientHintHierarchy),
            self.spec(
                HintHierarchy,
                push_policy=HierarchicalPushOnMiss(config.topology, "push-all"),
            ),
            self.spec(HintHierarchy, push_policy=UpdatePush(age_pushed_entries=True)),
            self.spec(HintHierarchy, charge_remote_as_l1=True),
        ):
            self.refuse(spec, "cannot inject faults into", fault_plan=FAULT_PLAN)

    def test_random_target_push_refused(self):
        config = make_tiny_config()
        for mode in ("push-1", "push-half"):
            push = HierarchicalPushOnMiss(config.topology, mode)
            self.refuse(self.spec(HintHierarchy, push_policy=push), f"{mode} targets")

    def test_message_level_hints_refused(self):
        self.refuse(self.spec(MessageLevelHintHierarchy), "flush jitter")

    def test_capped_update_push_refused(self):
        push = UpdatePush(max_bandwidth_bytes_per_s=1e6)
        self.refuse(self.spec(HintHierarchy, push_policy=push), "bandwidth budget")

    def test_cli_refuses_policy_capacities(self, capsys):
        code = main(
            ["decompose", "--scale", "0.0002", "--shards", "2", "--policy", "lru"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "cannot shard" in err and "bounded data cache" in err


class TestShardRouting:
    def test_misrouted_request_raises(self, dec_trace, tiny_config):
        plan = ShardPlan(shards=4, virtual_partitions=16)
        architecture = DataHierarchy(tiny_config.topology, TestbedCostModel())
        architecture.bind_shard(plan.shard_info(0))
        foreign = next(
            r
            for r in dec_trace.requests
            if partition_of_object(r.object_id, 16) != 0
        )
        with pytest.raises(ShardRoutingError, match="does not own"):
            architecture.process(foreign)

    def test_owned_request_processes(self, dec_trace, tiny_config):
        architecture = DataHierarchy(tiny_config.topology, TestbedCostModel())
        info = ShardInfo(partition=0, virtual_partitions=16)
        architecture.bind_shard(info)
        owned = next(
            r for r in dec_trace.requests if info.owns(r.object_id)
        )
        result = architecture.process(owned)
        assert result.time_ms >= 0

    def test_bind_shard_rejects_warmed_architecture(self, dec_trace, tiny_config):
        from repro.sim.engine import run_simulation

        architecture = DataHierarchy(tiny_config.topology, TestbedCostModel())
        run_simulation(dec_trace, architecture)
        with pytest.raises(ValueError, match="processed"):
            architecture.bind_shard(ShardInfo(partition=0, virtual_partitions=16))

    def test_shard_info_validates(self):
        with pytest.raises(ValueError):
            ShardInfo(partition=4, virtual_partitions=4)
        with pytest.raises(ValueError):
            ShardInfo(partition=-1, virtual_partitions=4)
