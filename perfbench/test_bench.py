"""Self-tests of the benchmark.

Run from the repository root: ``python3 -m pytest perfbench/test_bench.py``
(about seven minutes).  The repository's own suite does not collect them.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import bench  # noqa: E402

sys.path.insert(0, bench.SRC)

#: Small enough for a smoke run of every code path in seconds.
TINY = {
    "paper-all": 0.00002,
    "dec-unbounded": 0.0005,
    "dec-bounded-timeline": 0.0005,
    "dec-sharded": 0.0005,
}
#: Large enough that a pass is dominated by simulation, not fixed costs.
SMALL = 0.002


def spec():
    with open(os.path.join(bench.ROOT, "BENCHMARK.json"), encoding="utf-8") as stream:
        return json.load(stream)


def bound(name: str) -> float:
    return next(m["bound"] for m in spec()["end_to_end"] if m["name"] == name)


def values(result: dict) -> dict:
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def test_benchmark_json_matches_the_code():
    data = spec()
    assert [w["name"] for w in data["workloads"]] == list(bench.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in data["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in data["per_layer"]] == list(bench.PER_LAYER)
    setup = next(m for m in data["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in data["end_to_end"])


@pytest.mark.parametrize("workload", list(bench.WORKLOADS))
def test_smoke_every_workload(workload, tmp_path):
    digests = str(tmp_path / "digests.json")
    scale = TINY[workload]
    recorded = bench.record_digests(workload, 3, scale=scale, digests_path=digests)

    plain = bench.run(workload, 3, 0, False, scale=scale, digests_path=digests)
    assert plain["digest_checked"] and plain["correct"] and plain["failed"] == 0
    assert plain["ops"] == recorded
    assert set(values(plain)) == {name for name, _ in bench.END_TO_END}
    assert all(value > 0 for value in values(plain).values())

    spans = str(tmp_path / "spans.json")
    traced = bench.run(
        workload, 3, 0, True, scale=scale, digests_path=digests, spans_path=spans
    )
    assert traced["correct"] and traced["attempted"] == 2 * len(recorded)
    assert set(values(traced)) == {name for name, _ in bench.PER_LAYER}
    with open(spans, encoding="utf-8") as stream:
        assert {"name", "start", "end", "parent"} <= set(json.load(stream)[0])


def test_a_wrong_output_is_a_failed_operation(tmp_path):
    digests = str(tmp_path / "digests.json")
    scale = TINY["dec-unbounded"]
    recorded = bench.record_digests("dec-unbounded", 3, scale=scale, digests_path=digests)
    with open(digests, encoding="utf-8") as stream:
        data = json.load(stream)
    data[bench.digest_key("dec-unbounded", scale)]["3"]["icp"] = "0" * 64
    with open(digests, "w", encoding="utf-8") as stream:
        json.dump(data, stream)
    broken = bench.run("dec-unbounded", 3, 0, False, scale=scale, digests_path=digests)
    assert broken["ops"] == recorded
    assert broken["attempted"] == 4 and broken["failed"] == 1 and not broken["correct"]

    # Any other seed is checked by validation alone.
    other = bench.run("dec-unbounded", 4, 0, False, scale=scale, digests_path=digests)
    assert not other["digest_checked"] and other["correct"]


def test_sharded_mismatch_count_is_reported():
    layer = values(bench.run("dec-sharded", 1, 0, True, scale=TINY["dec-sharded"]))
    assert layer["sharding.partitions"] == bench.VIRTUAL_PARTITIONS
    assert 0 <= layer["sharding.mismatched_archs"] <= len(bench.ARCHS)
    assert layer["trace_cache.generations"] == 1


def slowed(original, speed: float):
    """``original`` running at ``speed`` times its speed (busy-waits after each call)."""

    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        result = original(*args, **kwargs)
        end = time.perf_counter() + (1.0 / speed - 1.0) * (time.perf_counter() - start)
        while time.perf_counter() < end:
            pass
        return result

    return wrapper


def test_a_slower_layer_moves_its_metric_and_run_s_past_the_bound(monkeypatch, tmp_path):
    """A 20% slower simulation layer must show; two unchanged passes must not.

    Passes of the real ``dec-unbounded`` workload alternate in one process:
    unchanged, unchanged again, slowed.  Each pass is read in reference
    seconds, scaled by the host-speed probes taken during that pass, as a
    run scales its passes.  A variant is judged by the median, over the
    rounds, of its pass over the same round's first unchanged pass.  On a
    busy 2-vCPU host raw passes of one variant spread by up to 30%, and
    fastest-pass comparisons read the injected 25% as anything from 15% to
    52%, against the 5 points between it and the bound.
    """
    from repro.sim import engine

    limit = bound("run_s")
    original = engine.run_simulation
    tracer = bench.Tracer()
    workload = bench.Bench("dec-unbounded", 1, None, tracer, str(tmp_path))
    workload.setup_once(0)
    clock = workload.clock

    def one_pass(function):
        monkeypatch.setattr(engine, "run_simulation", function)
        prepared = workload.prepare()
        mark, probes = len(tracer.spans), len(clock.samples)
        out, run_s = workload.timed_pass(prepared)
        sim_s = sum(tracer.self_time(f"sim.{arch}", mark) for arch in bench.ARCHS)
        scale = bench.REF_PROBE_S / statistics.median(clock.samples[probes:])
        return out.ops, run_s * scale, sim_s * scale

    rounds = []
    for _ in range(21):
        base = one_pass(original)
        again = one_pass(original)
        slow = one_pass(slowed(original, 0.8))
        assert slow[0] == base[0]  # exact outputs do not move with speed
        rounds.append((base, again, slow))

    def change(variant, column):
        return statistics.median(r[variant][column] / r[0][column] for r in rounds) - 1

    changes = {
        "unchanged run_s": change(1, 1),
        "slowed run_s": change(2, 1),
        "slowed sim.<arch>.s": change(2, 2),
    }
    assert abs(changes["unchanged run_s"]) < limit, changes
    assert changes["slowed run_s"] > limit, changes
    assert changes["slowed sim.<arch>.s"] > limit, changes
