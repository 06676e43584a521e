"""Command line of the benchmark; see README.md in this directory.

    python3 perfbench/run.py --workload dec-unbounded --seed 1 --seconds 10 --trace 0

Prints one line of host facts, then, as the last line, the result object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` runs the separate traced run and
reports the per-layer metrics (its spans go to ``.perfbench_out/``).
``--record`` stores the operation digests of one pass at this seed as the
expected outputs in ``digests.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import bench


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(bench.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isdir(bench.SRC):
        print(f"no program sources at {bench.SRC}", file=sys.stderr)
        return 2
    if args.record:
        ops = bench.record_digests(args.workload, args.seed)
        print(f"recorded {len(ops)} digests for {args.workload} seed {args.seed}")
        return 0
    spans_path = os.path.join(bench.SPANS_DIR, f"spans-{args.workload}-{args.seed}.json")
    result = bench.run(
        args.workload, args.seed, args.seconds, bool(args.trace), spans_path=spans_path
    )
    print(
        json.dumps(
            {key: result[key] for key in ("host", "wall", "digest_checked")}
        )
    )
    print(
        json.dumps(
            {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
