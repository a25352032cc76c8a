"""Self-test of the benchmark's output checks and metric names.

For each workload, runs one short round on the default seed as is, then
again with one op's result corrupted after it returned. The plain run must
count no failed op and the corrupted run exactly one, so failed_op_ratio
counts it. On another seed, where no reference digests exist, the
independent check alone must still catch the corruption. Finally the
metric names the runner prints must be the ones BENCHMARK.json declares.

Run from the repository root:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import os
import sys

import run


def main() -> int:
    problems = []
    for name in ("eval_dense", "word_deep", "algebra_check", "surface_dw"):
        plain = run.run(name, run.DEFAULT_SEED, 0.1, False, min_ops=1)
        corrupted = run.run(name, run.DEFAULT_SEED, 0.1, False, corrupt_at=1, min_ops=1)
        other_seed = run.run(name, run.DEFAULT_SEED + 1, 0.1, False, corrupt_at=1, min_ops=1)
        print(f"selftest {name}: failed {plain['failed']} plain, {corrupted['failed']} corrupted, "
              f"{other_seed['failed']} corrupted on seed {run.DEFAULT_SEED + 1}")
        if plain["failed"] or not plain["correct"]:
            problems.append(f"{name}: plain run failed {plain['failed']} ops")
        if corrupted["failed"] != 1 or corrupted["correct"]:
            problems.append(f"{name}: corrupted run counted {corrupted['failed']} failed ops, not 1")
        if other_seed["failed"] < 1 or other_seed["correct"]:
            problems.append(f"{name}: corruption not caught without reference digests")
        if set(plain["metrics"]) != {m for m, _ in run.END_TO_END}:
            problems.append(f"{name}: end-to-end metrics {sorted(plain['metrics'])}")

    import tracing

    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = {(m["name"], m["unit"]) for m in spec["end_to_end"]}
    if declared != set(run.END_TO_END):
        problems.append(f"BENCHMARK.json end_to_end differs: {sorted(declared ^ set(run.END_TO_END))}")
    declared = {(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]}
    if declared != set(tracing.PER_LAYER):
        problems.append(f"BENCHMARK.json per_layer differs: {sorted(declared ^ set(tracing.PER_LAYER))}")
    if [w["name"] for w in spec["workloads"]] != list(run.PREDICTED_DOMINANT):
        problems.append("BENCHMARK.json workloads differ from the runner's")

    for problem in problems:
        print(f"SELFTEST FAILED: {problem}")
    print("selftest: ok" if not problems else f"selftest: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
