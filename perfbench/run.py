"""Seeded benchmark of tqft2d: four workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload eval_dense --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` next to this directory. Each run is
a closed loop with one client in one process: the next op starts when
the previous one has returned. Ops run in whole rounds (one op per slot
of the workload) until ``--seconds`` of op time have passed and at least
MIN_OPS ops ran. Every output is checked outside the timed interval.
Every op, set-up and the import is timed together with a fixed reference
kernel, run right before and after it and every 50 ms during it, and is
reported normalised by it (hostspeed.py), so that the host's changing
speed does not move the metrics.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs each round
untraced and traced, prints the per-layer metrics and writes the spans to
``.perfbench/``. The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.
``--write-reference`` records the output digests of the default seed.
See perfbench/README.md for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import statistics
import sys
import time
from collections import Counter

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".perfbench")
REFERENCE = os.path.join(HERE, "reference.json")

DEFAULT_SEED = 1
MIN_OPS = 100  # so that at least ten latencies lie beyond p90
WARMUP_SECONDS = 1.0  # untimed ops first, so allocator and caches settle
MAX_OP_SECONDS = 100  # stop early rather than overrun the 180 s limit
SETUP_REPEATS = 5

END_TO_END = [
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
]

# The layer each workload is expected to spend most self time in.
PREDICTED_DOMINANT = {
    "eval_dense": ("evaluator",),
    "word_deep": ("dsl", "words"),
    "algebra_check": ("frobenius",),
    "surface_dw": ("groups", "frobenius"),
}


def import_package(probe: hostspeed.Probe) -> tuple[float, float]:
    """Import tqft2d from this checkout's src/; return the import time
    (normalised, raw) in seconds."""
    if not os.path.isfile(os.path.join(SRC, "tqft2d", "__init__.py")):
        sys.exit(f"perfbench: no tqft2d source under {SRC}")
    sys.path.insert(0, SRC)
    tqft2d, error, raw_ns, kernel = probe.call(lambda: importlib.import_module("tqft2d"))
    if error is not None:
        raise error
    if not os.path.abspath(tqft2d.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: tqft2d imported from {tqft2d.__file__}, not {SRC}")
    return hostspeed.normalised_ms(raw_ns, kernel) / 1e3, raw_ns / 1e9


def digest(output) -> str:
    text = json.dumps(output, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:24]


class Checker:
    """Output checks, all outside the timed interval.

    Each op's output digest must equal the digest of the first op with the
    same input and, for the default seed, the committed reference digest.
    The first output of each input also gets the workload's independent
    check, and its computed facts are kept for the per-layer metrics.
    """

    def __init__(self, wl, ctx, reference: dict | None) -> None:
        self.wl, self.ctx, self.reference = wl, ctx, reference
        self.seen: dict[str, tuple[str, str | None, dict]] = {}
        self.failures: list[str] = []

    def __call__(self, op, output, error: BaseException | None) -> bool:
        if error is not None:
            return self._fail(op, f"raised {type(error).__name__}: {error}")
        got = digest(output)
        if self.reference is not None and self.reference.get(op.key) != got:
            return self._fail(op, "output differs from the reference digest")
        if op.key not in self.seen:
            problem = None
            facts: dict = {}
            try:
                self.wl.check(op, output, self.ctx)
                facts = self.wl.facts(op, output, self.ctx)
            except Exception as exc:  # any failure of the check fails the op
                problem = f"{type(exc).__name__}: {exc}"
            self.seen[op.key] = (got, problem, facts)
        first, problem, _ = self.seen[op.key]
        if problem is not None:
            return self._fail(op, problem)
        if got != first:
            return self._fail(op, "output differs from an earlier run of the same input")
        return True

    def _fail(self, op, why: str) -> bool:
        self.failures.append(f"{op.key} (slot {op.slot}): {why}")
        return False


def measure(wl, rounds, ctx, checker, probe, seconds, min_ops, tracer=None, corrupt_at=None,
            between_rounds=None, first_round=0):
    """Closed loop over whole rounds; returns per-op records and cache stats.

    Each record is (op, latency_ns, kernel_ns, ok), where kernel_ns is the
    reference kernel's mean time over the op (see hostspeed.py). Only the
    op itself is timed; the cache policy, the digest and the checks run
    between timed intervals, and between_rounds(raw op seconds so far)
    runs after each round. Traced ops are not sampled during the op, so
    that their spans do not include the kernel.
    """
    from workloads import VALIDATION_CACHE

    records = []
    hits = misses = 0
    busy_ns = 0
    r = first_round
    while True:
        for op in rounds[r % len(rounds)]:
            if wl.clears_cache:
                VALIDATION_CACHE.cache_clear()
            before = VALIDATION_CACHE.cache_info()
            if tracer is not None:
                tracer.op_id += 1
                tracer.paused = False
            output, error, latency, kernel = probe.call(lambda: wl.run(op, ctx),
                                                        sample=tracer is None)
            if tracer is not None:
                tracer.paused = True
            after = VALIDATION_CACHE.cache_info()
            hits += after.hits - before.hits
            misses += after.misses - before.misses
            if corrupt_at == len(records):
                output = {"corrupted": output}
            records.append((op, latency, kernel, checker(op, output, error)))
            busy_ns += latency
        r += 1
        done = busy_ns / 1e9
        if (done >= seconds and len(records) >= min_ops) or done >= MAX_OP_SECONDS:
            return records, hits, misses
        if between_rounds is not None:
            between_rounds(done)


def set_up(wl, rounds, work_dir, probe):
    """One set-up: build and validate algebras and groups, write input files.

    Returns the context the ops use and the time taken in seconds,
    normalised and raw. A repeated set-up leaves equal state: equal
    algebras (so the warm validation cache still hits) and files with the
    same contents.
    """
    from workloads import VALIDATION_CACHE

    os.makedirs(work_dir, exist_ok=True)
    VALIDATION_CACHE.cache_clear()
    ctx, error, raw_ns, kernel = probe.call(lambda: wl.setup(rounds, work_dir))
    if error is not None:
        raise error
    return ctx, (hostspeed.normalised_ms(raw_ns, kernel) / 1e3, raw_ns / 1e9)


def latencies_ms(records) -> list[float]:
    """Each op's latency, normalised by the kernel's mean time over the op."""
    return [hostspeed.normalised_ms(lat, kernel) for _, lat, kernel, _ in records]


def raw_latencies_ms(records) -> list[float]:
    return [lat / 1e6 for _, lat, _, _ in records]


def summary(ms: list[float]) -> dict[str, float]:
    """ops/s of one client (ops over op time), median and p90 latency."""
    p90 = statistics.quantiles(ms, n=10)[8]
    return {
        "ops_per_s": len(ms) / (sum(ms) / 1e3),
        "latency_p50_ms": statistics.median(ms),
        "latency_p90_ms": p90,
        "beyond_p90": sum(1 for x in ms if x > p90),
    }


def load_reference(name: str, seed: int) -> dict | None:
    if seed != DEFAULT_SEED:
        return None
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh).get(name, {})


def write_reference(wl, rounds, ctx) -> None:
    """Record the output digests of every input of the default seed."""
    from workloads import VALIDATION_CACHE

    checker = Checker(wl, ctx, None)
    digests = {}
    for ops in rounds:
        for op in ops:
            if wl.clears_cache:
                VALIDATION_CACHE.cache_clear()
            output = wl.run(op, ctx)
            if not checker(op, output, None):
                sys.exit(f"perfbench: {checker.failures[-1]}")
            digests[op.key] = digest(output)
    try:
        with open(REFERENCE, encoding="utf-8") as fh:
            reference = json.load(fh)
    except FileNotFoundError:
        reference = {}
    reference[wl.name] = dict(sorted(digests.items()))
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(dict(sorted(reference.items())), fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(digests)} digests for {wl.name}")


def end_to_end(wl, rounds, ctx, checker, probe, seconds, min_ops, corrupt_at, first_setup,
               import_s):
    """Untraced run: (end-to-end metrics, records).

    Times are normalised by the reference kernel (hostspeed.py); the raw
    figures are printed too. setup_s is the import time plus the median of
    SETUP_REPEATS set-ups, each a (normalised, raw) pair like import_s.
    """
    work_dir = os.path.join(WORK_DIR, wl.name)
    setup_times = [first_setup]

    def repeat_setup(done: float) -> None:
        # the further set-ups are spread over the run, so that their median
        # does not hang on one moment of the host's speed
        if len(setup_times) < SETUP_REPEATS and done >= len(setup_times) * seconds / SETUP_REPEATS:
            setup_times.append(set_up(wl, rounds, work_dir, probe)[1])

    records, _, _ = measure(wl, rounds, ctx, checker, probe, seconds, min_ops,
                            corrupt_at=corrupt_at, between_rounds=repeat_setup)
    while len(setup_times) < SETUP_REPEATS:
        setup_times.append(set_up(wl, rounds, work_dir, probe)[1])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    raw = summary(raw_latencies_ms(records))
    norm = summary(latencies_ms(records))
    kernel_ms = statistics.median(kernel for _, _, kernel, _ in records) / 1e6
    raw_setup_s = import_s[1] + statistics.median(raw for _, raw in setup_times)
    print(f"{wl.name}: {len(records)} ops over {len({op.key for op, *_ in records})} inputs, "
          f"{norm['beyond_p90']} latencies beyond p90")
    print(f"reference kernel: median {kernel_ms:.4g} ms here, {hostspeed.REFERENCE_MS} ms "
          "on the reference host; times below are normalised to it")
    print("raw: " + ", ".join(f"{k} {raw[k]:.6g}" for k in list(raw)[:3])
          + f", setup_s {raw_setup_s:.6g}")
    metrics = {k: norm[k] for k in ("ops_per_s", "latency_p50_ms", "latency_p90_ms")}
    metrics["setup_s"] = import_s[0] + statistics.median(n for n, _ in setup_times)
    metrics["peak_rss_mb"] = peak_rss_mb
    return metrics, records


def per_layer(wl, rounds, ctx, checker, probe, seconds, seed):
    """Each round untraced and traced, in alternating order, until the op
    time reaches `seconds`: (per-layer metrics, records).

    Running both on the same inputs at nearly the same moment keeps the
    host's speed and the process's warm-up out of trace.overhead_ratio.
    """
    import tracing

    tracer = tracing.Tracer()
    plain, records = [], []
    hits = misses = 0
    r = 0
    while sum(lat for _, lat, _, _ in plain + records) / 1e9 < seconds:
        for traced in ((False, True) if r % 2 == 0 else (True, False)):
            if not traced:
                plain += measure(wl, rounds, ctx, checker, probe, 0, 0, first_round=r)[0]
                continue
            tracer.install()
            try:
                part, h, m = measure(wl, rounds, ctx, checker, probe, 0, 0, tracer=tracer,
                                     first_round=r)
            finally:
                tracer.uninstall()
            records += part
            hits, misses = hits + h, misses + m
        r += 1
    facts, max_facts = Counter(), Counter()
    for op, *_ in records:
        for key, value in checker.seen[op.key][2].items():
            facts[key] += value
            max_facts[key] = max(max_facts[key], value)
    overhead = (summary(latencies_ms(plain))["ops_per_s"]
                / summary(latencies_ms(records))["ops_per_s"])
    # span times are normalised by the traced ops' own kernel times, like op latencies
    host_factor = sum(latencies_ms(records)) / sum(raw_latencies_ms(records))
    metrics = tracing.layer_metrics(tracer, len(records), facts, max_facts, hits, misses,
                                    overhead, host_factor)

    layer_s = tracer.layer_self_s()
    predicted = PREDICTED_DOMINANT[wl.name]
    others = max(s for layer, s in layer_s.items() if layer not in predicted)
    verdict = "as predicted" if sum(layer_s[l] for l in predicted) > others else "MISMATCH"
    shares = ", ".join(f"{l} {s / sum(layer_s.values()):.0%}" for l, s in layer_s.items())
    print(f"{wl.name}: traced {len(records)} ops; self time {shares}")
    print(f"dominant layer: {max(layer_s, key=layer_s.get)}; "
          f"predicted {'+'.join(predicted)}: {verdict}")
    os.makedirs(WORK_DIR, exist_ok=True)
    spans_path = os.path.join(WORK_DIR, f"spans-{wl.name}-seed{seed}.json")
    tracer.write(spans_path, {"workload": wl.name, "seed": seed, "layer_self_s": layer_s})
    print(f"spans: {os.path.relpath(spans_path, ROOT)}")
    return metrics, plain + records


def run(name: str, seed: int, seconds: float, trace: bool,
        corrupt_at: int | None = None, min_ops: int = MIN_OPS) -> dict:
    """One benchmark run; returns the result object printed as the last line.

    corrupt_at and min_ops exist for the self-test: the first replaces one
    op's output after it returned, the second shortens the run.
    """
    probe = hostspeed.Probe()
    import_s = import_package(probe)
    import tracing
    import workloads

    wl = workloads.WORKLOADS[name]
    rounds = wl.rounds(seed)  # the benchmark's own input generation: not set-up
    ctx, first_setup = set_up(wl, rounds, os.path.join(WORK_DIR, name), probe)
    checker = Checker(wl, ctx, load_reference(name, seed))
    warm_until = time.perf_counter() + WARMUP_SECONDS
    for op in rounds[0]:
        if time.perf_counter() >= warm_until:
            break
        if wl.clears_cache:
            workloads.VALIDATION_CACHE.cache_clear()
        wl.run(op, ctx)

    if trace:
        metrics, records = per_layer(wl, rounds, ctx, checker, probe, seconds, seed)
        units = {metric: unit for metric, unit, _ in tracing.PER_LAYER}
    else:
        metrics, records = end_to_end(wl, rounds, ctx, checker, probe, seconds, min_ops,
                                      corrupt_at, first_setup, import_s)
        units = dict(END_TO_END)
    metrics = {metric: metrics[metric] for metric in units}

    failed = sum(1 for *_, ok in records if not ok)
    for line in checker.failures[:10]:
        print(f"FAILED {line}")
    print(f"failed_op_ratio: {failed}/{len(records)} = {failed / len(records):.4f} ratio")
    for metric, value in metrics.items():
        print(f"{metric}: {value:.6g} {units[metric]}")
    return {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("eval_dense", "word_deep", "algebra_check", "surface_dw"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="record output digests of the default seed instead of measuring")
    args = parser.parse_args(argv)
    if args.write_reference:
        probe = hostspeed.Probe()
        import_package(probe)
        import workloads

        wl = workloads.WORKLOADS[args.workload]
        rounds = wl.rounds(DEFAULT_SEED)
        ctx, _ = set_up(wl, rounds, os.path.join(WORK_DIR, wl.name), probe)
        write_reference(wl, rounds, ctx)
        return 0
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
