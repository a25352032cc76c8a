"""Host-speed reference kernel: timings in milliseconds of a steady host.

On a shared VM the CPU runs the same Python code at speeds up to about
1.9x apart, and the host stays in one state for anything from a few
milliseconds to many minutes. A run that falls in a slow phase then reads
slow however long it is, so raw times of the same code spread across runs
by more than any useful regression bound.

The slowdown hits interpreter-bound code alike: on the baseline VM the
ratio of op time to kernel time held within a few per cent while raw
times moved by 30%. So the runner times a fixed kernel of the
benchmark's own around every op (and every set-up) and divides by it. The kernel does a little of what the
program does: Fraction arithmetic over dicts with tuple keys (evaluator),
splitting and looking up text (dsl), and integer tuple work with a
union-find (words, groups). It never calls tqft2d, so a change to the
program changes the op time and not the kernel time.

The host's speed can change within one op, so a Probe also runs the
kernel every SAMPLE_S seconds during an op, from a SIGALRM handler, and
takes the time-weighted mean of all kernel times over the op. The
handler's own time is taken out of the op's time.

A normalised time is raw time x REFERENCE_MS / kernel time: the time the
op would take on a host that runs the kernel in REFERENCE_MS, which is
about the kernel's time on the 2-vCPU VM of the baseline in its fast
state. The raw times are printed next to the normalised ones.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

REFERENCE_MS = 2.0
SAMPLE_S = 0.05  # the kernel then takes about 4% of a long op's time

_MATRIX = {(i, j): Fraction(i + 1, j + 2) for i in range(8) for j in range(8)}
_TEXT = " ; ".join(" | ".join(("mu", "delta", "swap", "id")[(i + j) % 4] for j in range(4))
                   for i in range(48))
_KEYWORDS = {"mu": 0, "delta": 1, "swap": 2, "id": 3}


def _work() -> int:
    vec = {j: Fraction(j, 3) for j in range(8)}
    for _ in range(8):
        out: dict[int, Fraction] = {}
        for (i, j), x in _MATRIX.items():
            out[i] = out.get(i, 0) + x * vec[j]
        vec = {k: out.get(k, 0) % 7 + Fraction(1, k + 2) for k in range(8)}
    layers = [[_KEYWORDS[g.strip()] for g in layer.split("|")] for layer in _TEXT.split(";")]
    parent = list(range(64))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for n, layer in enumerate(layers):
        for k, g in enumerate(layer):
            a, b = find((n * 5 + k * 3 + g) % 64), find((n * 7 + g) % 64)
            if a != b:
                parent[a] = b
    tuples = {(a * b) % 17: (a, b) for a in range(17) for b in range(17)}
    return len({find(x) for x in range(64)}) + len(tuples) + int(sum(vec.values()))


def kernel_ns() -> int:
    """Time of one run of the reference kernel, in nanoseconds."""
    t0 = time.perf_counter_ns()
    _work()
    return time.perf_counter_ns() - t0


def normalised_ms(raw_ns: float, kernel: float) -> float:
    """raw_ns as milliseconds on the reference host, given a bracketing kernel time."""
    return raw_ns * REFERENCE_MS / kernel


class Probe:
    """Times calls together with the reference kernel around and during them.

    The kernel after one call is the kernel before the next. A process
    holds one Probe, because it owns the SIGALRM handler.
    """

    def __init__(self) -> None:
        self._before = kernel_ns()
        self._ticks: list[tuple[int, int, int]] = []  # (start, handler time, kernel time)
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter_ns()
        kernel = kernel_ns()
        self._ticks.append((start, time.perf_counter_ns() - start, kernel))

    def call(self, fn, sample: bool = True):
        """Call fn(); return (result, exception or None, raw ns, kernel ns).

        Exceptions that fn raises are returned, not raised. The raw time
        excludes the sampling handler; the kernel time is the
        time-weighted mean over the call. sample=False keeps the handler
        off, for calls whose inner timings must not include it.
        """
        self._ticks.clear()
        result = error = None
        if sample:
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        start = time.perf_counter_ns()
        try:
            result = fn()
        except Exception as exc:  # the caller counts it as a failed call
            error = exc
        finally:
            end = time.perf_counter_ns()
            if sample:
                signal.setitimer(signal.ITIMER_REAL, 0)
        after = kernel_ns()
        handler_ns = sum(took for at, took, _ in self._ticks if at < end)
        # trapezoid rule over kernel times spaced SAMPLE_S apart
        kernels = [self._before, *(k for _, _, k in self._ticks), after]
        mean = (sum(kernels) - (kernels[0] + kernels[-1]) / 2) / (len(kernels) - 1)
        self._before = after
        return result, error, end - start - handler_ns, mean
