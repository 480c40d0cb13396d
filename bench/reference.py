"""A fixed reference task that sets the unit of ``wall_ref``.

The benchmark's host is a few cores of a shared machine whose speed drifts
by up to 2x, in phases from under a second to minutes, and the drift shows
on one core and not on the other; a sample's raw time follows it more than
the program.  ``run.py`` therefore stops each measured worker every
``SLICE_S`` seconds, times this task once in its own process on the same
core, and lets the worker go on; it divides the worker's processor time by
the mean time of the task, so the ratio moves only when the program does.
The task takes some 20 ms and does the same kind of work as the package,
in pure Python and sharing no code with it: dense products of polynomials
with growing big-integer coefficients, and sums of short coefficient tuples
keyed by partitions, as in Pieri strips.  It never changes.  Garbage
collection is off while it runs, so its time does not depend on what else
the runner holds.

    python3 bench/reference.py    # prints a few timings of the task
"""

from __future__ import annotations

import gc
import time

POLY_STEPS = 160
PARTITION_SIZE = 19
# what a correct run of the task returns; a changed result means the task did
# other work than it does here
EXPECTED = (30232, 490)


def _mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _products() -> int:
    """(1 + 3t + t^2)^k for k up to POLY_STEPS, one factor at a time."""
    p, digest = [1], 0
    for _ in range(POLY_STEPS):
        p = _mul(p, [1, 3, 1])
        digest ^= p[len(p) // 2] & 0xFFFF
    return digest


def _add(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    n = max(len(a), len(b))
    return tuple((a[k] if k < len(a) else 0) + (b[k] if k < len(b) else 0) for k in range(n))


def _partition_sums() -> int:
    """Grow every partition of 1..PARTITION_SIZE by one box, summing the
    coefficient tuples that land on the same partition."""
    layer: dict[tuple[int, ...], tuple[int, ...]] = {(): (1,)}
    for _ in range(PARTITION_SIZE):
        grown: dict[tuple[int, ...], tuple[int, ...]] = {}
        for lam, coeffs in layer.items():
            for i in range(len(lam) + 1):
                if i == len(lam):
                    mu = lam + (1,)
                elif i == 0 or lam[i - 1] > lam[i]:
                    mu = lam[:i] + (lam[i] + 1,) + lam[i + 1:]
                else:
                    continue
                grown[mu] = _add(grown.get(mu, ()), coeffs)
        layer = grown
    return len(layer)


def run() -> tuple[int, int]:
    return _products(), _partition_sums()


def timed() -> float:
    """Seconds one run of the task takes; raises if its result is wrong."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        result = run()
        elapsed = time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
    if result != EXPECTED:
        raise RuntimeError(f"reference task returned {result}, expected {EXPECTED}")
    return elapsed


if __name__ == "__main__":
    for _ in range(3):
        print(f"{timed():.4f} s")
