"""Dense matrix product vs in-place butterfly timing.

The ladder costs O(N log N) cell operations against O(N^2) for the dense
product, so the speedup must grow with N; `criteria.speedup` asserts a
floor at N = 4096.
"""

from __future__ import annotations

import time

import numpy as np

from .butterfly import apply_butterfly, dft_matrix, make_plan


def _best_ns(fn, repeats: int) -> int:
    best = None
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        fn()
        dt = time.perf_counter_ns() - t0
        best = dt if best is None else min(best, dt)
    return best


def run_bench(sizes: list[int], repeats: int, seed: int) -> list[dict]:
    """Time dense matvec against the butterfly apply for each size: one row
    {N, dense_ns, butterfly_ns, speedup} per size, best of `repeats`."""
    rng = np.random.default_rng(seed)
    rows = []
    for size in sizes:
        psi = rng.normal(size=size) + 1j * rng.normal(size=size)
        psi /= np.linalg.norm(psi)
        dense = dft_matrix(size, +1)
        plan = make_plan(size.bit_length() - 1, +1)
        apply_butterfly(plan, psi)  # warm up
        dense @ psi
        dense_ns = _best_ns(lambda: dense @ psi, repeats)
        fly_ns = _best_ns(lambda: apply_butterfly(plan, psi), repeats)
        rows.append({"N": size, "dense_ns": dense_ns, "butterfly_ns": fly_ns,
                     "speedup": dense_ns / fly_ns})
    return rows

