"""Dense matrix product vs in-place butterfly timing.

The ladder costs O(N log N) cell operations against O(N^2) for the dense
product, so the speedup must grow with N; the CLI asserts a floor at
N = 4096.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass

import numpy as np

from .butterfly import apply_butterfly, dft_matrix, make_plan
from .exceptions import DomainError


@dataclass(frozen=True)
class BenchRow:
    size: int
    dense_ns: int
    butterfly_ns: int

    @property
    def speedup(self) -> float:
        return self.dense_ns / self.butterfly_ns


def _best_ns(fn, repeats: int) -> int:
    best = None
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        fn()
        dt = time.perf_counter_ns() - t0
        best = dt if best is None else min(best, dt)
    return best


def run_bench(sizes: list[int], repeats: int = 7, seed: int = 0) -> list[BenchRow]:
    """Time dense matvec against the butterfly apply for each size."""
    rng = np.random.default_rng(seed)
    rows = []
    for size in sizes:
        n = size.bit_length() - 1
        if size != 1 << n or n < 1:
            raise DomainError(f"size {size} is not a power of 2")
        psi = rng.normal(size=size) + 1j * rng.normal(size=size)
        psi /= np.linalg.norm(psi)
        dense = dft_matrix(size, +1)
        plan = make_plan(n, +1)
        apply_butterfly(plan, psi)  # warm up
        dense @ psi
        dense_ns = _best_ns(lambda: dense @ psi, repeats)
        fly_ns = _best_ns(lambda: apply_butterfly(plan, psi), repeats)
        rows.append(BenchRow(size, dense_ns, fly_ns))
    return rows


def write_csv(rows: list[dict], path: str) -> None:
    """Write report rows with the keys N, dense_ns, butterfly_ns, speedup."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["N", "dense_ns", "butterfly_ns", "speedup"])
        for row in rows:
            writer.writerow([row["N"], row["dense_ns"], row["butterfly_ns"],
                             f"{row['speedup']:.3f}"])
