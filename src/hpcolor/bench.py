"""Scaling benchmark: covered instances, timed coloring, CSV records.

Timing covers the coloring computation only; verification is excluded
(the uncovered path's constraint search carries no n log n guarantee, so
the benchmark sticks to covered instances).  A covered solve is one
hash pass over the slopes (the screen), dualize's one slope sort, and
linear scans.  Each hull build drops the points inside two chords
before its scan, so dualize is the largest stage at every size (40-51%
of the solve from 16,384 up), ahead of coverage.  The case machine
copies no family; it stays below coverage except at 8,192, whose
crossing case scans both families with exact line tests.
`scripts/stage_counts.py` prints the stage medians per size.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .engine import solve_detailed
from .generate import GenSpec, generate


@dataclass
class BenchRecord:
    n: int
    seconds: float
    case_path: str

    def csv_row(self) -> str:
        return f"{self.n},{self.seconds:.6f},{self.case_path}"


def run_bench(sizes, seed: int = 0, repeats: int = 1) -> list[BenchRecord]:
    if repeats < 1:
        raise ValueError(f"repeats must be a positive integer, got {repeats}")
    records = []
    for n in sizes:
        bound = max(64, 4 * n)
        inst = generate(GenSpec(n=n, mode="covered", seed=seed, bound=bound))
        for _ in range(repeats):
            t0 = time.perf_counter()
            result = solve_detailed(inst, check=False)
            dt = time.perf_counter() - t0
            records.append(BenchRecord(n, dt, "/".join(result.case_path)))
    return records

