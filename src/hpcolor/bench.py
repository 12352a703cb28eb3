"""Scaling benchmark: covered instances, timed coloring, CSV records.

Timing covers the coloring computation only; verification is excluded
(the uncovered path's constraint search carries no n log n guarantee, so
the benchmark sticks to covered instances).  A covered solve is one
hash pass over the slopes (the screen), dualize's one slope sort, and
linear scans.  Up to about 8,192 half-planes the two hull scans in
coverage take the largest share; from 16,384 up dualize and coverage are
about even (each about a third of the solve at 131,072), ahead of the
case machine and the screen.  `scripts/stage_counts.py` prints the stage
medians per size.
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

