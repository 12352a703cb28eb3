#!/usr/bin/env python3
"""One sha256 over the unchecked solves of a 20,000-draw seeded grid.

Draws come from ``Random(1)``: for t in range(20000), n = randint(3, 40),
mode = ("covered", "random", "degenerate")[t % 3], bound = choice([3, 5,
25, 50, 400]) and seed t.  Each draw feeds the digest with
``repr((colors, case_path, attempts))`` of ``solve_detailed(generate(spec),
check=False)``, or with ``repr(exc)`` when the solve raises.  The digest
moves when any coloring, case path, attempt count or error does, so a
refactor that claims to keep behaviour prints the same line before and
after.  About 6 s on a 2-cpu x86_64 host, Python 3.11.

Run from the repo root:
    python3 scripts/grid_digest.py
"""

import hashlib
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from hpcolor.engine import solve_detailed
from hpcolor.generate import GenSpec, generate

DRAWS = 20_000
MODES = ("covered", "random", "degenerate")
BOUNDS = [3, 5, 25, 50, 400]


def main() -> int:
    rng = random.Random(1)
    digest = hashlib.sha256()
    for t in range(DRAWS):
        n = rng.randint(3, 40)
        spec = GenSpec(n=n, mode=MODES[t % 3], seed=t, bound=rng.choice(BOUNDS))
        try:
            res = solve_detailed(generate(spec), check=False)
            record = repr((res.colors, res.case_path, res.attempts))
        except Exception as exc:
            record = repr(exc)
        digest.update(record.encode())
    print(digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
