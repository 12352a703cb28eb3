#!/usr/bin/env python3
"""One sha256 over the answers of 24,000 seeded ``verify`` calls.

The calls cover all four generator modes with n from 1 to 36 (3 to 36
for ``covered``), bound 2, 10 or 50, thresholds 2, 3 and 4, and random
colorings whose red share is 0.05, 0.3 or 0.5.  Every fourth instance
keeps its coefficients; the others are exact images of it with
fractional coefficients, with a and b times 10**40, or with a and b
over 10**40.  Each answer is hashed as ``repr((witness, covering,
color))``, or ``repr(None)`` when the coloring is good, in call order.
A change to the verifier that keeps its answers prints the same digest
before and after.

Run from the repo root (about 15 s on a 2-cpu x86_64 host, Python 3.11):
    python3 scripts/verify_digest.py
"""

import hashlib
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from hpcolor.generate import MODES, GenSpec, generate
from hpcolor.model import BLUE, RED, HalfPlane, Instance
from hpcolor.verification import verify

CALLS = 24_000
BIG = 10**40


def variant(inst: Instance, kind: int, rng: random.Random) -> Instance:
    """An exact image of inst: same arrangement, other coefficients."""
    if kind == 0:
        return inst
    if kind == 1:  # (x, y) -> (u*x + c, s*y + e), u, s > 0
        u, s = Fraction(rng.randint(1, 9), rng.randint(1, 9)), Fraction(rng.randint(1, 9), 7)
        c, e = Fraction(rng.randint(-9, 9), 5), Fraction(rng.randint(-9, 9), 3)
        return Instance([HalfPlane(s * h.a / u, s * h.b - s * h.a * c / u + e, h.side) for h in inst])
    scale = BIG if kind == 2 else Fraction(1, BIG)
    return Instance([HalfPlane(h.a * scale, h.b * scale, h.side) for h in inst])


def main() -> int:
    rng = random.Random(2)
    digest = hashlib.sha256()
    violations = 0
    t0 = time.perf_counter()
    for t in range(CALLS):
        mode = MODES[t % len(MODES)]
        n = rng.randint(3 if mode == "covered" else 1, 36)
        inst = generate(GenSpec(n=n, mode=mode, seed=t, bound=rng.choice([2, 10, 50])))
        inst = variant(inst, t // len(MODES) % 4, rng)
        share = rng.choice([0.05, 0.3, 0.5])
        colors = [RED if rng.random() < share else BLUE for _ in range(n)]
        found = verify(inst, colors, rng.choice([2, 3, 4]))
        if found is not None:
            violations += 1
            found = (found.witness, found.covering, found.color)
        digest.update(repr(found).encode())
    print(f"calls {CALLS}, violations {violations}, {time.perf_counter() - t0:.0f} s")
    print(digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
