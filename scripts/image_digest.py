#!/usr/bin/env python3
"""One sha256 over certified solves of seeded draws and their exact images.

Draws come from ``Random(3)``: for t in range(6000), mode = MODES[t % 4]
(all four generator modes), n = randint(3, 40), bound = choice([3, 5, 25,
50]) and seed t.  Draw t is then replaced by its image of kind t // 4 % 8:
  0. the draw itself;
  1. a fractional affine image, (x, y) -> (u*x + c, s*y + e), u, s > 0;
  2. a and b times 10**40;
  3. a and b over 10**40;
  4. every half-plane on one side, so only one family of tips is left;
  5. every slope plus 1/k, k = randint(2, 9);
  6. `perturb(inst, k)`, k = randint(0, 3);
  7. each value plus 1/(2**p - 1), p running through the primes from
     211: the denominators are pairwise coprime, so no common one is
     cleared and the tips stay Fractions.
Kinds 1-3 keep the arrangement, the others move it.  Each image feeds
the digest with ``repr((colors, case_path, attempts))`` of
``solve_detailed(image, check=True)``, or with ``repr(exc)`` when the
solve raises.  So the digest covers fractional input, the units the
solver works in and certified uncovered solves: a change that claims to
keep every answer prints the same line before and after.  About 60 s on
a 2-cpu x86_64 host, Python 3.11.

Run from the repo root:
    python3 scripts/image_digest.py
"""

import hashlib
import random
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from hpcolor.engine import solve_detailed
from hpcolor.generate import MODES, GenSpec, generate
from hpcolor.model import LOWER, UPPER, HalfPlane, Instance, perturb

DRAWS = 6_000
KINDS = 8
BIG = 10**40


def _primes(lo: int):
    p = lo
    while True:
        if all(p % q for q in range(2, int(p**0.5) + 1)):
            yield p
        p += 1


def image(inst: Instance, kind: int, rng: random.Random) -> Instance:
    """The image of `inst` of the given kind (see the module docstring)."""
    rows = list(zip(inst.a, inst.b, inst.sides))
    if kind == 1:
        u, s = Fraction(rng.randint(1, 9), rng.randint(1, 9)), Fraction(rng.randint(1, 9), 7)
        c, e = Fraction(rng.randint(-9, 9), 5), Fraction(rng.randint(-9, 9), 3)
        rows = [(s * a / u, s * b - s * a * c / u + e, side) for a, b, side in rows]
    elif kind in (2, 3):
        f = BIG if kind == 2 else Fraction(1, BIG)
        rows = [(a * f, b * f, side) for a, b, side in rows]
    elif kind == 4:
        side = rng.choice([UPPER, LOWER])
        rows = [(a, b, side) for a, b, _side in rows]
    elif kind == 5:
        k = rng.randint(2, 9)
        rows = [(a + Fraction(1, k), b, side) for a, b, side in rows]
    elif kind == 6:
        return perturb(inst, rng.randint(0, 3))
    elif kind == 7:
        primes = _primes(211)
        rows = [
            (a + Fraction(1, 2 ** next(primes) - 1), b + Fraction(1, 2 ** next(primes) - 1), side)
            for a, b, side in rows
        ]
    return Instance([HalfPlane(*row) for row in rows])


def main() -> int:
    rng = random.Random(3)
    digest = hashlib.sha256()
    paths: Counter = Counter()
    t0 = time.perf_counter()
    for t in range(DRAWS):
        mode = MODES[t % len(MODES)]
        spec = GenSpec(n=rng.randint(3, 40), mode=mode, seed=t, bound=rng.choice([3, 5, 25, 50]))
        inst = image(generate(spec), t // len(MODES) % KINDS, rng)
        try:
            res = solve_detailed(inst, check=True)
            record = repr((res.colors, res.case_path, res.attempts))
            paths[res.case_path[0]] += 1
        except Exception as exc:
            record = repr(exc)
            paths["error"] += 1
        digest.update(record.encode())
    print(f"solves {DRAWS}, {dict(sorted(paths.items()))}, {time.perf_counter() - t0:.0f} s")
    print(digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
