"""The benchmark's workloads: which instances it colors and how.

Every instance derives from the benchmark seed alone, so the same seed
gives byte-identical instance files.  Generation uses the package's own
seeded generator (`hpcolor.generate`) except for the convex-position
polar family, which the benchmark builds itself.  Why each workload
exists is written down in NOTES.md.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

COVERED_N = 4096
COVERED_POOL = 40
MIXED_MODES = ("random", "covered", "uncovered", "degenerate")
MIXED_PER_FAMILY = 16
UNCOVERED_N = 1200
UNCOVERED_POOL = 3


@dataclass(frozen=True)
class Item:
    """One instance to generate: a generator mode (or "polar"), n, seed."""

    family: str
    n: int
    seed: int
    bound: int = 50


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable  # random.Random -> list of Item
    color_args: tuple  # extra `hpcolor color` flags
    check_lines: int  # boundary lines the output check walks
    expect_fired: tuple  # wrapped names that must fire in a traced run

    def items(self, seed: int) -> list:
        return self.make(random.Random(f"{self.name}:{seed}"))


def _spread(lo: int, hi: int, count: int) -> list:
    """`count` sizes spaced evenly over lo..hi, both ends included."""
    return [lo + (hi - lo) * k // (count - 1) for k in range(count)]


def _covered_engine(rng: random.Random) -> list:
    return [Item("covered", COVERED_N, rng.randrange(2**32), 4 * COVERED_N) for _ in range(COVERED_POOL)]


def _certified_mixed(rng: random.Random) -> list:
    # every family gets the same spread of sizes, so a seed changes the
    # instances but not the mix of sizes, which sets most of the cost
    items = [
        Item(mode, n, rng.randrange(2**32))
        for mode in MIXED_MODES
        for n in _spread(32, 128, MIXED_PER_FAMILY)
    ]
    items += [Item("polar", n, rng.randrange(2**32)) for n in _spread(24, 64, MIXED_PER_FAMILY)]
    rng.shuffle(items)
    return items


def _uncovered_large(rng: random.Random) -> list:
    return [Item("uncovered", UNCOVERED_N, rng.randrange(2**32)) for _ in range(UNCOVERED_POOL)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "covered-engine",
            _covered_engine,
            ("--no-verify",),
            4,
            ("hpcolor.engine.dualize", "hpcolor.engine.coverage", "hpcolor.engine.color_covered"),
        ),
        Workload(
            "certified-mixed",
            _certified_mixed,
            (),
            24,
            (
                "hpcolor.engine.verify",
                "hpcolor.uncovered.enumerate_point_hyperedges",
                "hpcolor.uncovered.solve_nae",
            ),
        ),
        Workload(
            "uncovered-large",
            _uncovered_large,
            ("--no-verify",),
            4,
            ("hpcolor.uncovered.enumerate_point_hyperedges", "hpcolor.uncovered.solve_nae"),
        ),
    )
}


def build(item: Item):
    """The instance for `item`, as an `hpcolor.model.Instance`."""
    from hpcolor.generate import GenSpec, generate
    from hpcolor.model import UPPER, HalfPlane, Instance

    if item.family != "polar":
        return generate(GenSpec(n=item.n, mode=item.family, seed=item.seed, bound=item.bound))
    # polar points in convex position: upper half-planes y <= a*x - a^2 - 1
    # with distinct integer a, the uncovered path's worst case
    rng = random.Random(item.seed)
    slopes = rng.sample(range(-2 * item.n, 2 * item.n + 1), item.n)
    return Instance([HalfPlane(a, -a * a - 1, UPPER) for a in slopes])
