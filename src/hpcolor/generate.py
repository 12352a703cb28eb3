"""Seeded instance generation for tests, the `gen` command and the benchmark."""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .model import LOWER, UPPER, HalfPlane, Instance, dualize
from .engine import coverage
from .rationals import normalize

MODES = ("random", "covered", "uncovered", "degenerate")


@dataclass(frozen=True)
class GenSpec:
    n: int
    mode: str
    seed: int
    bound: int = 50


def generate(spec: GenSpec) -> Instance:
    """Deterministic instance from (n, mode, seed, bound)."""
    if spec.mode not in MODES:
        raise ValueError(f"unknown mode {spec.mode!r}")
    if spec.n < 0:
        raise ValueError("n must be nonnegative")
    if spec.bound < 0:
        raise ValueError("bound must be nonnegative")
    rng = random.Random((spec.seed, spec.mode, spec.n, spec.bound).__repr__())
    if spec.mode == "random":
        return _random_instance(spec.n, rng, spec.bound)
    if spec.mode == "covered":
        return _covered_instance(spec.n, rng, spec.bound)
    if spec.mode == "uncovered":
        return _uncovered_instance(spec.n, rng, spec.bound)
    return _degenerate_instance(spec.n, rng, spec.bound)


def _rand_halfplane(rng: random.Random, bound: int, side=None) -> HalfPlane:
    if side is None:
        side = UPPER if rng.random() < 0.5 else LOWER
    return HalfPlane(rng.randint(-bound, bound), rng.randint(-bound, bound), side)


def _random_instance(n: int, rng: random.Random, bound: int) -> Instance:
    return Instance([_rand_halfplane(rng, bound) for _ in range(n)])


def _covered_instance(n: int, rng: random.Random, bound: int) -> Instance:
    """Rejection-sample until the dual hull regions intersect.

    Mixed-side families with distinct slopes usually cover; rejections
    deterministically push the upper family up and the lower one down,
    which forces the hull regions together.  Two half-planes with
    distinct slopes can never cover the plane, hence the n >= 3 floor.
    """
    if n < 3:
        raise ValueError("covered instances need n >= 3")
    spread = 0
    while True:
        n_upper = rng.randint(1, n - 1)
        sides = [UPPER] * n_upper + [LOWER] * (n - n_upper)
        rng.shuffle(sides)
        slopes = rng.sample(range(-4 * n - bound, 4 * n + bound + 1), n)
        hps = [
            HalfPlane(
                a,
                rng.randint(-bound, bound) + (spread if side == UPPER else -spread),
                side,
            )
            for a, side in zip(slopes, sides)
        ]
        inst = Instance(hps)
        if coverage(dualize(inst)).kind == "covered":
            return inst
        spread += bound + 1


def _uncovered_instance(n: int, rng: random.Random, bound: int) -> Instance:
    """Guaranteed-separated: lower boundaries lifted above every upper one."""
    hps = []
    n_upper = rng.randint(0, n)
    lift = 4 * bound + 4 * bound * bound + 1
    slopes = rng.sample(range(-4 * n - bound, 4 * n + bound + 1), n)
    for i, a in enumerate(slopes):
        if i < n_upper:
            hps.append(HalfPlane(a, rng.randint(-bound, bound), UPPER))
        else:
            hps.append(HalfPlane(a, lift + rng.randint(0, bound), LOWER))
    rng.shuffle(hps)
    return Instance(hps)


def _degenerate_instance(n: int, rng: random.Random, bound: int) -> Instance:
    """Random base with planted duplicates, parallels, and concurrences.

    A pair is planted from n >= 2 and a concurrent triple from n >= 3;
    smaller instances come out as plain random ones.
    """
    hps = [_rand_halfplane(rng, bound) for _ in range(n)]
    if n >= 2:
        i, j = rng.sample(range(n), 2)
        kind = rng.choice(["dup", "parallel"])
        if kind == "dup":
            hps[j] = hps[i]
        else:
            hps[j] = HalfPlane(hps[i].a, hps[i].b + rng.randint(1, max(1, bound)), hps[j].side)
    if n >= 3:
        i, j, k = rng.sample(range(n), 3)
        ai, bi = Fraction(hps[i].a), Fraction(hps[i].b)
        aj, bj = Fraction(hps[j].a), Fraction(hps[j].b)
        if ai != aj:
            x = (bj - bi) / (ai - aj)
            y = ai * x + bi
            ak = Fraction(hps[k].a)
            if ak == ai or ak == aj:
                ak = ak + 1
            hps[k] = HalfPlane(normalize(ak), normalize(y - ak * x), hps[k].side)
    return Instance(hps)
