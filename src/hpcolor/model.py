"""Half-plane instances, general position, and the ray duality.

A half-plane is `upper` (y <= a*x + b) or `lower` (y >= a*x + b); vertical
boundaries have no representation.  Under the duality used throughout,
the boundary y = a*x + b maps to the tip (-a, b); upper half-planes carry
downward vertical rays, lower ones upward rays, and the primal point
(c, d) maps to the line y = c*x + d.  With this convention a point lies
in a half-plane exactly when its dual line meets the half-plane's ray,
and "above" in the primal is "below" in the dual.  A tip carries the
index of its half-plane as a third entry, (-a, b, i), through every
mirrored frame, so colorings of tips are keyed by half-plane index.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter
from typing import Iterator

from .rationals import (
    Scalar,
    as_fraction,
    format_scalar,
    normalize,
    num_den,
    parse_scalar,
)

UPPER = "upper"
LOWER = "lower"

BLUE = "blue"
RED = "red"


class ModelError(Exception):
    pass


class GeneralPositionViolation(ModelError):
    """An operation that requires general position saw a degeneracy."""


class InstanceFormatError(ModelError):
    """Malformed instance or coloring JSON."""


_set_field = object.__setattr__  # how a frozen dataclass sets its own fields


@dataclass(frozen=True, slots=True, init=False)
class HalfPlane:
    a: Scalar
    b: Scalar
    side: str

    def __init__(self, a: Scalar, b: Scalar, side: str):
        # hand-written, so no __post_init__ call per half-plane: building
        # half-planes is most of `Instance.from_json` after `json.loads`
        if side not in (UPPER, LOWER):
            raise InstanceFormatError(f"bad side {side!r}")
        # a plain int is already canonical; anything else (a Fraction, a
        # bool to reject) goes through normalize
        _set_field(self, "a", a if type(a) is int else normalize(a))
        _set_field(self, "b", b if type(b) is int else normalize(b))
        _set_field(self, "side", side)

    def contains(self, pt) -> bool:
        """Closed containment of (x, y)."""
        lhs = pt[1]
        rhs = as_fraction(self.a) * pt[0] + self.b
        return lhs <= rhs if self.side == UPPER else lhs >= rhs

    def strictly_outside(self, pt) -> bool:
        lhs = pt[1]
        rhs = as_fraction(self.a) * pt[0] + self.b
        return lhs > rhs if self.side == UPPER else lhs < rhs

    def int_constraint(self) -> tuple[int, int, int, int]:
        """(P, Q, R, s): containment is s*(P*x + Q*y + R) >= 0, all integer.

        Built by clearing denominators of y - a*x - b; s encodes the side.
        """
        an, ad = num_den(self.a)
        bn, bd = num_den(self.b)
        p = -an * bd
        q = ad * bd
        r = -bn * ad
        s = -1 if self.side == UPPER else 1
        return p, q, r, s


@dataclass
class Instance:
    halfplanes: list

    def __len__(self) -> int:
        return len(self.halfplanes)

    def __iter__(self) -> Iterator[HalfPlane]:
        return iter(self.halfplanes)

    def __getitem__(self, i: int) -> HalfPlane:
        return self.halfplanes[i]

    def to_json_dict(self) -> dict:
        return {
            "halfplanes": [
                {"a": format_scalar(h.a), "b": format_scalar(h.b), "side": h.side}
                for h in self.halfplanes
            ]
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"

    @classmethod
    def from_json_dict(cls, data) -> "Instance":
        if not isinstance(data, dict) or "halfplanes" not in data:
            raise InstanceFormatError("missing 'halfplanes' key")
        items = data["halfplanes"]
        if not isinstance(items, list):
            raise InstanceFormatError("'halfplanes' must be a list")
        hps = []
        for entry in items:
            try:
                hps.append(
                    HalfPlane(
                        parse_scalar(entry["a"]),
                        parse_scalar(entry["b"]),
                        entry["side"],
                    )
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise InstanceFormatError(f"bad half-plane entry {entry!r}: {exc}")
        return cls(hps)

    @classmethod
    def from_json(cls, text: str) -> "Instance":
        return cls.from_json_dict(_load_json(text))


def coloring_to_json(colors: list) -> str:
    return json.dumps({"colors": list(colors)}, indent=2) + "\n"


def _load_json(text: str):
    try:
        return json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an int past the digit limit
        raise InstanceFormatError(f"invalid JSON: {exc}")
    except RecursionError:
        raise InstanceFormatError("invalid JSON: nested too deeply")


def coloring_from_json(text: str) -> list:
    data = _load_json(text)
    if not isinstance(data, dict) or "colors" not in data:
        raise InstanceFormatError("missing 'colors' key")
    colors = data["colors"]
    if not isinstance(colors, list) or any(c not in (BLUE, RED) for c in colors):
        raise InstanceFormatError("colors must be a list of 'blue'/'red'")
    return colors


@dataclass
class GeneralPositionReport:
    duplicates: list = field(default_factory=list)  # (i, j) identical half-planes
    parallels: list = field(default_factory=list)  # (i, j) equal boundary slopes
    concurrents: list = field(default_factory=list)  # (i, j, k) boundaries through one point

    @property
    def ok(self) -> bool:
        return not (self.duplicates or self.parallels or self.concurrents)

    def describe(self) -> str:
        if self.ok:
            return "general position"
        bits = []
        if self.duplicates:
            bits.append(f"duplicates: {self.duplicates}")
        if self.parallels:
            bits.append(f"parallel boundaries: {self.parallels}")
        if self.concurrents:
            bits.append(f"concurrent boundaries: {self.concurrents}")
        return "; ".join(bits)


def validate(inst: Instance) -> GeneralPositionReport:
    """Report every duplicate, parallel pair, and concurrent boundary triple."""
    report = GeneralPositionReport()
    by_slope: dict = {}
    for i, h in enumerate(inst):
        key = as_fraction(h.a)
        for j in by_slope.get(key, ()):
            other = inst[j]
            if other.b == h.b and other.side == h.side:
                report.duplicates.append((j, i))
            else:
                report.parallels.append((j, i))
        by_slope.setdefault(key, []).append(i)
    # boundaries through a common point: group pairwise intersections
    meeting: dict = {}
    n = len(inst)
    for i in range(n):
        ai, bi = as_fraction(inst[i].a), as_fraction(inst[i].b)
        for j in range(i + 1, n):
            aj, bj = as_fraction(inst[j].a), as_fraction(inst[j].b)
            if ai == aj:
                continue
            x = (bj - bi) / (ai - aj)
            y = ai * x + bi
            meeting.setdefault((x, y), []).append((i, j))
    for point in sorted(meeting):
        pairs = meeting[point]
        if len(pairs) > 1:
            members = sorted({i for pair in pairs for i in pair})
            report.concurrents.append(tuple(members[:3]))
    return report


def cheap_position_ok(inst: Instance) -> bool:
    """Duplicate/parallel screen only (O(n)); concurrency not checked.

    The solver runs optimistically on instances passing this screen; a
    concurrent triple surfaces later as a collinear-tip assertion or a
    verifier rejection, and the retry loop perturbs.
    """
    # h.a is normalized, so equal slopes are equal, hash-equal values
    return len({h.a for h in inst}) == len(inst)


def perturbation_step(inst: Instance) -> Fraction:
    """Base step 1 / (2*(1 + M))**3 with M the largest |num|/|den| seen."""
    m = 1
    for h in inst:
        for v in (h.a, h.b):
            n, d = num_den(v)
            m = max(m, abs(n), d)
    return Fraction(1, (2 * (1 + m)) ** 3)


def perturb(inst: Instance, attempt: int = 0) -> Instance:
    """Index-keyed deterministic perturbation: (a, b) += delta*kappa*(k, k^2).

    Each attempt shrinks the step by 2**-attempt.  Distinct index keys
    mean no two half-planes shift in parallel, so some attempt always
    reaches general position.  The keys are cyclically shifted and the
    sign flipped per attempt: retries then split degeneracies in
    combinatorially different ways, which matters when a coloring valid
    for the perturbed instance fails on the degenerate original.
    """
    n = max(len(inst), 1)
    delta = perturbation_step(inst) * Fraction((-1) ** attempt, 2**attempt)
    out = []
    for i, h in enumerate(inst):
        k = (i + attempt) % n + 1
        out.append(
            HalfPlane(
                normalize(as_fraction(h.a) + delta * k),
                normalize(as_fraction(h.b) + delta * k**2),
                h.side,
            )
        )
    return Instance(out)


@dataclass
class DualScene:
    """Tips of the dual rays, one family per side, x-sorted.

    A tip is ``(x, y, i)``: the ray's apex and the index of its half-plane
    in the instance.  tips_u carry downward rays (upper half-planes),
    tips_l upward rays.
    """

    tips_u: list
    tips_l: list


def dualize(inst: Instance) -> DualScene:
    """Map half-plane i with boundary y = a*x + b to the tip (-a, b, i).

    Requires pairwise distinct tip x-coordinates (equivalently, no two
    boundaries parallel); collinearity degeneracies are left to callers'
    assertions and the solve retry loop.
    """
    # h.a is normalized, and ints and Fractions compare natively
    tips = [(-h.a, h.b, i) for i, h in enumerate(inst)]
    tips.sort(key=itemgetter(0))
    for p, q in zip(tips, tips[1:]):
        if p[0] == q[0]:
            raise GeneralPositionViolation(
                f"half-planes {p[2]} and {q[2]} have parallel boundaries"
            )
    upper = [h.side == UPPER for h in inst]
    return DualScene(
        [tip for tip in tips if upper[tip[2]]], [tip for tip in tips if not upper[tip[2]]]
    )


def dual_line_meets_ray(pt, hp: HalfPlane) -> bool:
    """Does the dual line of primal point pt intersect hp's dual ray?  The
    tip is the one `dualize` maps hp to; its family gives the ray's
    direction."""
    c, d = pt
    scene = dualize(Instance([hp]))
    downward = bool(scene.tips_u)  # upper half-planes carry downward rays
    tip_x, tip_y, _ = (scene.tips_u + scene.tips_l)[0]
    value = c * tip_x + d
    return value <= tip_y if downward else value >= tip_y
