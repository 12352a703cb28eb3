"""Half-plane instances, general position, and the ray duality.

A half-plane is `upper` (y <= a*x + b) or `lower` (y >= a*x + b); vertical
boundaries have no representation.  Under the duality used throughout,
the boundary y = a*x + b maps to the tip (-a, b); upper half-planes carry
downward vertical rays, lower ones upward rays, and the primal point
(c, d) maps to the line y = c*x + d.  With this convention a point lies
in a half-plane exactly when its dual line meets the half-plane's ray,
and "above" in the primal is "below" in the dual.  A tip carries the
index of its half-plane as a third entry through every mirrored frame,
so colorings of tips are keyed by half-plane index.

`dualize` scales the dual plane by a positive common denominator L of
the instance, which only it knows, so the tips (-a*L, b*L, i) are plain
ints; the primal point (c, d) then maps to the line y = c*x + d*L.  That
holds on int input, on every perturbed instance of it, and on any input
whose common denominator is small next to its largest one (see
`common_denominator`); on input with many large coprime denominators
L = 1 and the tips stay Fractions.  Everything past `dualize` works in
these tip units, `coverage`'s witness (a line y = c*x + d of the scaled
dual plane) and the uncovered path included.

An `Instance` stores its half-planes as three columns (slopes,
intercepts, sides), which is what parsing produces and what the screen,
`dualize` and the verifier read; a `HalfPlane` value is built only when
an instance is indexed or iterated.  A perturbed instance with a common
denominator holds its columns as ints over it, which `dualize` reads,
and builds the slope and intercept columns only when they are read.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from operator import attrgetter, itemgetter, neg, sub
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
        # hand-written, so no __post_init__ call per half-plane: indexing
        # and iterating an `Instance` build one per access
        if side not in (UPPER, LOWER):
            raise InstanceFormatError(f"bad side {side!r}")
        # a plain int is already canonical; anything else (a Fraction, a
        # bool to reject) goes through normalize
        _set_field(self, "a", a if type(a) is int else normalize(a))
        _set_field(self, "b", b if type(b) is int else normalize(b))
        _set_field(self, "side", side)

    def contains(self, pt) -> bool:
        """Closed containment of (x, y)."""
        return halfplane_contains(self.a, self.b, self.side, pt)

    def int_constraint(self) -> tuple[int, int, int, int]:
        """(P, Q, R, s): containment is s*(P*x + Q*y + R) >= 0, all integer."""
        return halfplane_constraint(self.a, self.b, self.side)


def halfplane_contains(a: Scalar, b: Scalar, side: str, pt) -> bool:
    """Closed containment of (x, y) in the half-plane with boundary
    y = a*x + b on `side`."""
    lhs = pt[1]
    rhs = as_fraction(a) * pt[0] + b
    return lhs <= rhs if side == UPPER else lhs >= rhs


def halfplane_constraint(a: Scalar, b: Scalar, side: str) -> tuple[int, int, int, int]:
    """(P, Q, R, s): containment in the half-plane (a, b, side) is
    s*(P*x + Q*y + R) >= 0, all integer.

    Built by clearing denominators of y - a*x - b; s encodes the side.
    """
    an, ad = num_den(a)
    bn, bd = num_den(b)
    p = -an * bd
    q = ad * bd
    r = -bn * ad
    s = -1 if side == UPPER else 1
    return p, q, r, s


@dataclass(init=False)
class Instance:
    """n half-planes as three parallel columns: slopes `a`, intercepts `b`
    and `sides`, entry i of each describing half-plane i.

    The columns hold canonical scalars (`normalize`d) and valid sides.
    The hot readers (parse, screen, perturbation, `dualize`, the verifier's
    line table) read the columns; indexing and iteration build `HalfPlane`
    values on access, equal to the ones the instance was made from but
    not the same objects.

    `_den` is a positive common denominator of both columns when the
    maker of the instance knows one (the parse of an all-int column pair,
    `perturb`), else None and `common_denominator` looks for one.
    `_num`, when not None, holds the columns times `_den`, as ints: a
    perturbed instance is made of them alone, and its `a` and `b` are
    built from them when first read.
    """

    a: list
    b: list
    sides: list
    _den = None  # not fields: equality and repr see the columns only
    _num = None

    def __getattr__(self, name: str):
        # reached only for an attribute not set: an unbuilt column
        if name not in ("a", "b") or self._num is None:
            raise AttributeError(f"'Instance' object has no attribute {name!r}")
        den = self._den
        column = [normalize(Fraction(v, den)) for v in self._num[name == "b"]]
        setattr(self, name, column)
        return column

    def __init__(self, halfplanes):
        hps = list(halfplanes)
        self.a = [h.a for h in hps]
        self.b = [h.b for h in hps]
        self.sides = [h.side for h in hps]

    @classmethod
    def _of_columns(cls, a: list, b: list, sides: list, den) -> "Instance":
        """An instance over columns that already hold canonical scalars and
        valid sides, with `den` a common denominator of both or None;
        nothing is checked or copied."""
        inst = cls.__new__(cls)
        inst.a, inst.b, inst.sides, inst._den = a, b, sides, den
        return inst

    def __len__(self) -> int:
        return len(self.sides)

    def __iter__(self) -> Iterator[HalfPlane]:
        return map(HalfPlane, self.a, self.b, self.sides)

    def __getitem__(self, i: int) -> HalfPlane:
        return HalfPlane(self.a[i], self.b[i], self.sides[i])

    def to_json_dict(self) -> dict:
        return {
            "halfplanes": [
                {"a": format_scalar(a), "b": format_scalar(b), "side": side}
                for a, b, side in zip(self.a, self.b, self.sides)
            ]
        }

    def to_json(self) -> str:
        """The bytes of ``json.dumps(self.to_json_dict(), indent=2) + "\\n"``.

        As in `coloring_to_json`, the C encoder writes the entries, each
        field after an item separator that indents it; then every brace
        moves onto its own line, which is safe because no value holds one
        (values are integers, "num/den" texts and the two sides).
        """
        entries = self.to_json_dict()["halfplanes"]
        if not entries:
            return '{\n  "halfplanes": []\n}\n'
        body = json.dumps(entries, separators=(",\n      ", ": "))[1:-1]
        body = body.replace("},\n      {", "},\n    {")
        body = body.replace("{", "{\n      ").replace("}", "\n    }")
        return '{\n  "halfplanes": [\n    ' + body + "\n  ]\n}\n"

    @classmethod
    def from_json_dict(cls, data) -> "Instance":
        if not isinstance(data, dict) or "halfplanes" not in data:
            raise InstanceFormatError("missing 'halfplanes' key")
        items = data["halfplanes"]
        if not isinstance(items, list):
            raise InstanceFormatError("'halfplanes' must be a list")
        try:
            a, a_ints = _scalar_column(items, "a")
            b, b_ints = _scalar_column(items, "b")
            sides = list(map(itemgetter("side"), items))
            ok = {*sides} <= {UPPER, LOWER}
        except (KeyError, TypeError, ValueError):
            # a missing key, a non-dict entry, an unhashable side or a bad scalar
            ok = False
        if not ok:
            raise _first_bad_entry(items)
        return cls._of_columns(a, b, sides, 1 if a_ints and b_ints else None)

    @classmethod
    def from_json(cls, text: str) -> "Instance":
        return cls.from_json_dict(_load_json(text))


def _scalar_column(items: list, key: str) -> tuple[list, bool]:
    """Field `key` of every entry, parsed, and whether it is all plain
    ints (bools are not `int` by type), in which case it is kept as it is."""
    column = list(map(itemgetter(key), items))
    if {*map(type, column)} <= {int}:
        return column, True
    return [parse_scalar(v) for v in column], False


def _first_bad_entry(items: list) -> InstanceFormatError:
    """The error naming the first entry that is no half-plane.

    The column parse refuses `items` only if some entry fails here: both
    read each field with the same subscript and `parse_scalar`, and a side
    outside {UPPER, LOWER} fails `HalfPlane`.
    """
    for entry in items:
        try:
            HalfPlane(parse_scalar(entry["a"]), parse_scalar(entry["b"]), entry["side"])
        except (KeyError, TypeError, ValueError, InstanceFormatError) as exc:
            return InstanceFormatError(f"bad half-plane entry {entry!r}: {exc}")
    raise AssertionError("the column parse refused valid entries")


def coloring_to_json(colors: list) -> str:
    """The bytes of ``json.dumps({"colors": colors}, indent=2) + "\\n"``.

    With an indent `json.dumps` runs its pure-Python encoder; the items
    are encoded by the C encoder instead, one per line, inside the fixed
    frame that indent=2 gives.
    """
    colors = list(colors)
    if not colors:
        return '{\n  "colors": []\n}\n'
    items = json.dumps(colors, separators=(",\n    ", ": "))
    return '{\n  "colors": [\n    ' + items[1:-1] + "\n  ]\n}\n"


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
    a, b, sides = inst.a, inst.b, inst.sides
    by_slope: dict = {}
    for i, slope in enumerate(a):
        # slopes are normalized, so equal slopes are equal, hash-equal keys
        for j in by_slope.get(slope, ()):
            if b[j] == b[i] and sides[j] == sides[i]:
                report.duplicates.append((j, i))
            else:
                report.parallels.append((j, i))
        by_slope.setdefault(slope, []).append(i)
    # boundaries through a common point: group pairwise intersections
    meeting: dict = {}
    fa = [as_fraction(v) for v in a]
    fb = [as_fraction(v) for v in b]
    n = len(inst)
    for i in range(n):
        ai, bi = fa[i], fb[i]
        for j in range(i + 1, n):
            aj, bj = fa[j], fb[j]
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
    # slopes are normalized, so equal slopes are equal, hash-equal values
    return len(set(inst.a)) == len(inst.a)


# The bits a scanned common denominator may have beyond four times its
# largest denominator's before `common_denominator` gives it up.  One
# orientation on 2,048-bit ints costs about what it costs on Fractions
# with small denominators (20 against 24 us, x86_64, CPython 3.11), so
# the int tips stay well below that.
CLEAR_BITS = 1024


def common_denominator(inst: Instance) -> int | None:
    """A positive common denominator of both columns that is cheap to
    clear, or None.

    It is the one the instance's maker recorded, else the lcm of the
    Fractions' denominators, unless that lcm has more than
    4*bits(largest) + CLEAR_BITS bits.  Many large pairwise coprime
    denominators (k/p_i, distinct primes p_i) make the lcm grow with n,
    and tips that long would cost more per orientation than the
    Fractions do; the scan stops at the first lcm past the bound.
    """
    if inst._den is not None:
        return inst._den
    dens = {v.denominator for v in chain(inst.a, inst.b) if type(v) is not int}
    limit = 4 * max(dens, default=1).bit_length() + CLEAR_BITS
    den = 1
    for d in dens:
        den = math.lcm(den, d)
        if den.bit_length() > limit:
            return None
    return den


def perturb(inst: Instance, attempt: int = 0) -> Instance:
    """Index-keyed deterministic perturbation: (a, b) += delta*kappa*(k, k^2).

    The base step is 1 / (2*(1 + M))**3, M the largest |num| or den
    seen, and each attempt shrinks it by 2**-attempt.  Distinct index keys
    mean no two half-planes shift in parallel, so some attempt always
    reaches general position.  The keys are cyclically shifted and the
    sign flipped per attempt: retries then split degeneracies in
    combinatorially different ways, which matters when a coloring valid
    for the perturbed instance fails on the degenerate original.

    delta = dn/dd with dn = +-1.  When the input has a common denominator
    den, L = dd*den is the result's, and v + delta*k is the int
    v*L + dn*k*den over L: the result records these ints (`_num`), which
    `dualize` reads, and builds its `Fraction` columns only when they are
    read.  Without one, v + delta*k is the one Fraction
    (vn*dd + dn*k*vd) / (vd*dd).
    """
    den = common_denominator(inst)
    nums = map(attrgetter("numerator"), chain(inst.a, inst.b))
    dens = map(attrgetter("denominator"), chain(inst.a, inst.b))
    m = max(chain(map(abs, nums), dens), default=1)
    dn, dd = (-1) ** attempt, (2 * (1 + m)) ** 3 << attempt
    n = len(inst)
    keys = [(i + attempt) % n + 1 for i in range(n)]
    if den is None:
        return Instance._of_columns(
            _shifted(inst.a, [dn * k for k in keys], dd),
            _shifted(inst.b, [dn * k * k for k in keys], dd),
            list(inst.sides),
            None,
        )
    scale, step = dd * den, dn * den
    pert = Instance.__new__(Instance)
    pert.sides, pert._den = list(inst.sides), scale
    pert._num = (
        [v + step * k for v, k in zip(_cleared(inst.a, scale), keys)],
        [v + step * k * k for v, k in zip(_cleared(inst.b, scale), keys)],
    )
    return pert


def _shifted(column: list, steps: list, dd: int) -> list:
    """v + step/dd for each v of `column`, canonical."""
    return [
        normalize(Fraction(v.numerator * dd + step * v.denominator, v.denominator * dd))
        for v, step in zip(column, steps)
    ]


@dataclass
class DualScene:
    """Tips of the dual rays, one family per side, x-sorted.

    A tip is ``(x, y, i)``: the ray's apex, in the dual plane scaled by
    the instance's common denominator (see `dualize`), and the index of
    its half-plane in the instance.  tips_u carry downward rays (upper
    half-planes), tips_l upward rays.  `gap` is the least gap between two
    slopes of the instance, in its own units (1 with fewer than two).
    """

    tips_u: list
    tips_l: list
    gap: Scalar


def dualize(inst: Instance) -> DualScene:
    """Map half-plane i with boundary y = a*x + b to the tip (-a*L, b*L, i),
    L = `common_denominator(inst)`, an int tip; only `dualize` knows L.
    Without a common denominator cheap to clear, L = 1 and the tip is
    (-a, b, i), Fractions as given.

    Requires pairwise distinct tip x-coordinates (equivalently, no two
    boundaries parallel); collinearity degeneracies are left to callers'
    assertions and the solve retry loop.

    Exactness.  The scene is the unscaled dualization of S(inst), S the
    map (x, y) -> (x, L*y): it keeps each half-plane's side (L > 0) and
    which half-planes cover which point, all that the statement asks.
    In the dual plane S is the homothety z -> L*z.  Every decision of the
    covered engine is the sign of an orientation determinant, an x or y
    comparison or a slope comparison, so every sign, order and case path
    is the one of the unscaled tips.  The one step that is not homothetic,
    the ray of case B's synthetic successor, is taken along the scene's
    `gap`, which is in the instance's units, so it is the unscaled ray's
    image.  `coverage`'s separating lines are S of the unscaled ones, and
    `uncovered.polarize` proves the uncovered colors unscaled too.
    """
    if inst._num is not None:  # `perturb` cleared the denominators
        scale, (xs, ys) = inst._den, inst._num
    else:
        scale = common_denominator(inst) or 1
        if scale == 1:
            xs, ys = inst.a, inst.b
        else:
            xs, ys = _cleared(inst.a, scale), _cleared(inst.b, scale)
    tips = sorted(zip(map(neg, xs), ys, range(len(inst))), key=itemgetter(0))
    gaps = list(map(sub, map(itemgetter(0), tips[1:]), map(itemgetter(0), tips)))
    if 0 in gaps:
        raise GeneralPositionViolation(
            f"half-planes {tips[gaps.index(0)][2]} and {tips[gaps.index(0) + 1][2]}"
            " have parallel boundaries"
        )
    upper = [side == UPPER for side in inst.sides]
    return DualScene(
        [tip for tip in tips if upper[tip[2]]],
        [tip for tip in tips if not upper[tip[2]]],
        normalize(Fraction(min(gaps, default=1), scale)),
    )


def _cleared(column: list, scale: int) -> list:
    """v*scale as an int for each v of `column`; scale is a multiple of
    every denominator there."""
    return [v * scale if type(v) is int else v.numerator * (scale // v.denominator) for v in column]


def dual_line_meets_ray(pt, hp: HalfPlane) -> bool:
    """Does the dual line of primal point pt intersect hp's dual ray?  The
    tip is the one `dualize` maps hp to, in the dual plane scaled by
    L = `common_denominator`, where pt's dual line is y = c*x + d*L; its
    family gives the ray's direction."""
    c, d = pt
    inst = Instance([hp])
    scene = dualize(inst)
    downward = bool(scene.tips_u)  # upper half-planes carry downward rays
    tip_x, tip_y, _ = (scene.tips_u + scene.tips_l)[0]
    value = c * tip_x + d * (common_denominator(inst) or 1)
    return value <= tip_y if downward else value >= tip_y
