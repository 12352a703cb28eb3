import dataclasses
import json
import random
import re
from collections import Counter
from fractions import Fraction

import pytest

from hpcolor.generate import MODES, GenSpec, generate
from hpcolor.model import (
    BLUE,
    LOWER,
    RED,
    CLEAR_BITS,
    UPPER,
    GeneralPositionViolation,
    HalfPlane,
    Instance,
    InstanceFormatError,
    cheap_position_ok,
    coloring_from_json,
    coloring_to_json,
    common_denominator,
    dual_line_meets_ray,
    dualize,
    perturb,
    validate,
)
from hpcolor.rationals import normalize, parse_scalar

from conftest import coprime_image, make_instance, primes_from


def test_validate_examples(i3):
    assert validate(i3).ok
    bad = make_instance((1, 0, UPPER), (1, 3, LOWER))
    rep = validate(bad)
    assert rep.parallels == [(0, 1)]
    conc = make_instance((1, 0, UPPER), (-1, 0, UPPER), (0, 0, LOWER))
    rep = validate(conc)
    assert rep.concurrents == [(0, 1, 2)]


def test_validate_duplicates():
    rep = validate(make_instance((2, 5, LOWER), (2, 5, LOWER)))
    assert rep.duplicates == [(0, 1)] and not rep.parallels


def test_perturb_identity_on_clean(i3, monkeypatch):
    from hpcolor import engine

    seen = []

    def recording_dualize(inst):
        seen.append(inst)
        return dualize(inst)

    monkeypatch.setattr(engine, "dualize", recording_dualize)
    engine.solve_detailed(i3)
    assert seen and seen[0] is i3


def test_perturb_splits_parallels():
    bad = make_instance((1, 0, UPPER), (1, 3, LOWER))
    pert = perturb(bad, 0)
    assert pert[0].a != pert[1].a
    assert [h.side for h in pert] == [UPPER, LOWER]


def test_perturb_clears_concurrency():
    conc = make_instance((1, 0, UPPER), (-1, 0, UPPER), (0, 0, LOWER))
    for attempt in range(4):
        pert = perturb(conc, attempt + 1)
        assert validate(pert).ok


def test_perturb_attempts_differ_combinatorially():
    conc = make_instance((1, 0, UPPER), (-1, 0, UPPER), (0, 0, LOWER))
    p1, p2 = perturb(conc, 1), perturb(conc, 2)
    assert [h.a for h in p1] != [h.a for h in p2]


def test_perturb_matches_its_formula():
    """Each value is a + delta*k and b + delta*k**2, canonical, with
    delta = (-1)**attempt / (2**attempt * (2*(1 + M))**3), M the largest
    |numerator| or denominator, and k the shifted index key."""
    rng = random.Random(5)
    for trial in range(60):
        inst = generate(GenSpec(n=rng.randint(3, 20), mode=MODES[trial % 4], seed=trial))
        if trial % 2:
            f = Fraction(rng.randint(-9, 9) or 1, rng.randint(2, 9))
            inst = make_instance(*[(h.a * f, h.b * f, h.side) for h in inst])
        fracs = list(map(Fraction, inst.a + inst.b))
        big = max([1] + [max(abs(v.numerator), v.denominator) for v in fracs])
        for attempt in range(4):
            delta = Fraction((-1) ** attempt, 2**attempt * (2 * (1 + big)) ** 3)
            keys = [(i + attempt) % len(inst) + 1 for i in range(len(inst))]
            pert = perturb(inst, attempt)
            want_a = [normalize(Fraction(a) + delta * k) for a, k in zip(inst.a, keys)]
            want_b = [normalize(Fraction(b) + delta * k * k) for b, k in zip(inst.b, keys)]
            assert pert.a == want_a and pert.b == want_b
            assert [type(v) for v in pert.a + pert.b] == [type(v) for v in want_a + want_b]
            assert pert.sides == inst.sides


def fraction_perturb(inst, attempt):
    """The oracle: `perturb` as it was before it recorded integer
    numerators, one canonical Fraction per value, with dd times the
    input's common denominator, if it has one, recorded as the result's."""
    fracs = list(map(Fraction, inst.a + inst.b))
    big = max([1] + [max(abs(v.numerator), v.denominator) for v in fracs])
    dn, dd = (-1) ** attempt, (2 * (1 + big)) ** 3 << attempt
    keys = [(i + attempt) % len(inst) + 1 for i in range(len(inst))]
    den = common_denominator(inst)
    return Instance._of_columns(
        [normalize(Fraction(a) + Fraction(dn * k, dd)) for a, k in zip(inst.a, keys)],
        [normalize(Fraction(b) + Fraction(dn * k * k, dd)) for b, k in zip(inst.b, keys)],
        list(inst.sides),
        None if den is None else dd * den,
    )


def test_perturb_matches_fraction_oracle():
    """`dualize` of `perturb`, which records the perturbed values as ints
    over a common denominator, gives the scene (tips and gap) of
    `dualize` of the Fraction-built perturbation, on the four generator
    modes at attempts 0-7, as generated, on fractional images and on
    images with pairwise coprime denominators, big enough that no common
    denominator is cleared; and the perturbed instance's columns, length,
    screen and common denominator are the oracle's."""
    rng = random.Random(22)
    seen = Counter()
    for trial in range(96):
        mode, kind = MODES[trial % 4], ("int", "fractional", "coprime")[trial // 4 % 3]
        n = rng.randint(18, 24) if kind == "coprime" else rng.randint(3, 30)
        inst = generate(GenSpec(n=n, mode=mode, seed=trial, bound=rng.choice([3, 12, 50])))
        if kind == "fractional":
            f = Fraction(rng.randint(-9, 9) or 1, rng.randint(2, 9))
            inst = Instance.from_json(
                make_instance(*[(h.a * f, h.b + f, h.side) for h in inst]).to_json()
            )
        elif kind == "coprime":
            inst = coprime_image(inst)
        for attempt in range(8):
            pert, want = perturb(inst, attempt), fraction_perturb(inst, attempt)
            got, expected = dualize(pert), dualize(want)
            assert (got.tips_u, got.tips_l) == (expected.tips_u, expected.tips_l), (trial, attempt)
            assert got.gap == expected.gap and type(got.gap) is type(expected.gap)
            den = common_denominator(pert)
            assert den == common_denominator(want)
            assert len(pert) == len(want) and cheap_position_ok(pert) == cheap_position_ok(want)
            assert (pert.a, pert.b, pert.sides) == (want.a, want.b, want.sides)
            assert [type(v) for v in pert.a + pert.b] == [type(v) for v in want.a + want.b]
            seen[kind, mode, den is None] += 1
    for mode in MODES:
        assert seen["int", mode, False] >= 64 and seen["fractional", mode, False] >= 64, seen
        assert seen["coprime", mode, True] >= 64, seen


def test_dualize_i3(i3):
    scene = dualize(i3)
    # tips are (x, y, half-plane index)
    assert scene.tips_u == [(-1, 0, 0), (1, 2, 1)]
    assert scene.tips_l == [(0, 0, 2)]


def test_dualize_rejects_parallel():
    with pytest.raises(GeneralPositionViolation):
        dualize(make_instance((1, 0, UPPER), (1, 3, LOWER)))


def _dualize_reference(inst):
    """One stable sort of every tip by x, equal neighbours rejected, then
    a split by side."""
    tagged = sorted(
        (((-h.a, h.b, i), h.side) for i, h in enumerate(inst)), key=lambda t: t[0][0]
    )
    for (p, _), (q, _) in zip(tagged, tagged[1:]):
        if p[0] == q[0]:
            raise GeneralPositionViolation(f"{p[2]} and {q[2]}")
    return (
        [tip for tip, side in tagged if side == UPPER],
        [tip for tip, side in tagged if side != UPPER],
    )


@pytest.mark.parametrize("scale", [1, Fraction(1, 3)])
@pytest.mark.parametrize(
    "triples, pair",
    [
        # parallel within the upper family, within the lower, and across
        ([(1, 0, UPPER), (2, 0, LOWER), (3, 1, UPPER), (1, 5, UPPER)], (0, 3)),
        ([(4, 0, UPPER), (2, 0, LOWER), (3, 1, UPPER), (2, -5, LOWER)], (1, 3)),
        ([(4, 0, LOWER), (-2, 0, UPPER), (3, 1, LOWER), (-2, 7, LOWER)], (1, 3)),
    ],
)
def test_dualize_names_the_parallel_pair(triples, pair, scale):
    inst = make_instance(*[(a * scale, b * scale, side) for a, b, side in triples])
    i, j = pair
    message = f"half-planes {i} and {j} have parallel boundaries"
    with pytest.raises(GeneralPositionViolation, match=re.escape(message)):
        dualize(inst)


def test_dualize_matches_reference():
    rng = random.Random(14)
    for trial in range(120):
        mode = MODES[trial % len(MODES)]
        inst = generate(
            GenSpec(n=rng.randint(3, 24), mode=mode, seed=trial, bound=rng.choice([3, 8, 40]))
        )
        for case in [inst] + [perturb(inst, k) for k in range(4)]:
            try:
                expected = _dualize_reference(case)
            except GeneralPositionViolation as exc:
                # the same pair is named: the first equal neighbours in x order
                i, j = map(int, re.findall(r"\d+", str(exc)))
                assert i < j and case[i].a == case[j].a
                message = f"half-planes {i} and {j} have parallel boundaries"
                with pytest.raises(GeneralPositionViolation, match=re.escape(message)):
                    dualize(case)
                continue
            scene = dualize(case)
            assert (scene.tips_u, scene.tips_l) == _scaled(expected, common_denominator(case) or 1)


def _scaled(families, scale):
    """Reference tips in a scene's units: both coordinates times `scale`,
    the instance's common denominator."""
    return tuple([(x * scale, y * scale, i) for x, y, i in tips] for tips in families)


def test_dualize_clears_denominators():
    """On every input the tips are ints, L = `common_denominator` times the
    Fraction reference tips, whichever way L is found: recorded by
    `perturb` or by the parse, or scanned for by `dualize`."""
    rng = random.Random(18)
    seen = Counter()
    for trial in range(80):
        mode = MODES[trial % len(MODES)]
        inst = generate(
            GenSpec(n=rng.randint(3, 24), mode=mode, seed=trial, bound=rng.choice([3, 8, 40]))
        )
        big, small = 10**40, Fraction(1, 10**40)
        images = [
            make_instance(*[(h.a * f, h.b * f, h.side) for h in inst]) for f in (big, small)
        ]
        for case in [inst, *images] + [perturb(c, k) for c in (inst, *images) for k in range(4)]:
            try:
                expected = _dualize_reference(case)
            except GeneralPositionViolation:
                continue
            for made in (case, Instance.from_json(case.to_json()), Instance(list(case))):
                scene, scale = dualize(made), common_denominator(made) or 1
                tips = scene.tips_u + scene.tips_l
                assert scale > 0
                assert all(type(v) is int for x, y, _ in tips for v in (x, y))
                assert (scene.tips_u, scene.tips_l) == _scaled(expected, scale)
            seen["fractional" if scale > 1 else "int"] += 1
    assert seen["fractional"] >= 800 and seen["int"] >= 80, seen


def test_common_denominator_bound():
    """The lcm of k pairwise coprime denominators 2**p - 1 is found while it
    has at most 4*bits(largest) + CLEAR_BITS bits, and past that none is,
    on an instance built through the API and on its parse."""
    primes = primes_from(61)
    dens = [2 ** next(primes) - 1 for _ in range(24)]
    seen = Counter()
    for k in range(1, len(dens) + 1):
        inst = make_instance(*[(Fraction(1, d), 0, UPPER) for d in dens[:k]])
        lcm = 1
        for d in dens[:k]:
            lcm *= d
        fits = lcm.bit_length() <= 4 * dens[k - 1].bit_length() + CLEAR_BITS
        for made in (inst, Instance.from_json(inst.to_json())):
            assert common_denominator(made) == (lcm if fits else None), k
        seen[fits] += 1
    assert seen[True] >= 5 and seen[False] >= 5, seen


def test_dualize_keeps_fractions_past_the_bound():
    """With many large pairwise coprime denominators no common denominator
    is cleared: the scale is 1 and the tips are the Fraction reference
    tips, on the instance and on its perturbations, whichever way it is
    built.  (Perturbing multiplies every denominator by one shared step
    denominator, which moves the bound up with them, so the instances
    here are big enough to stay past it.)"""
    rng = random.Random(19)
    seen = Counter()
    for trial in range(24):
        mode = MODES[trial % len(MODES)]
        inst = coprime_image(generate(GenSpec(n=rng.randint(18, 24), mode=mode, seed=trial)))
        for case in [inst] + [perturb(inst, k) for k in range(4)]:
            assert common_denominator(case) is None
            try:
                expected = _dualize_reference(case)
            except GeneralPositionViolation:
                continue
            for made in (case, Instance.from_json(case.to_json()), Instance(list(case))):
                scene = dualize(made)
                tips = scene.tips_u + scene.tips_l
                assert (common_denominator(made) or 1) == 1
                assert all(type(v) is Fraction for x, y, _ in tips for v in (x, y))
                assert (scene.tips_u, scene.tips_l) == expected
            seen[mode] += 1
    assert all(seen[mode] >= 10 for mode in MODES), seen


def test_dualize_empty():
    scene = dualize(Instance([]))
    assert scene.tips_u == [] and scene.tips_l == []


def test_incidence_example():
    h = HalfPlane(0, 0, UPPER)
    assert h.contains((0, -1))
    assert dual_line_meets_ray((0, -1), h)


def test_incidence_random():
    rng = random.Random(4)
    for _ in range(2000):
        h = HalfPlane(
            Fraction(rng.randint(-40, 40), rng.randint(1, 5)),
            Fraction(rng.randint(-40, 40), rng.randint(1, 5)),
            UPPER if rng.random() < 0.5 else LOWER,
        )
        pt = (
            Fraction(rng.randint(-40, 40), rng.randint(1, 5)),
            Fraction(rng.randint(-40, 40), rng.randint(1, 5)),
        )
        assert h.contains(pt) == dual_line_meets_ray(pt, h)


def test_order_reversal():
    # p above boundary line <=> dual point of the line below dual line of p
    rng = random.Random(9)
    for _ in range(500):
        a, b = rng.randint(-20, 20), rng.randint(-20, 20)
        c, d = rng.randint(-20, 20), rng.randint(-20, 20)
        above = d > a * c + b
        below = b < c * (-a) + d  # tip (-a, b) against line y = c*x + d
        if d != a * c + b:
            assert above == below


def test_json_round_trip(i3):
    text = i3.to_json()
    again = Instance.from_json(text)
    assert again.to_json() == text
    fr = make_instance((Fraction(1, 3), Fraction(-7, 2), LOWER))
    assert Instance.from_json(fr.to_json()).to_json() == fr.to_json()
    assert fr.to_json_dict()["halfplanes"][0]["a"] == "1/3"


def test_json_integer_shorthand():
    inst = Instance.from_json('{"halfplanes": [{"a": 2, "b": "-3", "side": "upper"}]}')
    assert inst[0].a == 2 and inst[0].b == -3


def test_json_rejects_garbage():
    with pytest.raises(InstanceFormatError):
        Instance.from_json("{")
    with pytest.raises(InstanceFormatError):
        Instance.from_json('{"halfplanes": [{"a": 1.5, "b": 0, "side": "upper"}]}')
    with pytest.raises(InstanceFormatError):
        Instance.from_json('{"halfplanes": [{"a": 1, "b": 0, "side": "left"}]}')
    with pytest.raises(InstanceFormatError):
        Instance.from_json('{"halfplanes": [{"a": 1, "b": true, "side": "upper"}]}')
    with pytest.raises(TypeError):
        HalfPlane(True, 0, UPPER)
    with pytest.raises(InstanceFormatError):
        coloring_from_json('{"colors": ["green"]}')


def test_coloring_json_round_trip():
    text = coloring_to_json([BLUE, RED])
    assert coloring_from_json(text) == [BLUE, RED]


def test_cheap_screen():
    assert cheap_position_ok(make_instance((1, 0, UPPER), (2, 0, UPPER)))
    assert not cheap_position_ok(make_instance((1, 0, UPPER), (1, 3, LOWER)))
    assert not cheap_position_ok(make_instance((Fraction(4, 2), 0, UPPER), (2, 3, LOWER)))


def test_cheap_screen_matches_sorted_adjacency():
    seen = set()
    for seed in range(200):
        inst = generate(GenSpec(n=seed % 20, mode="degenerate", seed=seed, bound=6))
        for case in (inst, perturb(inst, seed % 4)):
            slopes = sorted(h.a for h in case)
            expected = all(u != v for u, v in zip(slopes, slopes[1:]))
            assert cheap_position_ok(case) == expected
            seen.add(expected)
    assert seen == {True, False}


def test_cheap_screen_reads_the_cleared_ints():
    """On a perturbed instance the screen reads the ints `perturb`
    recorded and builds no `Fraction` column, and it agrees with a screen
    of the slopes.  Small values and many half-planes let the
    perturbation itself plant parallels: slopes a_i + k_i/dd and
    a_j + k_j/dd meet when (a_i - a_j)*dd = k_j - k_i."""
    rng = random.Random(23)
    seen = Counter()
    for trial in range(300):
        n, s = rng.randint(2, 400), rng.choice([1, 2])
        inst = make_instance(
            *[(rng.randint(-s, s), rng.randint(-s, s), rng.choice([UPPER, LOWER])) for _ in range(n)]
        )
        pert = perturb(inst, rng.randrange(3))
        ok = cheap_position_ok(pert)
        assert "a" not in vars(pert) and "b" not in vars(pert)
        assert ok == (len(set(pert.a)) == len(pert)), trial
        seen[ok] += 1
    assert min(seen[True], seen[False]) >= 80, seen


def test_halfplane_contract():
    h = HalfPlane(Fraction(4, 2), Fraction(1, 3), UPPER)
    assert type(h.a) is int and h.a == 2 and h.b == Fraction(1, 3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        h.a = 3
    # the hand-written __init__ takes keywords and serves dataclasses.replace
    assert HalfPlane(b=Fraction(1, 3), side=UPPER, a=Fraction(4, 2)) == h
    moved = dataclasses.replace(h, b=Fraction(6, 3))
    assert type(moved.b) is int and moved == HalfPlane(2, 2, UPPER)
    assert hash(moved) == hash(HalfPlane(2, 2, UPPER))
    with pytest.raises(InstanceFormatError):
        dataclasses.replace(h, side="left")
    with pytest.raises(TypeError):
        HalfPlane(1.5, 0, UPPER)
    with pytest.raises(InstanceFormatError):
        Instance.from_json('{"halfplanes": [{"a": "1/0", "b": 0, "side": "upper"}]}')


def _parse_reference(items):
    """One `HalfPlane` per entry, the first bad entry named."""
    hps = []
    for entry in items:
        try:
            hps.append(
                HalfPlane(parse_scalar(entry["a"]), parse_scalar(entry["b"]), entry["side"])
            )
        except (KeyError, TypeError, ValueError, InstanceFormatError) as exc:
            raise InstanceFormatError(f"bad half-plane entry {entry!r}: {exc}")
    return hps


def test_instance_columns_contract():
    hps = [
        HalfPlane(Fraction(4, 2), Fraction(1, 3), UPPER),
        HalfPlane(-1, 7, LOWER),
        HalfPlane(Fraction(-5, 3), 0, UPPER),
    ]
    inst = Instance(hps)
    assert len(inst) == 3 and inst.sides == [UPPER, LOWER, UPPER]
    assert type(inst.a[0]) is int and inst.a[0] == 2
    # indexing and iteration build equal values, not the same objects
    assert list(inst) == hps and [inst[i] for i in range(3)] == hps and inst[-1] == hps[2]
    assert inst[0] is not hps[0]
    assert inst == Instance(iter(hps)) and inst == Instance(list(inst))
    assert inst != Instance(hps[:2]) and inst != Instance(hps[::-1])
    assert inst != Instance([HalfPlane(2, Fraction(1, 3), LOWER)] + hps[1:])
    assert inst != Instance([HalfPlane(2, 0, UPPER)] + hps[1:])

    rng = random.Random(15)

    def scalar():
        v = rng.randint(-9, 9)
        return rng.choice([v, f"{v}/{rng.randint(1, 6)}", str(v), f" {v} ", f"{2 * v}/2"])

    for trial in range(200):
        entries = [
            {"a": scalar(), "b": scalar(), "side": rng.choice([UPPER, LOWER])}
            for _ in range(rng.randint(0, 8))
        ]
        if trial % 4 == 0:  # an all-int column takes the fast path
            for e in entries:
                e["a"] = rng.randint(-9, 9)
        got = Instance.from_json(json.dumps({"halfplanes": entries}))
        want = Instance(_parse_reference(entries))
        assert (got.a, got.b, got.sides) == (want.a, want.b, want.sides)
        assert [type(v) for v in got.a + got.b] == [type(v) for v in want.a + want.b]


def test_instance_records_the_den_of_int_columns():
    """An instance made of int half-planes records the common
    denominator 1, as the parse of int columns does, so `dualize` and
    `perturb` need not scan the columns for one; one `Fraction` leaves it
    to `common_denominator`."""
    ints = [HalfPlane(3, -1, UPPER), HalfPlane(Fraction(4, 2), 0, LOWER), HalfPlane(-5, 7, LOWER)]
    assert Instance(ints)._den == 1 and Instance([])._den == 1
    assert generate(GenSpec(n=40, mode="covered", seed=3))._den == 1
    one_fraction = ints + [HalfPlane(1, Fraction(1, 3), UPPER)]
    made = Instance(one_fraction)
    assert made._den is None and common_denominator(made) == 3
    for hps in (ints, one_fraction):
        parsed = Instance.from_json(Instance(hps).to_json())
        assert parsed._den == Instance(hps)._den
        assert dualize(parsed) == dualize(Instance(hps))


BAD_ENTRIES = [
    {"b": 0, "side": "upper"},  # no slope
    [1, 0, "upper"],  # not an object
    {"a": True, "b": 0, "side": "upper"},
    {"a": 1, "b": 1.5, "side": "lower"},
    {"a": "1/0", "b": 0, "side": "lower"},
    {"a": 1, "b": "x/2", "side": "upper"},
    {"a": 1, "b": 0, "side": "left"},
    {"a": 1, "b": 0, "side": ["upper"]},  # unhashable side
]


@pytest.mark.parametrize("bad", BAD_ENTRIES)
@pytest.mark.parametrize("where", ["first", "middle", "last", "before a bad slope"])
def test_from_json_error_parity(bad, where):
    """A bad entry raises the message the per-entry parse gives, naming
    the first bad entry wherever it sits."""
    items = [{"a": i, "b": -i, "side": UPPER if i % 2 else LOWER} for i in range(6)]
    at = {"first": 0, "middle": 3, "last": len(items)}.get(where, 2)
    items.insert(at, bad)
    if where == "before a bad slope":
        items.append({"a": 2.5, "b": 0, "side": "upper"})
    text = json.dumps({"halfplanes": items})
    with pytest.raises(InstanceFormatError) as want:
        _parse_reference(json.loads(text)["halfplanes"])
    with pytest.raises(InstanceFormatError) as got:
        Instance.from_json(text)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("n", [0, 1, 2, 7, 4096])
def test_coloring_to_json_bytes(n):
    rng = random.Random(n)
    colors = [rng.choice([BLUE, RED]) for _ in range(n)]
    assert coloring_to_json(colors) == json.dumps({"colors": colors}, indent=2) + "\n"
    assert coloring_to_json(tuple(colors)) == coloring_to_json(colors)


@pytest.mark.parametrize("mode", MODES)
def test_instance_to_json_bytes(mode):
    """`to_json` writes the bytes of `json.dumps(..., indent=2)` plus a
    newline, on every generator mode, empty and perturbed instances and
    30-digit fractions."""
    sizes = ((3, 5), (17, 50), (300, 1200))
    insts = [generate(GenSpec(n=n, mode=mode, seed=n, bound=b)) for n, b in sizes]
    insts += [perturb(insts[1], 1), Instance([])]
    big = Fraction(10**30 + 1, 3)
    insts.append(Instance([HalfPlane(big, -big, UPPER), HalfPlane(-5, 1 / big, LOWER)]))
    for inst in insts:
        assert inst.to_json() == json.dumps(inst.to_json_dict(), indent=2) + "\n"
