import random
from fractions import Fraction

import pytest

from hpcolor.model import (
    BLUE,
    LOWER,
    RED,
    UPPER,
    GeneralPositionViolation,
    HalfPlane,
    Instance,
    InstanceFormatError,
    cheap_position_ok,
    coloring_from_json,
    coloring_to_json,
    dual_line_meets_ray,
    dualize,
    perturb,
    validate,
)

from conftest import make_instance


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


def test_dualize_i3(i3):
    scene = dualize(i3)
    # tips are (x, y, half-plane index)
    assert scene.tips_u == [(-1, 0, 0), (1, 2, 1)]
    assert scene.tips_l == [(0, 0, 2)]


def test_dualize_rejects_parallel():
    with pytest.raises(GeneralPositionViolation):
        dualize(make_instance((1, 0, UPPER), (1, 3, LOWER)))


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
