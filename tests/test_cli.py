import json
import random
import subprocess
import sys
from collections import Counter
from decimal import Decimal
from fractions import Fraction

import pytest

from hpcolor import verification
from hpcolor.cli import main
from hpcolor.generate import MODES, GenSpec, generate
from hpcolor.model import (
    BLUE,
    LOWER,
    RED,
    UPPER,
    HalfPlane,
    Instance,
    coloring_from_json,
    coloring_to_json,
)
from hpcolor.verification import oracle, verify

# JSON integer literals past the int-to-str digit limit (4,300 digits)
HUGE_INT_INSTANCE = '{"halfplanes": [{"a": %s, "b": 0, "side": "upper"}]}' % ("9" * 5000)
HUGE_INT_COLORING = '{"colors": [%s]}' % ("9" * 5000)


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture
def i3_file(tmp_path, i3):
    path = tmp_path / "i3.json"
    path.write_text(i3.to_json())
    return path


@pytest.fixture
def tri2_file(tmp_path, i_tri2):
    path = tmp_path / "tri2.json"
    path.write_text(i_tri2.to_json())
    return path


def test_color_roundtrip(tmp_path, i3_file, i3, capsys):
    out = tmp_path / "colors.json"
    assert run_cli("color", str(i3_file), "--out", str(out)) == 0
    colors = coloring_from_json(out.read_text())
    assert len(colors) == 3 and len(set(colors)) == 2


def test_color_malformed_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert run_cli("color", str(bad)) == 3
    assert "error" in capsys.readouterr().err
    huge = (HUGE_INT_INSTANCE.encode(), HUGE_INT_COLORING.encode())
    for junk in (b"\xff\xfe", b"[" * 100_000 + b"]" * 100_000, *huge):
        bad.write_bytes(junk)
        assert run_cli("color", str(bad)) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1


def test_color_bad_side_names_its_entry(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    entries = [{"a": 0, "b": 0, "side": "lower"}, {"a": 1, "b": 1, "side": "up"}]
    bad.write_text(json.dumps({"halfplanes": entries}))
    assert run_cli("color", str(bad)) == 3
    assert capsys.readouterr().err == (
        "error: cannot read instance: bad half-plane entry"
        " {'a': 1, 'b': 1, 'side': 'up'}: bad side 'up'\n"
    )


def test_color_rejects_threshold_flag(i3_file):
    assert run_cli("color", str(i3_file), "--threshold", "4") == 3


def test_verify_ok_and_violation(tmp_path, i3_file, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"colors": [BLUE, RED, RED]}))
    assert run_cli("verify", str(i3_file), str(good)) == 0
    assert "Ok" in capsys.readouterr().out
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"colors": [BLUE, BLUE, BLUE]}))
    assert run_cli("verify", str(i3_file), str(bad)) == 2
    out = capsys.readouterr().out
    data = json.loads(out)
    assert data["covering"] == [0, 1, 2]


def test_verify_convex_polar_coloring(tmp_path, capsys):
    """A convex polar engine coloring, where every line lies on an
    envelope of the other color, exits 0; with one half-plane flipped it
    exits 2 and prints the full walk's witness."""
    slopes = random.Random(128).sample(range(-256, 257), 128)
    inst = Instance([HalfPlane(a, -a * a - 1, UPPER) for a in slopes])
    inst_path, colors_path = tmp_path / "polar.json", tmp_path / "colors.json"
    inst_path.write_text(inst.to_json())
    assert run_cli("color", str(inst_path), "--out", str(colors_path)) == 0
    assert run_cli("verify", str(inst_path), str(colors_path)) == 0
    assert capsys.readouterr().out == "Ok\n"
    colors = coloring_from_json(colors_path.read_text())
    lines, members = verification._line_table(inst)
    for i in range(len(colors)):
        flipped = colors[:i] + [BLUE if colors[i] == RED else RED] + colors[i + 1:]
        is_red = [c == RED for c in flipped]
        if verification._violated(lines, members, is_red, 3):
            break
    expected = verification._full_walk(inst, lines, members, is_red, 3)
    colors_path.write_text(coloring_to_json(flipped))
    assert run_cli("verify", str(inst_path), str(colors_path)) == 2
    assert capsys.readouterr().out == expected.to_json()


def test_verify_threshold_2_tri2(tmp_path, tri2_file, capsys):
    any_colors = tmp_path / "c.json"
    for colors in ([BLUE, BLUE, RED], [RED, BLUE, RED]):
        any_colors.write_text(json.dumps({"colors": colors}))
        assert run_cli("verify", str(tri2_file), str(any_colors), "--threshold", "2") == 2


def test_verify_shape_errors(tmp_path, i3_file, capsys):
    short = tmp_path / "short.json"
    short.write_text(json.dumps({"colors": [BLUE]}))
    assert run_cli("verify", str(i3_file), str(short)) == 3
    capsys.readouterr()
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe")
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 100_000 + "]" * 100_000)
    huge_inst, huge_colors = tmp_path / "huge_inst.json", tmp_path / "huge_colors.json"
    huge_inst.write_text(HUGE_INT_INSTANCE)
    huge_colors.write_text(HUGE_INT_COLORING)
    for argv in (
        ("verify", str(i3_file), str(binary)),
        ("render", str(i3_file), "--coloring", str(binary)),
        ("verify", str(i3_file), str(nested)),
        ("verify", str(nested), str(short)),
        ("render", str(i3_file), "--coloring", str(nested)),
        ("render", str(nested)),
        ("verify", str(i3_file), str(huge_colors)),
        ("verify", str(huge_inst), str(short)),
        ("render", str(i3_file), "--coloring", str(huge_colors)),
        ("render", str(huge_inst)),
        ("oracle", str(huge_inst)),
        ("validate", str(huge_inst)),
    ):
        assert run_cli(*argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1


def test_verify_prints_a_large_witness_exactly(tmp_path, capsys):
    """A violation whose witness numerator is past the int-to-str digit
    limit exits 2 and prints the witness with its exact digits."""
    big, big2 = 10**1500 + 7, 3 * 10**1500 + 1
    inst = Instance([
        HalfPlane(Fraction(big, big2), Fraction(big2, big), UPPER),
        HalfPlane(Fraction(-big2, big), Fraction(big, big2 + 2), UPPER),
        HalfPlane(Fraction(1, big + 2), Fraction(-big, big2 + 4), LOWER),
    ])
    inst_path, colors_path = tmp_path / "inst.json", tmp_path / "colors.json"
    inst_path.write_text(inst.to_json())
    colors_path.write_text(json.dumps({"colors": [BLUE] * 3}))
    assert run_cli("verify", str(inst_path), str(colors_path)) == 2
    out, err = capsys.readouterr()
    assert err == ""
    data = json.loads(out)

    def exact(text):
        num, _, den = text.partition("/")
        return Fraction(int(Decimal(num)), int(Decimal(den or "1")))

    x, y = data["witness"]["x"], data["witness"]["y"]
    assert len(x.partition("/")[0]) > 4300
    witness = (exact(x), exact(y))
    assert witness == verify(inst, [BLUE] * 3, 3).witness
    assert data["covering"] == [0, 1, 2] and all(h.contains(witness) for h in inst)


def test_oracle_exit_codes(tmp_path, i3_file, tri2_file, capsys):
    assert run_cli("oracle", str(i3_file)) == 0
    assert coloring_from_json(capsys.readouterr().out) == [BLUE, BLUE, RED]
    assert run_cli("oracle", str(tri2_file), "--threshold", "2") == 4
    capsys.readouterr()
    assert run_cli("oracle", str(tri2_file), "--threshold", "3") == 0


def test_thresholds_below_one_exit_3(tmp_path, capsys):
    """A threshold below 1 is invalid input, also where the coloring is Ok at 3."""
    inst = generate(GenSpec(n=6, mode="covered", seed=0))
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(inst.to_json())
    assert run_cli("color", str(inst_path), "--out", str(tmp_path / "colors.json")) == 0
    colors_path = str(tmp_path / "colors.json")
    assert run_cli("verify", str(inst_path), colors_path) == 0
    capsys.readouterr()
    for k in ("0", "-2"):
        for argv in (("verify", str(inst_path), colors_path), ("oracle", str(inst_path))):
            assert run_cli(*argv, "--threshold", k) == 3, argv
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error:") and err.count("\n") == 1, err
        assert run_cli("oracle", str(inst_path), "--all", "--threshold", k) == 3
        assert capsys.readouterr().err.startswith("error:")


def test_oracle_all_counts(tmp_path, i3_file, capsys):
    assert run_cli("oracle", str(i3_file), "--all") == 0
    out = capsys.readouterr().out
    assert out.count('"colors"') == 6


def _brute_force_colorings(n, edges):
    """Every coloring that makes each edge bichromatic, trying all 2^n in
    lexicographic order (blue < red); bit n-1-i of a mask is vertex i."""
    masks = [sum(1 << (n - 1 - v) for v in e.covering) for e in edges]
    return [
        [RED if mask >> (n - 1 - i) & 1 else BLUE for i in range(n)]
        for mask in range(1 << n)
        if all(0 != m & mask != m for m in masks)
    ]


def test_oracle_all_matches_brute_force(tmp_path, monkeypatch, capsys):
    """`oracle --all` prints exactly the 2^n reference's colorings, in its
    order, and `oracle` returns the first (440 pairs: 110 seeded instances
    of every mode, n <= 10, k = 1..4).

    The depth->=k covering sets are the depth->=1 ones of depth >= k, so
    `hyperedges` runs once per instance and the time goes to the searches.
    """
    real = verification.hyperedges
    depth_1 = {}

    def hyperedges_once(inst, k=3):
        key = inst.to_json()
        if key not in depth_1:
            depth_1[key] = real(inst, 1)
        return [e for e in depth_1[key] if e.depth >= k]

    monkeypatch.setattr(verification, "hyperedges", hyperedges_once)
    rng = random.Random(13)
    path = tmp_path / "inst.json"
    seen = Counter()
    for t in range(110):
        mode = MODES[t % len(MODES)]
        n = rng.randint(3 if mode == "covered" else 0, 10)
        inst = generate(GenSpec(n=n, mode=mode, seed=t, bound=rng.choice([3, 5, 25])))
        path.write_text(inst.to_json())
        for k in range(1, 5):
            want = _brute_force_colorings(n, hyperedges_once(inst, k))
            code = run_cli("oracle", str(path), "--all", "--threshold", str(k))
            out, err = capsys.readouterr()
            assert out == "".join(coloring_to_json(c) for c in want), (t, k)
            expected = (0, "") if want else (4, "no good coloring exists\n")
            assert (code, err) == expected, (t, k)
            assert oracle(inst, k) == (want[0] if want else None), (t, k)
            seen["none" if not want else "some"] += 1
            seen["n < k"] += n < k
            seen[mode] += 1
    assert sum(seen[m] for m in MODES) == 440
    assert seen["none"] >= 50 and seen["some"] >= 200 and seen["n < k"] >= 40, seen


def test_oracle_oversize(tmp_path):
    inst = Instance.from_json_dict(
        {"halfplanes": [{"a": i, "b": 0, "side": "upper"} for i in range(21)]}
    )
    big = tmp_path / "big.json"
    big.write_text(inst.to_json())
    assert run_cli("oracle", str(big)) == 3


def test_gen_modes(tmp_path):
    from hpcolor.engine import coverage
    from hpcolor.model import dualize, validate

    covered = tmp_path / "cov.json"
    assert run_cli("gen", "--n", "3", "--mode", "covered", "--seed", "1", "--out", str(covered)) == 0
    inst = Instance.from_json(covered.read_text())
    assert coverage(dualize(inst)).kind == "covered"

    degen = tmp_path / "deg.json"
    assert run_cli("gen", "--n", "8", "--mode", "degenerate", "--seed", "2", "--out", str(degen)) == 0
    assert not validate(Instance.from_json(degen.read_text())).ok
    assert run_cli("gen", "--n", "6", "--mode", "degenerate", "--bound", "0", "--out", str(degen)) == 0
    assert not validate(Instance.from_json(degen.read_text())).ok
    assert run_cli("gen", "--n", "0", "--mode", "degenerate", "--out", str(degen)) == 0
    assert len(Instance.from_json(degen.read_text())) == 0


def test_gen_rejects_bad_sizes(capsys):
    for args in (("--n", "-3"), ("--n", "1", "--mode", "covered"), ("--n", "5", "--bound", "-2")):
        assert run_cli("gen", *args) == 3, args
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, args


def test_gen_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for target in (a, b):
        assert run_cli("gen", "--n", "6", "--mode", "random", "--seed", "9", "--out", str(target)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_render_i3(tmp_path, i3_file, capsys):
    out = tmp_path / "scene.svg"
    colors = tmp_path / "colors.json"
    colors.write_text(json.dumps({"colors": [BLUE, RED, RED]}))
    assert (
        run_cli(
            "render", str(i3_file), "--coloring", str(colors),
            "--window=-5,-5,5,5", "--out", str(out),
        )
        == 0
    )
    svg = out.read_text()
    assert svg.count("<line ") == 3
    assert svg.count("<polygon ") == 1  # single depth-3 cell
    # neutral strokes without a coloring
    assert run_cli("render", str(i3_file), "--window=-5,-5,5,5") == 0
    neutral = capsys.readouterr().out
    assert "#444444" in neutral


def test_render_empty_instance(tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"halfplanes": []}))
    assert run_cli("render", str(empty)) == 0
    assert "<svg" in capsys.readouterr().out


def test_render_bad_window(tmp_path, i3_file):
    assert run_cli("render", str(i3_file), "--window=5,5,5,5") == 3


def test_render_deterministic(tmp_path, i3_file, capsys):
    outputs = set()
    for _ in range(2):
        assert run_cli("render", str(i3_file), "--window=-5,-5,5,5") == 0
        outputs.add(capsys.readouterr().out)
    assert len(outputs) == 1


def test_bench_csv(tmp_path, capsys):
    csv = tmp_path / "bench.csv"
    assert run_cli("bench", "--sizes", "64,128", "--seed", "3", "--csv", str(csv)) == 0
    rows = csv.read_text().strip().splitlines()
    assert rows[0] == "n,seconds,case_path"
    assert len(rows) == 3
    assert rows[1].startswith("64,") and rows[2].startswith("128,")


def test_bench_rejects_unsorted(capsys):
    bad = [
        ("--sizes", "128,64"),
        ("--sizes=-4",),
        ("--sizes", "0,1"),
        ("--sizes", "64", "--repeats", "0"),
        ("--sizes", "64", "--repeats", "-2"),
    ]
    for args in bad:
        assert run_cli("bench", *args) == 3, args
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, args


def test_unwritable_output_exits_3(tmp_path, i3_file, capsys):
    target = str(tmp_path / "missing" / "out")
    commands = [
        ("color", str(i3_file), "--out", target),
        ("gen", "--n", "5", "--mode", "covered", "--out", target),
        ("render", str(i3_file), "--out", target),
        ("bench", "--sizes", "8", "--csv", target),
    ]
    for argv in commands:
        assert run_cli(*argv) == 3, argv
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, argv
    assert not (tmp_path / "missing").exists()


def test_bench_case_path_deterministic(tmp_path):
    paths = []
    for name in ("x.csv", "y.csv"):
        csv = tmp_path / name
        assert run_cli("bench", "--sizes", "64", "--seed", "5", "--csv", str(csv)) == 0
        paths.append(csv.read_text().splitlines()[1].split(",", 2)[2])
    assert paths[0] == paths[1]


def test_color_determinism_bytes(tmp_path, i3_file):
    outs = []
    for name in ("c1.json", "c2.json"):
        out = tmp_path / name
        assert run_cli("color", str(i3_file), "--out", str(out)) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_entry_point_subprocess(tmp_path, i3_file):
    proc = subprocess.run(
        [sys.executable, "-m", "hpcolor.cli", "color", str(i3_file)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert '"colors"' in proc.stdout


def test_no_verify_flag(i3_file, capsys):
    assert run_cli("color", str(i3_file), "--no-verify") == 0
    capsys.readouterr()


def test_color_search_failure_exits_2(tmp_path, monkeypatch, capsys):
    """A constraint search that finds nothing on every attempt ends in exit
    2 and one line, not a traceback."""
    import hpcolor.uncovered

    monkeypatch.setattr(hpcolor.uncovered, "solve_nae", lambda n, edges: None)
    inst = tmp_path / "unc.json"
    inst.write_text(generate(GenSpec(n=8, mode="uncovered", seed=1, bound=10)).to_json())
    assert run_cli("color", str(inst)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("verification failed:")
