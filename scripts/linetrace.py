#!/usr/bin/env python3
"""List the statements of the `hpcolor` package that nothing runs.

Traces every module of `src/hpcolor/` except the two in `SKIPPED`, line
by line (`sys.settrace`), while it
  - solves the coloring-corpus grid and the branch grid of
    `tests/test_corpus.py` (`corpus_records()` and `branch_records()`,
    so each grid is defined in one place),
  - solves every `test_regressions.CASES` instance and an empty one,
  - runs `CLI_CALLS`, in-process `cli.main` calls on instances of at
    most 9 half-planes that reach every subcommand and every documented
    exit code (0/2/3/4); each call must return its listed code.
Prints each statement that never ran, per module, leaving out
docstrings, explicit `raise` statements (the guards of the case split
and of input checks) and the statements `KEEP` excuses, and exits 1 if
any remain, if a call returns another code, or if a `KEEP` text excuses
nothing (its statement ran, or is gone).  A `KEEP` entry names
statements by module, enclosing function and text, never by line
number, and says why they stay although nothing here runs them.

Run from the repo root:
    python3 scripts/linetrace.py
"""

import ast
import contextlib
import io
import json
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
PACKAGE = ROOT / "src" / "hpcolor"

SKIPPED = {
    "verification.py": "the verifier keeps its own arithmetic and its own reference tests",
    "kernels.py": "read only by the benchmark header",
}

# (module, enclosing function) -> (why it stays unrun, the text of each of
# its statements that may stay unrun, trailing comments left out; a text
# listed once excuses one statement)
KEEP = {
    ("model.py", "HalfPlane.contains"): (
        "public API: closed containment in a half-plane value",
        ["return halfplane_contains(self.a, self.b, self.side, pt)"],
    ),
    ("model.py", "Instance.__getitem__"): (
        "public API: an instance indexes like the list it was made from",
        ["return HalfPlane(self.a[i], self.b[i], self.sides[i])"],
    ),
    ("model.py", "dual_line_meets_ray"): (
        "the duality as stated, the reference that tests check containment against"
        " (acceptance criterion 5)",
        [
            "c, d = pt",
            "inst = Instance([hp])",
            "scene = dualize(inst)",
            "downward = bool(scene.tips_u)",
            "tip_x, tip_y, _ = (scene.tips_u + scene.tips_l)[0]",
            "value = c * tip_x + d * (common_denominator(inst) or 1)",
            "return value <= tip_y if downward else value >= tip_y",
        ],
    ),
    ("rationals.py", "normalize"): (
        "input checks of the Python API: a bool is refused, an int subclass kept",
        ["if isinstance(value, bool):", "if isinstance(value, int):", "return value"],
    ),
    ("cli.py", "cmd_color"): (
        "exit 2 of `color`: by the theorem every instance has a certified coloring",
        ['print(f"verification failed: {exc}", file=sys.stderr)', "return EXIT_VIOLATION"],
    ),
    ("uncovered.py", "enumerate_point_hyperedges"): (
        "the rules for fewer than 3 points and for coincident points, kept for direct"
        " callers: `solve` passes neither",
        ["return []", "edges.add(tuple(sorted(cand[:3])))", "continue", "return sorted(edges)"],
    ),
    ("geometry.py", "segments_intersect"): (
        "the contact of the second segment's last end with the first segment: the engine"
        " asks only whether (l_U, p) meets (l_L, r_L), and r_L lies right of p",
        ["return True"],
    ),
    ("geometry.py", "HullChain.edge_at"): (
        "the chain contract at a one-vertex chain and at the last vertex: the engine"
        " queries a chain only at the other family's tips, whose x differ from its vertices'",
        ["v = self.vertices[0]", "return v, v", "i -= 1"],
    ),
    ("geometry.py", "chain_eval"): ("as `HullChain.edge_at`", ["return a[1]"]),
    ("geometry.py", "region_contains"): (
        "as `HullChain.edge_at`",
        ["return pt[1] <= a[1] if chain.side == UPPER else pt[1] >= a[1]"],
    ),
    ("geometry.py", "HullChain.vertex_index"): (
        "the lookup's answer for a point off the chain; the engine looks up only"
        " chain vertices",
        ["return None"],
    ),
}

# (argv, exit code) for `cli.main`; "{dir}" stands for the scratch
# directory that `_write_inputs` fills
CLI_CALLS = [
    (["--help"], 0),
    ([], 3),
    (["color", "{dir}/covered.json"], 0),
    (["color", "{dir}/uncovered.json", "--out", "{dir}/colors.json"], 0),
    (["color", "{dir}/covered.json", "--no-verify"], 0),
    (["color", "{dir}/covered.json", "--out", "{dir}/missing/colors.json"], 3),
    (["color", "{dir}/absent.json"], 3),
    (["color", "{dir}/not-utf8.json"], 3),
    (["color", "{dir}/malformed.json"], 3),
    (["color", "{dir}/no-key.json"], 3),
    (["color", "{dir}/not-a-list.json"], 3),
    (["color", "{dir}/bad-missing-field.json"], 3),
    (["color", "{dir}/bad-not-a-dict.json"], 3),
    (["color", "{dir}/bad-bool.json"], 3),
    (["color", "{dir}/bad-float.json"], 3),
    (["color", "{dir}/bad-zero-den.json"], 3),
    (["color", "{dir}/bad-text.json"], 3),
    (["color", "{dir}/bad-side.json"], 3),
    (["color", "{dir}/bad-unhashable-side.json"], 3),
    (["color", "{dir}/empty.json"], 0),
    (["color", "{dir}/fractions.json"], 0),
    (["color", "{dir}/coprime.json"], 0),
    (["verify", "{dir}/uncovered.json", "{dir}/colors.json"], 0),
    (["verify", "{dir}/covered.json", "{dir}/all-blue.json"], 2),
    (["verify", "{dir}/covered.json", "{dir}/all-blue.json", "--threshold", "1"], 2),
    (["verify", "{dir}/covered.json", "{dir}/all-blue.json", "--threshold", "0"], 3),
    (["verify", "{dir}/covered.json", "{dir}/short.json"], 3),
    (["verify", "{dir}/covered.json", "{dir}/malformed.json"], 3),
    (["verify", "{dir}/covered.json", "{dir}/no-key.json"], 3),
    (["oracle", "{dir}/covered.json"], 0),
    (["oracle", "{dir}/covered.json", "--all"], 0),
    (["oracle", "{dir}/edge-free.json", "--all"], 0),
    (["oracle", "{dir}/empty.json", "--all"], 0),
    (["oracle", "{dir}/covered.json", "--threshold", "1"], 4),
    (["oracle", "{dir}/covered.json", "--threshold", "0"], 3),
    (["gen", "--n", "5", "--mode", "random", "--seed", "1"], 0),
    (["gen", "--n", "9", "--mode", "covered", "--out", "{dir}/gen.json"], 0),
    (["gen", "--n", "6", "--mode", "uncovered"], 0),
    (["gen", "--n", "5", "--mode", "degenerate", "--bound", "3"], 0),  # writes a Fraction
    (["gen", "--n", "0"], 0),
    (["gen", "--n", "2", "--mode", "covered"], 3),
    (["gen", "--n", "-1"], 3),
    (["gen", "--n", "3", "--bound", "-1"], 3),
    (["gen", "--n", "3", "--mode", "sideways"], 3),
    (["render", "{dir}/covered.json"], 0),
    (["render", "{dir}/covered.json", "--coloring", "{dir}/all-blue.json",
      "--window=-3,-3,3,3", "--out", "{dir}/out.svg"], 0),
    (["render", "{dir}/fractions.json", "--window=-1/2,-1,1/2,1"], 0),
    (["render", "{dir}/covered.json", "--coloring", "{dir}/short.json"], 3),
    (["render", "{dir}/covered.json", "--window", "0,0,1"], 3),
    (["render", "{dir}/covered.json", "--window", "1,0,0,1"], 3),
    (["bench", "--sizes", "3,4", "--repeats", "2"], 0),
    (["bench", "--sizes", "3", "--csv", "{dir}/bench.csv"], 0),
    (["bench", "--sizes", "4,3"], 3),
    (["bench", "--sizes", "3,x"], 3),
    (["bench", "--sizes", "3", "--repeats", "0"], 3),
    (["validate", "{dir}/covered.json"], 0),
    (["validate", "{dir}/degenerate.json"], 2),
]


def _hp(a, b, side):
    return {"a": a, "b": b, "side": side}


def _write_inputs(folder: Path) -> None:
    """The instances and colorings `CLI_CALLS` name, all of n <= 9."""
    from hpcolor.generate import GenSpec, generate

    def instance(name, entries):
        (folder / name).write_text(json.dumps({"halfplanes": entries}))

    def coloring(name, colors):
        (folder / name).write_text(json.dumps({"colors": colors}))

    covered = generate(GenSpec(n=6, mode="covered", seed=2, bound=5))
    (folder / "covered.json").write_text(covered.to_json())
    uncovered = generate(GenSpec(n=7, mode="uncovered", seed=1, bound=5))
    (folder / "uncovered.json").write_text(uncovered.to_json())
    instance("empty.json", [])
    # y >= 1 and y <= -1 are disjoint, so no point is covered three times
    instance("edge-free.json", [_hp(0, 1, "lower"), _hp(0, -1, "upper"), _hp(2, 0, "lower")])
    instance("fractions.json", [_hp("1/2", 1, "upper"), _hp(-2, "-3/4", "lower"),
                                _hp(3, " 2 ", "lower"), _hp("-6/4", "5/2", "upper")])
    # denominators 2**p - 1 for distinct primes p are pairwise coprime, so
    # their lcm is too long to clear and the tips stay Fractions; the
    # first two boundaries are parallel, so `perturb` runs on them too
    def frac(k, p):
        return f"{k * (2**p - 1) + 1}/{2**p - 1}"

    instance("coprime.json", [
        _hp(frac(1, 211), frac(0, 223), "upper"), _hp(frac(1, 211), frac(2, 227), "lower"),
        _hp(frac(-1, 229), frac(1, 233), "lower"), _hp(frac(2, 239), frac(-1, 241), "upper"),
        _hp(frac(-2, 251), frac(0, 257), "lower"), _hp(frac(0, 263), frac(3, 269), "upper"),
    ])
    # a duplicate, a parallel pair and three boundaries through (0, 0)
    instance("degenerate.json", [_hp(1, 0, "upper"), _hp(1, 0, "upper"), _hp(1, 2, "lower"),
                                 _hp(-1, 0, "lower"), _hp(3, 0, "upper")])
    (folder / "not-utf8.json").write_bytes(b"\xff\xfe{")
    (folder / "malformed.json").write_text('{"halfplanes": [')
    (folder / "no-key.json").write_text("[]")
    (folder / "not-a-list.json").write_text('{"halfplanes": {}}')
    good = [_hp(1, 0, "upper"), _hp(-1, 0, "lower")]
    bad = {
        "missing-field": {"a": 1, "side": "upper"},
        "not-a-dict": [1, 0, "upper"],
        "bool": _hp(True, 0, "upper"),
        "float": _hp(0.5, 0, "upper"),
        "zero-den": _hp("1/0", 0, "upper"),
        "text": _hp("x/2", 0, "upper"),
        "side": _hp(1, 1, "up"),
        "unhashable-side": _hp(1, 1, ["upper"]),
    }
    for kind, entry in bad.items():
        instance(f"bad-{kind}.json", good + [entry])
    coloring("all-blue.json", ["blue"] * len(covered))
    coloring("short.json", ["blue"])


def _run_cli(folder: Path) -> list:
    """Run `CLI_CALLS`; returns the calls whose exit code differs."""
    from hpcolor import cli

    wrong = []
    for argv, want in CLI_CALLS:
        argv = [arg.replace("{dir}", str(folder)) for arg in argv]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            got = cli.main(argv)
        if got != want:
            wrong.append((argv, want, got))
    return wrong


def statements(tree) -> list:
    """(first line, lines any of which running counts as running it,
    enclosing function's qualified name) per statement.

    A compound statement counts by its header (up to its first body
    line), a simple one by all its lines.  Bare strings (docstrings)
    compile to no code and are left out, as are `raise` statements.
    """
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, ast.stmt):
                visit(child, scope)
                continue
            if not isinstance(child, ast.Raise) and not (
                isinstance(child, ast.Expr) and isinstance(child.value, ast.Constant)
            ):
                body = getattr(child, "body", None)
                end = body[0].lineno - 1 if isinstance(body, list) else child.end_lineno
                out.append((child.lineno, range(child.lineno, max(end, child.lineno) + 1), scope))
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, f"{scope}.{child.name}".lstrip(".") if named else scope)

    visit(tree, "")
    return out


def main() -> int:
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name not in SKIPPED)
    ran = {str(p): set() for p in modules}

    def on_call(frame, event, arg):
        lines = ran.get(frame.f_code.co_filename)
        if lines is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    with tempfile.TemporaryDirectory() as scratch:
        sys.settrace(on_call)
        try:
            # imported under the trace, so module-level lines count
            import test_corpus
            import test_regressions
            from hpcolor.engine import solve
            from hpcolor.model import Instance

            test_corpus.corpus_records()
            test_corpus.branch_records()
            for case in test_regressions.CASES.values():
                solve(Instance.from_json_dict(case))
            solve(Instance([]))
            _write_inputs(Path(scratch))
            wrong = _run_cli(Path(scratch))
        finally:
            sys.settrace(None)

    for argv, want, got in wrong:
        print(f"cli.main({argv}) returned {got}, expected {want}")
    # each listed text excuses one unrun statement of its function
    allowed = {key: Counter(texts) for key, (_why, texts) in KEEP.items()}
    missed = kept = total = 0
    for path in modules:
        source = path.read_text().splitlines()
        for line, span, scope in statements(ast.parse("\n".join(source))):
            total += 1
            if not ran[str(path)].isdisjoint(span):
                continue
            text = source[line - 1].split("  #")[0].strip()
            excuses = allowed.get((path.name, scope), Counter())
            if excuses[text] > 0:
                excuses[text] -= 1
                kept += 1
                continue
            missed += 1
            print(f"{path.name}:{line}: [{scope or '<module>'}] {text}")
    stale = [(key, text) for key, left in allowed.items() for text in +left]
    for (module, scope), text in stale:
        print(f"stale KEEP entry: {module} [{scope}] {text} (ran, or is gone)")
    print(
        f"{missed} of {total} statements in {len(modules)} modules never ran"
        f" ({kept} kept unrun; skipped: {', '.join(sorted(SKIPPED))})"
    )
    return 1 if missed or wrong or stale else 0

if __name__ == "__main__":
    sys.exit(main())
