#!/usr/bin/env python3
"""List the statements of `hpcolor/engine.py` that no frozen instance runs.

Traces `engine.py` line by line (`sys.settrace`) while it solves the
coloring-corpus grid and the branch grid of `tests/test_corpus.py`
(`corpus_records()` and `branch_records()`, so each grid is defined in
one place), then every `test_regressions.CASES` instance through
`solve`, then an empty instance.  Prints each statement that never ran,
leaving out docstrings and explicit `raise` statements (the guards of
the case split), and exits 1 if any remain.

Run from the repo root:
    python3 scripts/linetrace.py
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
ENGINE = ROOT / "src" / "hpcolor" / "engine.py"


def statement_spans(tree) -> dict:
    """First line -> the lines any of which running counts as running it.

    A compound statement counts by its header (up to its first body
    line), a simple one by all its lines.  Bare strings (docstrings)
    compile to no code and are left out, as are `raise` statements.
    """
    spans = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, ast.Raise):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue
        body = getattr(node, "body", None)
        end = body[0].lineno - 1 if isinstance(body, list) else node.end_lineno
        spans[node.lineno] = range(node.lineno, max(end, node.lineno) + 1)
    return spans


def main() -> int:
    ran = set()
    target = str(ENGINE)

    def local(frame, event, arg):
        if event == "line":
            ran.add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        return local if frame.f_code.co_filename == target else None

    sys.settrace(on_call)
    try:
        # imported under the trace, so engine.py's module-level lines count
        import test_corpus
        import test_regressions
        from hpcolor.engine import solve
        from hpcolor.model import Instance

        test_corpus.corpus_records()
        test_corpus.branch_records()
        for case in test_regressions.CASES.values():
            solve(Instance.from_json_dict(case))
        solve(Instance([]))
    finally:
        sys.settrace(None)

    source = ENGINE.read_text().splitlines()
    spans = statement_spans(ast.parse("\n".join(source)))
    missed = [line for line, span in sorted(spans.items()) if ran.isdisjoint(span)]
    for line in missed:
        print(f"engine.py:{line}: {source[line - 1].strip()}")
    print(f"{len(missed)} of {len(spans)} engine.py statements never ran")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
