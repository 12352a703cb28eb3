"""Command-line surface: color, verify, oracle, gen, render, bench.

Exit codes: 0 success, 2 verification failure (or no good coloring for
`oracle` signalled as 4), 3 invalid input / oversize, 4 oracle found no
coloring.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .bench import run_bench
from .engine import InternalError, solve_detailed
from .generate import MODES, GenSpec, generate
from .model import (
    Instance,
    InstanceFormatError,
    coloring_from_json,
    coloring_to_json,
    validate,
)
from .render import render_svg
from .rationals import parse_scalar
from .verification import VerifyError, good_colorings, verify

EXIT_OK = 0
EXIT_VIOLATION = 2
EXIT_BAD_INPUT = 3
EXIT_NO_COLORING = 4


def _read_instance(path: str) -> Instance:
    try:
        return Instance.from_json(Path(path).read_text())
    except (OSError, UnicodeDecodeError, InstanceFormatError) as exc:
        raise SystemExit(_fail(f"cannot read instance: {exc}"))


def _read_coloring(path: str) -> list:
    try:
        return coloring_from_json(Path(path).read_text())
    except (OSError, UnicodeDecodeError, InstanceFormatError) as exc:
        raise SystemExit(_fail(f"cannot read coloring: {exc}"))


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_BAD_INPUT


def _emit(text: str, path) -> int:
    """Write text to path, or to stdout without one; unwritable is exit 3."""
    if not path:
        sys.stdout.write(text)
        return EXIT_OK
    try:
        Path(path).write_text(text)
    except OSError as exc:
        return _fail(f"cannot write output: {exc}")
    return EXIT_OK


def cmd_color(args) -> int:
    inst = _read_instance(args.instance)
    try:
        result = solve_detailed(inst, check=not args.no_verify)
    except InternalError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    return _emit(coloring_to_json(result.colors), args.out)


def cmd_verify(args) -> int:
    inst = _read_instance(args.instance)
    colors = _read_coloring(args.coloring)
    try:
        violation = verify(inst, colors, args.threshold)
    except VerifyError as exc:
        return _fail(str(exc))
    if violation is None:
        print("Ok")
        return EXIT_OK
    sys.stdout.write(violation.to_json())
    return EXIT_VIOLATION


def cmd_oracle(args) -> int:
    inst = _read_instance(args.instance)
    try:
        colorings = good_colorings(inst, args.threshold)
    except VerifyError as exc:  # oversize, or a threshold below 1
        return _fail(str(exc))
    found = False
    for colors in colorings:
        sys.stdout.write(coloring_to_json(colors))
        found = True
        if not args.all:
            break
    if not found:
        print("no good coloring exists", file=sys.stderr)
        return EXIT_NO_COLORING
    return EXIT_OK


def cmd_gen(args) -> int:
    try:
        inst = generate(GenSpec(n=args.n, mode=args.mode, seed=args.seed, bound=args.bound))
    except ValueError as exc:
        return _fail(str(exc))
    return _emit(inst.to_json(), args.out)


def cmd_render(args) -> int:
    inst = _read_instance(args.instance)
    colors = None
    if args.coloring:
        colors = _read_coloring(args.coloring)
        if len(colors) != len(inst):
            return _fail("coloring length mismatch")
    try:
        window = tuple(parse_scalar(v) for v in args.window.split(","))
        if len(window) != 4:
            raise ValueError("need x0,y0,x1,y1")
        svg = render_svg(inst, colors, window)
    except ValueError as exc:
        return _fail(str(exc))
    return _emit(svg, args.out)


def cmd_bench(args) -> int:
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s]
    except ValueError:
        return _fail("sizes must be a comma-separated integer list")
    if sizes != sorted(sizes):
        return _fail("sizes must be ascending")
    try:
        records = run_bench(sizes, seed=args.seed, repeats=args.repeats)
    except ValueError as exc:
        return _fail(str(exc))
    rows = ["n,seconds,case_path"] + [r.csv_row() for r in records]
    return _emit("\n".join(rows) + "\n", args.csv)


def cmd_validate(args) -> int:
    inst = _read_instance(args.instance)
    report = validate(inst)
    print(report.describe())
    return EXIT_OK if report.ok else EXIT_VIOLATION


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hpcolor",
        description="2-color half-planes so every triply covered point sees both colors",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("color", help="compute and verify a coloring")
    p.add_argument("instance")
    p.add_argument("--out", help="write the coloring JSON here")
    p.add_argument("--no-verify", action="store_true", help="skip certification")
    p.set_defaults(fn=cmd_color)

    p = sub.add_parser("verify", help="check a coloring at a depth threshold")
    p.add_argument("instance")
    p.add_argument("coloring")
    p.add_argument("--threshold", type=int, default=3)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("oracle", help="exhaustive coloring search (n <= 20)")
    p.add_argument("instance")
    p.add_argument("--threshold", type=int, default=3)
    p.add_argument("--all", action="store_true", help="print every good coloring")
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("gen", help="generate a seeded instance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", default="random", choices=MODES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bound", type=int, default=50)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("render", help="emit an SVG of the arrangement")
    p.add_argument("instance")
    p.add_argument("--coloring")
    p.add_argument("--window", default="-10,-10,10,10")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_render)

    p = sub.add_parser("bench", help="time the solver across sizes")
    p.add_argument("--sizes", required=True, help="ascending comma list, e.g. 1024,2048")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv", help="write records here instead of stdout")
    p.add_argument("--repeats", type=int, default=1)
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("validate", help="report general-position violations")
    p.add_argument("instance")
    p.set_defaults(fn=cmd_validate)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        if exc.code in (0, None):
            return EXIT_OK
        return EXIT_BAD_INPUT
    try:
        return args.fn(args)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_BAD_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
