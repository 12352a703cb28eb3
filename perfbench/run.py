"""End-to-end benchmark of `hpcolor color`, with a traced per-layer run.

Run from the repository root, one workload per process:

    python3 perfbench/run.py --workload covered-engine --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Each workload is a closed loop with one caller: it generates its
instance files from the seed, then calls `hpcolor.cli.main(["color",
...])` in-process on them, pass after pass, until `--seconds` have gone
and the pass is complete.  Every output is checked afterwards by
check.py, which shares no code with the program.  With `--trace 1` a
second, traced loop follows the untraced one and gives per-layer self
times and counts (see tracing.py).  Timings are scaled to a reference
machine speed (see speed.py).  `--workload all` runs every workload,
each in its own process.

The last line of standard output is one JSON object: `correct` (no
output failed its check), `attempted`, `failed` and `metrics`, the
end-to-end metrics with `--trace 0` and the per-layer ones with
`--trace 1`.  A metric that is undefined (a latency when nothing passed)
is null.  NOTES.md explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from check import check_coloring
from speed import Speed
from tracing import ROOT, Tracer
from workloads import WORKLOADS, build

SETUP_REPS = 3  # set-up runs per benchmark run; setup_s is their median
TAIL_BEYOND = 10  # instances the tail latency must have above it
CAUSES = ("RecursionError", "InternalError", "other exception", "non-zero exit", "failed check")

E2E_UNITS = {
    "inst_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "pass_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


@dataclass
class Call:
    instance: int
    start: float  # perf_counter() when the call began
    seconds: float
    code: int | None  # exit code; None when an exception escaped
    error: str | None  # class name of the escaped exception
    stderr: str  # what the call wrote to stderr, or the end of its traceback
    output: str | None  # sha256 of the coloring file, when one was written


def load_program(root: Path) -> tuple[float, float]:
    """Import hpcolor from the checkout's sources; returns (start, seconds)."""
    src = root / "src"
    if not (src / "hpcolor" / "__init__.py").is_file():
        sys.exit("error: no src/hpcolor here; run from the root of an hpcolor checkout")
    t0 = time.perf_counter()
    sys.path.insert(0, str(src))
    import hpcolor.cli  # noqa: F401

    elapsed = time.perf_counter() - t0
    if not Path(sys.modules["hpcolor"].__file__).resolve().is_relative_to(src.resolve()):
        sys.exit("error: hpcolor was imported from outside src/")
    return t0, elapsed


def set_up(items: list, workdir: Path, speed: Speed) -> tuple[list, float, float]:
    """Generate and write the instances SETUP_REPS times.

    Returns the paths, the median set-up seconds and the median
    generation seconds per instance, both scaled by `speed`.
    """
    setups, gens = [], []
    for _ in range(SETUP_REPS):
        setup = gen = 0.0
        paths = []
        for k, item in enumerate(items):
            speed.maybe_probe()
            t0 = time.perf_counter()
            inst = build(item)
            t1 = time.perf_counter()
            path = workdir / f"inst-{k:03d}.json"
            path.write_text(inst.to_json())
            t2 = time.perf_counter()
            factor = speed.factor(t0)
            setup += (t2 - t0) * factor
            gen += (t1 - t0) * factor
            paths.append(path)
        setups.append(setup)
        gens.append(gen)
    return paths, statistics.median(setups), statistics.median(gens) / len(items)


def run_loop(paths: list, color_args: tuple, workdir: Path, seconds: float, outputs: dict, speed: Speed, tracer=None) -> list:
    """Color the instances pass after pass until `seconds` have gone and
    the pass is complete (or 2 * `seconds` have gone).

    Each distinct coloring is kept once in `outputs`, keyed by (instance,
    sha256), so memory does not grow with the number of calls.
    """
    from hpcolor import cli

    out = workdir / "out.json"
    calls = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= 2 * seconds or (elapsed >= seconds and len(calls) % len(paths) == 0):
            return calls
        k = len(calls) % len(paths)
        out.unlink(missing_ok=True)
        argv = ["color", str(paths[k]), "--out", str(out), *color_args]
        sink, err = io.StringIO(), io.StringIO()
        speed.maybe_probe()
        if tracer is not None:
            tracer.instance = len(calls)
            span = tracer.begin(ROOT)
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code, error = cli.main(argv), None
            except Exception as exc:  # an escaped exception is a failure, classified below
                code, error = None, exc
            dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.end(span)
        if error is not None:
            err.write("".join(traceback.format_exception(error, limit=-3)))
            error = type(error).__name__
        digest = None
        if code == 0 and out.exists():
            text = out.read_text()
            digest = hashlib.sha256(text.encode()).hexdigest()
            outputs.setdefault((k, digest), text)
        calls.append(Call(k, t0, dt, code, error, err.getvalue(), digest))


def failure_cause(call: Call, texts: list, outputs: dict, checked: dict, seed: int, lines: int) -> str | None:
    """Which of CAUSES made this call fail, or None when it passed."""
    if call.error == "RecursionError":
        return "RecursionError"
    if call.error == "InternalError" or (call.code == 2 and call.stderr.startswith("verification failed:")):
        return "InternalError"
    if call.error is not None:
        return "other exception"
    if call.code != 0:
        return "non-zero exit"
    key = (call.instance, call.output)
    if key not in checked:
        checked[key] = _check(texts[call.instance], outputs.get(key), seed, call.instance, lines)
    return "failed check" if checked[key] else None


def _check(instance_text: str, output: str | None, seed: int, k: int, lines: int) -> str | None:
    if output is None:
        return "exit 0 but no coloring written"
    try:
        colors = json.loads(output)["colors"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable coloring: {exc}"
    if not isinstance(colors, list):
        return "colors is not a list"
    return check_coloring(instance_text, colors, random.Random(f"check:{seed}:{k}"), lines)


def tail(samples: list) -> tuple[float | None, float | None]:
    """(value, percentile) of the highest sample with TAIL_BEYOND samples above it."""
    if len(samples) <= TAIL_BEYOND:
        return None, None
    ordered = sorted(samples)
    n = len(ordered)
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def summarize(calls: list, causes: list, factors: list) -> dict:
    """End-to-end timings from each instance's median scaled call time.

    An instance passes when all of its calls pass; `inst_per_s` divides
    the instances that passed by the time one pass over all of them
    takes, failures included.
    """
    times: dict = {}
    ok: dict = {}
    for call, cause, factor in zip(calls, causes, factors):
        times.setdefault(call.instance, []).append(call.seconds * factor)
        ok[call.instance] = ok.get(call.instance, True) and cause is None
    per_instance = {k: statistics.median(v) for k, v in times.items()}
    passed = [per_instance[k] for k in per_instance if ok[k]]
    value, pct = tail(passed)
    return {
        "attempted": len(calls),
        "instances": len(per_instance),
        "passed": len(passed),
        "inst_per_s": len(passed) / sum(per_instance.values()),
        "wall_inst_per_s": sum(c is None for c in causes) / sum(c.seconds for c in calls),
        "latency_p50_s": statistics.median(passed) if passed else None,
        "latency_tail_s": value,
        "tail_pct": pct,
        "pass_frac": sum(c is None for c in causes) / len(calls),
    }


def _fmt(value) -> str:
    return "undefined" if value is None else f"{value:.6g}"


def run_workload(args) -> int:
    root = Path.cwd()
    import_at, import_s = load_program(root)
    import hpcolor.kernels

    workload = WORKLOADS[args.workload]
    workdir = root / "perfbench" / "out" / f"{workload.name}-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    speed = Speed()
    items = workload.items(args.seed)
    paths, setup_s, gen_s = set_up(items, workdir, speed)
    setup_s += import_s * speed.factor(import_at)
    texts = [p.read_text() for p in paths]
    fingerprint = hashlib.sha256("".join(texts).encode()).hexdigest()
    sizes = [it.n for it in items]
    print(f"# workload {workload.name}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print(
        f"# python {sys.version.split()[0]}  kernel {hpcolor.kernels.ACTIVE}  nproc {os.cpu_count()}"
        f"  recursionlimit {sys.getrecursionlimit()}"
    )
    print(f"# inputs {len(items)} instances  n {min(sizes)}..{max(sizes)}  sha256 {fingerprint}")

    outputs: dict = {}
    checked: dict = {}
    calls = run_loop(paths, workload.color_args, workdir, args.seconds, outputs, speed)
    causes = [failure_cause(c, texts, outputs, checked, args.seed, workload.check_lines) for c in calls]
    factors = [speed.factor(c.start) for c in calls]
    e2e = summarize(calls, causes, factors)
    e2e["setup_s"] = setup_s
    e2e["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed = sum(c is not None for c in causes)

    first_outputs = {}
    for c in calls:
        first_outputs.setdefault(c.instance, c.output or "")
    digest = hashlib.sha256("".join(first_outputs[k] for k in sorted(first_outputs)).encode()).hexdigest()
    print(f"# coloring digest {digest}")
    print(
        f"# {e2e['attempted']} calls over {e2e['instances']} instances; speed factor median"
        f" {statistics.median(factors):.3f}; unscaled wall-clock rate {e2e['wall_inst_per_s']:.6g} 1/s"
    )
    print(f"# failures {failed}/{len(calls)}: " + ", ".join(f"{c} {causes.count(c)}" for c in CAUSES))
    examples: dict = {}
    for call, cause in zip(calls, causes):
        if cause == "failed check":
            examples.setdefault(cause, checked[(call.instance, call.output)])
        elif cause:
            examples.setdefault(cause, (call.stderr.strip().splitlines() or [""])[-1])
    for cause, text in examples.items():
        print(f"#   first {cause}: {text[:200]}")
    print(f"{workload.name}  fail_frac  {failed / len(calls):.6g}  ratio")
    for name, unit in E2E_UNITS.items():
        note = ""
        if name == "latency_tail_s" and e2e["tail_pct"] is not None:
            note = f"  (p{e2e['tail_pct']:.1f} of {e2e['passed']} instances)"
        elif name in ("inst_per_s", "latency_p50_s") and not e2e["passed"]:
            note = "  (no instance passed)"
        print(f"{workload.name}  {name}  {_fmt(e2e[name])}  {unit}{note}")
    metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in E2E_UNITS.items()}
    correct = "failed check" not in causes

    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_loop(paths, workload.color_args, workdir, args.seconds, outputs, speed, tracer)
        finally:
            tracer.uninstall()
        tracer.write_spans(workdir / "spans.jsonl")
        missing = tracer.missing(workload.expect_fired)
        if missing:
            sys.exit(f"error: wrappers never fired on {workload.name}: {', '.join(missing)}")
        traced_causes = [
            failure_cause(c, texts, outputs, checked, args.seed, workload.check_lines) for c in traced
        ]
        failed += sum(c is not None for c in traced_causes)
        correct = correct and "failed check" not in traced_causes
        calls += traced
        traced_factors = [speed.factor(c.start) for c in traced]
        layers = tracer.per_instance(traced_factors)
        layers["generate.s"] = gen_s
        traced_ips = summarize(traced, traced_causes, traced_factors)["inst_per_s"]
        layers["trace.overhead_frac"] = e2e["inst_per_s"] / traced_ips - 1 if traced_ips else None
        print(f"# traced {len(traced)} calls; spans in {workdir / 'spans.jsonl'}")
        for name, value in layers.items():
            print(f"{workload.name}  {name}  {_fmt(value)}  {_layer_unit(name)}")
        metrics = {name: {"value": value, "unit": _layer_unit(name)} for name, value in layers.items()}

    print(json.dumps({"correct": correct, "attempted": len(calls), "failed": failed, "metrics": metrics}))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_s") or name == "generate.s":
        return "s"
    if name.endswith("_frac") or name.startswith("engine.path."):
        return "ratio"
    return "count"


def run_all(args) -> int:
    """Every workload in its own process; prints one table at the end."""
    rows, results = [], {}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed)]
        cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        lines = proc.stdout.splitlines()
        results[name] = json.loads(lines[-1])
        rows += [line for line in lines[:-1] if line.startswith(name + "  ")]
    print("# summary")
    print("\n".join(rows))
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
            }
        )
    )
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
