"""Frozen coloring corpora: the engine's output must not drift.

`tests/data/coloring_corpus.json` holds one record per seeded instance
(every generator mode, n from 3 to 256, seeds 0-3, bound max(64, 4n))
with the sha256 of ``repr((colors, case_path, attempts))`` from
``solve_detailed(inst, check=False)``.  `tests/data/branch_corpus.json`
uses the same digest over 2,000 small instances drawn so that the case
machine's rare branches (mirrored frames, pivot walks, the observations'
mirror) are reached.  A refactor that keeps the engine's behaviour keeps
every digest; the fixtures are never rewritten to follow a change.
"""

import hashlib
import json
import random
from pathlib import Path

from hpcolor.engine import solve_detailed
from hpcolor.generate import MODES, GenSpec, generate

DATA = Path(__file__).parent / "data"
CORPUS = DATA / "coloring_corpus.json"
BRANCH_CORPUS = DATA / "branch_corpus.json"
SIZES = (3, 4, 5, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256)
SEEDS = range(4)

BRANCH_INSTANCES = 2000
# case-path labels the branch corpus must reach
RARE_LABELS = ("c3", "c1r", "c1l", "B^", "C>A", "D>A", "c2l", "obs3x", "cB>B", "D~y")


def solve_digest(spec: GenSpec) -> tuple:
    """(sha256 of the solve's output, its case path)."""
    r = solve_detailed(generate(spec), check=False)
    digest = hashlib.sha256(repr((r.colors, r.case_path, r.attempts)).encode()).hexdigest()
    return digest, r.case_path


def corpus_records() -> list:
    records = []
    for mode in MODES:
        for n in SIZES:
            for seed in SEEDS:
                digest, _ = solve_digest(GenSpec(n=n, mode=mode, seed=seed, bound=max(64, 4 * n)))
                records.append({"mode": mode, "n": n, "seed": seed, "sha256": digest})
    return records


def branch_records() -> tuple:
    """(records, set of every case-path label seen) over the branch grid."""
    rng = random.Random(1)
    records, labels = [], set()
    for t in range(BRANCH_INSTANCES):
        n = rng.randint(3, 40)
        mode = ("covered", "random", "degenerate")[t % 3]
        bound = rng.choice([3, 5, 25, 50, 400])
        digest, path = solve_digest(GenSpec(n=n, mode=mode, seed=t, bound=bound))
        records.append({"mode": mode, "n": n, "seed": t, "bound": bound, "sha256": digest})
        labels.update(path)
    return records, labels


def drifted(frozen: list, records: list) -> list:
    return [
        (want["mode"], want["n"], want["seed"])
        for want, got in zip(frozen, records)
        if want != got
    ]


def test_coloring_corpus_unchanged():
    frozen = json.loads(CORPUS.read_text())
    assert len(frozen) == len(MODES) * len(SIZES) * len(SEEDS)
    bad = drifted(frozen, corpus_records())
    assert not bad, f"{len(bad)} instances changed, first {bad[:5]}"


def test_branch_corpus_unchanged():
    frozen = json.loads(BRANCH_CORPUS.read_text())
    assert len(frozen) == BRANCH_INSTANCES
    records, labels = branch_records()
    bad = drifted(frozen, records)
    assert not bad, f"{len(bad)} instances changed, first {bad[:5]}"
    missing = [label for label in RARE_LABELS if label not in labels]
    assert not missing, f"branch corpus no longer reaches {missing}"
