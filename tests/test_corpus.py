"""Frozen coloring corpus: the engine's output must not drift.

`tests/data/coloring_corpus.json` holds one record per seeded instance
(every generator mode, n from 3 to 256, seeds 0-3, bound max(64, 4n))
with the sha256 of ``repr((colors, case_path, attempts))`` from
``solve_detailed(inst, check=False)``.  A refactor that keeps the
engine's behaviour keeps every digest; the fixture is never rewritten
to follow a change.
"""

import hashlib
import json
from pathlib import Path

from hpcolor.engine import solve_detailed
from hpcolor.generate import MODES, GenSpec, generate

CORPUS = Path(__file__).parent / "data" / "coloring_corpus.json"
SIZES = (3, 4, 5, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256)
SEEDS = range(4)


def corpus_records() -> list:
    records = []
    for mode in MODES:
        for n in SIZES:
            for seed in SEEDS:
                inst = generate(GenSpec(n=n, mode=mode, seed=seed, bound=max(64, 4 * n)))
                r = solve_detailed(inst, check=False)
                digest = hashlib.sha256(
                    repr((r.colors, r.case_path, r.attempts)).encode()
                ).hexdigest()
                records.append({"mode": mode, "n": n, "seed": seed, "sha256": digest})
    return records


def test_coloring_corpus_unchanged():
    frozen = json.loads(CORPUS.read_text())
    assert len(frozen) == len(MODES) * len(SIZES) * len(SEEDS)
    drifted = [
        (want["mode"], want["n"], want["seed"])
        for want, got in zip(frozen, corpus_records())
        if want != got
    ]
    assert not drifted, f"{len(drifted)} instances changed, first {drifted[:5]}"
