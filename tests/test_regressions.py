"""Frozen instances that once defeated the engine, one per repaired branch,
plus instances that pin branches no corpus reaches.

Each was found by fuzzing against the exact verifier or by a seeded
search; the comment names the branch it exercises.  All must solve to a
certified coloring.
"""

import pytest

from hpcolor.engine import solve_detailed
from hpcolor.model import Instance
from hpcolor.verification import oracle, verify

CASES = {
    # singleton upper family where the empty-window-triangle subcase must
    # run before the catch-all (a red {l_L, r_L, r_L'} wedge otherwise)
    "singleton_needs_c2": {
        "halfplanes": [
            {"a": -16, "b": 3, "side": "upper"},
            {"a": 19, "b": -2, "side": "lower"},
            {"a": -25, "b": 9, "side": "upper"},
            {"a": -15, "b": 9, "side": "upper"},
            {"a": 30, "b": 7, "side": "upper"},
        ]
    },
    # the window's second layer never clears the right vertex: the split
    # must fall back to the last second-layer point, not go all blue
    "case_b_no_clearing_split": {
        "halfplanes": [
            {"a": 37, "b": -2, "side": "lower"},
            {"a": 13, "b": 7, "side": "upper"},
            {"a": -4, "b": 0, "side": "lower"},
            {"a": 8, "b": -2, "side": "lower"},
            {"a": -12, "b": 2, "side": "lower"},
            {"a": -39, "b": -4, "side": "lower"},
            {"a": -3, "b": 1, "side": "upper"},
            {"a": 34, "b": 5, "side": "upper"},
        ]
    },
    # mirrored single-wedge subcase: the mirror keeps the rest red
    "c1_mirror_keeps_rest_red": {
        "halfplanes": [
            {"a": -6, "b": -1, "side": "lower"},
            {"a": 0, "b": "-31/9", "side": "lower"},
            {"a": -2, "b": -9, "side": "upper"},
            {"a": 0, "b": -7, "side": "upper"},
            {"a": 4, "b": -7, "side": "lower"},
            {"a": -1, "b": -5, "side": "upper"},
            {"a": 8, "b": 9, "side": "upper"},
        ]
    },
    # window-left vertex above the pivot edge-line: the leftward re-pivot
    # walk must fire inside the second case
    "case_b_left_vertex_above_h": {
        "halfplanes": [
            {"a": -4, "b": 27, "side": "upper"},
            {"a": 16, "b": -50, "side": "lower"},
            {"a": 11, "b": -6, "side": "lower"},
            {"a": 16, "b": -50, "side": "lower"},
            {"a": 29, "b": 12, "side": "upper"},
            {"a": 40, "b": -14, "side": "lower"},
        ]
    },
    # concurrent boundaries where the first perturbation transfers badly:
    # the retry must split the degeneracy the other way
    "perturbation_transfer_retry": {
        "halfplanes": [
            {"a": -3, "b": 3, "side": "upper"},
            {"a": -1, "b": 1, "side": "upper"},
            {"a": -2, "b": 2, "side": "lower"},
            {"a": -1, "b": 4, "side": "lower"},
        ]
    },
    # masked hull anchor must stay visible to the mirrored tangent rule
    "c3_anchor_in_observation": {
        "halfplanes": [
            {"a": -17, "b": 10, "side": "lower"},
            {"a": -44, "b": -4, "side": "lower"},
            {"a": 15, "b": -11, "side": "upper"},
            {"a": 17, "b": -20, "side": "upper"},
            {"a": 33, "b": 10, "side": "lower"},
            {"a": -32, "b": 17, "side": "upper"},
            {"a": 8, "b": 14, "side": "lower"},
            {"a": -23, "b": 17, "side": "lower"},
            {"a": -40, "b": -17, "side": "upper"},
            {"a": 51, "b": -11, "side": "lower"},
        ]
    },
    # empty-window-triangle recolor: the third survivor is the vertex
    # past the window, not the window vertex itself
    "c2_recolor_prime_vertex": {
        "halfplanes": [
            {"a": 7, "b": 4, "side": "lower"},
            {"a": -3, "b": -7, "side": "upper"},
            {"a": 10, "b": 2, "side": "lower"},
            {"a": -3, "b": 7, "side": "upper"},
            {"a": 6, "b": 5, "side": "lower"},
            {"a": -4, "b": 6, "side": "lower"},
            {"a": -2, "b": "-17/3", "side": "upper"},
            {"a": -9, "b": 8, "side": "lower"},
            {"a": -8, "b": 9, "side": "lower"},
            {"a": -4, "b": 8, "side": "lower"},
        ]
    },
    # the catch-all's global recolor applies only to a real blue wedge
    "c4_recolor_needs_real_wedge": {
        "halfplanes": [
            {"a": -63, "b": -35, "side": "lower"},
            {"a": -34, "b": -5, "side": "upper"},
            {"a": 77, "b": -33, "side": "upper"},
            {"a": -82, "b": 9, "side": "lower"},
            {"a": 30, "b": 40, "side": "lower"},
            {"a": -5, "b": 1, "side": "lower"},
            {"a": 47, "b": -42, "side": "upper"},
            {"a": 39, "b": -37, "side": "upper"},
            {"a": -25, "b": -7, "side": "lower"},
        ]
    },
    # the empty-window-triangle recolor fires (`hpcolor gen --n 9 --mode
    # covered --seed 109370 --bound 6`); in the mirror frame the same
    # body serves its left-hand twin
    "c2_recolor_fires": {
        "halfplanes": [
            {"a": 40, "b": -1, "side": "upper"},
            {"a": 10, "b": 5, "side": "lower"},
            {"a": -35, "b": 4, "side": "upper"},
            {"a": 13, "b": 2, "side": "lower"},
            {"a": 35, "b": -6, "side": "upper"},
            {"a": 26, "b": -2, "side": "upper"},
            {"a": -38, "b": -4, "side": "upper"},
            {"a": -24, "b": -1, "side": "lower"},
            {"a": -6, "b": -3, "side": "upper"},
        ]
    },
    # the catch-all's left recolor fires (`hpcolor gen --n 12 --mode random
    # --seed 106264 --bound 3`); in the mirror frame the same body serves
    # the right-hand one
    "c4_recolor_fires": {
        "halfplanes": [
            {"a": 3, "b": -3, "side": "upper"},
            {"a": 0, "b": 3, "side": "lower"},
            {"a": 2, "b": 0, "side": "lower"},
            {"a": 1, "b": 0, "side": "lower"},
            {"a": 3, "b": 1, "side": "lower"},
            {"a": -3, "b": -2, "side": "lower"},
            {"a": 2, "b": -3, "side": "upper"},
            {"a": -3, "b": 3, "side": "lower"},
            {"a": 1, "b": 2, "side": "lower"},
            {"a": -2, "b": 1, "side": "upper"},
            {"a": -2, "b": 0, "side": "lower"},
            {"a": 2, "b": -2, "side": "lower"},
        ]
    },
    # the low-tangent test meets a lower point below line(l_U, l_L') and
    # the above-uppers test an upper point above line(l_L', l_L), both in
    # the catch-all's recolor check (`hpcolor gen --n 8 --mode random
    # --seed 2689 --bound 25`, path C/c4/obs3x/obs3/obs3)
    "c4_recolor_check_fails": {
        "halfplanes": [
            {"a": -14, "b": 4, "side": "upper"},
            {"a": 5, "b": 12, "side": "lower"},
            {"a": -6, "b": 23, "side": "lower"},
            {"a": 23, "b": 19, "side": "upper"},
            {"a": 16, "b": -14, "side": "lower"},
            {"a": -1, "b": 11, "side": "upper"},
            {"a": 5, "b": 7, "side": "upper"},
            {"a": -10, "b": 19, "side": "upper"},
        ]
    },
    # the low-tangent test meets a lower point below line(l_U, l_L) in
    # the empty-window-triangle recolor check (`hpcolor gen --n 14 --mode
    # covered --seed 4005 --bound 3`, path C/c2r/obs3x/obs3 at attempt 1)
    "c2_recolor_check_fails": {
        "halfplanes": [
            {"a": -15, "b": 1, "side": "upper"},
            {"a": -17, "b": 2, "side": "upper"},
            {"a": -29, "b": -1, "side": "upper"},
            {"a": 51, "b": 2, "side": "upper"},
            {"a": 56, "b": -1, "side": "upper"},
            {"a": -37, "b": 2, "side": "upper"},
            {"a": -59, "b": 2, "side": "lower"},
            {"a": 44, "b": -3, "side": "upper"},
            {"a": -53, "b": 1, "side": "lower"},
            {"a": 6, "b": -1, "side": "upper"},
            {"a": -23, "b": -1, "side": "upper"},
            {"a": -11, "b": 3, "side": "lower"},
            {"a": -22, "b": 0, "side": "upper"},
            {"a": 30, "b": 3, "side": "upper"},
        ]
    },
}

# the case-path label each of these instances must reach
LABELS = {"c2_recolor_fires": "c2r!", "c4_recolor_fires": "c4!l"}


@pytest.mark.parametrize("name", sorted(CASES))
def test_regression(name):
    inst = Instance.from_json_dict(CASES[name])
    result = solve_detailed(inst)
    assert verify(inst, result.colors, 3) is None, result.case_path
    if name in LABELS:
        assert LABELS[name] in result.case_path, result.case_path
    if len(inst) <= 10:
        assert oracle(inst, 3) is not None
