"""The preset output set matches its committed summary, tests/preset_summary.json
(tools/output_summary.py), and the comparer finds what moved."""

import json
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
tool = runpy.run_path(str(ROOT / "tools" / "output_summary.py"))
summarize, moves = tool["summarize"], tool["moves"]
REGENERATE = ("python tools/preset_outputs.py OUT && "
              "python tools/output_summary.py OUT > tests/preset_summary.json")


def test_preset_outputs_match_the_pinned_summary(preset_tree):
    pinned = json.loads((ROOT / "tests" / "preset_summary.json").read_text())
    lines = moves(pinned, summarize(preset_tree[0]))
    assert not lines, "\n".join([*lines, f"if these moves are meant, regenerate: {REGENERATE}"])


def _one(value):
    return {"f.json": {"v": value}}


@pytest.mark.parametrize("pinned, current, found", [
    (_one(2.0), _one(2.0 * (1 + 5e-10)), []),
    # reciprocity_defect under OPENBLAS_NUM_THREADS=1 and 2: 4% relative, 1.8e-17 absolute
    (_one(4.49e-16), _one(4.31e-16), []),
    ({"m.csv": {"columns": {"value": {"sum": 2.0, "max": 1.0}}}},
     {"m.csv": {"columns": {"value": {"sum": 2.0 * (1 + 1e-8), "max": 1.0}}}},
     ["m.csv: columns/value/sum 1e-08 (1 moved)"]),
    ({"f.json": {"m": 3, "s": "a", "p": [1.0, 2.0]}},
     {"f.json": {"m": 4, "s": "b", "p": [2.0, 2.0]}},
     ["f.json: p/* 0.5 (1 moved); m 3 -> 4; s 'a' -> 'b'"]),
    (_one(1), _one(1.0), ["f.json: v 1 -> 1.0"]),
    ({"f.json": {"p": [1.0], "c": {"a": 1}}}, {"f.json": {"p": [1.0, 2.0], "c": {"b": 1}}},
     ["f.json: p length 1 -> 2; c keys ['a'] -> ['b']"]),
    ({**_one(1.0), "a.pgm": {}}, {**_one(1.0), "b.pgm": {}},
     ["a.pgm: only in the pinned summary", "b.pgm: only in the current summary"]),
], ids=["within-tolerance", "round-off-sized", "relative-1e-8", "int-string-list",
        "int-to-float", "shape", "one-side-only"])
def test_moves_names_every_change_beyond_tolerance(pinned, current, found):
    assert moves(pinned, current) == found
