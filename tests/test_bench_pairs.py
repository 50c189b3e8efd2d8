"""tools/bench_pairs.py: the summary of alternated parent/change pairs."""

import runpy
from pathlib import Path

BENCH_PAIRS = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
summarize = runpy.run_path(str(BENCH_PAIRS))["summarize"]


def _pairs(parent, change, name):
    return [{"parent": {name: {"value": a}}, "change": {name: {"value": b}}}
            for a, b in zip(parent, change)]


def test_summary_gives_medians_quartiles_wins_and_the_gap():
    pairs = _pairs([1.0, 1.2, 1.1, 1.3, 1.0], [0.9, 1.0, 1.15, 1.0, 0.8], "image_compare.run_s")
    assert summarize(pairs, {"run_s": True}) == [
        "image_compare.run_s: parent 1.1 (1-1.2) -> change 1 (0.9-1), -9.1%, "
        "change better in 4 of 5, gap within the parent's IQR 0.2"]


def test_summary_reads_the_declared_direction_and_skips_partial_metrics():
    pairs = _pairs([10.0, 10.0, 10.0], [12.0, 11.0, 9.0], "w.score")
    pairs[0]["change"]["w.only_once"] = {"value": 1.0}
    assert summarize(pairs, {"score": False}) == [
        "w.score: parent 10 (10-10) -> change 11 (10-11.5), +10.0%, "
        "change better in 2 of 3, gap exceeds the parent's IQR 0"]
    assert summarize([], {}) == []
