"""tools/output_moves.py: the per-file report of moved output values."""

import json
import runpy
from pathlib import Path

OUTPUT_MOVES = Path(__file__).resolve().parents[1] / "tools" / "output_moves.py"
compare = runpy.run_path(str(OUTPUT_MOVES))["compare"]


def _trees(tmp_path, old, new):
    for root, files in (("old", old), ("new", new)):
        for name, text in files.items():
            (tmp_path / root / name).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / root / name).write_text(text)
    return tmp_path / "old", tmp_path / "new"


def test_float_moves_are_reported_per_column_and_key(tmp_path, capsys):
    old, new = _trees(tmp_path, {
        "a/map.csv": "x,y,value\n-1.0,0.0,2.0\n1.0,0.0,4.0\n",
        "a/peaks.json": json.dumps({"m": 3, "peaks": [{"value": 8.0}, {"value": 1.0}]}),
        "a/map.pgm": "P5 a", "same.csv": "1.0\n"}, {
        "a/map.csv": "x,y,value\n-1.0,0.0,2.0000000000000004\n1.0,0.0,4.5\n",
        "a/peaks.json": json.dumps({"m": 3, "peaks": [{"value": 8.0}, {"value": 1.5}]}),
        "a/map.pgm": "P5 b", "same.csv": "1.0\n"})
    assert compare(old, new) is False
    assert capsys.readouterr().out.splitlines() == [
        "a/map.csv: value 0.111 (2 moved)",
        "a/map.pgm: differs",
        "a/peaks.json: peaks/*/value 0.333 (1 moved)",
        "3 of 4 files differ"]


def test_shapes_and_values_that_are_not_floats_break(tmp_path, capsys):
    old, new = _trees(tmp_path, {
        "rows.csv": "1.0\n2.0\n", "m.json": '{"m": 3, "ok": true}', "gone.json": "{}",
        "index.csv": "index,sigma\n1,2.0\n"}, {
        "rows.csv": "1.0\n", "m.json": '{"m": 4, "ok": true}',
        "index.csv": "index,sigma\n2,2.0\n"})
    assert compare(old, new) is True
    out = capsys.readouterr().out.splitlines()
    assert out[0] == f"gone.json: only in {old}"
    assert out[1:] == ["index.csv: no float moved; index 1 -> 2",
                       "m.json: no float moved; m 3 -> 4",
                       "rows.csv: no float moved; shape 2 rows -> 1 rows, or their widths",
                       "4 of 4 files differ"]
