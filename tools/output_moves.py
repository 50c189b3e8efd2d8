"""Report how far the values in two output trees moved, file by file.

Usage: python tools/output_moves.py OLD NEW

OLD and NEW are directory trees, typically two runs of tools/preset_outputs.py
from two versions of the package.  Files with the same bytes are skipped.  For
each other file one line is printed:

- CSV: per column, the largest relative move |new - old| / max(|old|, |new|)
  over its floats and the number of floats that moved;
- JSON: the same per key (list indices written as *), and every change of a
  value that is not a float;
- anything else (PGM, ...): that it differs.

A CSV or JSON file changes shape when its rows, columns or keys differ, and a
file found in one tree only changes the tree's shape.  The exit code is 1 when
a shape or a value that is not a float changed, else 0.
"""

import csv
import json
import math
import sys
from pathlib import Path


def _number(text):
    """A CSV field as an int, a float or, failing both, the string itself."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _rel(a, b):
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    return abs(b - a) / max(abs(a), abs(b))


class Moves:
    """The float moves per key of one file, and its breaking changes."""

    def __init__(self):
        self.largest, self.moved, self.breaks = {}, {}, []

    def value(self, key, a, b):
        if type(a) is float and type(b) is float:
            rel = _rel(a, b)
            self.largest[key] = max(self.largest.get(key, 0.0), rel)
            self.moved[key] = self.moved.get(key, 0) + (rel > 0)
        elif a != b or type(a) is not type(b):
            self.breaks.append(f"{key} {a!r} -> {b!r}")

    def json(self, key, a, b):
        if isinstance(a, dict) and isinstance(b, dict):
            if a.keys() != b.keys():
                self.breaks.append(f"{key or 'top level'} keys {sorted(a)} -> {sorted(b)}")
                return
            for k in a:
                self.json(f"{key}/{k}" if key else k, a[k], b[k])
        elif isinstance(a, list) and isinstance(b, list):
            if len(a) != len(b):
                self.breaks.append(f"{key or 'top level'} length {len(a)} -> {len(b)}")
                return
            for x, y in zip(a, b):
                self.json(f"{key}/*" if key else "*", x, y)
        else:
            self.value(key, a, b)

    def csv(self, old, new):
        a, b = (list(csv.reader(t.splitlines())) for t in (old, new))
        if [len(r) for r in a] != [len(r) for r in b]:
            self.breaks.append(f"shape {len(a)} rows -> {len(b)} rows, or their widths")
            return
        width = max(map(len, a), default=0)
        keys = a[0] if a and all(isinstance(_number(c), str) for c in a[0]) else None
        keys = keys or [f"column {i}" for i in range(width)]
        self.largest.update(dict.fromkeys(keys, 0.0))   # report in column order
        self.moved.update(dict.fromkeys(keys, 0))
        for ra, rb in zip(a, b):
            for key, x, y in zip(keys, ra, rb):
                if x != y:
                    self.value(key, _number(x), _number(y))

    def line(self):
        floats = ", ".join(f"{k} {self.largest[k]:.3g} ({self.moved[k]} moved)"
                           for k in self.largest if self.moved[k])
        return "; ".join(p for p in [floats or "no float moved", *self.breaks])


def compare(old_root, new_root):
    """Print one line per differing file; return True if any change breaks."""
    names = {p.relative_to(root) for root in (old_root, new_root)
             for p in root.rglob("*") if p.is_file()}
    broke, differ = False, 0
    for name in sorted(names):
        old, new = old_root / name, new_root / name
        if not (old.is_file() and new.is_file()):
            print(f"{name}: only in {old_root if old.is_file() else new_root}")
            broke, differ = True, differ + 1
            continue
        a, b = old.read_bytes(), new.read_bytes()
        if a == b:
            continue
        differ += 1
        if name.suffix not in (".csv", ".json"):
            print(f"{name}: differs")
            continue
        moves = Moves()
        if name.suffix == ".csv":
            moves.csv(a.decode(), b.decode())
        else:
            moves.json("", json.loads(a), json.loads(b))
        print(f"{name}: {moves.line()}")
        broke = broke or bool(moves.breaks)
    print(f"{differ} of {len(names)} files differ" if differ else "no file differs")
    return broke


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(1 if compare(Path(sys.argv[1]), Path(sys.argv[2])) else 0)
