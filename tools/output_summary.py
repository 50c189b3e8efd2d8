"""Summarise an output tree, or compare it with a summary.

Usage: python tools/output_summary.py TREE > tests/preset_summary.json

TREE is typically a run of tools/preset_outputs.py.  Per file: a CSV's row
count, header (null if its first row is numbers) and per column the count,
sum, sum of squares, min and max (a column whose first value is an integer
is read and summed as integers, exactly); a JSON document itself; a PGM's
header and mean pixel value.  moves() compares two summaries.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np

# Relative, for values such as a map column's sum.  The absolute floor is for
# round-off-sized values: the BIE sidecar's reciprocity_defect (about 5e-16)
# moves 4% between OPENBLAS_NUM_THREADS=1 and 2, but only 1.8e-17 in absolute terms.
RTOL, ATOL = 1e-9, 1e-12


def _close(a, b):
    close = a == b or abs(a - b) <= RTOL * max(abs(a), abs(b)) + ATOL
    return close or math.isnan(a) and math.isnan(b)


def _stats(column):
    values = column.tolist()
    add = math.fsum if column.dtype.kind == "f" else sum   # fsum: exactly rounded, in any order
    return {"count": len(values), "sum": add(values), "sumsq": add(v * v for v in values),
            "min": min(values), "max": max(values)}


def _csv(path):
    with open(path) as f:
        first, second = (f.readline().rstrip("\r\n").split(",") for _ in range(2))
    try:
        [float(v) for v in first]
        header, row = None, first
    except ValueError:
        header, row = first, second
    kinds = [np.int64 if v.lstrip("-").isdigit() else np.float64 for v in row]
    table = np.loadtxt(path, delimiter=",", skiprows=0 if header is None else 1, ndmin=1,
                       dtype=[(str(i), kind) for i, kind in enumerate(kinds)])
    names = header or [str(i) for i in range(len(kinds))]
    return {"rows": len(table), "header": header,
            "columns": {name: _stats(table[str(i)]) for i, name in enumerate(names)}}


def _pgm(path):
    *head, pixels = path.read_bytes().split(b"\n", 3)   # "P5", "nx ny", "255", the bytes
    return {"header": b" ".join(head).decode(), "mean": sum(pixels) / len(pixels)}


def summarize(tree):
    """Path under tree -> the summary of that file, for every file of tree."""
    readers = {".csv": _csv, ".json": lambda p: json.loads(p.read_text()), ".pgm": _pgm}
    return {p.relative_to(tree).as_posix(): readers[p.suffix](p)
            for p in sorted(Path(tree).rglob("*")) if p.is_file()}


class Moves:
    """The moves beyond tolerance per key of one file's summary, and its other changes."""

    def __init__(self):
        self.moved, self.breaks = {}, []   # key -> (largest relative move, count)

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
        elif type(a) is float and type(b) is float:
            if not _close(a, b):
                largest, count = self.moved.get(key, (0.0, 0))
                self.moved[key] = max(largest, abs(b - a) / max(abs(a), abs(b))), count + 1
        elif a != b or type(a) is not type(b):
            self.breaks.append(f"{key} {a!r} -> {b!r}")


def moves(pinned, current):
    """One line per file whose summary moved beyond tolerance or changed
    otherwise, and one per file that only one of the summaries holds."""
    lines = []
    for name in sorted(pinned.keys() | current.keys()):
        if name not in pinned or name not in current:
            lines.append(f"{name}: only in the {'pinned' if name in pinned else 'current'} summary")
            continue
        m = Moves()
        m.json("", pinned[name], current[name])
        parts = [f"{k} {rel:.3g} ({count} moved)" for k, (rel, count) in m.moved.items()]
        if parts or m.breaks:
            lines.append(f"{name}: {'; '.join(parts + m.breaks)}")
    return lines


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    print(json.dumps(summarize(Path(sys.argv[1])), indent=1, sort_keys=True))
