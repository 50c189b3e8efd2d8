"""Alternated benchmark pairs of two checkouts, and their summary.

Usage: python tools/bench_pairs.py PARENT_DIR CHANGE_DIR --pairs N --seconds S [--first-seed K]

Pair i runs `perfbench/run.py --workload all --seed K+i --seconds S` in both
checkouts, one after the other; even pairs run PARENT_DIR first and odd pairs
CHANGE_DIR first, so a drift in the host's speed falls on both sides alike.
Each run's last output line (run.py's JSON object) is printed as it finishes.
At the end one line per workload and end-to-end metric gives both sides'
medians and quartiles over the pairs, the change's wins (pairs in which it was
better, in the direction BENCHMARK.json declares) and whether the gap of the
medians exceeds the parent's interquartile range.  The exit code is 1 when a
run failed or reported incorrect outputs.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_side(checkout, seed, seconds):
    """run.py's final JSON object for one `--workload all` run in checkout."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", str(seed),
           "--seconds", str(seconds)]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return {"correct": False, "metrics": {}, "error": done.stderr.strip()[-500:]}
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def summarize(pairs, lower_is_better):
    """One line per metric that both sides report in every pair.  pairs is a
    list of {"parent": metrics, "change": metrics}, metrics mapping a name such
    as "image_compare.run_s" to {"value": v}; lower_is_better maps the name's
    last part to the direction."""
    if not pairs:
        return []
    names = sorted(set.intersection(*(set(p[side]) for p in pairs for side in p)))
    lines = []
    for name in names:
        old = [p["parent"][name]["value"] for p in pairs]
        new = [p["change"][name]["value"] for p in pairs]
        sign = 1.0 if lower_is_better.get(name.rsplit(".", 1)[-1], True) else -1.0
        wins = sum(sign * (b - a) < 0 for a, b in zip(old, new))
        (q1, q3), (c1, c3) = quartiles(old), quartiles(new)
        m_old, m_new = statistics.median(old), statistics.median(new)
        rel = (m_new - m_old) / m_old if m_old else 0.0
        lines.append(f"{name}: parent {m_old:.4g} ({q1:.4g}-{q3:.4g}) -> change {m_new:.4g} "
                     f"({c1:.4g}-{c3:.4g}), {rel:+.1%}, change better in {wins} of {len(pairs)}, "
                     f"gap {'exceeds' if abs(m_new - m_old) > q3 - q1 else 'within'} "
                     f"the parent's IQR {q3 - q1:.3g}")
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    lower = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
    pairs, ok = [], True
    for i in range(args.pairs):
        seed, pair = args.first_seed + i, {}
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            pair[side] = run_side(getattr(args, side), seed, args.seconds)
            ok &= pair[side]["correct"] is True
            print(f"pair {i + 1} seed {seed} {side}: {json.dumps(pair[side])}", flush=True)
        pairs.append({side: result["metrics"] for side, result in pair.items()})
    print("\n".join(summarize(pairs, lower)))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
