"""crackmusic benchmark: real CLI command sequences, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of image_compare, bie_calibrate (see BENCHMARK.json for what each
runs and why), or ``all`` to run both in turn.  Run it from the root of a
checkout; the package is imported from the checkout's ``src``.

Every command runs in a fresh interpreter (perfbench/child.py), one at a time,
closed loop with one client.  ``--trace 0`` repeats the workload's command
sequence (at least once) for as many passes as bring the run's length closest
to S seconds and reports the end-to-end metrics:

  run_s        wall time from the end of set-up to process exit, summed over
               the sequence's commands; median over the iterations
  setup_s      process launch until ``cli.load_config`` returns (imports,
               preset or config build, schema validation); median over
               set-up probes and the iterations' commands
  peak_rss_mb  largest peak resident memory of the sequence's processes

``--trace 1`` runs the sequence once untraced and once with every layer's
public functions wrapped in spans, and reports the per-layer metrics: self
and total times, work counts, peak allocations, the tracing overhead and the
share of run_s the top-level spans cover.  A layer a workload never calls
reads 0.

Every iteration's outputs pass a correctness gate (workloads.py); a nonzero
exit code or a failed gate counts as failed.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.  The full
record, with provenance, goes to perfbench/_results/.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path

from spans import Profile, now, top_level_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
RESULTS = HERE / "_results"
CHILD = HERE / "child.py"

SETUP_PROBES = 8
RUN_BUDGET_S = 170.0      # a run, set-up probes included, must end within this
WORKLOAD_NAMES = ("image_compare", "bie_calibrate")


def _median(values):
    return statistics.median(values) if values else 0.0


def _quartiles(values):
    if len(values) < 2:
        return (values[0], values[0]) if values else (0.0, 0.0)
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


# --- per-layer metrics, computed from the spans of one traced iteration ---

def _ns_per(p, name, key, time_of):
    count = p.work_sum(name, key)
    return 1e9 * time_of[name] / count if count else 0.0


def _solves_used(p):
    return sum(1 for parent in p.parents["forward_bie.solve_scatter"]
               if parent == "forward_bie.assemble_msr_bie")


def _final_n_max(p):
    return max((w["nodes"] for w, parent in zip(p.work["forward_bie.solve_scatter"],
                                                 p.parents["forward_bie.solve_scatter"])
                if parent == "forward_bie.assemble_msr_bie"), default=0)


MB = 2.0 ** 20

PER_LAYER = {
    "cli.load_config.s": lambda p: p.total["cli.load_config"],
    "music.save_map_csv.s": lambda p: p.total["music.save_map_csv"],
    "music.save_map_csv.bytes": lambda p: p.work_sum("music.save_map_csv", "bytes"),
    "music.imaging_map.self_s": lambda p: p.self_time["music.imaging_map"],
    "music.imaging_map.calls": lambda p: p.calls["music.imaging_map"],
    "music.imaging_map.point_dirs": lambda p: p.work_sum("music.imaging_map", "point_dirs"),
    "music.imaging_map.ns_per_point_dir":
        lambda p: _ns_per(p, "music.imaging_map", "point_dirs", p.self_time),
    "music.imaging_map.peak_alloc_mb":
        lambda p: p.work_max("music.imaging_map", "peak_alloc_bytes") / MB,
    "music.find_peaks.s": lambda p: p.total["music.find_peaks"],
    "music.save_map_pgm.s": lambda p: p.total["music.save_map_pgm"],
    "music.svd_msr.s": lambda p: p.total["music.svd_msr"],
    "music.select_signal_dim.m": lambda p: p.work_last("music.select_signal_dim", "m"),
    "special.bessel_j0.s": lambda p: p.total["special.bessel_j0"],
    "special.bessel_j0.evals": lambda p: p.work_sum("special.bessel_j0", "evals"),
    "special.bessel_j0.ns_per_eval":
        lambda p: _ns_per(p, "special.bessel_j0", "evals", p.total),
    "theory.theory_map.self_s": lambda p: p.self_time["theory.theory_map"],
    "theory.theory_map.peak_alloc_mb":
        lambda p: p.work_max("theory.theory_map", "peak_alloc_bytes") / MB,
    "theory.phase_distance.s": lambda p: p.total["theory.phase_distance"],
    "theory.compare_maps.self_s": lambda p: p.self_time["theory.compare_maps"],
    "forward_bie.solve_scatter.self_s": lambda p: p.self_time["forward_bie.solve_scatter"],
    "forward_bie.solve_scatter.calls": lambda p: p.calls["forward_bie.solve_scatter"],
    "forward_bie.solve_scatter.nodes_max":
        lambda p: p.work_max("forward_bie.solve_scatter", "nodes"),
    "forward_bie.final_n_max": _final_n_max,
    "forward_bie.solves_used_ratio": lambda p: (
        _solves_used(p) / p.calls["forward_bie.solve_scatter"]
        if p.calls["forward_bie.solve_scatter"] else 0.0),
    "forward_bie.converged_n.s": lambda p: p.total["forward_bie.converged_n"],
    "forward_bie.farfield_bie.s": lambda p: p.total["forward_bie.farfield_bie"],
    "forward_bie.peak_alloc_mb":
        lambda p: p.work_max("forward_bie.assemble_msr_bie", "peak_alloc_bytes") / MB,
    "forward_asym.assemble_msr.s": lambda p: p.total["forward_asym.assemble_msr"],
    "forward_asym.save_msr.s": lambda p: p.total["forward_asym.save_msr"],
    "forward_asym.load_msr.s": lambda p: p.total["forward_asym.load_msr"],
    "noise.add_awgn.s": lambda p: p.total["noise.add_awgn"],
    "calibrate.calibrate_and_image.self_s":
        lambda p: p.self_time["calibrate.calibrate_and_image"],
    "calibrate.k_hat_rel_err":
        lambda p: p.work_last("calibrate.calibrate_and_image", "k_hat_rel_err"),
}


# --- running commands ---

class Runner:
    """Launches child interpreters for one workload run, within a deadline."""

    def __init__(self, run_dir, deadline):
        self.run_dir = run_dir
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))

    def launch(self, mode, cli_argv):
        """Run one command; returns (record or None, launch time, exit time)."""
        record_path = self.run_dir / "record.json"
        record_path.unlink(missing_ok=True)
        t0 = now()
        proc = subprocess.Popen([sys.executable, str(CHILD), str(record_path), mode, *cli_argv],
                                cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL)
        timer = threading.Timer(max(self.deadline - t0, 0.0), proc.kill)
        timer.start()
        try:
            rc = proc.wait()
            t_exit = now()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        if rc != 0 or not record_path.exists():
            return None, t0, t_exit
        return json.loads(record_path.read_text()), t0, t_exit


def run_iteration(runner, workload, seed, mode):
    """One pass of the workload's command sequence, then its correctness gate."""
    out = runner.run_dir / "out"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()
    it = {"mode": mode, "run_s": 0.0, "setup_s": [], "peak_rss_mb": 0.0,
          "spans": [], "top_level_s": 0.0, "problems": []}
    for argv in workload.commands(runner.run_dir, out, seed):
        rec, t0, t_exit = runner.launch(mode, argv)
        if rec is None:
            it["problems"].append(f"command failed: {' '.join(argv)}")
            return it
        it["setup_s"].append(rec["ready"] - t0)
        it["run_s"] += t_exit - rec["ready"]
        it["peak_rss_mb"] = max(it["peak_rss_mb"], rec["maxrss_mb"])
        it["spans"].append(rec["spans"])
        it["top_level_s"] += top_level_time(rec["spans"], rec["ready"])
    try:
        it["problems"] = workload.gate(out, seed)
    except (OSError, KeyError, ValueError, TypeError) as e:
        it["problems"] = [f"unreadable output: {e!r}"]
    return it


def fits_another(elapsed, done, seconds):
    """Whether one more pass, as long as the mean pass so far, brings the run's
    length closer to ``seconds`` than stopping now does."""
    return elapsed + 0.5 * elapsed / done < seconds


def run_workload(workload, seed, seconds, trace):
    """One benchmark run of a workload; returns its result record."""
    run_dir = WORK / workload.name
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    workload.prepare(run_dir)
    runner = Runner(run_dir, now() + RUN_BUDGET_S)
    first_command = workload.commands(run_dir, run_dir / "out", seed)[0]
    runner.launch("setup", first_command)       # warm-up: bytecode, page cache
    setups = []
    if not trace:
        for _ in range(SETUP_PROBES):
            rec, t0, _ = runner.launch("setup", first_command)
            if rec is not None:
                setups.append(rec["ready"] - t0)
    iterations = []
    if trace:
        iterations = [run_iteration(runner, workload, seed, "run"),
                      run_iteration(runner, workload, seed, "trace")]
    else:
        start = now()
        while not iterations or fits_another(now() - start, len(iterations), seconds):
            iterations.append(run_iteration(runner, workload, seed, "run"))
            if iterations[-1]["problems"]:
                break
    shutil.rmtree(run_dir / "out", ignore_errors=True)

    ok = [it for it in iterations if not it["problems"]]
    untraced = [it for it in ok if it["mode"] == "run"]
    for it in untraced:
        setups += it["setup_s"]
    run_s = [it["run_s"] for it in untraced]
    end_to_end = {
        "run_s": _median(run_s),
        "setup_s": _median(setups),
        "peak_rss_mb": _median([it["peak_rss_mb"] for it in untraced]),
    }
    result = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "attempted": len(iterations), "failed": len(iterations) - len(ok),
        "problems": [p for it in iterations for p in it["problems"]],
        "end_to_end": end_to_end,
        "samples": {"run_s": run_s, "setup_s": setups},
    }
    traced = [it for it in ok if it["mode"] == "trace"]
    if trace:
        p = Profile(traced[0]["spans"] if traced else [])
        per_layer = {name: fn(p) for name, fn in PER_LAYER.items()}
        t = traced[0] if traced else None
        per_layer["trace.overhead_s"] = t["run_s"] - run_s[0] if t and run_s else 0.0
        per_layer["trace.coverage"] = t["top_level_s"] / t["run_s"] if t else 0.0
        result["per_layer"] = per_layer
        result["spans"] = t["spans"] if t else []
    return result


# --- reporting ---

def provenance():
    import numpy
    import scipy
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        sha = git.stdout.strip() if git.returncode == 0 else None
    except FileNotFoundError:     # no git on this machine
        sha = None
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
    }


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if not found."""
    import ctypes
    import numpy
    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        cdll = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(cdll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def print_result(result, units):
    n_att, n_fail = result["attempted"], result["failed"]
    print(f"workload {result['workload']}  seed {result['seed']}  trace {result['trace']}  "
          f"iterations {n_att}  failed_fraction {n_fail / n_att:g} ({n_fail}/{n_att})")
    for problem in result["problems"]:
        print(f"  FAILED: {problem}")
    for name, value in result["end_to_end"].items():
        samples = result["samples"].get(name)
        extra = ""
        if samples:
            q1, q3 = _quartiles(samples)
            extra = f"  (median of {len(samples)}; q1 {q1:.6g}, q3 {q3:.6g})"
        print(f"  {name:40s} {value:14.6g} {units[name]}{extra}")
    for name, value in result.get("per_layer", {}).items():
        print(f"  {name:40s} {value:14.6g} {units[name]}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "crackmusic" / "__init__.py").is_file():
        print(f"no crackmusic package under {SRC}: run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    declared = {m["name"] for m in spec["per_layer"]}
    if declared != set(PER_LAYER) | {"trace.overhead_s", "trace.coverage"}:
        print("per-layer metrics in BENCHMARK.json and run.py disagree", file=sys.stderr)
        return 2

    prov = provenance()
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        result = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        result["provenance"] = prov
        RESULTS.mkdir(exist_ok=True)
        (RESULTS / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(result, indent=1))
        print_result(result, units)
        results.append(result)
    print("provenance " + json.dumps(prov, sort_keys=True))

    key = "per_layer" if args.trace else "end_to_end"
    prefix = len(results) > 1
    metrics = {(f"{r['workload']}.{n}" if prefix else n): {"value": v, "unit": units[n]}
               for r in results for n, v in r[key].items()}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
