"""Tests of the benchmark's own code: span arithmetic, wrapping, gates.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

import json

import numpy as np
import pytest

import layers
import workloads
from crackmusic import cli, presets, special, theory
from crackmusic.music import ImageGrid
from crackmusic.theory import TheoryParams
from run import fits_another
from spans import Profile, Tracer, top_level_time

COARSE = "-2,2,-2,2,0.05"


def test_self_time_subtracts_direct_children_only():
    spans = [["a", 0.0, 10.0, -1, {}],
             ["b", 1.0, 4.0, 0, {}],
             ["c", 2.0, 3.0, 1, {}],
             ["d", 5.0, 9.0, 0, {}],
             ["b", 20.0, 22.0, -1, {}]]
    p = Profile([spans, [["a", 0.0, 1.0, -1, {"n": 2}]]])
    assert p.total["a"] == 11.0
    assert p.self_time["a"] == 10.0 - 3.0 - 4.0 + 1.0
    assert p.self_time["b"] == (3.0 - 1.0) + 2.0
    assert p.self_time["c"] == 1.0
    assert p.calls["b"] == 2
    assert p.parents["c"] == ["b"]
    assert p.work_sum("a", "n") == 2
    assert top_level_time(spans, after=0.0) == 12.0
    assert top_level_time(spans, after=0.5) == 2.0


def _bindings(mods):
    return {(m.__name__, k): v for m in mods for k, v in vars(m).items() if callable(v)}


def test_traced_cli_run_restores_every_binding(tmp_path):
    mods = layers.modules()
    before = _bindings(mods)
    tracer = Tracer(layers.METERS, layers.MEMORY)
    tracer.install(mods)
    assert cli.assemble_msr is not before[("crackmusic.cli", "assemble_msr")]
    assert theory.bessel_j0 is special.bessel_j0
    try:
        assert cli.main(["svd", "--preset", "fig1", "--out", str(tmp_path)]) == 0
    finally:
        tracer.restore()
    assert _bindings(mods) == before
    assert [s[0] for s in tracer.spans[:3]] == ["cli.main", "cli.build_parser", "cli.load_config"]
    # the from-import binding in cli is traced, as a child of compute_msr
    (asm,) = [s for s in tracer.spans if s[0] == "forward_asym.assemble_msr"]
    assert tracer.spans[asm[3]][0] == "cli.compute_msr"
    assert (tmp_path / "spectrum.csv").exists()


def test_work_counts_and_peak_allocation_from_theory_map():
    mods = layers.modules()
    tracer = Tracer(layers.METERS, layers.MEMORY)
    tracer.install(mods)
    grid = ImageGrid(-1.0, 1.0, -1.0, 1.0, 0.1)
    params = TheoryParams(wavenumber=10.0, eta=8.0, centers=[[0.0, 0.0], [0.3, 0.1], [0.5, -0.2]])
    try:
        theory.theory_map(params, grid)
    finally:
        tracer.restore()
    p = Profile([tracer.spans])
    assert p.work_sum("special.bessel_j0", "evals") == 21 * 21 * 3
    assert p.parents["special.bessel_j0"] == ["theory.theory_map"]
    assert p.work_max("theory.theory_map", "peak_alloc_bytes") > 21 * 21 * 3 * 8


def test_a_run_takes_the_pass_count_that_ends_closest_to_its_seconds():
    assert fits_another(10.0, 1, 40.0)           # 10 s passes: a second ends at 20 s
    assert fits_another(28.0, 2, 40.0)           # a third ends at 42 s, 2 s past 40
    assert not fits_another(30.0, 1, 40.0)       # a second would end 20 s past 40
    assert not fits_another(35.0, 1, 40.0)       # a 35 s pass would end at 70 s


# --- gates ---

def _write_arc_peaks(out, shift=0.0, count=None):
    cfg = presets.preset_config("fig3")
    k, m = cfg["scene"]["wavenumber"], cfg["signal_dim"]["m"]
    curve = workloads._arc_curve(m)
    for eta in cfg["etas"]:
        pts = (k / eta) * curve
        pts[0, 1] += shift
        peaks = [{"x": x, "y": y, "value": 1.0} for x, y in pts[:count]]
        (out / f"peaks_eta{eta:g}.json").write_text(json.dumps(
            {"eta": eta, "m": m, "complete": True, "peaks": peaks}))


def test_image_gate_passes_peaks_on_the_scaled_arc(tmp_path):
    _write_arc_peaks(tmp_path)
    assert workloads.check_image(tmp_path, 1) == []


def test_image_gate_fails_on_a_shifted_peak(tmp_path):
    _write_arc_peaks(tmp_path, shift=0.1)
    problems = workloads.check_image(tmp_path, 1)
    assert len(problems) == len(presets.preset_config("fig3")["etas"])
    assert "from the scaled arc" in problems[0]


def test_image_gate_fails_on_missing_peaks(tmp_path):
    _write_arc_peaks(tmp_path, count=12)
    assert workloads.check_image(tmp_path, 1)


@pytest.fixture(scope="module")
def coarse_compare(tmp_path_factory):
    """A real `compare --preset fig4` report on a coarse grid, with its config."""
    out = tmp_path_factory.mktemp("compare")
    assert cli.main(["compare", "--preset", "fig4", "--seed", "3", "--snr-db", "30",
                     f"--grid={COARSE}", "--out", str(out)]) == 0
    cfg = presets.preset_config("fig4")
    x0, x1, y0, y1, step = (float(v) for v in COARSE.split(","))
    cfg["grid"] = {"x0": x0, "x1": x1, "y0": y0, "y1": y1, "step": step}
    return json.loads((out / "compare_eta20.json").read_text()), cfg


def test_compare_gate_agrees_with_the_cli(coarse_compare):
    report, cfg = coarse_compare
    assert workloads.check_compare_report(report, cfg, 3, 30.0, 20.0) == []


@pytest.mark.parametrize("key, factor", [("mean_dev", 1 + 1e-4), ("max_dev", 1 - 1e-4)])
def test_compare_gate_fails_on_a_perturbed_deviation(coarse_compare, key, factor):
    report, cfg = coarse_compare
    bad = {**report, key: report[key] * factor}
    assert workloads.check_compare_report(bad, cfg, 3, 30.0, 20.0)


def test_compare_gate_fails_on_lost_grid_points(coarse_compare):
    report, cfg = coarse_compare
    bad = {**report, "excluded_count": report["excluded_count"] - 1}
    assert workloads.check_compare_report(bad, cfg, 3, 30.0, 20.0)


def test_compare_gate_fails_on_another_seed(coarse_compare):
    report, cfg = coarse_compare
    assert workloads.check_compare_report(report, cfg, 4, 30.0, 20.0)


def test_calibration_gate():
    k = 2.0 * np.pi / 0.4
    good = {"reciprocity_defect": 2e-15}
    assert workloads.check_calibration(good, {"k_hat": 1.005 * k}, k) == []
    assert workloads.check_calibration(good, {"k_hat": 1.05 * k}, k)
    assert workloads.check_calibration(good, {"k_hat": 0.95 * k}, k)
    assert workloads.check_calibration({"reciprocity_defect": 1e-3}, {"k_hat": k}, k)
