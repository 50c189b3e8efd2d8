import ast
import copy
import errno
import gc
import inspect
import json
import os
import random
import re
import shlex
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import crackmusic
from crackmusic import cli, jsoncheck, load_msr, music, theory
from crackmusic.cli import main
from crackmusic.presets import PRESET_NAMES, preset_config

K1 = 2 * np.pi / 0.5
GRID_COARSE = ("--grid=-2,2,-2,2,0.02",)


def run(*argv):
    return main(list(argv))


def _arc_scene(points):
    return {"wavenumber": K1, "cracks": [{"type": "arc", "points": points}]}


def _fig1_half_lengths(half_length):
    scene = preset_config("fig1")["scene"]
    return {**scene, "cracks": [{**c, "half_length": half_length} for c in scene["cracks"]]}


def write_cfg(tmp_path, **overrides):
    cfg = preset_config("fig1")
    cfg.update(overrides)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    return str(p)


# ---- forward ----

def test_forward_writes_msr(tmp_path):
    out = tmp_path / "out"
    assert run("forward", "--preset", "fig1", "--out", str(out)) == 0
    msr = load_msr(out / "msr.csv")
    assert msr.entries.shape == (16, 16)
    meta = json.loads((out / "msr.json").read_text())
    assert meta["provenance"] == "asymptotic"
    assert meta["n"] == 16


def test_forward_noisy_is_reproducible(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run("forward", "--preset", "fig1", "--out", str(out),
                   "--snr-db", "20", "--seed", "7") == 0
        outs.append((out / "msr.csv").read_bytes())
    assert outs[0] == outs[1]
    clean = tmp_path / "clean"
    run("forward", "--preset", "fig1", "--out", str(clean))
    assert outs[0] != (clean / "msr.csv").read_bytes()


def test_forward_bie_sidecar_audit(tmp_path):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, forward="bie")
    assert run("forward", "--config", cfg, "--out", str(out)) == 0
    meta = json.loads((out / "msr.json").read_text())
    assert meta["provenance"] == "bie"
    assert meta["reciprocity_defect"] < 1e-6
    k = load_msr(out / "msr.csv").entries   # the recorded defect is ||K - K^T||_F / ||K||_F
    assert meta["reciprocity_defect"] == pytest.approx(
        np.linalg.norm(k - k.T) / np.linalg.norm(k), rel=1e-12)
    assert meta["bie_n"] == [128, 128, 128]


# ---- image ----

def test_image_outputs_and_peaks(tmp_path):
    out = tmp_path / "out"
    assert run("image", "--preset", "fig1", "--out", str(out), *GRID_COARSE) == 0
    cfg = preset_config("fig1")
    centers = np.array([c["center"] for c in cfg["scene"]["cracks"]])
    for eta in cfg["etas"]:
        tag = f"{eta:g}"
        assert (out / f"map_eta{tag}.csv").exists()
        assert (out / f"map_eta{tag}.pgm").exists()
        rep = json.loads((out / f"peaks_eta{tag}.json").read_text())
        assert rep["complete"] and len(rep["peaks"]) == 3
        targets = (K1 / eta) * centers
        for p in rep["peaks"]:
            d = np.min(np.linalg.norm(targets - np.array([p["x"], p["y"]]),
                                      axis=1))
            assert d <= 0.04    # 2 cells at step 0.02


def test_image_from_saved_msr(tmp_path):
    fwd = tmp_path / "fwd"
    run("forward", "--preset", "fig1", "--out", str(fwd))
    out = tmp_path / "img"
    assert run("image", "--preset", "fig1", "--out", str(out),
               "--msr", str(fwd / "msr.csv"), "--eta", "15", *GRID_COARSE) == 0
    assert (out / "map_eta15.csv").exists()
    assert not (out / "map_eta10.csv").exists()


def test_image_m0_warns_flat(tmp_path, capsys):
    # M = 0 is reported once per run, where M is chosen, not once per eta
    out = tmp_path / "out"
    assert run("image", "--preset", "fig1", "--out", str(out),
               "--signal-dim", "manual:0", "--eta", "10", "--eta", "15", *GRID_COARSE) == 0
    assert capsys.readouterr().err.count("M=0") == 1
    vals = np.array([float(l.split(",")[2]) for l in
                     (out / "map_eta15.csv").read_text().splitlines()[1:]])
    assert np.ptp(vals) < 1e-9
    assert run("compare", "--preset", "fig1", "--out", str(tmp_path / "cmp"),
               "--signal-dim", "manual:0", "--eta", "15", *GRID_COARSE) == 0
    assert capsys.readouterr().err.count("M=0") == 1


# ---- svd ----

def test_svd_outputs(tmp_path):
    out = tmp_path / "out"
    assert run("svd", "--preset", "fig1", "--out", str(out)) == 0
    lines = (out / "spectrum.csv").read_text().splitlines()
    sig = np.array([float(l.split(",")[2]) for l in lines[1:]])
    assert np.sum(sig > 1e-8) == 3
    sel = json.loads((out / "selection.json").read_text())
    assert sel["m"] == 3 and sel["method"] == "manual"


def test_svd_log_gap_elbow_extended(tmp_path):
    out = tmp_path / "out"
    assert run("svd", "--preset", "fig3", "--out", str(out),
               "--signal-dim", "log_gap") == 0
    sel = json.loads((out / "selection.json").read_text())
    assert 12 <= sel["m"] <= 16


# ---- theory / compare ----

def test_theory_and_compare(tmp_path):
    out = tmp_path / "t"
    assert run("theory", "--preset", "fig1", "--out", str(out),
               "--eta", "15", *GRID_COARSE) == 0
    assert (out / "theory_eta15.csv").exists()
    out2 = tmp_path / "c"
    assert run("compare", "--preset", "fig1", "--out", str(out2),
               "--eta", "15", *GRID_COARSE) == 0
    rep = json.loads((out2 / "compare_eta15.json").read_text())
    assert rep["eta"] == 15
    assert 0 <= rep["mean_dev"] <= rep["max_dev"]
    assert rep["compared_count"] > 0


# ---- calibrate ----

def test_calibrate_preset(tmp_path):
    out = tmp_path / "out"
    assert run("calibrate", "--preset", "fig4", "--out", str(out),
               *GRID_COARSE) == 0
    info = json.loads((out / "calibration.json").read_text())
    k_true = 2 * np.pi / 0.4
    assert abs(info["k_hat"] - k_true) / k_true < 0.05
    assert info["eta_used"] == 20.0
    assert (out / "map_khat.csv").exists()
    assert (out / "map_khat.pgm").exists()


def test_calibrate_m0_is_exit_3(tmp_path, capsys):
    assert run("calibrate", "--preset", "fig4", "--signal-dim", "manual:0",
               "--out", str(tmp_path / "o"), *GRID_COARSE) == 3
    assert "numeric failure: M = 0" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_calibrate_requires_section(tmp_path):
    assert run("calibrate", "--preset", "fig1",
               "--out", str(tmp_path / "o")) == 2
    assert not (tmp_path / "o").exists()


# ---- errors and exit codes ----

def test_missing_config_is_exit_2(tmp_path):
    with pytest.raises(SystemExit) as e:   # neither --config nor --preset
        run("forward", "--out", str(tmp_path / "o"))
    assert e.value.code == 2
    assert run("forward", "--config", str(tmp_path / "nope.json"),
               "--out", str(tmp_path / "o")) == 2


def test_preset_and_config_together_is_exit_2(tmp_path):
    with pytest.raises(SystemExit) as e:
        run("forward", "--preset", "fig1", "--config", str(tmp_path / "nope.json"),
            "--out", str(tmp_path / "o"))
    assert e.value.code == 2
    assert not (tmp_path / "o").exists()


def test_invalid_json_is_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run("forward", "--config", str(bad), "--out", str(tmp_path / "o")) == 2
    bad.write_bytes(b'{"seed": "\xff"}')   # not UTF-8: a config error too, not a numeric one
    assert run("forward", "--config", str(bad), "--out", str(tmp_path / "o")) == 2
    errors = capsys.readouterr().err.splitlines()
    assert len(errors) == 2 and all(e.startswith("config error: ") for e in errors)
    assert not (tmp_path / "o").exists()


def test_schema_violation_is_exit_2(tmp_path):
    cfg = write_cfg(tmp_path, forward="magic")
    assert run("forward", "--config", cfg, "--out", str(tmp_path / "o")) == 2


@pytest.mark.parametrize("flag, unparsable", [
    ("--signal-dim=banana", True), ("--signal-dim=manual:abc", True),
    ("--grid=a,1,-1,1,0.1", True), ("--grid=1,0,-1,1,0.1", False),
    ("--snr-db=nan", False), ("--eta=inf", False), ("--eta=nan", False),
    ("--signal-dim=threshold:nan", False), ("--grid=-1,1,-1,1,nan", False),
    ("--signal-dim=manual:40", False), ("--snr-db=1e308", False), ("--snr-db=-1e308", False),
], ids=["banana", "manual-abc", "grid-abc", "grid-reversed",
        "snr-nan", "eta-inf", "eta-nan", "threshold-nan", "grid-nan", "manual-above-n",
        "snr-huge", "snr-minus-huge"])
def test_bad_signal_dim_flag_is_exit_2(tmp_path, flag, unparsable):
    # a value the flag's parser rejects is an argparse error; the rest fail in load_config
    argv = ("image", "--preset", "fig1", "--out", str(tmp_path / "o"), flag)
    if unparsable:
        with pytest.raises(SystemExit) as e:
            run(*argv)
        assert e.value.code == 2
    else:
        assert run(*argv) == 2
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("grid, spans", [
    ("-1e308,1e308,-1,1,1e300", "(inf, "), ("-1,1,-1,1,1e-320", "(inf, "),
    ("-1,1,-1,1,1e-300", "(1.9999999999999998e+300, 1.9999999999999998e+300)")],
    ids=["span-overflows", "step-count-overflows", "point-count-overflows"])
def test_grid_with_an_infinite_step_count_is_exit_2(tmp_path, capsys, grid, spans):
    # every bound is finite, but x1 - x0 or (x1 - x0) / step is not, or the
    # grid has more points than an array can hold
    assert run("image", "--preset", "fig1", f"--grid={grid}", "--out", str(tmp_path / "o")) == 2
    assert f"grid: grid (x1 - x0) / step and (y1 - y0) / step are {spans}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_directions_too_many_for_an_array_is_exit_2(tmp_path, capsys):
    # 16 N^2 bytes must fit the largest array; the message names the key
    cfg = write_cfg(tmp_path, directions={"n": 1e300})
    assert run("forward", "--config", cfg, "--out", str(tmp_path / "o")) == 2
    assert "directions/n is 1e+300, but an N x N complex matrix must fit" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    # the bound itself, through load_config alone: no matrix is built
    def load(n):
        cfg = write_cfg(tmp_path, directions={"n": n})
        args = cli.build_parser().parse_args(["forward", "--config", cfg, "--out", "o"])
        return cli.load_config(args)

    assert load(759250124).cfg["directions"]["n"] == 759250124
    with pytest.raises(cli.ConfigError, match="so N is at most 759250124"):
        load(759250125)


_HUGE = "is an integer too large for a float"   # 10**400: json writes digits, float() overflows
VIOLATIONS = [   # (config overrides of fig1, what the exit-2 message names)
    ({"signal_dim": {"method": "manual"}}, "signal_dim: 'm'"),
    ({"signal_dim": {"method": "threshold"}}, "signal_dim: 'tau'"),
    ({"signal_dim": {"method": "threshold", "tau": 2.0}}, "signal_dim/tau"),
    ({"signal_dim": {"method": "log_gap", "m": 1}}, "signal_dim/m is not read by method 'log_gap'"),
    ({"signal_dim": {"method": "manual", "m": 1, "tau": 0.5}},
     "signal_dim/tau is not read by method 'manual'"),
    ({"signal_dim": {"method": "threshold", "tau": 0.5, "m": 1}},
     "signal_dim/m is not read by method 'threshold'"),
    ({"forward": "bie", "bie_n": 64}, "'bie_n'"),
    ({"theory_variant": "linear"}, "'theory_variant'"),
    ({"exclusion_radius": 0.5}, "'exclusion_radius'"),
    ({"directions": {"n": 16, "mode": "open"}}, "'mode'"),
    ({"calibration": {"y": [0.0, -1.0], "eta": 20.0, "kind": "extended"}}, "'kind'"),
    ({"calibration": {"y": [0.0, -0.0], "eta": 20.0}}, "calibration/y"),
    ({"snr_db": float("-inf")}, "snr_db"),
    ({"snr_db": 1e308}, "snr_db: 1e+308 is greater than the maximum of 300"),
    ({"snr_db": -1e308}, "snr_db: -1e+308 is less than the minimum of -300"),
    ({"scene": _fig1_half_lengths(0.4)},
     "scene/cracks/0/half_length is 0.4, but the asymptotic model sizes every crack by h = 0.05"),
    ({"scene": {"wavenumber": K1, "cracks": [{"type": "segment", "center": [0, 0]}]}},
     "'half_length' is a required property"),
    ({"scene": {"wavenumber": K1, "cracks": [{"type": "segment", "center": [0, 0],
                                              "half_length": 0.05, "x": 1}]}},
     "('x' was unexpected)"),
    ({"scene": {"wavenumber": K1, "cracks": [{"type": "arc", "points": [[0, 0], [1, 0]],
                                              "angle": 0.5}]}},
     "('angle' was unexpected)"),
    ({"scene": {**preset_config("fig1")["scene"], "wavenumber": float("nan")}},
     "scene/wavenumber"),
    ({"etas": [10.0, float("inf")]}, "etas/1"),
    ({"etas": [10 ** 400]}, f"etas/0 {_HUGE}"),
    ({"seed": 10 ** 400}, f"seed {_HUGE}"),
    ({"grid": {**preset_config("fig1")["grid"], "x1": 10 ** 400}}, f"grid/x1 {_HUGE}"),
    ({"scene": {**preset_config("fig1")["scene"], "wavenumber": 10 ** 400}},
     f"scene/wavenumber {_HUGE}"),
    ({"scene": _arc_scene([[1, 1], [1, 1]])}, "scene: arc points 0 and 1 coincide"),
    ({"scene": _arc_scene([[1, 1], [1, 1], [1.5, 1]])}, "scene: arc points 0 and 1 coincide"),
    ({"scene": _arc_scene([[1, 1], [1, 1], [1.5, 1]]), "forward": "bie"},
     "scene: arc points 0 and 1 coincide"),
]
VIOLATION_IDS = ["manual-without-m", "threshold-without-tau", "threshold-above-1",
                 "log-gap-with-m", "manual-with-tau", "threshold-with-m", "bie_n",
                 "theory_variant", "exclusion_radius", "directions-mode", "calibration-kind",
                 "calibration-origin",
                 "snr-minus-inf", "snr-huge", "snr-minus-huge", "half-length-not-h",
                 "segment-without-half-length", "segment-unknown-key",
                 "arc-with-angle", "wavenumber-nan", "eta-inf", "eta-huge-int", "seed-huge-int",
                 "grid-huge-int", "wavenumber-huge-int", "arc-points-all-coincide",
                 "arc-repeated-point", "arc-repeated-point-bie"]


@pytest.mark.parametrize("overrides, field", VIOLATIONS, ids=VIOLATION_IDS)
def test_schema_violation_names_the_field(tmp_path, capsys, overrides, field):
    cfg = write_cfg(tmp_path, **overrides)
    assert run("forward", "--config", cfg, "--out", str(tmp_path / "o")) == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("snr_db, code", [(300.0, 0), (-300.0, 0), (300.5, 2), (-300.5, 2)])
def test_snr_db_bounds_are_300_db_each_way(tmp_path, snr_db, code):
    assert run("forward", "--preset", "fig1", f"--snr-db={snr_db}", "--out", str(tmp_path / "o")) == code
    assert (tmp_path / "o").exists() == (code == 0)


@pytest.mark.parametrize("overrides, key", [
    ({"directions": {"n": 10 ** 400}}, "directions/n"), ({"forward": 10 ** 400}, "forward"),
    ({"seed": -10 ** 400}, "seed"), ({"h": float("inf")}, "h"),
    ({"forward": "a" * 5000}, "forward"), ({"directions": {"n": "1" * 3000}}, "directions/n")],
    ids=["directions-n-huge-int", "forward-huge-int", "seed-minus-huge-int", "h-inf",
         "forward-long-string", "directions-n-long-string"])
def test_a_number_no_float_holds_is_named_not_printed(tmp_path, capsys, overrides, key):
    # the number walk runs before every check that prints a value, the schema's
    # included, and a schema error prints its value cut short
    cfg = write_cfg(tmp_path, **overrides)
    assert run("forward", "--config", cfg, "--out", str(tmp_path / "o")) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and len(lines[0]) < 120 and re.search(f" {key}[ :]", lines[0]), lines
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["forward", "svd", "image"])
def test_an_infinite_snr_is_the_run_without_noise(tmp_path, command):
    # +inf dB means no noise, as no snr_db does: the same bytes, whatever the seed
    def outputs(*argv):
        out = tmp_path / f"o{len(list(tmp_path.glob('o*')))}"
        grid = GRID_COARSE if command == "image" else ()
        assert run(command, *argv, *grid, "--out", str(out)) == 0
        return {p.name: p.read_bytes() for p in out.iterdir()}

    quiet = outputs("--preset", "fig1")
    assert outputs("--preset", "fig1", "--snr-db", "inf", "--seed", "3") == quiet
    assert outputs("--config", write_cfg(tmp_path, snr_db=float("inf"))) == quiet


@pytest.mark.parametrize("command", ["forward", "image"])
def test_integral_floats_at_integer_keys_run_as_ints(tmp_path, command):
    # JSON Schema counts 3.0 as an integer, so the config passes, and the run is
    # the one with 3: numpy takes an int seed only, and n and m count things
    grid = ("--grid=-2,2,-2,2,0.04",) if command == "image" else ()
    outputs = []
    for seed, n, m in ((3, 16, 3), (3.0, 16.0, 3.0)):
        cfg = {**preset_config("fig1"), "snr_db": 20.0, "seed": seed, "directions": {"n": n},
               "signal_dim": {"method": "manual", "m": m}}
        path = tmp_path / f"{seed!r}.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / f"out_{seed!r}"
        assert run(command, "--config", str(path), *grid, "--out", str(out)) == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert len(outputs[0]) > 1 and outputs[0] == outputs[1]


def test_half_length_other_than_h_is_kept_under_bie(tmp_path):
    # the BIE sizes each segment by its own half_length and never reads h
    cfg = write_cfg(tmp_path, forward="bie", scene=_fig1_half_lengths(0.4))
    args = cli.build_parser().parse_args(["forward", "--config", cfg, "--out", "o"])
    assert [c.half_length for c in cli.load_config(args).scene.cracks] == [0.4] * 3


@pytest.mark.parametrize("command", ["image", "svd", "compare", "calibrate"])
def test_manual_above_n_in_a_config_file_is_exit_2(tmp_path, capsys, command):
    # every command that chooses M rejects M > N before --out exists
    cfg = {**preset_config("fig4"), "signal_dim": {"method": "manual", "m": 33}}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    assert run(command, "--config", str(p), "--out", str(tmp_path / "o")) == 2
    assert "signal_dim/m is 33, but M can be at most directions.n = 32" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_asym_config_without_h_is_exit_2(tmp_path, capsys):
    cfg = preset_config("fig1")
    del cfg["h"]
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    assert run("forward", "--config", str(p), "--out", str(tmp_path / "o")) == 2
    assert "'h'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flags", [(), ("--eta", "10")], ids=["plain", "with-override"])
def test_config_that_is_not_an_object_is_exit_2(tmp_path, capsys, flags):
    p = tmp_path / "list.json"
    p.write_text("[1, 2]")
    assert run("image", "--config", str(p), *flags, "--out", str(tmp_path / "o")) == 2
    assert "JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["config", "out", "msr"])
def test_os_error_on_a_given_path_is_exit_2(tmp_path, capsys, where):
    # a directory given as the config file, an existing file given as --out,
    # an --msr file that does not exist: the message names the path as given
    given = {"config": str(tmp_path), "out": str(tmp_path / "o"),
             "msr": str(tmp_path / "nonexist.csv")}[where]
    cfg = given if where == "config" else write_cfg(tmp_path)
    msr = ("--msr", given) if where == "msr" else ()
    if where == "out":
        (tmp_path / "o").write_text("")
    assert run("svd", "--config", cfg, *msr, "--out", str(tmp_path / "o")) == 2
    assert given in capsys.readouterr().err
    assert where == "out" or not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [
    ("calibrate", "--preset", "fig4", "--eta=15"),
    ("theory", "--preset", "fig1", "--msr=x.csv"),
    ("theory", "--preset", "fig1", "--seed=1"),
    ("forward", "--preset", "fig1", "--grid=-2,2,-2,2,0.04"),
    ("svd", "--preset", "fig1", "--eta=15"),
], ids=["calibrate-eta", "theory-msr", "theory-seed", "forward-grid", "svd-eta"])
def test_flag_the_command_does_not_read_is_exit_2(tmp_path, argv):
    with pytest.raises(SystemExit) as e:
        run(*argv, "--out", str(tmp_path / "o"))
    assert e.value.code == 2
    assert not (tmp_path / "o").exists()


def test_scene_file_is_schema_checked(tmp_path, capsys):
    # a scene is given inline only: {"file": path} is a malformed scene, even
    # when the file it names holds a valid one
    (tmp_path / "scene.json").write_text(json.dumps(preset_config("fig1")["scene"]))
    cfg = write_cfg(tmp_path, scene={"file": str(tmp_path / "scene.json")})
    assert run("forward", "--config", cfg, "--out", str(tmp_path / "o")) == 2
    assert "at scene:" in capsys.readouterr().err


def _set_sidecar(key, value):
    def edit(csv_path, sidecar):
        meta = json.loads(sidecar.read_text())
        meta[key] = value
        sidecar.write_text(json.dumps(meta))
    return edit


def _drop_sidecar_key(key):
    def edit(csv_path, sidecar):
        meta = json.loads(sidecar.read_text())
        del meta[key]
        sidecar.write_text(json.dumps(meta))
    return edit


def _nan_entry(csv_path, sidecar):
    rows = csv_path.read_text().splitlines()
    rows[3] = "nan," + rows[3].split(",", 1)[1]
    csv_path.write_text("\n".join(rows) + "\n")


def _odd_columns(csv_path, sidecar):
    rows = csv_path.read_text().splitlines()
    csv_path.write_text("".join(r.rsplit(",", 1)[0] + "\n" for r in rows))


def _sidecar_array(csv_path, sidecar):
    sidecar.write_text(json.dumps(list(json.loads(sidecar.read_text()).items())))


_AT = "msr.json does not match schema at"   # a schema error in the sidecar


@pytest.mark.parametrize("edit, problem", [
    (_set_sidecar("n", 12), "sidecar n = 12"),
    (_set_sidecar("convention", "obs=inc"), f"{_AT} convention: 'obs=-inc' was expected"),
    (_nan_entry, "non-finite"),
    (_odd_columns, "(16, 31)"),
    (_sidecar_array, f"{_AT} top level: [['convention', 'obs=-inc'], "),
    (_set_sidecar("n", "16"), f"{_AT} n: '16' is not of type 'integer'"),
    (_set_sidecar("n", True), f"{_AT} n: True is not of type 'integer'"),
    (_set_sidecar("wavenumber", None), f"{_AT} wavenumber: None is not of type 'number'"),
    (_set_sidecar("wavenumber", [1]), f"{_AT} wavenumber: [1] is not of type 'number'"),
    (_set_sidecar("wavenumber", "abc"), f"{_AT} wavenumber: 'abc' is not of type 'number'"),
    (_set_sidecar("wavenumber", repr(K1)),
     f"{_AT} wavenumber: {repr(K1)!r} is not of type 'number'"),
    (_set_sidecar("provenance", [1]),
     f"{_AT} provenance: [1] is not one of ['asymptotic', 'bie']"),
    (_set_sidecar("direction_mode", "open"), f"{_AT} direction_mode: 'closed' was expected"),
    (_drop_sidecar_key("direction_mode"),
     f"{_AT} top level: 'direction_mode' is a required property"),
    (_set_sidecar("wavenumber", 10 ** 400),
     "msr.json value at wavenumber is an integer too large for a float"),
    (_set_sidecar("wavenumber", float("nan")),
     "msr.json value at wavenumber must be finite, not nan"),
    (_set_sidecar("n", 10 ** 400), "msr.json value at n is an integer too large for a float"),
    (_set_sidecar("n", 10 ** 300), "sidecar n = 100000000000000000...0000000000000000000, "),
    (_set_sidecar("provenance", "x" * 5000),
     f"{_AT} provenance: 'xxxxxxxxxxxx...xxxxxxxxxxxxx' is not one of ['asymptotic', 'bie']"),
], ids=["n-mismatch", "convention", "nan-entry", "odd-columns", "sidecar-array", "n-string",
        "n-bool", "wavenumber-null", "wavenumber-list", "wavenumber-abc", "wavenumber-string",
        "provenance-list", "direction-mode-open", "direction-mode-missing",
        "wavenumber-huge-int", "wavenumber-nan", "n-huge-int", "n-300-digits",
        "provenance-long-string"])
def test_bad_msr_file_is_exit_2(tmp_path, capsys, edit, problem):
    fwd = tmp_path / "fwd"
    assert run("forward", "--preset", "fig1", "--out", str(fwd)) == 0
    edit(fwd / "msr.csv", fwd / "msr.json")
    assert run("svd", "--preset", "fig1", "--msr", str(fwd / "msr.csv"),
               "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert str(fwd / "msr.csv") in err and problem in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("source, edit, values, key", [
    ("sidecar", lambda v: {"wavenumber": v}, (10 ** 400, 10 ** 4009), "wavenumber"),
    ("sidecar", lambda v: {"n": v}, (10 ** 400, 10 ** 4009), "n"),
    ("sidecar", lambda v: {"provenance": v}, ("x" * 5000, "x" * 50000), "provenance"),
    ("config", lambda v: {v: 1}, ("x" * 4000, "x" * 40000), "top level"),
    # the checks after the schema see only integers a float holds, 309 digits at most
    ("config", lambda v: {"directions": {"n": v}}, (10 ** 40, 10 ** 300), "directions/n"),
    ("config", lambda v: {"signal_dim": {"method": "manual", "m": v}}, (10 ** 40, 10 ** 300),
     "signal_dim/m"),
], ids=["sidecar-wavenumber-huge-int", "sidecar-n-huge-int", "sidecar-provenance-long-string",
        "config-long-key", "directions-n-300-digits", "signal-dim-m-300-digits"])
def test_an_outside_value_prints_one_line_of_one_length(tmp_path, capsys, source, edit, values,
                                                         key):
    # every value from outside is quoted cut short: a value ten times as long (or
    # as long as the check lets it be) prints a line of the same length
    lengths = []
    for i, value in enumerate(values):
        fwd, out = tmp_path / f"fwd{i}", tmp_path / f"o{i}"
        if source == "sidecar":
            assert run("forward", "--preset", "fig1", "--out", str(fwd)) == 0
            meta = {**json.loads((fwd / "msr.json").read_text()), **edit(value)}
            (fwd / "msr.json").write_text(json.dumps(meta))
            argv = ["--preset", "fig1", "--msr", str(fwd / "msr.csv")]
        else:
            argv = ["--config", write_cfg(tmp_path, **edit(value))]
        capsys.readouterr()
        assert run("svd", *argv, "--out", str(out)) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and re.search(f" {key}[ :]", lines[0]), lines
        assert source == "config" or str(fwd / "msr.json") in lines[0]
        assert not out.exists()
        lengths.append(len(lines[0].replace(str(tmp_path), "")))
    assert lengths[0] == lengths[1] < 250, lengths


def test_an_integral_float_sidecar_n_reads_as_an_int(tmp_path):
    # sidecar numbers follow the config's rule: JSON Schema counts 16.0 as an integer
    fwd = tmp_path / "fwd"
    assert run("forward", "--preset", "fig1", "--out", str(fwd)) == 0
    svd = ["svd", "--preset", "fig1", "--msr", str(fwd / "msr.csv"), "--out"]
    assert run(*svd, str(tmp_path / "as_int")) == 0
    _set_sidecar("n", 16.0)(fwd / "msr.csv", fwd / "msr.json")
    assert load_msr(fwd / "msr.csv").n == 16
    assert run(*svd, str(tmp_path / "as_float")) == 0
    for name in ("spectrum.csv", "selection.json"):
        assert (tmp_path / "as_int" / name).read_bytes() == \
            (tmp_path / "as_float" / name).read_bytes()


@pytest.mark.parametrize("command, data, key, got, want", [
    ("compare", "fig2", "wavenumber", 2 * np.pi / 0.3, K1),
    ("image", "fig3", "n", 32, 16),
], ids=["compare-wavenumber", "image-n"])
def test_msr_that_does_not_match_the_config_is_exit_2(tmp_path, capsys, command, data,
                                                      key, got, want):
    # fig1's config on another preset's data: a wrong k or N gives a wrong picture
    fwd = tmp_path / "fwd"
    assert run("forward", "--preset", data, "--out", str(fwd)) == 0
    assert run(command, "--preset", "fig1", "--msr", str(fwd / "msr.csv"), "--eta", "15",
               "--out", str(tmp_path / "o"), *GRID_COARSE) == 2
    err = capsys.readouterr().err
    assert str(fwd / "msr.csv") in err
    assert f"{key} = {got!r}" in err and f"is {want!r}" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["image", "theory", "compare"])
def test_etas_with_one_file_name_tag_are_exit_2(tmp_path, capsys, command):
    # 10 and 10.000001 both print as 10 under :g, so the second eta's files
    # would overwrite the first's
    out = tmp_path / "o"
    assert run(command, "--preset", "fig1", "--eta", "10", "--eta", "10.000001",
               "--out", str(out), *GRID_COARSE) == 2
    assert "etas 10.0 and 10.000001 share the file name tag eta10" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, section, key", [
    ("image", "etas", 0), ("theory", "etas", 0), ("compare", "etas", 0),
    ("calibrate", "calibration", "eta")])
def test_a_probe_wavenumber_whose_phases_overflow_is_exit_2(tmp_path, capsys, command, section,
                                                            key):
    # 1e308 times the grid's corner coordinate 2 is inf: image wrote a map
    # that was partly nan, and the others failed later as numeric failures
    cfg = preset_config("fig4")
    cfg[section][key] = 1e308
    (tmp_path / "c.json").write_text(json.dumps(cfg))
    assert run(command, "--config", str(tmp_path / "c.json"), "--grid=-2,2,-2,2,0.5",
               "--out", str(tmp_path / "o")) == 2
    assert (f"{section}/{key} is 1e+308, but eta times the grid's largest |coordinate|, 2.0, "
            "overflows" in capsys.readouterr().err)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["forward", "image", "svd", "theory", "compare", "calibrate"])
def test_a_run_builds_its_scene_and_grid_once(tmp_path, monkeypatch, command):
    # load_config resolves the run; the commands compute from it and never parse again
    calls = dict.fromkeys(["scene_from_dict", "ImageGrid"], 0)
    for name in calls:
        def counted(*args, _name=name, _build=getattr(cli, name), **kwargs):
            calls[_name] += 1
            return _build(*args, **kwargs)
        monkeypatch.setattr(cli, name, counted)
    grid = () if command in ("forward", "svd") else ("--grid=-2,2,-2,2,0.1",)
    assert run(command, "--preset", "fig4", *grid, "--out", str(tmp_path / "o")) == 0
    assert calls == {"scene_from_dict": 1, "ImageGrid": 1}


def test_numeric_failure_is_exit_3(tmp_path, monkeypatch, capsys):
    # an SVD that does not converge fails inside the numerics, after --out exists
    def no_convergence(a, *args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")
    monkeypatch.setattr(np.linalg, "svd", no_convergence)
    assert run("svd", "--preset", "fig1", "--out", str(tmp_path / "o")) == 3
    assert "numeric failure: SVD of 16x16 MSR matrix failed" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_out_of_memory_is_exit_3(tmp_path, monkeypatch, capsys):
    def no_memory(params, grid):
        raise MemoryError("Unable to allocate the theory map")
    monkeypatch.setattr(theory, "theory_map", no_memory)
    assert run("theory", "--preset", "fig1", "--out", str(tmp_path / "o")) == 3
    assert "Unable to allocate" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_numeric_failure_keeps_an_existing_out(tmp_path, monkeypatch):
    # exit 3 removes only what the run created: the new parents of a new --out,
    # and never a directory that was there before
    def no_convergence(a, *args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")
    monkeypatch.setattr(np.linalg, "svd", no_convergence)
    (tmp_path / "old").mkdir()
    (tmp_path / "old" / "keep.txt").write_text("kept")
    assert run("svd", "--preset", "fig1", "--out", str(tmp_path / "old")) == 3
    assert (tmp_path / "old" / "keep.txt").read_text() == "kept"
    assert run("svd", "--preset", "fig1", "--out", str(tmp_path / "old" / "a" / "b")) == 3
    assert sorted(p.name for p in (tmp_path / "old").iterdir()) == ["keep.txt"]


def test_a_failed_write_is_exit_2_and_leaves_no_output(tmp_path, monkeypatch, capsys):
    # a write that fails once --out exists (here a full disk at the second map)
    # is an output error, not a config error, and it removes what the run made
    save_map_pgm, calls = music.save_map_pgm, []
    def full_disk(imap, path):
        calls.append(path)
        if len(calls) == 2:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        save_map_pgm(imap, path)
    monkeypatch.setattr(music, "save_map_pgm", full_disk)
    out = tmp_path / "a" / "b"
    assert run("image", "--preset", "fig1", "--grid=-2,2,-2,2,0.1", "--out", str(out)) == 2
    assert capsys.readouterr().err == f"output error: {out}: {os.strerror(errno.ENOSPC)}\n"
    assert len(calls) == 2 and not (tmp_path / "a").exists()


# ---- outputs: the commands yield, write_outputs writes ----

PRINTED = {   # each command's printed paths under --eta 10 --eta 15 where it takes --eta
    "forward": ["msr.csv"],
    "image": ["map_eta10.csv", "peaks_eta10.json", "map_eta15.csv", "peaks_eta15.json"],
    "svd": ["spectrum.csv", "selection.json"],
    "theory": ["theory_eta10.csv", "theory_eta15.csv"],
    "compare": ["compare_eta10.json", "compare_eta15.json"],
    "calibrate": ["calibration.json", "map_khat.csv"],
}


@pytest.mark.parametrize("command", PRINTED)
def test_stdout_lists_one_path_per_output(tmp_path, capsys, command):
    # in the order they are yielded; every other file in --out is the .pgm of a
    # listed map or the sidecar .json of a listed MSR CSV
    names, flags = PRINTED[command], cli._COMMANDS[command][1]
    argv = [command, "--preset", "fig4" if command == "calibrate" else "fig1",
            *(("--eta", "10", "--eta", "15") if "--eta" in flags else ()),
            *(("--grid=-2,2,-2,2,0.1",) if "--grid" in flags else ()), "--out", str(tmp_path)]
    assert run(*argv) == 0
    stdout, stderr = capsys.readouterr()
    assert stdout.splitlines() == [str(tmp_path / name) for name in names]
    assert stderr == ""
    assert all((tmp_path / name).is_file() for name in names)
    companions = {Path(name).stem + suffix for name in names if name.endswith(".csv")
                  for suffix in (".pgm", ".json")}
    assert {p.name for p in tmp_path.iterdir()} <= set(names) | companions


def test_write_outputs_looks_its_writers_up_when_called(tmp_path, monkeypatch):
    # perfbench's tracer rebinds module attributes: a writer bound once, at
    # import, would hide every write from a traced run
    writers = [(music, "save_map_csv"), (music, "save_map_pgm"), (music, "save_spectrum_csv"),
               (cli, "save_msr")]
    zero = {name: 0 for _, name in writers}
    calls = {}
    for module, name in writers:
        def counted(*args, _name=name, _write=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _write(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    grid = "--grid=-2,2,-2,2,0.1"
    for argv, want in [
            (["forward", "--preset", "fig1"], {"save_msr": 1}),
            (["image", "--preset", "fig1", "--eta", "10", "--eta", "15", grid],
             {"save_map_csv": 2, "save_map_pgm": 2}),
            (["svd", "--preset", "fig1"], {"save_spectrum_csv": 1}),
            (["calibrate", "--preset", "fig4", grid], {"save_map_csv": 1, "save_map_pgm": 1})]:
        calls.update(zero)
        assert run(*argv, "--out", str(tmp_path / argv[0])) == 0
        assert calls == {**zero, **want}, argv[0]


def test_commands_compute_and_write_nothing():
    # write_outputs is the one writer: a command takes only the run, yields its
    # outputs and never prints, opens a file, dumps JSON, writes or calls a writer
    helpers = [fn for fn, _ in cli._COMMANDS.values()] + [cli._msr_and_space]
    for fn in helpers:
        assert inspect.isgeneratorfunction(fn) and list(inspect.signature(fn).parameters) == ["run"]
        called = {getattr(node.func, "id", getattr(node.func, "attr", None))
                  for node in ast.walk(ast.parse(inspect.getsource(fn)))
                  if isinstance(node, ast.Call)}
        writes = {c for c in called if c in ("print", "open", "dump", "write", "writelines")
                  or str(c).startswith("save_")}
        assert not writes, (fn.__name__, writes)


def _python(code, cwd, *options):
    """stdout of `python *options -c code` in a fresh interpreter on this process's sys.path."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    return subprocess.run([sys.executable, *options, "-c", code], env=env, capture_output=True,
                          text=True, check=True, cwd=cwd).stdout


def test_the_cli_freezes_its_imports_once_and_the_package_does_not(tmp_path):
    # shutdown's collections walk every tracked object, and the CLI's imports
    # live until exit: importing crackmusic.cli freezes them, importing only the
    # package leaves the caller's GC alone, and main freezes nothing per call
    code = "import gc, crackmusic; print(gc.get_freeze_count())"
    assert _python(code, tmp_path).split() == ["0"]
    code = "import gc, crackmusic.cli; print(gc.get_freeze_count(), len(gc.get_objects()))"
    frozen, tracked = map(int, _python(code, tmp_path).split())
    assert frozen >= 10000 and tracked < 1000
    # the process's first main call frees some frozen objects, so count after one
    assert run("svd", "--preset", "fig1", "--out", str(tmp_path / "warm")) == 0
    before = gc.get_freeze_count()
    assert run("svd", "--preset", "fig1", "--out", str(tmp_path / "o")) == 0
    assert gc.get_freeze_count() == before


def test_start_up_leaves_out_importlib_resources_and_tempfile(tmp_path):
    # the schemas are read from the files beside jsoncheck, so no command loads
    # importlib.resources or the tempfile module it imports
    code = ("import sys, crackmusic.cli as cli\n"
            "assert cli.main(['forward', '--preset', 'fig1', '--out', 'fwd']) == 0\n"
            "assert cli.main(['svd', '--preset', 'fig1', '--msr', 'fwd/msr.csv', '--out', 'o']) == 0\n"
            "print(sorted({'importlib.resources', 'tempfile'} & set(sys.modules)))")
    assert _python(code, tmp_path, "-S").splitlines()[-1] == "[]"


def test_output_does_not_rely_on_teardown(tmp_path):
    # a CLI process writes, closes and flushes everything before shutdown:
    # stdout piped, every printed path is a file and the maps are the bytes
    # an in-process run writes
    grid = "--grid=-2,2,-2,2,0.04"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, "-m", "crackmusic.cli", "image", "--preset", "fig1",
                           grid, "--out", "sub"], env=env, stdout=subprocess.PIPE, text=True,
                          check=True, cwd=tmp_path)
    printed = [tmp_path / p for p in done.stdout.splitlines()]
    assert len(printed) == 8 and all(p.is_file() for p in printed)
    assert run("image", "--preset", "fig1", grid, "--out", str(tmp_path / "in")) == 0
    maps = [p for p in printed if p.suffix == ".csv"]
    assert len(maps) == 4
    assert all(p.read_bytes() == (tmp_path / "in" / p.name).read_bytes() for p in maps)


def test_runs_without_a_bessel_function_leave_out_scipy_special(tmp_path):
    # scipy.special is about 0.25 s and 25 MB of start-up, and no command needs
    # it: the theory maps' J0 is special.bessel_j0's plane-wave average, a BIE
    # solve's H0 is special.hankel0 and an arc's curve is the scene's own
    # spline, so the package, the CLI and every command, on preset or --msr
    # data, must load no scipy module at all
    (tmp_path / "bie.json").write_text(json.dumps({**preset_config("fig4"), "forward": "bie"}))
    coarse = "--grid=-2,2,-2,2,0.04"
    runs = [["forward", "--config", "bie.json", "--out", "bie"],
            ["image", "--preset", "fig3", coarse], ["svd", "--preset", "fig1"],
            ["calibrate", "--preset", "fig4", coarse], ["forward", "--preset", "fig4"],
            ["theory", "--preset", "fig4", coarse], ["compare", "--preset", "fig4", coarse],
            *([command, "--config", "bie.json", "--msr", "bie/msr.csv", coarse]
              for command in ("image", "calibrate", "compare")),
            ["svd", "--config", "bie.json", "--msr", "bie/msr.csv"]]
    code = ("import sys, crackmusic, crackmusic.cli as cli\n"
            "def scipy_loaded():\n"
            "    return any(m.split('.')[0] == 'scipy' for m in sys.modules)\n"
            "loaded = [scipy_loaded()]\n"
            f"for argv in {runs!r}:\n"
            "    assert cli.main(argv if '--out' in argv else [*argv, '--out', 'o']) == 0, argv\n"
            "    loaded.append(scipy_loaded())\n"
            "print(loaded)\n")
    assert _python(code, tmp_path).splitlines()[-1] == repr([False] * (1 + len(runs)))
    assert json.loads((tmp_path / "bie" / "msr.json").read_text())["provenance"] == "bie"


@pytest.mark.parametrize("command, preset", [("theory", "fig4"), ("image", "fig3"),
                                             ("calibrate", "fig4")])
def test_map_bytes_do_not_depend_on_the_blas_thread_count(tmp_path, command, preset):
    # the closed form's J0 and the imaging map are matrix products: one and
    # two BLAS threads must write the same bytes
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path),
               "OPENBLAS_NUM_THREADS": threads}
        subprocess.run([sys.executable, "-m", "crackmusic.cli", command, "--preset", preset,
                        "--grid=-2,2,-2,2,0.04", "--out", f"t{threads}"],
                       env=env, capture_output=True, check=True, cwd=tmp_path)
        out = tmp_path / f"t{threads}"
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert len(outputs[0]) > 1 and outputs[0] == outputs[1]


def test_readme_cli_examples_run(tmp_path, monkeypatch):
    # the first sh block of README.md holding crackmusic commands, run in order
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = [b.split("```", 1)[0] for b in readme.split("```sh\n")[1:]]
    block = next(b for b in blocks if "crackmusic " in b)
    commands = [shlex.split(l)[1:] for l in block.splitlines() if l.startswith("crackmusic ")]
    assert {argv[0] for argv in commands} == {"forward", "image", "svd", "theory",
                                              "compare", "calibrate"}
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv) == 0, argv


# ---- presets ----

SCHEMAS = {name: json.loads((Path(crackmusic.__file__).parent / "schemas"
                             / f"{name}.schema.json").read_text())
           for name in ("runconfig", "msr_sidecar")}
SCHEMA, SIDECAR_SCHEMA = SCHEMAS["runconfig"], SCHEMAS["msr_sidecar"]


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_preset_matches_the_schema_file(name):
    # the schema file stands alone: the scene format is its own scene property
    jsonschema.validate(preset_config(name), SCHEMA)


def test_schema_file_is_a_valid_schema():
    # load_config and load_msr validate against their schemas without checking
    # the schemas themselves on every run; this is that check, made once
    for schema in SCHEMAS.values():
        jsonschema.validators.validator_for(schema).check_schema(schema)


def test_every_sidecar_of_the_preset_set_matches_the_sidecar_schema(preset_tree):
    sidecars = sorted(preset_tree[0].rglob("msr.json"))
    assert len(sidecars) == 6   # fig1-fig4 forward, fig1 and fig4 BIE forward
    for path in sidecars:
        jsonschema.validate(json.loads(path.read_text()), SIDECAR_SCHEMA)


# ---- the package's schema reader, against jsonschema ----


def _best_match(cfg, schema=SCHEMA):
    """(path, keyword, keyword value, message) of jsonschema's best_match for cfg, or None."""
    e = jsonschema.exceptions.best_match(
        jsonschema.validators.validator_for(schema)(schema).iter_errors(cfg))
    return None if e is None else (tuple(e.absolute_path), e.validator, e.validator_value, e.message)


@pytest.mark.parametrize("overrides", [o for o, _ in VIOLATIONS], ids=VIOLATION_IDS)
def test_schema_reader_matches_jsonschema_on_the_named_cases(overrides):
    cfg = {**preset_config("fig1"), **overrides}
    cfg.setdefault("signal_dim", {"method": "log_gap"})
    assert jsoncheck._schema_error(SCHEMA, cfg) == _best_match(cfg)


_POOL = [True, False, None, 0, 1, 2, 3, 3.0, -1, -0.0, 0.5, 2.5, 300, 1e308, "asym", "bie",
         "segment", "arc", "manual", "threshold", "log_gap", [], [0.0, -0.0], [1.0, 2.0, 3.0],
         [[0, 0], [1, 0]], {}, {"method": "manual"}, {"n": 8}]
_KEYS = ["m", "tau", "h", "n", "type", "angle", "half_length", "points", "center", "method",
         "calibration", "snr_db", "seed", "extra"]
_SECTIONS = [   # calibration points at an origin written with -0.0, M and tau at their bounds
    *({"calibration": {"y": y, "eta": 20.0}}
      for y in ([0.0, -0.0], [-0.0, 0], [0, 0], [0.0, 1e-300], [False, 0], [0.0, -0.0, 0.0])),
    *({"signal_dim": {"method": "threshold", "tau": tau}} for tau in (1, 1.0, 1.5, 0, True)),
    *({"signal_dim": {"method": "manual", "m": m}} for m in (0, -0.0, -1, 3.0, 3.5, False))]


def _sites(node):
    """(container, key) of every value inside node, depth first."""
    children = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in list(children):
        yield node, key
        yield from _sites(child)


def _mutant(rng, doc=None, sections=_SECTIONS):
    """doc, by default a preset config (signal_dim defaulted as load_config does),
    after one to three random edits: a key or item deleted, two keys added, a
    value swapped for one of another type (bools included), an integral float,
    NaN or +-inf, or a whole section from sections."""
    box = {"cfg": preset_config(rng.choice(PRESET_NAMES)) if doc is None else doc}
    if doc is None:
        box["cfg"].setdefault("signal_dim", {"method": "log_gap"})
    for _ in range(rng.randint(1, 3)):
        node, key = rng.choice(list(_sites(box)))
        value, edit = node[key], rng.randrange(6)
        if edit == 0 and node is not box:
            del node[key]
        elif edit == 1 and isinstance(value, dict):
            value.update({k: copy.deepcopy(rng.choice(_POOL)) for k in rng.sample(_KEYS, 2)})
        elif edit == 2 and type(value) in (int, float) and np.isfinite(value):
            node[key] = float(round(value))
        elif edit == 3:
            node[key] = rng.choice([float("nan"), float("inf"), -float("inf")])
        elif edit == 4 and isinstance(box["cfg"], dict):
            box["cfg"].update(copy.deepcopy(rng.choice(sections)))
        else:
            node[key] = copy.deepcopy(rng.choice(_POOL))
    return box["cfg"]


def test_schema_reader_matches_jsonschema_on_mutated_presets():
    # same accept or reject, and for a reject the same path, keyword and message
    rng = random.Random(1)
    verdicts = []
    for _ in range(1000):
        cfg = _mutant(rng)
        got = jsoncheck._schema_error(SCHEMA, cfg)
        assert got == _best_match(cfg), cfg
        verdicts.append(got is None)
    assert 0.1 < np.mean(verdicts) < 0.9   # both verdicts are well represented


_SIDECARS = [   # a noisy asymptotic sidecar and a BIE one, as save_msr writes them
    {"convention": "obs=-inc", "direction_mode": "closed", "n": 16, "provenance": "asymptotic",
     "seed": 7, "snr_db": 25.0, "wavenumber": K1},
    {"bie_n": [256, 64], "convention": "obs=-inc", "direction_mode": "closed", "n": 32,
     "provenance": "bie", "reciprocity_defect": 4.3e-16, "wavenumber": 2 * np.pi / 0.4}]
_SIDECAR_SECTIONS = [
    *({"n": n} for n in (2, 1, 2.0, 16.5, -0.0, True, "16", None, [16])),
    *({"wavenumber": k} for k in (0, -1.0, True, "12.5", None, {})),
    {"convention": "obs=inc"}, {"convention": ["obs=-inc"]}, {"direction_mode": "open"},
    {"provenance": "BIE"}, {"provenance": "bie"}, {"provenance": False}, {"extra": [[]]}]


def test_schema_reader_matches_jsonschema_on_mutated_sidecars():
    # the sidecar's schema goes through the same reader as the config's
    rng = random.Random(2)
    verdicts = []
    for _ in range(600):
        meta = _mutant(rng, copy.deepcopy(rng.choice(_SIDECARS)), _SIDECAR_SECTIONS)
        got = jsoncheck._schema_error(SIDECAR_SCHEMA, meta)
        assert got == _best_match(meta, SIDECAR_SCHEMA), meta
        verdicts.append(got is None)
    assert 0.1 < np.mean(verdicts) < 0.9


def test_schema_uses_only_the_keywords_the_reader_reads():
    # a keyword the reader passed over would let every config through it silently
    def walk(schema):
        if schema is True:
            return
        for key, value in schema.items():
            yield key, value
            subs = (value.values() if key == "properties" else value if key == "allOf"
                    else [value] if key in ("if", "then", "else", "not", "items") else ())
            for sub in subs:
                yield from walk(sub)
    passed_over = {"then", "else", "$schema", "title", "description"}   # if reads then, else
    for schema in SCHEMAS.values():
        used = list(walk(schema))
        assert {key for key, _ in used} <= jsoncheck._SCHEMA_KEYWORDS | passed_over
        assert all(v is False for key, v in used if key == "additionalProperties")
        assert all(v in jsoncheck._TYPES for key, v in used if key == "type")


def test_commands_leave_out_jsonschema(tmp_path):
    # jsonschema is about 0.08 s and 4 MB of a launch: the package reads its
    # schema itself, for a config that matches it and for one that does not
    code = ("import sys, crackmusic.cli as cli\n"
            "assert cli.main(['forward', '--preset', 'fig1', '--out', 'fwd']) == 0\n"
            "assert cli.main(['svd', '--preset', 'fig1', '--signal-dim=manual:-1', '--out', 'x']) == 2\n"
            "print(any(m.split('.')[0] == 'jsonschema' for m in sys.modules))")
    assert _python(code, tmp_path).splitlines()[-1] == "False"


def test_config_roundtrip(tmp_path):
    cfg = preset_config("fig2")
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg, sort_keys=True))
    assert json.loads(p.read_text()) == cfg
