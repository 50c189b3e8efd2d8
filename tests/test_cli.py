import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import crackmusic
from crackmusic import cli, load_msr, theory
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
    msr = load_msr(out / "msr.csv", out / "msr.json")
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


def test_invalid_json_is_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run("forward", "--config", str(bad), "--out", str(tmp_path / "o")) == 2


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


@pytest.mark.parametrize("overrides, field", [
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
    ({"snr_db": 1e308}, "snr_db is 1e+308, but it must lie in [-300, 300] dB"),
    ({"snr_db": -1e308}, "snr_db is -1e+308, but it must lie in [-300, 300] dB"),
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
    ({"scene": _arc_scene([[1, 1], [1, 1]])}, "scene: arc points 0 and 1 coincide"),
    ({"scene": _arc_scene([[1, 1], [1, 1], [1.5, 1]])}, "scene: arc points 0 and 1 coincide"),
    ({"scene": _arc_scene([[1, 1], [1, 1], [1.5, 1]]), "forward": "bie"},
     "scene: arc points 0 and 1 coincide"),
], ids=["manual-without-m", "threshold-without-tau", "threshold-above-1",
        "log-gap-with-m", "manual-with-tau", "threshold-with-m", "bie_n",
        "theory_variant", "exclusion_radius", "directions-mode", "calibration-kind", "calibration-origin",
        "snr-minus-inf", "snr-huge", "snr-minus-huge", "half-length-not-h",
        "segment-without-half-length", "segment-unknown-key",
        "arc-with-angle", "wavenumber-nan", "eta-inf", "arc-points-all-coincide",
        "arc-repeated-point", "arc-repeated-point-bie"])
def test_schema_violation_names_the_field(tmp_path, capsys, overrides, field):
    cfg = write_cfg(tmp_path, **overrides)
    assert run("forward", "--config", cfg, "--out", str(tmp_path / "o")) == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


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


@pytest.mark.parametrize("edit, problem", [
    (_set_sidecar("n", 12), "sidecar n = 12"),
    (_set_sidecar("convention", "obs=inc"), "'obs=inc'"),
    (_nan_entry, "non-finite"),
    (_odd_columns, "(16, 31)"),
    (_sidecar_array, "msr.json is a JSON list, not an object"),
    (_set_sidecar("n", "16"), "msr.json: 'n' must be an integer >= 2, not '16'"),
    (_set_sidecar("n", True), "msr.json: 'n' must be an integer >= 2, not True"),
    (_set_sidecar("wavenumber", None), "msr.json: 'wavenumber' must be a number, not None"),
    (_set_sidecar("wavenumber", [1]), "msr.json: 'wavenumber' must be a number, not [1]"),
    (_set_sidecar("wavenumber", "abc"), "msr.json: 'wavenumber' must be a number, not 'abc'"),
    (_set_sidecar("wavenumber", repr(K1)),
     f"msr.json: 'wavenumber' must be a number, not {repr(K1)!r}"),
    (_set_sidecar("provenance", [1]),
     "msr.json: 'provenance' must be 'asymptotic' or 'bie', not [1]"),
    (_set_sidecar("direction_mode", "open"),
     "msr.json: 'direction_mode' must be 'closed', not 'open'"),
    (_drop_sidecar_key("direction_mode"), "msr.json lacks the key 'direction_mode'"),
], ids=["n-mismatch", "convention", "nan-entry", "odd-columns", "sidecar-array", "n-string",
        "n-bool", "wavenumber-null", "wavenumber-list", "wavenumber-abc", "wavenumber-string",
        "provenance-list", "direction-mode-open", "direction-mode-missing"])
def test_bad_msr_file_is_exit_2(tmp_path, capsys, edit, problem):
    fwd = tmp_path / "fwd"
    assert run("forward", "--preset", "fig1", "--out", str(fwd)) == 0
    edit(fwd / "msr.csv", fwd / "msr.json")
    assert run("svd", "--preset", "fig1", "--msr", str(fwd / "msr.csv"),
               "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert str(fwd / "msr.csv") in err and problem in err
    assert not (tmp_path / "o").exists()


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


def test_cli_import_leaves_out_scipy_interpolate(tmp_path):
    # scipy.interpolate costs start-up and memory and the package never uses it:
    # an arc's curve is the scene's own spline, so neither building the arc
    # scenes of fig3/fig4 nor a BIE forward on fig3's arc may load it
    cfg = {**preset_config("fig3"), "forward": "bie", "directions": {"n": 8}}
    (tmp_path / "arc.json").write_text(json.dumps(cfg))
    code = ("import sys, crackmusic.cli as cli\n"
            "for argv in (['image', '--preset', 'fig3', '--out', 'o'],\n"
            "             ['calibrate', '--preset', 'fig4', '--out', 'o']):\n"
            "    cli.load_config(cli.build_parser().parse_args(argv))\n"
            "assert cli.main(['forward', '--config', 'arc.json', '--out', 'bie']) == 0\n"
            "print('scipy.interpolate' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, cwd=tmp_path)
    assert out.stdout.splitlines()[-1] == "False"
    assert json.loads((tmp_path / "bie" / "msr.json").read_text())["provenance"] == "bie"


def _python(code, cwd):
    """stdout of `python -c code` in a fresh interpreter that imports this checkout."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, cwd=cwd).stdout


def test_runs_without_a_bessel_function_leave_out_scipy_special(tmp_path):
    # scipy.special is about 0.25 s and 25 MB of start-up, and no command needs
    # it: the theory maps' J0 is special.bessel_j0's plane-wave average and a
    # BIE solve's H0 is special.hankel0, so the package, the CLI and every
    # command, on preset or --msr data, must load no scipy module at all
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

@pytest.mark.parametrize("name", PRESET_NAMES)
def test_preset_matches_the_schema_file(name):
    # the schema file stands alone: the scene format is its own $defs/scene
    schema = json.loads((Path(crackmusic.__file__).parent / "schemas"
                         / "runconfig.schema.json").read_text())
    jsonschema.validate(preset_config(name), schema)


def test_schema_file_is_a_valid_schema():
    # load_config validates against the schema without checking the schema
    # itself on every run; this is that check, made once
    schema = json.loads((Path(crackmusic.__file__).parent / "schemas"
                         / "runconfig.schema.json").read_text())
    jsonschema.validators.validator_for(schema).check_schema(schema)


def test_config_roundtrip(tmp_path):
    cfg = preset_config("fig2")
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg, sort_keys=True))
    assert json.loads(p.read_text()) == cfg
