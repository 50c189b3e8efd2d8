import json

import numpy as np
import pytest

from crackmusic import load_msr
from crackmusic.cli import main
from crackmusic.presets import preset_config

K1 = 2 * np.pi / 0.5
GRID_COARSE = ("--grid=-2,2,-2,2,0.02",)


def run(*argv):
    return main(list(argv))


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
    out = tmp_path / "out"
    assert run("image", "--preset", "fig1", "--out", str(out),
               "--signal-dim", "manual:0", "--eta", "15", *GRID_COARSE) == 0
    assert "M=0" in capsys.readouterr().err
    vals = np.array([float(l.split(",")[2]) for l in
                     (out / "map_eta15.csv").read_text().splitlines()[1:]])
    assert np.ptp(vals) < 1e-9


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


def test_calibrate_requires_section(tmp_path):
    assert run("calibrate", "--preset", "fig1",
               "--out", str(tmp_path / "o")) == 2


# ---- errors and exit codes ----

def test_missing_config_is_exit_2(tmp_path):
    assert run("forward", "--out", str(tmp_path / "o")) == 2
    assert run("forward", "--config", str(tmp_path / "nope.json"),
               "--out", str(tmp_path / "o")) == 2


def test_invalid_json_is_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run("forward", "--config", str(bad), "--out", str(tmp_path / "o")) == 2


def test_schema_violation_is_exit_2(tmp_path):
    cfg = write_cfg(tmp_path, forward="magic")
    assert run("forward", "--config", cfg, "--out", str(tmp_path / "o")) == 2


@pytest.mark.parametrize("flag", ["--signal-dim=banana", "--signal-dim=manual:abc",
                                  "--grid=a,1,-1,1,0.1", "--grid=1,0,-1,1,0.1",
                                  "--snr-db=nan"],
                         ids=["banana", "manual-abc", "grid-abc", "grid-reversed",
                              "snr-nan"])
def test_bad_signal_dim_flag_is_exit_2(tmp_path, flag):
    assert run("image", "--preset", "fig1", "--out", str(tmp_path / "o"), flag) == 2


@pytest.mark.parametrize("overrides, field", [
    ({"signal_dim": {"method": "manual"}}, "signal_dim: 'm'"),
    ({"signal_dim": {"method": "threshold"}}, "signal_dim: 'tau'"),
    ({"forward": "bie", "bie_n": 64}, "'bie_n'"),
    ({"theory_variant": "linear"}, "'theory_variant'"),
    ({"exclusion_radius": 0.5}, "'exclusion_radius'"),
    ({"directions": {"n": 16, "mode": "open"}}, "'mode'"),
    ({"calibration": {"y": [0.0, -1.0], "eta": 20.0, "kind": "extended"}}, "'kind'"),
    ({"calibration": {"y": [0.0, -0.0], "eta": 20.0}}, "calibration/y"),
    ({"scene": {"file": "scene.json", "wavenumber": K1}}, "['wavenumber']"),
    ({"snr_db": float("-inf")}, "snr_db"),
], ids=["manual-without-m", "threshold-without-tau", "bie_n", "theory_variant",
        "exclusion_radius", "directions-mode", "calibration-kind", "calibration-origin",
        "scene-file-extra-key", "snr-minus-inf"])
def test_schema_violation_names_the_field(tmp_path, capsys, overrides, field):
    cfg = write_cfg(tmp_path, **overrides)
    assert run("forward", "--config", cfg, "--out", str(tmp_path / "o")) == 2
    assert field in capsys.readouterr().err


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
    scene = preset_config("fig1")["scene"]
    del scene["wavenumber"]
    (tmp_path / "scene.json").write_text(json.dumps(scene))
    cfg = write_cfg(tmp_path, scene={"file": str(tmp_path / "scene.json")})
    assert run("forward", "--config", cfg, "--out", str(tmp_path / "o")) == 2
    assert "wavenumber" in capsys.readouterr().err


def test_scene_file_is_relative_to_the_config(tmp_path, monkeypatch):
    cfg_dir = tmp_path / "cfgdir"
    cfg_dir.mkdir()
    (cfg_dir / "scene.json").write_text(json.dumps(preset_config("fig1")["scene"]))
    write_cfg(cfg_dir, scene={"file": "scene.json"})
    monkeypatch.chdir(tmp_path)
    assert run("forward", "--config", "cfgdir/cfg.json", "--out", "o") == 0
    assert (tmp_path / "o" / "msr.csv").exists()


def _set_sidecar(key, value):
    def edit(csv_path, sidecar):
        meta = json.loads(sidecar.read_text())
        meta[key] = value
        sidecar.write_text(json.dumps(meta))
    return edit


def _nan_entry(csv_path, sidecar):
    rows = csv_path.read_text().splitlines()
    rows[3] = "nan," + rows[3].split(",", 1)[1]
    csv_path.write_text("\n".join(rows) + "\n")


@pytest.mark.parametrize("edit, problem", [
    (_set_sidecar("n", 12), "sidecar n = 12"),
    (_set_sidecar("convention", "obs=inc"), "'obs=inc'"),
    (_nan_entry, "non-finite"),
], ids=["n-mismatch", "convention", "nan-entry"])
def test_bad_msr_file_is_exit_2(tmp_path, capsys, edit, problem):
    fwd = tmp_path / "fwd"
    assert run("forward", "--preset", "fig1", "--out", str(fwd)) == 0
    edit(fwd / "msr.csv", fwd / "msr.json")
    assert run("svd", "--preset", "fig1", "--msr", str(fwd / "msr.csv"),
               "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert str(fwd / "msr.csv") in err and problem in err


def test_numeric_failure_is_exit_3(tmp_path):
    # manual M exceeding the matrix size fails inside the numerics
    assert run("svd", "--preset", "fig1", "--out", str(tmp_path / "o"),
               "--signal-dim", "manual:99") == 3


# ---- presets ----

def test_config_roundtrip(tmp_path):
    cfg = preset_config("fig2")
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg, sort_keys=True))
    assert json.loads(p.read_text()) == cfg
