"""Command-line orchestration: forward data, imaging, SVD, theory, calibration.

Subcommands: forward, image, svd, theory, compare, calibrate.  Every command
is deterministic given the config and seed; floats are written with repr (17
significant digits) so outputs are byte-reproducible.

Exit codes: 0 success, 2 config error, 3 numeric failure.
"""

import argparse
import importlib.resources
import json
import sys
from pathlib import Path

import jsonschema
import numpy as np

from . import music, presets, theory
from .calibrate import CalibrationPlan, calibrate_and_image
from .forward_asym import assemble_msr, load_msr, save_msr
from .forward_bie import assemble_msr_bie
from .music import ImageGrid
from .noise import add_awgn
from .scene import make_directions, scene_from_dict
from .theory import TheoryParams


class ConfigError(Exception):
    pass


def _load_schema():
    pkg = importlib.resources.files("crackmusic.schemas")
    run = json.loads((pkg / "runconfig.schema.json").read_text())
    scene = json.loads((pkg / "scene.schema.json").read_text())
    run["properties"]["scene"] = scene   # a {"file": ...} scene is read in first
    return run


def load_config(args):
    if args.preset:
        cfg = presets.preset_config(args.preset)
    elif args.config:
        with open(args.config) as f:
            cfg = json.load(f)
    else:
        raise ConfigError("one of --config or --preset is required")
    if args.eta:
        cfg["etas"] = list(args.eta)
    if args.snr_db is not None:
        cfg["snr_db"] = args.snr_db
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.grid:
        try:
            x0, x1, y0, y1, step = (float(p) for p in args.grid.split(","))
        except ValueError:
            raise ConfigError(f'bad --grid {args.grid!r}; use "x0,x1,y0,y1,step"') from None
        cfg["grid"] = {"x0": x0, "x1": x1, "y0": y0, "y1": y1, "step": step}
    if args.signal_dim:
        cfg["signal_dim"] = _parse_signal_dim(args.signal_dim)
    sc = cfg.get("scene") if isinstance(cfg, dict) else None
    if isinstance(sc, dict) and "file" in sc:
        if list(sc) != ["file"]:
            raise ConfigError(f'a scene given as {{"file": path}} takes no other keys; '
                              f'found {sorted(set(sc) - {"file"})}')
        if isinstance(sc["file"], str):   # relative to the config file; presets have none
            with open(Path(args.config).parent / sc["file"]) as f:
                cfg["scene"] = json.load(f)
    try:
        jsonschema.validate(cfg, _load_schema())
    except jsonschema.ValidationError as e:
        where = "/".join(str(p) for p in e.absolute_path) or "top level"
        raise ConfigError(f"config does not match schema at {where}: {e.message}") from e
    g = cfg["grid"]
    if g["x1"] < g["x0"] or g["y1"] < g["y0"]:
        raise ConfigError(f"grid ranges must be nonempty (x0 <= x1, y0 <= y1): {g}")
    if not cfg.get("snr_db", np.inf) > -np.inf:
        raise ConfigError(f"snr_db must be a number or +inf (no noise), not {cfg['snr_db']}")
    return cfg


def _parse_signal_dim(spec):
    method, _, arg = spec.partition(":")
    try:
        if spec == "log_gap":
            return {"method": "log_gap"}
        if method == "manual":
            return {"method": "manual", "m": int(arg)}
        if method == "threshold":
            return {"method": "threshold", "tau": float(arg)}
    except ValueError:
        pass
    raise ConfigError(f"bad --signal-dim {spec!r}; use manual:M, log_gap, or threshold:T")


def _scene(cfg):
    return scene_from_dict(cfg["scene"])


def _dirs(cfg):
    return make_directions(cfg["directions"]["n"])


def _grid(cfg):
    g = cfg["grid"]
    return ImageGrid(x0=g["x0"], x1=g["x1"], y0=g["y0"], y1=g["y1"], step=g["step"])


def _signal_dim(cfg):
    """The config's signal_dim object: the keywords of music.select_signal_dim."""
    return cfg.get("signal_dim", {"method": "log_gap"})


def _signal_space(msr, cfg):
    return music.select_signal_dim(music.svd_msr(msr), **_signal_dim(cfg))


def _theory_params(scene, eta):
    return TheoryParams(wavenumber=scene.wavenumber, eta=eta, centers=scene.centers())


def compute_msr(cfg):
    scene = _scene(cfg)
    dirs = _dirs(cfg)
    if cfg["forward"] == "asym":
        if "h" not in cfg:
            raise ConfigError("asymptotic forward model requires h")
        msr = assemble_msr(scene, cfg["h"], dirs)
    else:
        msr = assemble_msr_bie(scene, dirs)
    if "snr_db" in cfg:
        msr = add_awgn(msr, cfg["snr_db"], cfg.get("seed", 0))
    return msr


def _get_msr(args, cfg):
    if not args.msr:
        return compute_msr(cfg)
    csv_path = Path(args.msr)
    sidecar = csv_path.with_suffix(".json")
    try:
        return load_msr(csv_path, sidecar)
    except KeyError as e:
        raise ConfigError(f"MSR sidecar {sidecar} lacks the key {e}") from e
    except ValueError as e:
        raise ConfigError(f"MSR file {csv_path}: {e}") from e


def _etatag(eta):
    return f"{eta:g}"


def _write_json(obj, path):
    with open(path, "w") as f:
        json.dump(obj, f, indent=2, sort_keys=True)


def cmd_forward(cfg, args, out):
    msr = compute_msr(cfg)
    save_msr(msr, out / "msr.csv", out / "msr.json")
    print(out / "msr.csv")
    return 0


def cmd_image(cfg, args, out):
    msr = _get_msr(args, cfg)
    space = _signal_space(msr, cfg)
    grid = _grid(cfg)
    for eta in cfg["etas"]:
        imap = music.imaging_map(space, grid, eta, msr.directions)
        tag = _etatag(eta)
        music.save_map_csv(imap, out / f"map_eta{tag}.csv")
        music.save_map_pgm(imap, out / f"map_eta{tag}.pgm")
        peaks = music.find_peaks(imap, max(space.m, 1))
        _write_json({"eta": eta, "m": space.m, "complete": peaks.complete,
                     "peaks": [{"x": p[0], "y": p[1], "value": v}
                               for p, v in peaks.peaks]},
                    out / f"peaks_eta{tag}.json")
        if space.m == 0:
            print(f"warning: M=0, map at eta={tag} is flat", file=sys.stderr)
        print(out / f"map_eta{tag}.csv")
    return 0


def cmd_svd(cfg, args, out):
    msr = _get_msr(args, cfg)
    space = _signal_space(msr, cfg)
    music.save_spectrum_csv(space, out / "spectrum.csv")
    _write_json({"m": space.m, "ambiguous": space.ambiguous,
                 "method": _signal_dim(cfg)["method"]},
                out / "selection.json")
    print(out / "spectrum.csv")
    return 0


def cmd_theory(cfg, args, out):
    scene = _scene(cfg)
    grid = _grid(cfg)
    for eta in cfg["etas"]:
        tmap = theory.theory_map(_theory_params(scene, eta), grid)
        tag = _etatag(eta)
        music.save_map_csv(tmap, out / f"theory_eta{tag}.csv")
        music.save_map_pgm(tmap, out / f"theory_eta{tag}.pgm")
        print(out / f"theory_eta{tag}.csv")
    return 0


def cmd_compare(cfg, args, out):
    scene = _scene(cfg)
    msr = _get_msr(args, cfg)
    space = _signal_space(msr, cfg)
    grid = _grid(cfg)
    for eta in cfg["etas"]:
        imap = music.imaging_map(space, grid, eta, msr.directions)
        params = _theory_params(scene, eta)
        tmap = theory.theory_map(params, grid)
        report = theory.compare_maps(imap, tmap, params)
        report["eta"] = eta
        _write_json(report, out / f"compare_eta{_etatag(eta)}.json")
        print(out / f"compare_eta{_etatag(eta)}.json")
    return 0


def cmd_calibrate(cfg, args, out):
    if "calibration" not in cfg:
        raise ConfigError("calibrate requires a 'calibration' config section")
    cal = cfg["calibration"]
    plan = CalibrationPlan(y=tuple(cal["y"]), eta=cal["eta"])
    msr = _get_msr(args, cfg)
    k_hat, remap, info = calibrate_and_image(msr, plan, _grid(cfg),
                                             signal_dim=_signal_dim(cfg))
    _write_json(info, out / "calibration.json")
    music.save_map_csv(remap, out / "map_khat.csv")
    music.save_map_pgm(remap, out / "map_khat.pgm")
    print(out / "calibration.json")
    return 0


_OVERRIDES = {   # flag -> add_argument keywords; its attribute is the flag with "_" for "-"
    "--msr": {"help": "existing MSR CSV file (sidecar: same name .json)"},
    "--eta": {"type": float, "action": "append",
              "help": "probe wavenumber (repeatable; overrides config)"},
    "--snr-db": {"type": float},
    "--seed": {"type": int},
    "--grid": {"help": '"x0,x1,y0,y1,step"'},
    "--signal-dim": {"help": "manual:M | log_gap | threshold:T"},
}
_COMMANDS = {    # each command and the overrides it reads; argparse rejects the others
    "forward": (cmd_forward, "--snr-db --seed"),
    "image": (cmd_image, " ".join(_OVERRIDES)),
    "svd": (cmd_svd, "--msr --snr-db --seed --signal-dim"),
    "theory": (cmd_theory, "--eta --grid"),
    "compare": (cmd_compare, " ".join(_OVERRIDES)),
    "calibrate": (cmd_calibrate, "--msr --snr-db --seed --grid --signal-dim"),
}


def build_parser():
    p = argparse.ArgumentParser(prog="crackmusic",
                                description="MUSIC-type crack imaging from multistatic far-field data")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (fn, flags) in _COMMANDS.items():
        sp = sub.add_parser(name)
        sp.add_argument("--config", help="run configuration JSON file")
        sp.add_argument("--preset", choices=presets.PRESET_NAMES,
                        help="use a built-in configuration")
        sp.add_argument("--out", required=True, help="output directory")
        for flag in flags.split():
            sp.add_argument(flag, **_OVERRIDES[flag])
        sp.set_defaults(fn=fn, **{f[2:].replace("-", "_"): None for f in _OVERRIDES})
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return args.fn(cfg, args, out)
    except (ConfigError, FileNotFoundError, json.JSONDecodeError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (ArithmeticError, ValueError, np.linalg.LinAlgError) as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
