"""Command-line orchestration: forward data, imaging, SVD, theory, calibration.

Subcommands: forward, image, svd, theory, compare, calibrate.  Every command
is deterministic given the config and seed; floats are written as repr writes
them (the shortest decimal that reads back exactly) so outputs are
byte-reproducible.

Exit codes: 0 success, 2 config error, 3 numeric failure (which removes the
--out directory the run created).
"""

import argparse
import importlib.resources
import json
import shutil
import sys
from pathlib import Path
from typing import NamedTuple

import jsonschema
import numpy as np

from . import music, presets, theory
from .calibrate import CalibrationPlan, calibrate_and_image
from .forward_asym import MsrMatrix, assemble_msr, load_msr, save_msr
from .forward_bie import assemble_msr_bie
from .music import ImageGrid
from .noise import add_awgn
from .scene import Scene, make_directions, scene_from_dict
from .theory import TheoryParams


class ConfigError(Exception):
    pass


class Run(NamedTuple):
    """A resolved run: every input of the command, read and checked before --out exists."""
    cfg: dict                        # the resolved config, defaults and flags applied
    scene: Scene
    grid: ImageGrid
    plan: CalibrationPlan | None     # calibrate only
    msr: MsrMatrix | None            # the --msr data, checked against the config


def _load_schema():
    pkg = importlib.resources.files("crackmusic.schemas")
    return json.loads((pkg / "runconfig.schema.json").read_text())


def load_config(args):
    if args.preset:
        cfg = presets.preset_config(args.preset)
    else:
        with open(args.config) as f:
            cfg = json.load(f)
        if not isinstance(cfg, dict):
            raise ConfigError(f"config must be a JSON object, not {type(cfg).__name__}")
    flags = {o["dest"]: getattr(args, o["dest"]) for o in _OVERRIDES.values()}
    cfg.update({key: v for key, v in flags.items() if v is not None})
    cfg.setdefault("signal_dim", {"method": "log_gap"})
    schema = _load_schema()   # jsonschema.validate less check_schema: a test checks the file once
    error = jsonschema.exceptions.best_match(
        jsonschema.validators.validator_for(schema)(schema).iter_errors(cfg))
    if error is not None:
        where = "/".join(str(p) for p in error.absolute_path) or "top level"
        if error.validator == "not" and error.validator_value == {}:
            # the schema forbids a key outright only where a signal_dim method does not read it
            method = cfg["signal_dim"].get("method")
            raise ConfigError(f"{where} is not read by method {method!r}")
        raise ConfigError(f"config does not match schema at {where}: {error.message}")
    for where, v in _non_finite(cfg):
        if not (where == "snr_db" and v == np.inf):   # +inf dB means no noise
            raise ConfigError(f"config value at {where} must be finite, not {v}")
    snr = cfg.get("snr_db", 0.0)   # past +-300 dB the noise is 30 decades off the signal
    if abs(snr) > 300 and snr != np.inf:
        raise ConfigError(f"snr_db is {snr!r}, but it must lie in [-300, 300] dB (+inf: no noise)")
    for i, crack in enumerate(cfg["scene"]["cracks"]):   # assemble_msr sizes every crack by h
        if cfg["forward"] == "asym" and crack.get("half_length", cfg["h"]) != cfg["h"]:
            raise ConfigError(f"scene/cracks/{i}/half_length is {crack['half_length']!r}, but "
                              f"the asymptotic model sizes every crack by h = {cfg['h']!r}")
    first = {}
    for eta in cfg["etas"]:
        tag = _tag(eta)
        if tag in first:
            raise ConfigError(f"etas {first[tag]!r} and {eta!r} share the file name tag eta{tag}")
        first[tag] = eta
    m, n = cfg["signal_dim"].get("m", 0), cfg["directions"]["n"]
    if args.command in ("image", "svd", "compare", "calibrate") and m > n:   # they choose M
        raise ConfigError(f"signal_dim/m is {m}, but M can be at most directions.n = {n}")
    plan = msr = None
    if args.command == "calibrate":
        if "calibration" not in cfg:
            raise ConfigError("calibrate requires a 'calibration' config section")
        plan = _checked("calibration", CalibrationPlan, **cfg["calibration"])
    scene = _checked("scene", scene_from_dict, cfg["scene"])
    grid = _checked("grid", ImageGrid, **cfg["grid"])
    if args.msr:   # the data must match the config's N and wavenumber
        csv_path = Path(args.msr)
        sidecar = csv_path.with_suffix(".json")
        msr = _checked(f"MSR file {csv_path}", load_msr, csv_path, sidecar)
        for key, got, where, want in (
                ("n", msr.n, "directions.n", cfg["directions"]["n"]),
                ("wavenumber", msr.wavenumber, "scene.wavenumber", cfg["scene"]["wavenumber"])):
            if got != want:
                raise ConfigError(f"MSR file {csv_path}: sidecar {sidecar} has {key} = {got!r}, "
                                  f"but the config's {where} is {want!r}")
    return Run(cfg, scene, grid, plan, msr)


def _checked(section, build, *args, **kwargs):
    """build(*args, **kwargs); its ValueError or OSError is a ConfigError naming section."""
    try:
        return build(*args, **kwargs)
    except (ValueError, OSError) as e:
        raise ConfigError(f"{section}: {e}") from e


def _tag(eta):
    """The part of an output file name that tells one eta's files from another's."""
    return f"{eta:g}"


def _non_finite(node, where=""):
    """Yield (path, value) for each NaN or infinite number in a JSON document."""
    if isinstance(node, float) and not np.isfinite(node):
        yield where, node
    children = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _non_finite(child, f"{where}/{key}" if where else str(key))


def _grid_flag(spec):
    try:
        x0, x1, y0, y1, step = (float(p) for p in spec.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f'{spec!r} is not "x0,x1,y0,y1,step"') from None
    return {"x0": x0, "x1": x1, "y0": y0, "y1": y1, "step": step}


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
    raise argparse.ArgumentTypeError(f"{spec!r} is not manual:M, log_gap or threshold:T")


def compute_msr(run):
    cfg = run.cfg
    dirs = make_directions(cfg["directions"]["n"])
    if cfg["forward"] == "asym":
        msr = assemble_msr(run.scene, cfg["h"], dirs)
    else:
        msr = assemble_msr_bie(run.scene, dirs)
    if "snr_db" in cfg:
        msr = add_awgn(msr, cfg["snr_db"], cfg.get("seed", 0))
    return msr


def _msr_and_space(run):
    """The run's MSR data (--msr or computed) and its selected signal space:
    the one place M is chosen."""
    msr = compute_msr(run) if run.msr is None else run.msr
    space = music.select_signal_dim(music.svd_msr(msr), **run.cfg["signal_dim"])
    if space.m == 0:
        print("warning: M=0, every imaging map is flat", file=sys.stderr)
    return msr, space


def _write_json(obj, path):
    with open(path, "w") as f:
        json.dump(obj, f, indent=2, sort_keys=True)


def cmd_forward(run, out):
    msr = compute_msr(run)
    save_msr(msr, out / "msr.csv", out / "msr.json")
    print(out / "msr.csv")
    return 0


def cmd_image(run, out):
    msr, space = _msr_and_space(run)
    for eta in run.cfg["etas"]:
        imap = music.imaging_map(space, run.grid, eta, msr.directions)
        tag = _tag(eta)
        music.save_map_csv(imap, out / f"map_eta{tag}.csv")
        music.save_map_pgm(imap, out / f"map_eta{tag}.pgm")
        peaks = music.find_peaks(imap, max(space.m, 1))
        _write_json({"eta": eta, "m": space.m, "complete": peaks.complete,
                     "peaks": [{"x": p[0], "y": p[1], "value": v}
                               for p, v in peaks.peaks]},
                    out / f"peaks_eta{tag}.json")
        print(out / f"map_eta{tag}.csv")
    return 0


def cmd_svd(run, out):
    msr, space = _msr_and_space(run)
    music.save_spectrum_csv(space, out / "spectrum.csv")
    _write_json({"m": space.m, "ambiguous": space.ambiguous,
                 "method": run.cfg["signal_dim"]["method"]},
                out / "selection.json")
    print(out / "spectrum.csv")
    return 0


def cmd_theory(run, out):
    for eta in run.cfg["etas"]:
        params = TheoryParams(wavenumber=run.scene.wavenumber, eta=eta, centers=run.scene.centers())
        tmap = theory.theory_map(params, run.grid)
        tag = _tag(eta)
        music.save_map_csv(tmap, out / f"theory_eta{tag}.csv")
        music.save_map_pgm(tmap, out / f"theory_eta{tag}.pgm")
        print(out / f"theory_eta{tag}.csv")
    return 0


def cmd_compare(run, out):
    msr, space = _msr_and_space(run)
    for eta in run.cfg["etas"]:
        imap = music.imaging_map(space, run.grid, eta, msr.directions)
        params = TheoryParams(wavenumber=run.scene.wavenumber, eta=eta, centers=run.scene.centers())
        tmap = theory.theory_map(params, run.grid)
        report = theory.compare_maps(imap, tmap, params)
        report["eta"] = eta
        _write_json(report, out / f"compare_eta{_tag(eta)}.json")
        print(out / f"compare_eta{_tag(eta)}.json")
    return 0


def cmd_calibrate(run, out):
    msr, space = _msr_and_space(run)
    k_hat, remap, info = calibrate_and_image(msr, run.plan, run.grid, space)
    _write_json(info, out / "calibration.json")
    music.save_map_csv(remap, out / "map_khat.csv")
    music.save_map_pgm(remap, out / "map_khat.pgm")
    print(out / "calibration.json")
    return 0


_OVERRIDES = {   # flag -> add_argument keywords; dest is the config key the flag sets
    "--eta": {"dest": "etas", "metavar": "ETA", "type": float, "action": "append",
              "help": "probe wavenumber (repeatable; overrides config)"},
    "--snr-db": {"dest": "snr_db", "type": float},
    "--seed": {"dest": "seed", "type": int},
    "--grid": {"dest": "grid", "type": _grid_flag, "help": '"x0,x1,y0,y1,step"'},
    "--signal-dim": {"dest": "signal_dim", "type": _parse_signal_dim,
                     "help": "manual:M | log_gap | threshold:T"},
}
_FLAGS = {"--msr": {"dest": "msr", "help": "existing MSR CSV file (sidecar: same name .json)"},
          **_OVERRIDES}
_COMMANDS = {    # each command and the flags it reads; argparse rejects the others
    "forward": (cmd_forward, "--snr-db --seed"),
    "image": (cmd_image, " ".join(_FLAGS)),
    "svd": (cmd_svd, "--msr --snr-db --seed --signal-dim"),
    "theory": (cmd_theory, "--eta --grid"),
    "compare": (cmd_compare, " ".join(_FLAGS)),
    "calibrate": (cmd_calibrate, "--msr --snr-db --seed --grid --signal-dim"),
}


def build_parser():
    p = argparse.ArgumentParser(prog="crackmusic",
                                description="MUSIC-type crack imaging from multistatic far-field data")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (fn, flags) in _COMMANDS.items():
        sp = sub.add_parser(name)
        source = sp.add_mutually_exclusive_group(required=True)
        source.add_argument("--config", help="run configuration JSON file")
        source.add_argument("--preset", choices=presets.PRESET_NAMES,
                            help="use a built-in configuration")
        sp.add_argument("--out", required=True, help="output directory")
        for flag in flags.split():
            sp.add_argument(flag, **_FLAGS[flag])
        sp.set_defaults(fn=fn, **{o["dest"]: None for o in _FLAGS.values()})
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    made = None      # the outermost directory of --out that this run creates
    try:
        run = load_config(args)
        out = Path(args.out)
        made = next((p for p in [*reversed(out.parents), out] if not p.exists()), None)
        out.mkdir(parents=True, exist_ok=True)
        return args.fn(run, out)
    except (ConfigError, OSError, json.JSONDecodeError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (ArithmeticError, MemoryError, ValueError) as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        if made is not None:     # no partial output; a directory that existed is kept
            shutil.rmtree(made, ignore_errors=True)
        return 3


if __name__ == "__main__":
    sys.exit(main())
