"""Command-line orchestration: forward data, imaging, SVD, theory, calibration.

Subcommands: forward, image, svd, theory, compare, calibrate.  Each cmd_*
computes from the resolved Run and yields (name, value) outputs and ("warning",
text) entries; write_outputs alone writes each output as it comes, prints its
path to stdout and the warnings to stderr.  Every command is deterministic given
the config and seed; floats are written as repr writes them (the shortest
decimal that reads back exactly) so outputs are byte-reproducible.

Exit codes: 0 success, 2 config or output error, 3 numeric failure; a failure
after --out exists removes the --out directory the run created.
"""

import argparse
import gc
import importlib.resources
import json
import math
import numbers
import operator
import shutil
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import music, presets, theory
from .calibrate import CalibrationPlan, calibrate_and_image
from .forward_asym import MsrMatrix, assemble_msr, load_msr, save_msr
from .forward_bie import assemble_msr_bie
from .music import ImageGrid
from .noise import add_awgn
from .scene import Scene, make_directions, scene_from_dict
from .theory import TheoryParams

gc.freeze()   # the imports live until exit; frozen, shutdown's collections skip them


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
        try:   # the config file is input, so its read errors are config errors
            with open(args.config) as f:
                cfg = json.load(f)
        except (OSError, ValueError) as e:
            raise ConfigError(e) from e
        if not isinstance(cfg, dict):
            raise ConfigError(f"config must be a JSON object, not {type(cfg).__name__}")
    flags = {o["dest"]: getattr(args, o["dest"]) for o in _OVERRIDES.values()}
    cfg.update({key: v for key, v in flags.items() if v is not None})
    cfg.setdefault("signal_dim", {"method": "log_gap"})
    error = _schema_error(_load_schema(), cfg)   # a test checks the file itself, once
    if error is not None:
        path, keyword, value, message = error
        where = "/".join(map(str, path)) or "top level"
        if keyword == "not" and value == {}:
            # the schema forbids a key outright only where a signal_dim method does not read it
            method = cfg["signal_dim"].get("method")
            raise ConfigError(f"{where} is not read by method {method!r}")
        raise ConfigError(f"config does not match schema at {where}: {message}")
    n, n_max = cfg["directions"]["n"], math.isqrt(np.iinfo(np.intp).max // 16)
    if n > n_max:   # ImageGrid's rule, for the N x N complex MSR matrix
        raise ConfigError(f"directions/n is {n!r}, but an N x N complex matrix must fit the "
                          f"largest array, {np.iinfo(np.intp).max} bytes, so N is at most {n_max}")
    for section, key in ((cfg, "seed"), (cfg["directions"], "n"), (cfg["signal_dim"], "m")):
        if isinstance(section.get(key), float):   # JSON Schema counts 3.0 as an integer
            section[key] = int(section[key])
    for where, v in _non_finite(cfg):
        if isinstance(v, int):
            raise ConfigError(f"config value at {where} is an integer too large for a float")
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
    if "--signal-dim" in _COMMANDS[args.command][1].split() and m > n:   # they choose M
        raise ConfigError(f"signal_dim/m is {m}, but M can be at most directions.n = {n}")
    plan = msr = None
    if args.command == "calibrate":
        if "calibration" not in cfg:
            raise ConfigError("calibrate requires a 'calibration' config section")
        plan = _checked("calibration", CalibrationPlan, **cfg["calibration"])
    scene = _checked("scene", scene_from_dict, cfg["scene"])
    grid = _checked("grid", ImageGrid, **cfg["grid"])
    reach = max(abs(grid.x0), abs(grid.x1), abs(grid.y0), abs(grid.y1))
    probes = [(f"etas/{i}", eta) for i, eta in enumerate(cfg["etas"])]
    for where, eta in probes + ([("calibration/eta", plan.eta)] if plan else []):
        if not math.isfinite(eta * reach):   # a map's phases eta x must be finite
            raise ConfigError(f"{where} is {eta!r}, but eta times the grid's largest "
                              f"|coordinate|, {reach!r}, overflows")
    if args.msr:   # the data must match the config's N and wavenumber
        msr = _checked(f"MSR file {args.msr}", load_msr, args.msr)
        for key, got, where, want in (
                ("n", msr.n, "directions.n", cfg["directions"]["n"]),
                ("wavenumber", msr.wavenumber, "scene.wavenumber", cfg["scene"]["wavenumber"])):
            if got != want:
                raise ConfigError(f"MSR file {args.msr}: its sidecar has {key} = {got!r}, "
                                  f"but the config's {where} is {want!r}")
    return Run(cfg, scene, grid, plan, msr)


_TYPES = {"object": dict, "array": list, "number": numbers.Number, "integer": int}
_BOUNDS = {   # keyword -> (a number breaks it when, the message's words)
    "minimum": (operator.lt, "less than the minimum of"),
    "maximum": (operator.gt, "greater than the maximum of"),
    "exclusiveMinimum": (operator.le, "less than or equal to the minimum of"),
    "exclusiveMaximum": (operator.ge, "greater than or equal to the maximum of"),
}
_SCHEMA_KEYWORDS = {"type", "properties", "required", "additionalProperties", "const", "enum",
                    *_BOUNDS, "items", "minItems", "maxItems", "if", "allOf", "not", "$ref"}


def _schema_error(schema, cfg):
    """(path, keyword, keyword value, message) of the error that jsonschema's
    best_match picks among cfg's errors against schema, or None if cfg matches:
    the shallowest, then the greatest path, then one whose schema names a type
    the value lacks (or none), then the first."""
    error = max(_schema_errors(schema, cfg, schema),
                key=lambda e: (-len(e[0]), e[0], not e[4]), default=None)
    return error and error[:4]


def _schema_errors(schema, x, root, path=()):
    """Yield (path, keyword, keyword value, message, typed) for each way the JSON
    value x breaks schema, in the order and words of jsonschema's Draft 2020-12
    validator; typed tells whether schema names a type that x has.  It reads
    only _SCHEMA_KEYWORDS, additionalProperties only as false, $ref only as a
    pointer into root."""
    if schema is True:
        return
    typed = "type" in schema and _is_type(x, schema["type"])
    obj, arr, num = isinstance(x, dict), isinstance(x, list), _is_type(x, "number")
    for key, v in schema.items():
        subs, messages = (), ()   # (schema, value, path) to descend into; this key's errors
        if key == "$ref":
            target = root
            for part in v.removeprefix("#/").split("/"):
                target = target[part]
            subs = [(target, x, path)]
        elif key == "if":
            then = not any(_schema_errors(v, x, root))
            subs = [(schema.get("then" if then else "else", True), x, path)]
        elif key == "allOf":
            subs = [(s, x, path) for s in v]
        elif key == "properties" and obj:
            subs = [(s, x[k], (*path, k)) for k, s in v.items() if k in x]
        elif key == "items" and arr:
            subs = [(v, item, (*path, i)) for i, item in enumerate(x)]
        elif key == "required" and obj:
            messages = [f"{k!r} is a required property" for k in v if k not in x]
        elif key == "additionalProperties" and obj and v is False:
            extra = sorted((k for k in x if k not in schema.get("properties", {})), key=str)
            if extra:
                messages = ["Additional properties are not allowed (%s %s unexpected)" % (
                    ", ".join(map(repr, extra)), "was" if len(extra) == 1 else "were")]
        elif key == "type" and not typed:
            messages = [f"{x!r} is not of type {v!r}"]
        elif key == "const" and not _equal(x, v):
            messages = [f"{v!r} was expected"]
        elif key == "enum" and not any(_equal(x, e) for e in v):
            messages = [f"{x!r} is not one of {v!r}"]
        elif key == "not" and not any(_schema_errors(v, x, root)):
            messages = [f"{x!r} should not be valid under {v!r}"]
        elif key in _BOUNDS and num and _BOUNDS[key][0](x, v):
            messages = [f"{x!r} is {_BOUNDS[key][1]} {v!r}"]
        elif key == "minItems" and arr and len(x) < v:
            messages = [f"{x!r} {'should be non-empty' if v == 1 else 'is too short'}"]
        elif key == "maxItems" and arr and len(x) > v:
            messages = [f"{x!r} {'is expected to be empty' if v == 0 else 'is too long'}"]
        for sub, value, sub_path in subs:
            yield from _schema_errors(sub, value, root, sub_path)
        for message in messages:
            yield path, key, v, message, typed


def _is_type(x, name):
    """JSON Schema's type test: a bool is not a number, and 3.0 is an integer."""
    if isinstance(x, bool) or not isinstance(x, _TYPES[name]):
        return name == "integer" and isinstance(x, float) and x.is_integer()
    return True


def _equal(a, b):
    """JSON equality: a bool equals only itself, 0 == 0.0 == -0.0, lists item by item."""
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_equal, a, b))
    return a is b if isinstance(a, bool) or isinstance(b, bool) else a == b


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
    """Yield (path, value) for each number in a JSON document that no finite
    float holds: a NaN, an infinity or an integer too large for a float."""
    if isinstance(node, (int, float)):
        try:
            finite = math.isfinite(node)
        except OverflowError:   # the int does not fit a float
            finite = False
        if not finite:
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
    """Yield the M = 0 warning, if any, and return the run's MSR data (--msr or
    computed) and its selected signal space: the one place M is chosen."""
    msr = compute_msr(run) if run.msr is None else run.msr
    space = music.select_signal_dim(music.svd_msr(msr), **run.cfg["signal_dim"])
    if space.m == 0:
        yield "warning", "M=0, every imaging map is flat"
    return msr, space


def write_outputs(outputs, out):
    """Write each (name, value) of outputs into out and print its path: an ImageMap
    is name.csv and name.pgm, an MsrMatrix name.csv and its sidecar, a SignalSpace
    the spectrum name.csv, a dict name.json (the printed path).  A ("warning",
    text) goes to stderr.  Writers are looked up per call, so a tracer sees them."""
    for name, value in outputs:
        if name == "warning":
            print(f"warning: {value}", file=sys.stderr)
            continue
        path = out / f"{name}.csv"
        if isinstance(value, music.ImageMap):
            music.save_map_csv(value, path)
            music.save_map_pgm(value, out / f"{name}.pgm")
        elif isinstance(value, MsrMatrix):
            save_msr(value, path)
        elif isinstance(value, music.SignalSpace):
            music.save_spectrum_csv(value, path)
        else:
            path = out / f"{name}.json"
            with open(path, "w") as f:
                json.dump(value, f, indent=2, sort_keys=True)
        print(path)


def cmd_forward(run):
    yield "msr", compute_msr(run)


def cmd_image(run):
    msr, space = yield from _msr_and_space(run)
    for eta in run.cfg["etas"]:
        imap = music.imaging_map(space, run.grid, eta, msr.directions)
        yield f"map_eta{_tag(eta)}", imap
        peaks = music.find_peaks(imap, max(space.m, 1))
        yield f"peaks_eta{_tag(eta)}", {"eta": eta, "m": space.m, "complete": peaks.complete,
                                        "peaks": [{"x": p[0], "y": p[1], "value": v}
                                                  for p, v in peaks.peaks]}


def cmd_svd(run):
    _, space = yield from _msr_and_space(run)
    yield "spectrum", space
    yield "selection", {"m": space.m, "ambiguous": space.ambiguous,
                        "method": run.cfg["signal_dim"]["method"]}


def cmd_theory(run):
    for eta in run.cfg["etas"]:
        params = TheoryParams(wavenumber=run.scene.wavenumber, eta=eta, centers=run.scene.centers())
        yield f"theory_eta{_tag(eta)}", theory.theory_map(params, run.grid)


def cmd_compare(run):
    msr, space = yield from _msr_and_space(run)
    for eta in run.cfg["etas"]:
        imap = music.imaging_map(space, run.grid, eta, msr.directions)
        params = TheoryParams(wavenumber=run.scene.wavenumber, eta=eta, centers=run.scene.centers())
        report = theory.compare_maps(imap, theory.theory_map(params, run.grid), params)
        yield f"compare_eta{_tag(eta)}", {**report, "eta": eta}


def cmd_calibrate(run):
    msr, space = yield from _msr_and_space(run)
    _, remap, info = calibrate_and_image(msr, run.plan, run.grid, space)
    yield "calibration", info
    yield "map_khat", remap


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
    out = Path(args.out)
    made = None      # the outermost directory of --out that this run creates
    try:
        run = load_config(args)
        made = next((p for p in [*reversed(out.parents), out] if not p.exists()), None)
        out.mkdir(parents=True, exist_ok=True)
        write_outputs(args.fn(run), out)
        return 0
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except OSError as e:     # load_config turns its own OSErrors into ConfigErrors
        print(f"output error: {e.filename or out}: {e.strerror or e}", file=sys.stderr)
        code = 2
    except (ArithmeticError, MemoryError, ValueError) as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        code = 3
    if made is not None:     # no partial output; a directory that existed is kept
        shutil.rmtree(made, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
