"""Every public function and method of the package is reached from the CLI.

Runs every command on the presets, on coarse grids, with the BIE forward of
fig1 and fig4 and the --msr paths, under sys.setprofile, and lists the public
functions and methods defined in crackmusic that no call reached.  A function
that no run reaches is deleted, or it is named in UNREACHED with the reason
it stays.
"""

import importlib
import inspect
import itertools
import json
import pkgutil
import sys

import crackmusic
from crackmusic.cli import main
from crackmusic.presets import PRESET_NAMES, preset_config

_ASSUMPTION_CHECK = "a modelling-assumption check: ROADMAP item 3 wires it in"
UNREACHED = {
    "forward_bie.boundary_field": "the BIE exactness check (ROADMAP item 4)",
    "special.direction_average": "acceptance criterion 1 is built on it",
    "scene.separation_ok": _ASSUMPTION_CHECK,
    "scene.SegmentCrack.is_small_for": _ASSUMPTION_CHECK,
}
NOISE = ("--seed=7", "--snr-db=25")
GRID = ("--grid=-2,2,-2,2,0.1",)


def _public_code():
    """Qualified name -> code object of each public function, method and
    property getter defined in a crackmusic module."""
    found = {}
    for info in pkgutil.iter_modules(crackmusic.__path__):
        if info.ispkg:
            continue
        mod = importlib.import_module(f"crackmusic.{info.name}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                found[f"{info.name}.{name}"] = obj.__code__
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    fn = member.fget if isinstance(member, property) else member
                    if not attr.startswith("_") and inspect.isfunction(fn):
                        found[f"{info.name}.{name}.{attr}"] = fn.__code__
    return found


def _run_everything(out):
    runs = itertools.count()

    def run(command, *argv):
        assert main([command, *argv, "--out", str(out / f"run{next(runs)}")]) == 0

    for name in PRESET_NAMES:
        run("forward", "--preset", name, *NOISE)
        run("image", "--preset", name, *NOISE, *GRID)
        run("svd", "--preset", name)
        run("theory", "--preset", name, *GRID)
        run("compare", "--preset", name, *GRID)
    run("calibrate", "--preset", "fig4", *GRID)
    for name in ("fig1", "fig4"):
        cfg = out / f"bie_{name}.json"
        cfg.write_text(json.dumps({**preset_config(name), "forward": "bie"}))
        assert main(["forward", "--config", str(cfg), "--out", str(out / name)]) == 0
    fig1, fig4 = (str(out / name / "msr.csv") for name in ("fig1", "fig4"))
    run("image", "--preset", "fig1", "--msr", fig1, *GRID)
    run("svd", "--preset", "fig1", "--msr", fig1)
    run("compare", "--preset", "fig1", "--msr", fig1, *GRID)
    run("calibrate", "--preset", "fig4", "--msr", fig4, *GRID)


def test_every_public_function_is_reached_from_the_cli(tmp_path):
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(profile)
    try:
        _run_everything(tmp_path)
    finally:
        sys.setprofile(None)
    public = _public_code()
    unreached = {name for name, code in public.items() if code not in called}
    extra = sorted(unreached - set(UNREACHED))
    assert not extra, f"no CLI run calls {', '.join(extra)}"
    gone = sorted(set(UNREACHED) - set(public))
    assert not gone, f"crackmusic defines no {', '.join(gone)}: drop it from UNREACHED"
    stale = sorted(set(UNREACHED) - unreached)
    assert not stale, f"a CLI run calls {', '.join(stale)}: drop it from UNREACHED"
