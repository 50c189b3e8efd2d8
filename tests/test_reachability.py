"""Every public function and method of the package is reached from the CLI.

Takes the calls that writing the preset output set made (conftest.preset_tree)
and lists the public functions and methods defined in crackmusic that no call
reached.  A function that no run reaches is deleted, or it is named in
UNREACHED with the reason it stays.
"""

import importlib
import inspect
import pkgutil

import crackmusic

_ASSUMPTION_CHECK = "a modelling-assumption check: ROADMAP item 3 wires it in"
UNREACHED = {
    "forward_bie.boundary_field": "the coupled BIE's exactness check (ROADMAP item 7)",
    "scene.separation_ok": _ASSUMPTION_CHECK,
    "scene.SegmentCrack.is_small_for": _ASSUMPTION_CHECK,
}


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


def test_every_public_function_is_reached_from_the_cli(preset_tree):
    _, called = preset_tree
    public = _public_code()
    unreached = {name for name, code in public.items() if code not in called}
    extra = sorted(unreached - set(UNREACHED))
    assert not extra, f"no CLI run calls {', '.join(extra)}"
    gone = sorted(set(UNREACHED) - set(public))
    assert not gone, f"crackmusic defines no {', '.join(gone)}: drop it from UNREACHED"
    stale = sorted(set(UNREACHED) - unreached)
    assert not stale, f"a CLI run calls {', '.join(stale)}: drop it from UNREACHED"
