"""Write the preset output set: every CLI command on the built-in presets.

Usage: python tools/preset_outputs.py OUT

Runs forward, image, svd, theory and compare on fig1-fig4, svd of fig3 with
the default log_gap selection, calibrate on fig4, image/svd from the saved
fig1 MSR, calibrate from the saved fig4 MSR, and the BIE forward of fig1 and
fig4 (their configs are written to OUT too) with calibrate from the fig4 BIE
MSR.  Every command gets
--seed 7 --snr-db 25 --grid=-2,2,-2,2,0.04 where it takes them, apart from
one more theory and one more compare of fig4 on its own 401x401 grid (step
0.01), whose map and report cover maps that span many row blocks.  The outputs
are deterministic, so two trees made from the same code compare equal with
`diff -r`; tools/output_summary.py summarises a tree into the pinned
tests/preset_summary.json.
"""

import json
import sys
from pathlib import Path

from crackmusic.cli import main
from crackmusic.presets import PRESET_NAMES, preset_config

NOISE = ("--seed=7", "--snr-db=25")
GRID = ("--grid=-2,2,-2,2,0.04",)
FLAGS = {"forward": NOISE, "image": NOISE + GRID, "svd": NOISE, "theory": GRID,
         "compare": NOISE + GRID, "calibrate": NOISE + GRID}


def run(out, command, *argv, flags=None):
    """Run one command into out, with the FLAGS it takes unless flags are given."""
    flags = FLAGS[command] if flags is None else flags
    if main([command, *argv, *flags, "--out", str(out)]) != 0:
        sys.exit(f"crackmusic {command} {' '.join(argv)} failed")


def write_outputs(out):
    out.mkdir(parents=True, exist_ok=True)
    for name in PRESET_NAMES:
        for command in ("forward", "image", "svd", "theory", "compare"):
            run(out / name / command, command, "--preset", name)
    run(out / "fig3" / "svd_log_gap", "svd", "--preset", "fig3", "--signal-dim", "log_gap")
    run(out / "fig4" / "calibrate", "calibrate", "--preset", "fig4")
    run(out / "fig4" / "theory_preset_grid", "theory", "--preset", "fig4", flags=())
    run(out / "fig4" / "compare_preset_grid", "compare", "--preset", "fig4", flags=NOISE)
    fig1_msr, fig4_msr = (str(out / n / "forward" / "msr.csv") for n in ("fig1", "fig4"))
    run(out / "msr" / "image", "image", "--preset", "fig1", "--msr", fig1_msr)
    run(out / "msr" / "svd", "svd", "--preset", "fig1", "--msr", fig1_msr)
    run(out / "msr" / "calibrate", "calibrate", "--preset", "fig4", "--msr", fig4_msr)
    for name in ("fig1", "fig4"):
        cfg = out / f"bie_{name}.json"
        cfg.write_text(json.dumps({**preset_config(name), "forward": "bie"}))
        run(out / f"bie_{name}" / "forward", "forward", "--config", str(cfg))
    run(out / "bie_fig4" / "calibrate", "calibrate", "--config", str(out / "bie_fig4.json"),
        "--msr", str(out / "bie_fig4" / "forward" / "msr.csv"))


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    write_outputs(Path(sys.argv[1]))
