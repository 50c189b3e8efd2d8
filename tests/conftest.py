"""Shared pytest plumbing: collect acceptance pass/fail lines and print them
in the terminal summary so they survive output capture, and write the preset
output set once per session for the tests that read it."""

import runpy
import sys
from pathlib import Path

import pytest

PRESET_OUTPUTS = Path(__file__).resolve().parents[1] / "tools" / "preset_outputs.py"

acceptance_lines = []


def record_criterion(line):
    acceptance_lines.append(line)


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.write_line("")
        terminalreporter.write_line("acceptance criteria:")
        for line in acceptance_lines:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def preset_tree(tmp_path_factory):
    """(tree, called): tools/preset_outputs.write_outputs run once into tree
    under sys.setprofile, and the code objects that the run called."""
    tree, called = tmp_path_factory.mktemp("preset_outputs"), set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(profile)
    try:
        runpy.run_path(str(PRESET_OUTPUTS))["write_outputs"](tree)
    finally:
        sys.setprofile(None)
    return tree, called
