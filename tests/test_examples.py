"""Smoke tests: the example scripts run end-to-end.

``compare_schemes`` and ``autotune_tiles`` are sized for interactive
use and take minutes on this substrate, so they are exercised at
import/function level elsewhere; the three fast examples run in full.
"""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def _run(name):
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")


def test_quickstart(capsys):
    _run("quickstart.py")
    out = capsys.readouterr().out
    assert "verified" in out
    assert "concurrent start" in out


def test_game_of_life(capsys):
    _run("game_of_life.py")
    out = capsys.readouterr().out
    assert "glider translated" in out


def test_high_order_and_periodic(capsys):
    _run("high_order_and_periodic.py")
    out = capsys.readouterr().out
    assert "both §3.6 extensions verified" in out


def test_fault_tolerance(capsys):
    _run("fault_tolerance.py")
    out = capsys.readouterr().out
    assert "resumed from the step-6 checkpoint" in out
    assert "resumed job bit-identical to an unbroken run: True" in out
    assert "dropped exchange -> detected: ghost-band divergence" in out


def test_examples_exist():
    present = {p.name for p in EXAMPLES.glob("*.py")}
    assert {"quickstart.py", "game_of_life.py", "compare_schemes.py",
            "autotune_tiles.py", "high_order_and_periodic.py"} <= present
