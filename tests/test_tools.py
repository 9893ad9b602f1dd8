"""Smoke test of tools/calibrate_truncation.py on a few sectors."""
import importlib.util
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "calibrate_truncation.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("calibrate_truncation", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_calibrate_truncation_lists_a_small_grid(monkeypatch, capsys):
    tool = _load_tool()
    # the normal phase, and at N = 40, x = 2.5 a sector boxed in at nu >= 9
    monkeypatch.setattr(tool, "OMEGAS", (1.0,))
    monkeypatch.setattr(tool, "ATOMS", (10, 40))
    monkeypatch.setattr(tool, "RATIOS", (0.6, 2.5))
    monkeypatch.setattr(sys, "path", list(sys.path))  # main puts src/ first
    assert tool.main(["--rise", "--list"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 8 + 3
    assert lines[8] == ("sectors 8: accepted at the first solve 8, after more solves 0, "
                        "raised at the cap 0, raised otherwise 0")
    assert [line.split()[:5] for line in lines[:8]] == [
        ["1", str(n), x, parity, "first"]
        for n in (10, 40) for x in ("0.6", "2.5") for parity in ("even", "odd")]
    assert sum(" box=(9,0,40) " in line for line in lines[:8]) == 2
    assert "largest energy rise from the box" in lines[10]
