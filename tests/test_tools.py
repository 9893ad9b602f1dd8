"""Smoke tests of tools/calibrate_truncation.py on a few sectors and of
tools/cli_digest.py's comparison of two outputs."""
import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dickelab import ModelParams, solver
from dickelab.dataset import Dataset

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_calibrate_truncation_lists_a_small_grid(monkeypatch, capsys):
    tool = _load_tool("calibrate_truncation")
    # the normal phase, and at N = 40, x = 2.5 a sector boxed in at nu >= 12
    monkeypatch.setattr(tool, "OMEGAS", (1.0,))
    monkeypatch.setattr(tool, "ATOMS", (10, 40))
    monkeypatch.setattr(tool, "RATIOS", (0.6, 2.5))
    monkeypatch.setattr(sys, "path", list(sys.path))  # main puts src/ first
    # a cutoff below the largest windows, so that some factor the Schur complement
    monkeypatch.setattr(solver, "SCHUR_CUTOFF", 1000)
    assert tool.main(["--rise", "--list"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 8 + 6
    assert lines[8] == "sectors 8 at tol 1e-08: accepted 8, raised 0"
    assert [line.split()[:5] for line in lines[:8]] == [
        ["1", str(n), x, parity, "accepted"]
        for n in (10, 40) for x in ("0.6", "2.5") for parity in ("even", "odd")]
    assert sum(" box=(12,0,40) " in line for line in lines[:8]) == 2
    rise = re.search(r"; largest energy rise from the box (\S+) \((\S+) tol\); ", lines[10])
    assert rise is not None, lines[10]
    assert 0.0 < float(rise[1]) <= 1e-8
    assert float(rise[2]) == pytest.approx(float(rise[1]) / 1e-8, rel=1e-2)
    # the six sectors above the dense cutoff (dim 272 to 2265) are shift-inverted,
    # each with at least one band solve, from a shift below its ground energy
    dims = [int(re.search(r" dim=(\d+) ", line).group(1)) for line in lines[:8]]
    assert sum(dim > 120 for dim in dims) == 6
    summary = re.fullmatch(r"shift-invert sectors 6: band solves (\d+); "
                           r"E0 - sigma median (\S+), largest (\S+)", lines[11])
    assert summary is not None, lines[11]
    solves, median, largest = int(summary[1]), float(summary[2]), float(summary[3])
    assert solves >= 6 and 0.0 < median <= largest
    schur = sum(dim > 1000 for dim in dims)
    assert 0 < schur < 6
    assert lines[12] == (f"Schur complement factored in {schur} of 6 shift-invert sectors "
                         f"(above 1000 states)")
    assert lines[13] == ("proven 6 of 6 shift-invert ground energies: the band factors at "
                         "E0 - residual - tol |E0|")


def test_calibrate_truncation_counts_a_window_past_the_budget(monkeypatch, capsys,
                                                             budget_below):
    tool = _load_tool("calibrate_truncation")
    # omega_a = 4, N = 99, x = 2.5: the box starts at nu = 460; with the band
    # budget below both windows neither sector is solved, and the run fails
    monkeypatch.setattr(tool, "OMEGAS", (4.0,))
    monkeypatch.setattr(tool, "ATOMS", (99,))
    monkeypatch.setattr(tool, "RATIOS", (2.5,))
    monkeypatch.setattr(sys, "path", list(sys.path))
    budget_below(ModelParams.from_ratio(4.0, 2.5, 99))
    assert tool.main(["--list"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["4 99 2.5 even error", "4 99 2.5 odd error"]
    assert lines[2] == "sectors 2 at tol 1e-08: accepted 0, raised 2"
    assert lines[5] == "shift-invert sectors 0: band solves 0; E0 - sigma median 0, largest 0"
    assert lines[6] == (f"Schur complement factored in 0 of 0 shift-invert sectors "
                        f"(above {solver.SCHUR_CUTOFF} states)")
    assert lines[7] == ("proven 0 of 0 shift-invert ground energies: the band factors at "
                        "E0 - residual - tol |E0|")


def test_calibrate_truncation_fails_an_unproven_sector(monkeypatch, capsys):
    # a proof that fails (as at an excited energy) fails the run
    tool = _load_tool("calibrate_truncation")
    monkeypatch.setattr(tool, "OMEGAS", (1.0,))
    monkeypatch.setattr(tool, "ATOMS", (40,))
    monkeypatch.setattr(tool, "RATIOS", (2.5,))
    monkeypatch.setattr(sys, "path", list(sys.path))
    factor = solver._factor

    def excited(H, basis, sigma):  # every proof shift moved above the spectrum's bottom
        if sigma > solver.spin_floor(basis.params):
            sigma += 1.0
        return factor(H, basis, sigma)

    monkeypatch.setattr(solver, "_factor", excited)
    assert tool.main([]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "sectors 2 at tol 1e-08: accepted 2, raised 0"
    assert lines[5] == ("proven 0 of 2 shift-invert ground energies: the band factors at "
                        "E0 - residual - tol |E0|")


def test_calibrate_truncation_fails_a_box_rise_above_tol(monkeypatch, capsys):
    # a box of one width with the truncation test off: every sector is
    # accepted, the box raises its energy far above tol |E|, and the run fails
    tool = _load_tool("calibrate_truncation")
    monkeypatch.setattr(tool, "OMEGAS", (1.0,))
    monkeypatch.setattr(tool, "ATOMS", (40,))
    monkeypatch.setattr(tool, "RATIOS", (2.5,))
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(solver, "WINDOW_WIDTHS", solver.WINDOW_WIDTHS)  # main sets it
    monkeypatch.setattr(solver, "TRUNCATION_SAFETY", 1e-9)
    assert tool.main(["--rise", "--widths", "1"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "sectors 2 at tol 1e-08: accepted 2, raised 0"
    rise = re.search(r"; largest energy rise from the box (\S+) \((\S+) tol\); ", lines[2])
    assert rise is not None, lines[2]
    assert float(rise[1]) > 1e-8 and float(rise[2]) > 1.0
    assert lines[5] == ("proven 2 of 2 shift-invert ground energies: the band factors at "
                        "E0 - residual - tol |E0|")


def _joint_table(nu, ne, p, fmt):
    meta = {"command": "distributions", "kind": "joint", "nu_max": 1}
    block = (0.55, "even", np.array(nu), np.array(ne), np.array(p, dtype=float), "")
    return Dataset(meta, ["gamma", "parity", "nu", "n_e", "p", "flag"], [block]).render(fmt)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("new,verdict", [
    (([0, 0, 1, 1], [0, 1, 0, 1], [0.5, 0.0, 0.0, 0.5]), "identical"),
    (([0, 1], [0, 1], [0.5, 0.5]), "support-identical"),  # the parity holes dropped
    pytest.param(([0, 1], [0, 1], [0.5, 0.5 + 1e-16]), "max-rel-diff 2.2e-16 p",
                 id="new2-max-rel-diff 2.2e-16"),  # the worst column named after it
    (([0], [0], [0.5]), "MISMATCH row count"),  # a kept row missing
    (([0, 1], [1, 0], [0.5, 0.5]), "MISMATCH index cell"),  # kept cells moved
])
def test_cli_digest_compares_distributions_on_their_support(monkeypatch, fmt, new, verdict):
    tool = _load_tool("cli_digest")
    old = ([0, 0, 1, 1], [0, 1, 0, 1], [0.5, 0.0, 0.0, 0.5])
    stdout = {"old": _joint_table(*old, fmt), "new": _joint_table(*new, fmt)}
    monkeypatch.setattr(tool, "run", lambda argv, src: subprocess.CompletedProcess(
        argv, 0, stdout[src.name].encode(), b""))
    argv = ["distributions", "--kind", "joint"]
    line = tool.compare_line(argv, Path("new"), Path("old"), fmt)
    assert line == f"{verdict} distributions --kind joint"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_cli_digest_compares_rounding_residue_absolutely(monkeypatch, fmt):
    # dev moves from 1e-16 to 3e-16, a relative change of 0.67 but rounding
    # residue both times; exact moves by one ulp, which is the worst change
    tool = _load_tool("cli_digest")

    def table(exact, dev):
        return Dataset({"command": "verify"}, ["name", "exact", "dev"],
                       [("jz", exact, dev)]).render(fmt)

    stdout = {"old": table(-4.0, 1e-16), "new": table(-4.000000000000001, 3e-16)}
    monkeypatch.setattr(tool, "run", lambda argv, src: subprocess.CompletedProcess(
        argv, 0, stdout[src.name].encode(), b""))
    assert tool.compare_line(["verify"], Path("new"), Path("old"), fmt) == (
        "max-rel-diff 2.2e-16 exact verify")


def _spectrum_table(meta, energy, fmt):
    return Dataset({"command": "spectrum", **meta}, ["gamma", "parity", "energy"],
                   [(1.0, "even", energy)]).render(fmt)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("old_meta,new_meta,keys", [
    ({"lambda_max_cap": 400, "tol": 1e-8}, {"tol": 1e-8}, "-lambda_max_cap"),
    ({"tol": 1e-8}, {"tol": 1e-8, "budget": 512}, "+budget"),
    ({"tol": 1e-8, "n_atoms": 40}, {"n_atoms": 40, "tol": 1e-8}, "order"),
])
def test_cli_digest_compares_the_shared_cells_when_metadata_keys_differ(
        monkeypatch, capsys, fmt, old_meta, new_meta, keys):
    # the key difference is named, the shared cells still compared, and the run fails
    tool = _load_tool("cli_digest")
    stdout = {"old": _spectrum_table(old_meta, -4.0, fmt),
              "new": _spectrum_table(new_meta, -4.000000000000001, fmt)}
    monkeypatch.setattr(tool, "run", lambda argv, src: subprocess.CompletedProcess(
        argv, 0, stdout[src.name].encode(), b""))
    want = f"MISMATCH metadata keys {keys} max-rel-diff 2.2e-16 energy spectrum"
    assert tool.compare_line(["spectrum"], Path("new"), Path("old"), fmt) == want
    monkeypatch.setattr(tool, "COMMANDS", [("spectrum",)])
    monkeypatch.setattr(tool, "FORMATS", (fmt,))
    assert tool.main(["--src", "new", "--against", "old"]) == 1
    assert capsys.readouterr().out == f"{want} --format {fmt}\n"
