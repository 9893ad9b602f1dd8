"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q clibench
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import workloads
from probe import SRC
from worker import REFERENCE_DIR, Client, reference_requests

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(SRC))


@pytest.fixture(scope="module")
def cli():
    from dickelab import cli as module
    return module


def test_same_seed_same_requests():
    for name in workloads.WORKLOADS:
        n = workloads.round_size(name) + 5
        assert workloads.first_requests(name, 7, n) == workloads.first_requests(name, 7, n)
        assert workloads.first_requests(name, 7, n) != workloads.first_requests(name, 8, n)


def test_large_n_stays_below_the_seed_cap():
    for req in workloads.first_requests("scan_large_n", 3, 200):
        x = req.gamma_min / workloads.GAMMA_C
        assert workloads.truncation_start(req.n_atoms, x) <= workloads.LARGE_N_LAMBDA_LIMIT
        assert 60 <= req.n_atoms <= 140 and x > 1.0


def _reference(workload: str, index: int):
    req = reference_requests(workload)[index]
    ref = json.loads((REFERENCE_DIR / f"{workload}.json").read_text())["requests"][index]
    assert ref["label"] == req.label()
    return req, ref["digest"]


def _first(workload: str, command: str):
    for i, req in enumerate(reference_requests(workload)):
        if req.command == command:
            return i
    raise AssertionError(f"no {command} reference request in {workload}")


def test_perturbed_output_fails_the_check(cli, tmp_path):
    i = _first("scan_small", "spectrum")
    req, ref = _reference("scan_small", i)
    table = Client(cli, str(tmp_path)).send(req)
    assert table is not None
    checks.compare_digest(req, checks.digest(req, table), ref)
    table["E_exact_even"] = table["E_exact_even"] * (1.0 + 1e-5)
    with pytest.raises(checks.CheckError):
        checks.compare_digest(req, checks.digest(req, table), ref)
    table["E_exact_even"] = table["E_sas_even"] + 1e-3  # above its variational bound
    with pytest.raises(checks.CheckError):
        checks.check_invariants(req, table)


def test_perturbed_distribution_fails_the_check(cli, tmp_path):
    i = _first("closed_form_tables", "distributions")
    req, ref = _reference("closed_form_tables", i)
    table = Client(cli, str(tmp_path)).send(req)
    assert table is not None
    checks.compare_digest(req, checks.digest(req, table), ref)
    table["p"][0] += 1e-4
    with pytest.raises(checks.CheckError):
        checks.check_invariants(req, table)
    with pytest.raises(checks.CheckError):
        checks.compare_digest(req, checks.digest(req, table), ref)


def test_fidelity_outside_unit_interval_fails(cli, tmp_path):
    req = workloads.Request("fidelity", "", 10, 0.3, 0.32, 3, "both", "json")
    table = Client(cli, str(tmp_path)).send(req)
    assert table is not None
    table["fidelity"][1] = 1.0 + 1e-9
    with pytest.raises(checks.CheckError):
        checks.check_invariants(req, table)


def _bindings():
    import importlib

    import scipy.linalg
    import scipy.sparse.linalg

    from tracer import MODULES, PACKAGE
    mods = [importlib.import_module(PACKAGE)]
    mods += [importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES]
    snap = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
    snap[("Dataset", "render")] = mods[-1].Dataset.render
    snap[("scipy.sparse.linalg", "eigsh")] = scipy.sparse.linalg.eigsh
    snap[("scipy.linalg", "eigh")] = scipy.linalg.eigh
    return snap


def test_tracer_restores_every_binding(cli, tmp_path):
    from tracer import Tracer

    before = _bindings()
    tracer = Tracer()
    with tracer:
        assert cli.main is not before[("dickelab.cli", "main")]
        assert Client(cli, str(tmp_path)).send(
            workloads.Request("spectrum", "", 20, 0.9, 0.92, 2, "both", "csv")) is not None
    after = _bindings()
    assert [k for k in before if after.get(k) is not before[k]] == []
    totals = tracer.layer_totals()
    assert totals["cli"]["calls"] == 1 and totals["solver.eigsh"]["calls"] > 0
    assert len({span[0] for span in tracer.spans}) == 1  # one request, one identifier


def _traced_run(workload: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=170)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"], done.stdout
    return {k: m["value"] for k, m in result["metrics"].items()}


COUNTS = ["solver.solves", "solver.dim_sum", "solver.dim_max", "solver.dense_fallback",
          "model.assembly.nnz_sum", "dataset.rows"]


def test_layer_counts_repeat_exactly():
    first, second = _traced_run("scan_small", 5), _traced_run("scan_small", 5)
    counted = [k for k in first if k.endswith(".calls")] + COUNTS
    assert {k: first[k] for k in counted} == {k: second[k] for k in counted}
    assert first["solver.solves"] > 0 and first["model.basis.calls"] > 0


def test_rendered_bytes_repeat_exactly():
    # SciPy's eigsh starts from a random vector in every process, so exact
    # results differ in their last digits and their 17-digit rendering can
    # differ by a few bytes; closed-form tables render identically.
    first, second = (_traced_run("closed_form_tables", 5) for _ in range(2))
    counted = [k for k in first if k.endswith(".calls")] + COUNTS + ["dataset.render.bytes"]
    assert {k: first[k] for k in counted} == {k: second[k] for k in counted}
    assert first["dataset.render.bytes"] > 0 and first["solver.solves"] == 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run(
        [sys.executable, os.path.join(HERE.name, "run.py"), "--workload", "scan_small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
