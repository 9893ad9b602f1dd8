import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dickelab import ModelParams, __version__, default_nu_max, joint_distribution_sas
from dickelab.cli import _build_parser, main
from dickelab.dataset import Dataset


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSpectrum:
    def test_single_point_gamma_zero(self, capsys):
        code, out, err = run_cli(capsys, "spectrum", "--gamma", "0",
                                 "--n-atoms", "20")
        assert code == 0
        lines = [l for l in out.strip().split("\n") if not l.startswith("#")]
        header = lines[0].split(",")
        row = lines[1].split(",")
        assert header == ["gamma", "E_exact_even", "E_exact_odd", "E_sas_even", "E_sas_odd"]
        assert float(row[1]) == pytest.approx(-10.0, abs=1e-12)
        assert float(row[3]) == -10.0

    def test_small_grid(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--n-atoms", "4",
                               "--gamma-min", "0", "--gamma-max", "0.8", "--steps", "5")
        assert code == 0
        rows = [l for l in out.strip().split("\n") if not l.startswith("#")][1:]
        assert len(rows) == 5

    def test_steps_one_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "spectrum", "--n-atoms", "4",
                               "--gamma-min", "0", "--gamma-max", "1", "--steps", "1")
        assert code == 2
        assert "steps" in err

    def test_gamma_and_range_conflict(self, capsys):
        code, _, err = run_cli(capsys, "spectrum", "--gamma", "0.5",
                               "--gamma-min", "0", "--gamma-max", "1", "--steps", "3")
        assert code == 2

    def test_unknown_flag_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "spectrum", "--bogus")
        assert code == 2


class TestObservables:
    def test_exact_source(self, capsys):
        code, out, _ = run_cli(capsys, "observables", "--gamma", "1.0",
                               "--n-atoms", "6", "--parity", "even")
        assert code == 0
        lines = [l for l in out.strip().split("\n") if not l.startswith("#")]
        head = lines[0].split(",")
        row = lines[1].split(",")
        val = dict(zip(head, row))
        assert val["parity"] == "even"
        assert abs(float(val["q"])) < 1e-12
        assert float(val["n_photons"]) > 0

    def test_sas_source_normal_phase_flagged(self, capsys):
        code, out, _ = run_cli(capsys, "observables", "--gamma", "0.2",
                               "--n-atoms", "6", "--parity", "even", "--source", "sas")
        assert code == 0
        lines = [l for l in out.strip().split("\n") if not l.startswith("#")]
        row = lines[1].split(",")
        assert row[-1] == "ValueError"  # domain error emitted as flag, not abort


class TestFidelity:
    def test_annihilation_emits_null_row(self, capsys):
        code, out, _ = run_cli(capsys, "fidelity", "--n-atoms", "6",
                               "--gamma-min", "0.4", "--gamma-max", "0.6",
                               "--steps", "3", "--parity", "odd")
        assert code == 0
        lines = [l for l in out.strip().split("\n") if not l.startswith("#")]
        rows = [l.split(",") for l in lines[1:]]
        mid = rows[1]
        assert float(mid[0]) == 0.5
        assert mid[2] == ""  # null fidelity
        assert mid[4] == "annihilated"
        assert float(rows[2][2]) > 0.5


def _table(out):
    lines = [l for l in out.strip().split("\n") if not l.startswith("#")]
    head = lines[0].split(",")
    return [dict(zip(head, l.split(","))) for l in lines[1:]]


class TestLambdaMaxCap:
    @pytest.mark.parametrize("argv", [
        ("spectrum",),
        ("verify",),
        ("figures", "--id", "3"),
        ("figures", "--id", "5"),
        ("figures", "--id", "6"),
    ])
    def test_cap_below_seed_fails(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv, "--n-atoms", "10", "--gamma", "1",
                               "--lambda-max-cap", "4")
        assert code == 1
        assert "lambda_max cap 4" in err

    def test_fidelity_flags_the_capped_point(self, capsys):
        code, out, _ = run_cli(capsys, "fidelity", "--n-atoms", "10", "--gamma-min", "0.2",
                               "--gamma-max", "1", "--steps", "2", "--parity", "even",
                               "--lambda-max-cap", "30")
        assert code == 0
        low, high = _table(out)
        assert float(low["fidelity"]) > 0.9 and low["flag"] == ""
        assert int(low["lambda_max"]) <= 30
        assert high["fidelity"] == "" and high["lambda_max"] == ""
        assert high["flag"] == "ConvergenceError"

    def test_figure_8_null_at_capped_point(self, capsys):
        code, out, _ = run_cli(capsys, "figures", "--id", "8", "--n-atoms", "10",
                               "--gamma-min", "0.2", "--gamma-max", "1", "--steps", "2",
                               "--lambda-max-cap", "30")
        assert code == 0
        low, high = _table(out)
        assert float(low["fid_even_N10"]) > 0.9
        assert high["fid_even_N10"] == "" and high["fid_odd_N10"] == ""

    def test_exact_observables_keep_good_rows(self, capsys):
        # gamma = 1 does not converge below the default cap of 400 at N = 250
        code, out, _ = run_cli(capsys, "observables", "--source", "exact", "--n-atoms", "250",
                               "--gamma-min", "0.2", "--gamma-max", "1.0", "--steps", "2",
                               "--parity", "even")
        assert code == 0
        low, high = _table(out)
        assert low["flag"] == "" and int(low["lambda_max"]) <= 400
        assert float(low["n_photons"]) > 0
        assert high["flag"] == "ConvergenceError"
        assert high["n_photons"] == "" and high["lambda_max"] == ""


class TestDistributions:
    def test_joint_sums_to_one(self, capsys):
        code, out, _ = run_cli(capsys, "distributions", "--gamma", "0.55",
                               "--n-atoms", "10", "--parity", "both")
        assert code == 0
        lines = [l for l in out.strip().split("\n") if not l.startswith("#")]
        head = lines[0].split(",")
        p_idx = head.index("p")
        par_idx = head.index("parity")
        sums = {"even": 0.0, "odd": 0.0}
        for line in lines[1:]:
            cells = line.split(",")
            sums[cells[par_idx]] += float(cells[p_idx])
        assert sums["even"] == pytest.approx(1.0, abs=1e-10)
        assert sums["odd"] == pytest.approx(1.0, abs=1e-10)

    def test_atom_marginal(self, capsys):
        code, out, _ = run_cli(capsys, "distributions", "--gamma", "1.0",
                               "--n-atoms", "6", "--parity", "even", "--kind", "atom")
        assert code == 0
        lines = [l for l in out.strip().split("\n") if not l.startswith("#")]
        assert len(lines) == 1 + 7  # header + N+1 rows

    @staticmethod
    def _full_grid_rows(n_atoms, gamma, parities, fmt):
        """The joint table's rendered rows on the whole (nu, n_e) grid, holes included."""
        blocks = []
        for parity in parities:
            m = joint_distribution_sas(ModelParams(1.0, gamma, n_atoms), parity).matrix
            nu, ne = np.indices(m.shape)
            blocks.append((gamma, parity, nu.ravel(), ne.ravel(), m.ravel(), ""))
        text = Dataset({}, ["gamma", "parity", "nu", "n_e", "p", "flag"], blocks).render(fmt)
        return text.splitlines()[1:] if fmt == "csv" else json.loads(text)["rows"]

    def test_examples_end_on_a_parity_hole(self):
        # the last grid cell (nu_max, N) of the two @example sectors below
        for n_atoms, parity in ((6, "even"), (7, "odd")):
            m = joint_distribution_sas(ModelParams(1.0, 0.6, n_atoms), parity).matrix
            assert m[-1, -1] == 0

    @settings(max_examples=20, deadline=None)
    @given(n_atoms=st.integers(1, 40), gamma=st.floats(0.505, 1.5),
           parity=st.sampled_from(["even", "odd", "both"]), fmt=st.sampled_from(["csv", "json"]))
    @example(n_atoms=6, gamma=0.6, parity="even", fmt="csv")
    @example(n_atoms=7, gamma=0.6, parity="odd", fmt="json")
    def test_joint_rows_are_the_grid_without_its_zeros(self, n_atoms, gamma, parity, fmt):
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            assert main(["distributions", "--kind", "joint", "--n-atoms", str(n_atoms),
                         "--gamma", repr(gamma), "--parity", parity, "--format", fmt]) == 0
        out = stdout.getvalue()
        parities = ["even", "odd"] if parity == "both" else [parity]
        grid = self._full_grid_rows(n_atoms, gamma, parities, fmt)
        if fmt == "csv":
            lines = out.splitlines()
            meta = dict(l[2:].split(" = ", 1) for l in lines if l.startswith("# "))
            nu_max = int(meta["nu_max"])
            rows = [l for l in lines if not l.startswith("#")][1:]
            kept = [r for r in grid if r.split(",")[4] != "0"]
        else:
            payload = json.loads(out)
            nu_max, rows = payload["meta"]["nu_max"], payload["rows"]
            kept = [r for r in grid if r[4] != 0]
        assert rows == kept
        assert nu_max == default_nu_max(ModelParams(1.0, gamma, n_atoms))


class TestFigures:
    def test_figure_4_series(self, capsys):
        code, out, _ = run_cli(capsys, "figures", "--id", "4")
        assert code == 0
        lines = [l for l in out.strip().split("\n") if not l.startswith("#")]
        assert lines[0] == "x,F_N2,F_N10,F_N20,F_N100"

    def test_unknown_figure_id(self, capsys):
        code, _, err = run_cli(capsys, "figures", "--id", "12")
        assert code == 2
        assert "figure id" in err


class TestParity:
    @pytest.mark.parametrize("argv", [
        ("spectrum", "--n-atoms", "4", "--gamma", "0.5"),
        ("verify", "--n-atoms", "4", "--gamma", "1"),
        ("figures", "--id", "4", "--n-atoms", "2"),
    ])
    @pytest.mark.parametrize("parity", ["even", "odd"])
    def test_one_sector_is_a_usage_error_where_both_are_covered(self, capsys, argv, parity):
        code, out, err = run_cli(capsys, *argv, "--parity", parity)
        assert (code, out) == (2, "")
        assert "--parity" in err
        assert run_cli(capsys, *argv, "--parity", "both")[0] == 0

    def test_one_sector_is_honoured(self, capsys):
        code, out, _ = run_cli(capsys, "distributions", "--kind", "photon", "--n-atoms", "4",
                               "--gamma", "1", "--parity", "odd")
        assert code == 0
        rows = [l.split(",") for l in out.strip().split("\n") if not l.startswith("#")][1:]
        assert {r[1] for r in rows} == {"odd"}


class TestVerify:
    def test_lambda_row_flagged(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n-atoms", "10", "--gamma", "1")
        assert code == 0
        lines = [l for l in out.strip().split("\n") if not l.startswith("#")]
        head = lines[0].split(",")
        rows = [dict(zip(head, l.split(","))) for l in lines[1:]]
        lam_rows = [r for r in rows if r["observable"] == "lam"]
        assert len(lam_rows) == 2
        assert all(r["status"].startswith("flagged") for r in lam_rows)
        jz_rows = [r for r in rows if r["observable"] == "jz"]
        assert all(r["status"] == "ok" for r in jz_rows)


class TestNegativeCoupling:
    def test_verify_statuses_even_in_gamma(self, capsys):
        tables = {}
        for gamma in ("1", "-1"):
            code, out, _ = run_cli(capsys, "verify", "--n-atoms", "10", "--gamma", gamma)
            assert code == 0
            tables[gamma] = _table(out)
        plus, minus = tables["1"], tables["-1"]
        assert [(r["observable"], r["parity"], r["status"]) for r in minus] == \
            [(r["observable"], r["parity"], r["status"]) for r in plus]
        assert all("exact-deviation" not in r["status"] for r in minus)


class TestCommandsMatchFigures:
    """Figures 7-9 and the distributions/fidelity commands print the same numbers."""

    @pytest.mark.parametrize("n", ["6", "10"])
    def test_figure_7_is_the_joint_distribution(self, capsys, n):
        _, fig, _ = run_cli(capsys, "figures", "--id", "7", "--n-atoms", n)
        _, dist, _ = run_cli(capsys, "distributions", "--kind", "joint", "--n-atoms", n,
                             "--gamma", "0.55")
        fig, dist = _table(fig), _table(dist)
        # figure 7 keeps a cell where either parity is non-zero; each parity's
        # non-zero cells are the distributions rows, byte for byte
        assert all(float(r["p_even"]) or float(r["p_odd"]) for r in fig)
        for parity in ("even", "odd"):
            cells = [(r["nu"], r["n_e"], r["p"]) for r in dist if r["parity"] == parity]
            assert cells == [(r["nu"], r["n_e"], r[f"p_{parity}"]) for r in fig
                             if float(r[f"p_{parity}"]) != 0]

    @pytest.mark.parametrize("n", ["6", "10"])
    def test_figure_9_is_the_marginals(self, capsys, n):
        _, fig, _ = run_cli(capsys, "figures", "--id", "9", "--n-atoms", n)
        fig = _table(fig)
        for kind, index in (("photon", "nu"), ("atom", "n_e")):
            _, dist, _ = run_cli(capsys, "distributions", "--kind", kind, "--n-atoms", n,
                                 "--gamma-min", "0.55", "--gamma-max", "1.0", "--steps", "2")
            dist = _table(dist)
            for parity in ("even", "odd"):
                cells = [(float(r["gamma"]), r[index], r["p"])
                         for r in dist if r["parity"] == parity]
                assert cells == [(float(r["gamma"]), r["k"], r[f"p_{parity}"])
                                 for r in fig if r["kind"] == kind]

    @pytest.mark.parametrize("n,cap", [("6", "400"), ("10", "400"), ("10", "30")])
    def test_figure_8_is_the_fidelity(self, capsys, n, cap):
        grid = ("--n-atoms", n, "--gamma-min", "0.2", "--gamma-max", "1", "--steps", "5",
                "--lambda-max-cap", cap)
        _, fig, _ = run_cli(capsys, "figures", "--id", "8", *grid)
        _, fid, _ = run_cli(capsys, "fidelity", *grid)
        fig, fid = _table(fig), _table(fid)
        got = [(float(row["gamma"]), parity, row[f"fid_{parity}_N{n}"])
               for row in fig for parity in ("even", "odd")]
        assert got == [(float(r["gamma"]), r["parity"], r["fidelity"]) for r in fid]
        if cap == "30":  # x = 2 does not converge below the cap: a null cell
            assert got[-1] == (1.0, "odd", "") and fid[-1]["flag"] == "ConvergenceError"


class TestOutput:
    def test_json_round_trip(self, capsys, tmp_path):
        out_file = tmp_path / "data.json"
        code, _, _ = run_cli(capsys, "spectrum", "--gamma", "0.7", "--n-atoms", "4",
                             "--format", "json", "--out", str(out_file))
        assert code == 0
        ds = Dataset.from_json(out_file.read_text())
        assert ds.columns[0] == "gamma"
        assert isinstance(ds.rows[0][1], float)
        # serialize again: bit-identical
        assert Dataset.from_json(ds.to_json()).rows == ds.rows

    def test_determinism(self, capsys):
        args = ("fidelity", "--n-atoms", "4", "--gamma-min", "0.1",
                "--gamma-max", "0.9", "--steps", "4", "--parity", "even")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_determinism_odd_separatrix(self, capsys):
        # the odd trial state cannot seed the solver at gamma = gamma_c, so
        # the eigensolver's start vector there must not be drawn at random
        args = ("observables", "--source", "exact", "--n-atoms", "40", "--gamma-min", "0.4",
                "--gamma-max", "0.6", "--steps", "3", "--parity", "odd")
        outs = {run_cli(capsys, *args)[1] for _ in range(3)}
        assert len(outs) == 1

    def test_one_parser_answers_every_call(self, capsys):
        # main() reuses one parser per process: a usage error, --version and
        # earlier commands must leave no trace in later answers
        argvs = [("spectrum", "--bogus"), ("--version",), ("figures", "--id", "3", "--n-atoms", "8"),
                 ("spectrum", "--n-atoms", "6", "--gamma", "0.7"),
                 ("figures", "--id", "3", "--n-atoms", "8")]
        answers = [run_cli(capsys, *argv) for argv in argvs + argvs]
        first = {}
        for argv, answer in zip(argvs + argvs, answers):
            assert answer == first.setdefault(argv, answer)
        assert [code for code, _, _ in answers[:5]] == [2, 0, 0, 0, 0]
        assert "unrecognized arguments: --bogus" in answers[0][2]
        assert answers[1][1] == f"{__version__}\n"
        assert _build_parser() is _build_parser()

    def test_unwritable_out_is_a_usage_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.csv"
        code, out, err = run_cli(capsys, "spectrum", "--gamma", "1", "--out", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot write --out {target}")
        assert err.count("\n") == 1
        assert not target.exists()

    @pytest.mark.parametrize("flag,argv", [
        ("--gamma", ("fidelity", "--gamma", "inf")),
        ("--gamma-max", ("fidelity", "--gamma-min", "0", "--gamma-max", "inf", "--steps", "3")),
        ("--gamma-min", ("spectrum", "--gamma-min=-inf", "--gamma-max", "1", "--steps", "3")),
        ("--gamma", ("observables", "--source", "sas", "--gamma", "nan")),
        ("--tol", ("spectrum", "--gamma", "1", "--tol", "inf")),
        ("--tol", ("spectrum", "--gamma", "1", "--tol", "nan")),
        ("--omega-a", ("spectrum", "--gamma", "1", "--omega-a", "inf")),
    ])
    def test_non_finite_number_is_a_usage_error(self, capsys, flag, argv):
        code, out, err = run_cli(capsys, *argv, "--n-atoms", "10")
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {flag} must be finite")
        assert err.count("\n") == 1

    def test_csv_metadata_header(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--gamma", "0.3", "--n-atoms", "2")
        meta_lines = [l for l in out.split("\n") if l.startswith("# ")]
        keys = {l.split("=")[0].strip("# ") for l in meta_lines}
        assert {"command", "version", "omega_a", "n_atoms"} <= keys


# argv -> exit code and the flag column of the output rows (None: no output)
CLI_CONTRACT = [
    pytest.param(("observables", "--source", "sas", "--n-atoms", "6", "--gamma-min", "0.3",
                  "--gamma-max", "1.0", "--steps", "2", "--parity", "even"),
                 0, ["ValueError", ""], id="observables-sas-normal-phase"),
    pytest.param(("observables", "--source", "coherent", "--n-atoms", "6", "--gamma", "0.3"),
                 0, ["ValueError", "ValueError"], id="observables-coherent-normal-phase"),
    pytest.param(("observables", "--source", "exact", "--n-atoms", "10", "--gamma", "1",
                  "--lambda-max-cap", "30", "--parity", "even"),
                 0, ["ConvergenceError"], id="observables-exact-capped"),
    # N = 200 at x = 2: the superradiant box starts at nu = 100, above the cap
    pytest.param(("observables", "--source", "exact", "--n-atoms", "200", "--gamma", "1",
                  "--lambda-max-cap", "50"),
                 0, ["ConvergenceError", "ConvergenceError"], id="observables-exact-empty-window"),
    pytest.param(("distributions", "--kind", "joint", "--parity", "odd", "--n-atoms", "6",
                  "--gamma", "0.5"),
                 0, ["ProjectionAnnihilationError"], id="distributions-joint-odd-separatrix"),
    pytest.param(("distributions", "--kind", "photon", "--parity", "odd", "--n-atoms", "6",
                  "--gamma", "0.5"),
                 0, ["ProjectionAnnihilationError"], id="distributions-photon-odd-separatrix"),
    pytest.param(("distributions", "--kind", "atom", "--parity", "odd", "--n-atoms", "6",
                  "--gamma", "0.5"),
                 0, ["ProjectionAnnihilationError"], id="distributions-atom-odd-separatrix"),
    pytest.param(("distributions", "--kind", "photon", "--parity", "even", "--n-atoms", "6",
                  "--gamma", "0.3"),
                 0, ["ValueError"], id="distributions-photon-normal-phase"),
    pytest.param(("fidelity", "--n-atoms", "6", "--gamma", "0.5", "--parity", "odd"),
                 0, ["annihilated"], id="fidelity-odd-separatrix"),
    pytest.param(("fidelity", "--n-atoms", "10", "--gamma", "1", "--lambda-max-cap", "30"),
                 0, ["ConvergenceError", "ConvergenceError"], id="fidelity-capped"),
    pytest.param(("verify", "--n-atoms", "6", "--gamma", "0.3"), 1, None,
                 id="verify-normal-phase"),
    pytest.param(("spectrum", "--n-atoms", "0", "--gamma", "0.5"), 2, None,
                 id="spectrum-zero-atoms"),
    pytest.param(("figures", "--id", "3", "--n-atoms", "0"), 2, None, id="figures-zero-atoms"),
    pytest.param(("observables", "--source", "sas", "--omega-a", "0", "--gamma", "0.5"),
                 2, None, id="observables-zero-omega"),
    pytest.param(("spectrum", "--omega-a", "-1", "--gamma", "0.5"), 2, None,
                 id="spectrum-negative-omega"),
    pytest.param(("figures", "--id", "0"), 2, None, id="figures-id-0"),
    pytest.param(("fidelity", "--n-atoms", "4", "--gamma", "0.3", "--jobs", "2"), 2, None,
                 id="fidelity-jobs-flag"),
]


@pytest.mark.parametrize("argv,code,flags", CLI_CONTRACT)
def test_cli_contract(capsys, argv, code, flags):
    got, out, err = run_cli(capsys, *argv)
    assert got == code, err
    if flags is None:
        assert out == ""
    else:
        assert [row["flag"] for row in _table(out)] == flags
