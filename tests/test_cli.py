"""CLI integration tests: exit codes, payload content, and determinism."""

import argparse
import io
import json
import math
import os
import stat
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from onebit import cli
from onebit.cli import MAX_ENTRY, build_parser, main
from onebit.highdim import random_with_min_eigenvalue

from math_reference import cholesky_succeeds

GOLDEN_DIR = Path(__file__).parent / "golden"


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def write_matrix(path, matrix):
    m = np.asarray(matrix, dtype=complex)
    payload = {"n": m.shape[0], "re": m.real.tolist(), "im": m.imag.tolist()}
    path.write_text(json.dumps(payload))


def tree_snapshot(root):
    """Every path under ``root`` with its bytes and modification time."""
    return {
        path: (path.read_bytes() if path.is_file() else None, path.stat().st_mtime_ns)
        for path in sorted(root.rglob("*"))
    }


class TestEntropyCommand:
    def test_fair_coin(self):
        code, out, err = run_cli(["entropy", "--dist", "0.5,0.5", "--alpha", "2"])
        assert code == 0
        report = json.loads(out)
        assert report["results"]["entropy"] == 1.0
        assert "entropy = 1" in err

    def test_deterministic_distribution(self):
        code, out, _ = run_cli(["entropy", "--dist", "1,0", "--alpha", "2"])
        assert code == 0
        assert json.loads(out)["results"]["entropy"] == 0.0

    @pytest.mark.parametrize("alpha", ["0.9999999999999999", "1.0000000000000002"])
    def test_degrees_next_to_one_give_the_shannon_bits(self, alpha):
        # without the Shannon band: a ZeroDivisionError below 1, 2 bits above
        argv = ["entropy", "--dist", "0.3,0.7", "--alpha"]
        code, out, _ = run_cli(argv + [alpha])
        assert code == 0
        shannon = json.loads(run_cli(argv + ["1"])[1])["results"]
        assert json.loads(out)["results"] == shannon


class TestInvarianceScanCommand:
    def test_scan_results(self, tmp_path):
        csv_path = tmp_path / "scan.csv"
        code, out, _ = run_cli(
            [
                "invariance-scan",
                "--alphas", "1,2,3",
                "--n-states", "100",
                "--n-maps", "20",
                "--seed", "5",
                "--out-csv", str(csv_path),
            ]
        )
        assert code == 0
        rows = {r["alpha"]: r for r in json.loads(out)["results"]["rows"]}
        assert rows[2.0]["max_deviation"] <= 1e-9
        assert rows[1.0]["max_deviation"] >= 0.19
        header = csv_path.read_text().splitlines()[0]
        assert header == "alpha,max_deviation,argmax_state_id,argmax_map_id"

    def test_degrees_next_to_one_scan_as_shannon(self, tmp_path):
        argv = ["invariance-scan", "--n-states", "20", "--n-maps", "5",
                "--out-csv", str(tmp_path / "scan.csv"), "--alphas"]
        code, out, _ = run_cli(argv + ["0.9999999999999999,1.0000000000000002"])
        assert code == 0
        (shannon,) = json.loads(run_cli(argv + ["1"])[1])["results"]["rows"]
        assert json.loads(out)["results"]["rows"] == [
            dict(shannon, alpha=0.9999999999999999), dict(shannon, alpha=1.0000000000000002)
        ]


class TestPositivityCommand:
    def test_maximally_mixed_positive(self, tmp_path):
        path = tmp_path / "rho.json"
        write_matrix(path, np.eye(2) / 2)
        code, out, _ = run_cli(["positivity", "--input", str(path)])
        assert code == 0
        report = json.loads(out)
        assert report["results"]["verdict"]["positive"] is True
        assert report["results"]["oracle"]["positive"] is True

    def test_indefinite_operator(self, tmp_path):
        path = tmp_path / "rho.json"
        write_matrix(path, [[0.5, 0.6], [0.6, 0.5]])
        code, out, err = run_cli(["positivity", "--input", str(path)])
        assert code == 1
        witness = json.loads(out)["results"]["verdict"]["witness"]
        assert witness["pair"] == [0, 1]
        assert witness["minor"] == pytest.approx(-0.11, abs=1e-9)
        assert "NOT positive" in err

    @pytest.mark.parametrize("strategy", ["fixed-basis", "sampled", "eigen-directed"])
    @pytest.mark.parametrize("n", [2, 64])
    def test_entries_at_the_cap_give_a_finite_witness(self, tmp_path, n, strategy):
        # every off-diagonal part at the cap: no product the check forms overflows
        upper = np.triu(np.full((n, n), MAX_ENTRY), 1)
        m = (upper + upper.T) + 1j * (upper - upper.T) + np.eye(n) / n
        path = tmp_path / "rho.json"
        write_matrix(path, m)
        code, out, err = run_cli(["positivity", "--input", str(path), "--strategy", strategy])
        assert code == 1
        assert len(err.splitlines()) == 2
        report = json.loads(out, parse_constant=reject_constant)
        witness = report["results"]["verdict"]["witness"]
        assert -math.inf < witness["minor"] < 0.0

    def test_complex_arrays_are_re_im_objects(self, tmp_path):
        # every computational pair minor is positive (1/9 - b**2 > 0), but
        # the smallest eigenvalue is negative; complex phases make the
        # eigenbasis complex
        real = np.array([[1 / 3, -0.3, -0.25], [-0.3, 1 / 3, -0.28], [-0.25, -0.28, 1 / 3]])
        phases = np.diag(np.exp(1j * np.array([0.0, 0.7, -1.1])))
        path = tmp_path / "rho.json"
        write_matrix(path, phases @ real @ phases.conj().T)
        code, out, _ = run_cli(
            ["positivity", "--input", str(path), "--strategy", "eigen-directed", "--seed", "0"]
        )
        assert code == 1
        results = json.loads(out)["results"]
        witness = results["verdict"]["witness"]
        assert witness["basis"] != "computational"
        basis, vector = witness["basis_matrix"], results["oracle"]["witness"]["vector"]
        assert isinstance(basis, dict) and sorted(basis) == ["im", "re"]
        assert isinstance(vector, dict) and sorted(vector) == ["im", "re"]
        u = np.array(basis["re"]) + 1j * np.array(basis["im"])
        assert u.shape == (3, 3)
        assert np.max(np.abs(u.conj().T @ u - np.eye(3))) <= 1e-12
        v = np.array(vector["re"]) + 1j * np.array(vector["im"])
        assert v.shape == (3,)
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-12

    @pytest.mark.parametrize("strategy", ["fixed-basis", "sampled"])
    def test_a_verdict_the_oracle_contradicts_exits_4(self, tmp_path, strategy):
        # the computational pair minors are positive (1/9 - b**2 > 0) but the
        # smallest eigenvalue is negative; in 40 dimensions 16 Haar frames
        # miss a -1e-3 eigenvalue
        if strategy == "fixed-basis":
            matrix = [[1 / 3, -0.3, -0.25], [-0.3, 1 / 3, -0.28], [-0.25, -0.28, 1 / 3]]
        else:
            matrix = random_with_min_eigenvalue(np.random.default_rng(0), 40, -1e-3).matrix
        path = tmp_path / "rho.json"
        write_matrix(path, matrix)
        argv = ["positivity", "--input", str(path), "--strategy", strategy, "--n-bases", "16"]
        code, out, err = run_cli(argv)
        assert code == 4
        results = json.loads(out)["results"]
        assert results["verdict"] == {"positive": True, "strategy": strategy, "witness": None}
        assert results["oracle"]["positive"] is False
        assert err.splitlines() == [
            f"criterion: positive ({strategy}); oracle: NOT positive",
            "warning: the criterion and the eigenvalue oracle disagree",
        ]


class TestCountingCommand:
    def test_default_ranges_single_match(self):
        code, out, _ = run_cli(["counting"])
        assert code == 0
        assert json.loads(out)["results"]["matches"] == [[3, 2]]

    def test_m_1_adds_the_classical_match(self):
        code, out, _ = run_cli(["counting", "--m-list", "1,2,3"])
        assert code == 0
        assert json.loads(out)["results"]["matches"] == [[1, 1], [3, 2]]

    def test_quadratic_column(self):
        code, out, _ = run_cli(["counting", "--n-max", "10", "--m-list", "3"])
        assert code == 0
        table = json.loads(out)["results"]["table"]
        for row in table:
            assert row["k"] == row["n"] ** 2 - 1

    def test_small_dimension_value(self):
        code, out, _ = run_cli(["counting", "--n-max", "3", "--m-list", "3"])
        table = json.loads(out)["results"]["table"]
        assert {"n": 3, "m": 3, "k": 8} in table

    def test_r_max_at_its_cap(self):
        # 2**64 - 1 is past the signed 64-bit range: the count must stay exact
        code, out, _ = run_cli(["counting", "--n-max", "3", "--m-list", "3", "--r-max", "64"])
        assert code == 0
        assert json.loads(out)["results"]["matches"] == [[3, 2]]


class TestSearchPreserversCommand:
    def test_alpha_two_finds_non_permutation(self):
        code, out, _ = run_cli(
            ["search-preservers", "--alpha", "2", "--budget", "2000", "--seed", "7"]
        )
        assert code == 0
        results = json.loads(out)["results"]
        assert results["candidates"]
        assert results["all_candidates_permutation_like"] is False

    def test_budget_one_gives_valid_report(self):
        code, out, _ = run_cli(
            ["search-preservers", "--alpha", "3", "--budget", "1", "--seed", "0"]
        )
        assert code == 0
        results = json.loads(out)["results"]
        assert isinstance(results["candidates"], list)

    def test_budget_zero_gives_no_verdict(self):
        # all() of no candidates would read True, a verdict nothing backs
        code, out, err = run_cli(["search-preservers", "--alpha", "2", "--budget", "0"])
        assert code == 0
        results = json.loads(out)["results"]
        assert results["candidates"] == []
        assert results["all_candidates_permutation_like"] is None
        assert err.strip().endswith("no verdict")


class TestCrossProcessDeterminism:
    def test_seeded_commands_are_byte_identical_across_processes(self, tmp_path):
        # the determinism contract must hold between interpreter instances,
        # not just between calls in one process
        rho_path, rho40_path = tmp_path / "rho.json", tmp_path / "rho40.json"
        write_matrix(rho_path, [[0.5, 0.6], [0.6, 0.5]])
        rho40 = random_with_min_eigenvalue(np.random.default_rng(40), 40, -0.2)
        write_matrix(rho40_path, rho40.matrix)
        csv_path = tmp_path / "scan.csv"
        sampled = [
            "positivity", "--input", str(rho40_path), "--strategy", "sampled",
            "--n-bases", "9", "--seed", "5",
        ]
        commands = [
            [
                "invariance-scan", "--alphas", "1,2", "--n-states", "30",
                "--n-maps", "5", "--seed", "17", "--out-csv", str(csv_path),
            ],
            ["positivity", "--input", str(rho_path), "--seed", "17"],
            sampled,
            ["search-preservers", "--alpha", "2", "--budget", "1200", "--seed", "17"],
        ]
        for argv in commands:
            runs = []
            for _ in range(2):
                proc = subprocess.run(
                    [sys.executable, "-m", "onebit", *argv],
                    capture_output=True,
                    check=False,
                )
                extra = csv_path.read_bytes() if argv[0] == "invariance-scan" else b""
                runs.append((proc.returncode, proc.stdout, extra))
            assert runs[0] == runs[1], f"nondeterministic output for {argv[0]}"
            if argv is sampled:  # a drawn frame's bits reach the report
                assert json.loads(runs[0][1])["results"]["verdict"]["witness"]["basis_matrix"]


class TestMalusCommand:
    def test_curve_values(self):
        code, out, _ = run_cli(["malus", "--n-points", "5", "--theta-max", str(math.pi)])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "theta,probability"
        assert len(lines) == 6
        for line in lines[1:]:
            theta, prob = (float(tok) for tok in line.split(","))
            assert prob == pytest.approx(math.cos(theta / 2.0) ** 2, abs=1e-15)

    def test_json_report(self, tmp_path):
        out_path = tmp_path / "malus.json"
        code, _, _ = run_cli(
            ["malus", "--n-points", "3", "--theta-max", "1.0", "--out", str(out_path)]
        )
        assert code == 0
        report = json.loads(out_path.read_text())
        assert len(report["results"]["rows"]) == 3

    def test_negative_exponent_value_parses(self):
        # argparse's own pattern reads -2e0 as an option, though --theta-max=-2e0 runs
        spaced = run_cli(["malus", "--n-points", "3", "--theta-max", "-2e0"])
        joined = run_cli(["malus", "--n-points", "3", "--theta-max=-2e0"])
        assert spaced == joined
        assert spaced[0] == 0 and spaced[1].splitlines()[-1].startswith("-2,")


#: Each golden file and the argv that prints it; ``malus`` writes it to ``--out``.
GOLDENS = {
    "entropy_fair_coin.json": ["entropy", "--dist", "0.5,0.5", "--alpha", "2"],
    "positivity_mixed.json": ["positivity", "--input", "rho.json"],
    "counting_small.json": ["counting", "--n-max", "5", "--m-list", "3", "--r-max", "2"],
    "search_budget_zero.json": ["search-preservers", "--alpha", "2", "--budget", "0"],
    "malus_report.json": ["malus", "--n-points", "5", "--theta-max", "1.5", "--out", "m.json"],
}


@pytest.mark.parametrize("golden", sorted(GOLDENS))
def test_golden_report(tmp_path, monkeypatch, golden):
    # relative paths keep the parameters free of the test's directory
    monkeypatch.chdir(tmp_path)
    write_matrix(tmp_path / "rho.json", np.eye(2) / 2)
    _, out, _ = run_cli(GOLDENS[golden])
    if golden == "malus_report.json":
        out = (tmp_path / "m.json").read_text()
    assert out == (GOLDEN_DIR / golden).read_text()


SCAN = ["invariance-scan", "--alphas", "2", "--n-states", "3", "--n-maps", "1"]
BAD_ALPHA = "alpha must be positive and finite"

#: Each case: argv (``{tmp}`` is the test's directory), the expected exit
#: code, and how the message after ``error: `` starts ("" for any message;
#: a start that ends in a newline is the whole message).
BAD_INPUTS = {
    "entropy-nan-dist": (["entropy", "--dist", "nan,0.5"], 2, ""),
    "entropy-inf-alpha": (["entropy", "--dist", "0.5,0.5", "--alpha", "inf"], 2, ""),
    "entropy-unparseable-dist": (["entropy", "--dist", "0.5,zebra"], 2, ""),
    "entropy-missing-dist": (["entropy"], 2, ""),
    "entropy-sum-off-one": (
        ["entropy", "--dist", "0.5,0.6", "--alpha", "2"], 2, "distribution sum 1.1 "
    ),
    # parsed as values, negative exponents and non-finite values meet the
    # alpha check, not "expected one argument"
    **{
        f"entropy-alpha-minus-{text}": (
            ["entropy", "--dist", "0.5,0.5", "--alpha", f"-{text}"], 2, BAD_ALPHA
        )
        for text in ("1e0", "nan", "Infinity", "NaN")
    },
    "no-command": ([], 2, ""),
    "unknown-command": (["bogus"], 2, ""),
    "unknown-flag": (["malus", "--bogus", "1"], 2, ""),
    "malus-non-integer-points": (["malus", "--n-points", "1.5"], 2, ""),
    # int() and float() accept surrounding whitespace; the message must stay one line
    "malus-points-over-cap-newline": (["malus", "--n-points", "1000001\n"], 2, ""),
    "malus-theta-max-newline": (["malus", "--theta-max", "1\nx"], 2, ""),
    "positivity-nan-matrix": (["positivity", "--input", "{tmp}/nan.json"], 2, ""),
    "positivity-list-payload": (["positivity", "--input", "{tmp}/list.json"], 2, ""),
    "positivity-missing-key": (["positivity", "--input", "{tmp}/no-re.json"], 2, ""),
    "positivity-missing-file": (["positivity", "--input", "{tmp}/absent.json"], 2, ""),
    "positivity-re-object": (["positivity", "--input", "{tmp}/re-object.json"], 2, ""),
    "positivity-im-object": (["positivity", "--input", "{tmp}/im-object.json"], 2, ""),
    "positivity-object-entry": (["positivity", "--input", "{tmp}/object-entry.json"], 2, ""),
    "positivity-string-entry": (["positivity", "--input", "{tmp}/string-entry.json"], 2, ""),
    "positivity-bool-entry": (["positivity", "--input", "{tmp}/bool-entry.json"], 2, ""),
    "positivity-null-entry": (["positivity", "--input", "{tmp}/null-entry.json"], 2, ""),
    "positivity-huge-int-entry": (["positivity", "--input", "{tmp}/huge-int-entry.json"], 2, ""),
    # beyond MAX_ENTRY the pair minors overflow to -inf and the report is not JSON
    "positivity-entry-over-cap": (["positivity", "--input", "{tmp}/big-entry.json"], 2, ""),
    "positivity-bool-n": (["positivity", "--input", "{tmp}/bool-n.json"], 2, ""),
    "positivity-float-n": (["positivity", "--input", "{tmp}/float-n.json"], 2, ""),
    "positivity-re-not-square": (["positivity", "--input", "{tmp}/re-2x3.json"], 2, ""),
    "positivity-wrong-trace": (
        ["positivity", "--input", "{tmp}/trace-0.9.json"], 2, "trace 0.9 differs from 1\n"
    ),
    "positivity-non-hermitian": (
        ["positivity", "--input", "{tmp}/non-hermitian.json"], 2, "matrix is not Hermitian "
    ),
    "positivity-n-over-cap": (
        ["positivity", "--input", "{tmp}/n-65.json"],
        2,
        "n must be an integer within the CLI cap of 64,",
    ),
    "positivity-nan-tol": (["positivity", "--input", "{tmp}/mixed.json", "--tol", "nan"], 2, ""),
    "positivity-negative-bases": (
        ["positivity", "--input", "{tmp}/mixed.json", "--n-bases", "-1"], 2, ""
    ),
    "positivity-n-bases-over-cap": (
        ["positivity", "--input", "{tmp}/mixed.json", "--n-bases", "1025"], 2, ""
    ),
    "search-nan-alpha": (["search-preservers", "--alpha", "nan"], 2, ""),
    "search-zero-alpha": (["search-preservers", "--alpha", "0"], 2, ""),
    "search-negative-budget": (["search-preservers", "--alpha", "2", "--budget", "-1"], 2, ""),
    "search-budget-over-cap": (
        ["search-preservers", "--alpha", "2", "--budget", "1000001"],
        2,
        "argument --budget: must be between 0 and 1000000, got 1000001\n",
    ),
    "search-nan-tol": (["search-preservers", "--alpha", "2", "--tol", "nan"], 2, ""),
    "malus-negative-points": (["malus", "--n-points", "-1"], 2, ""),
    "malus-n-points-over-cap": (["malus", "--n-points", "1000001"], 2, ""),
    "malus-nan-theta-max": (["malus", "--n-points", "3", "--theta-max", "nan"], 2, ""),
    "malus-inf-theta-max": (["malus", "--n-points", "3", "--theta-max", "inf"], 2, ""),
    "malus-theta-max-minus-inf": (
        ["malus", "--n-points", "2", "--theta-max", "-inf"],
        2,
        "argument --theta-max: must be finite, got -inf\n",
    ),
    "counting-negative-r-max": (["counting", "--r-max", "-1"], 2, ""),
    "counting-small-n-max": (["counting", "--n-max", "2"], 2, ""),
    "counting-n-max-over-cap": (["counting", "--n-max", "10001"], 2, ""),
    "counting-r-max-over-cap": (["counting", "--r-max", "65"], 2, ""),
    "counting-m-list-over-cap": (["counting", "--m-list", ",".join(["3"] * 17)], 2, ""),
    "scan-seed-2-64": (
        ["invariance-scan", "--seed", str(2**64), "--out-csv", "{tmp}/scan.csv"], 2, ""
    ),
    **{
        f"scan-negative-{flag[2:]}": (
            ["invariance-scan", flag, "-1", "--out-csv", "{tmp}/scan.csv"],
            2,
            f"argument {flag}: must be between 0 and 50000, got -1\n",
        )
        for flag in ("--n-states", "--n-maps")
    },
    "scan-n-states-over-cap": (
        ["invariance-scan", "--n-states", "50001", "--out-csv", "{tmp}/scan.csv"], 2, ""
    ),
    "scan-n-maps-over-cap": (
        ["invariance-scan", "--n-maps", "50001", "--out-csv", "{tmp}/scan.csv"], 2, ""
    ),
    "scan-alphas-over-cap": (
        ["invariance-scan", "--alphas", ",".join(["2"] * 1001), "--out-csv", "{tmp}/scan.csv"],
        2,
        "",
    ),
    "scan-empty-alphas": (
        ["invariance-scan", "--alphas", "", "--out-csv", "{tmp}/scan.csv"],
        2,
        "alpha grid must be nonempty",
    ),
    **{
        f"scan-alphas-{alphas}": (
            ["invariance-scan", "--alphas", alphas, "--n-states", "3", "--n-maps", "1",
             "--out-csv", "{tmp}/scan.csv"],
            2,
            BAD_ALPHA,
        )
        for alphas in ("nan", "0", "-1", "inf", "1,nan")
    },
    "entropy-unwritable-report": (
        ["entropy", "--dist", "0.5,0.5", "--out", "{tmp}/missing/report.json"],
        3,
        "cannot write ",
    ),
    "scan-unwritable-csv": (SCAN + ["--out-csv", "{tmp}/missing/scan.csv"], 3, "cannot write "),
    "scan-empty-csv-path": (SCAN + ["--out-csv", ""], 3, "cannot write "),
    "scan-empty-report-path": (
        SCAN + ["--out-csv", "{tmp}/scan.csv", "--out", ""], 3, "cannot write "
    ),
}

# each capped flag at its cap, the value one below its over-cap row above:
# (argv, the report's parameter, its parsed value); ``malus --n-points`` and
# ``search-preservers --budget`` are left out, since a run at either cap
# takes seconds
AT_CAP = {
    "counting-n-max-at-cap": (["counting", "--n-max", "10000", "--m-list", "3"], "n_max", 10000),
    "counting-m-list-at-cap": (
        ["counting", "--n-max", "3", "--m-list", ",".join(["3"] * 16)], "m_list", [3] * 16
    ),
    "scan-n-states-at-cap": (
        ["invariance-scan", "--alphas", "2", "--n-states", "50000", "--n-maps", "1",
         "--out-csv", "{tmp}/scan.csv"],
        "n_states",
        50000,
    ),
    "scan-n-maps-at-cap": (
        ["invariance-scan", "--alphas", "2", "--n-states", "1", "--n-maps", "50000",
         "--out-csv", "{tmp}/scan.csv"],
        "n_maps",
        50000,
    ),
    "scan-alphas-at-cap": (
        ["invariance-scan", "--alphas", ",".join(["2"] * 1000), "--n-states", "1",
         "--n-maps", "1", "--out-csv", "{tmp}/scan.csv"],
        "alphas",
        [2.0] * 1000,
    ),
    "positivity-n-bases-at-cap": (
        ["positivity", "--input", "{tmp}/mixed.json", "--n-bases", "1024"], "n_bases", 1024
    ),
}


class TestParameters:
    """The report's ``parameters`` are the parsed flags, less ``--seed`` and ``--out``."""

    MINIMAL = {
        "entropy": ["--dist", "0.5,0.5"],
        "invariance-scan": ["--n-states", "3", "--n-maps", "1", "--out-csv", "{tmp}/scan.csv"],
        "positivity": ["--input", "{tmp}/rho.json"],
        "counting": ["--n-max", "3"],
        "search-preservers": ["--alpha", "2", "--budget", "0"],
        "malus": ["--n-points", "3"],
    }

    def test_every_command_reports_its_flags(self, tmp_path):
        write_matrix(tmp_path / "rho.json", np.eye(2) / 2)
        subparsers = next(
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        assert sorted(subparsers.choices) == sorted(self.MINIMAL)
        for command, flags in self.MINIMAL.items():
            report_path = tmp_path / f"{command}.json"
            argv = [command, *(f.format(tmp=tmp_path) for f in flags), "--out", str(report_path)]
            assert run_cli(argv)[0] == 0, command
            parameters = json.loads(report_path.read_text())["parameters"]
            dests = {
                action.dest for action in subparsers.choices[command]._actions
                if not isinstance(action, argparse._HelpAction)
            }
            assert set(parameters) == dests - {"seed", "out"}, command

    def test_default_alpha_grid(self, tmp_path):
        code, out, _ = run_cli(["invariance-scan", "--n-states", "3", "--n-maps", "1",
                                "--out-csv", str(tmp_path / "scan.csv")])
        assert code == 0
        alphas = json.loads(out)["parameters"]["alphas"]
        assert alphas == np.linspace(0.5, 3.0, 6).tolist()


class TestErrorBoundary:
    @pytest.mark.parametrize("argv, expected, start", BAD_INPUTS.values(), ids=list(BAD_INPUTS))
    def test_bad_input_exits_with_one_error_line(self, tmp_path, argv, expected, start):
        (tmp_path / "nan.json").write_text('{"n": 2, "re": [[NaN, 0], [0, NaN]]}')
        (tmp_path / "list.json").write_text("[[0.5, 0], [0, 0.5]]")
        (tmp_path / "no-re.json").write_text('{"n": 2}')
        (tmp_path / "re-object.json").write_text('{"n": 2, "re": {"a": 1}}')
        (tmp_path / "im-object.json").write_text(
            '{"n": 2, "re": [[0.5, 0], [0, 0.5]], "im": {"a": 1}}'
        )
        (tmp_path / "object-entry.json").write_text('{"n": 2, "re": [[{"a": 1}, 0], [0, 0.5]]}')
        # numpy would cast the strings and read the boolean as 0 among numbers
        (tmp_path / "string-entry.json").write_text(
            '{"n": 2, "re": [["0.5", "0.6"], ["0.6", "0.5"]]}'
        )
        (tmp_path / "bool-entry.json").write_text('{"n": 2, "re": [[0.5, false], [0, 0.5]]}')
        (tmp_path / "null-entry.json").write_text(
            '{"n": 2, "re": [[0.5, 0], [0, 0.5]], "im": [[0, null], [0, 0]]}'
        )
        (tmp_path / "huge-int-entry.json").write_text(
            json.dumps({"n": 2, "re": [[0.5, 10**400], [10**400, 0.5]]})
        )
        (tmp_path / "big-entry.json").write_text('{"n": 2, "re": [[0.5, 1e300], [1e300, 0.5]]}')
        (tmp_path / "bool-n.json").write_text('{"n": true, "re": [[1.0]]}')
        (tmp_path / "float-n.json").write_text('{"n": 2.0, "re": [[0.5, 0], [0, 0.5]]}')
        (tmp_path / "re-2x3.json").write_text('{"n": 2, "re": [[0.5, 0, 0], [0, 0.5, 0]]}')
        write_matrix(tmp_path / "non-hermitian.json", [[0.5, 0.2], [0.0, 0.5]])
        write_matrix(tmp_path / "trace-0.9.json", np.diag([0.5, 0.4]))
        write_matrix(tmp_path / "n-65.json", np.eye(65) / 65)
        write_matrix(tmp_path / "mixed.json", np.eye(2) / 2)
        before = tree_snapshot(tmp_path)
        code, out, err = run_cli([arg.format(tmp=tmp_path) for arg in argv])
        assert code == expected
        assert out == ""
        assert len(err.splitlines()) == 1 and err.endswith("\n")
        assert err.startswith("error: " + start)
        assert tree_snapshot(tmp_path) == before

    @pytest.mark.parametrize("argv, name, value", AT_CAP.values(), ids=list(AT_CAP))
    def test_flag_at_its_cap_is_accepted(self, tmp_path, argv, name, value):
        write_matrix(tmp_path / "mixed.json", np.eye(2) / 2)
        code, out, err = run_cli([arg.format(tmp=tmp_path) for arg in argv])
        assert code == 0
        assert not err.startswith("error:")
        assert json.loads(out)["parameters"][name] == value


NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


def draw_matrix(data, n):
    entries = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=n * n, max_size=n * n))
    return np.array(entries).reshape(n, n)


def reject_constant(name):
    raise AssertionError(f"stdout is not strict JSON: contains {name}")


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_matrix_file_fuzz(data, tmp_path_factory):
    """Any matrix file exits 0, 1 or 2 without a traceback and prints
    strict JSON; a NaN or inf entry exits 2, and the verdict is the
    eigenvalue oracle's.  The verdict on a Hermitian, shifted-Gram or
    near-boundary draw without that poison is also cholesky(rho + t I)
    succeeding, t = 1e-9 max diag.  Operators with |lambda_min| <= 10 t
    are located by two more factorizations, so no eigensolver is used,
    and are not compared; run with --hypothesis-show-statistics to see
    how many."""
    n = data.draw(st.integers(2, 4), label="n")
    re, im = draw_matrix(data, n), draw_matrix(data, n)
    # hypothesis draws the first kinds most often; raw draws are rejected
    # on load, like poisoned ones, so raw comes last
    kind = data.draw(
        st.sampled_from(["hermitian", "near-boundary", "shifted-gram", "raw"]), label="kind"
    )
    if kind == "hermitian":
        re = (re + re.T) / 2.0
        im = (im - im.T) / 2.0
        re[-1, -1] = 1.0 - np.trace(re[:-1, :-1])
    elif kind == "shifted-gram":
        # G G^dagger + t I: positive for t >= 0, possibly indefinite below
        g = re + 1j * im
        m = g @ g.conj().T + data.draw(st.floats(-0.3, 1.0), label="t") * np.eye(n)
        trace = np.trace(m).real
        if abs(trace) > 1e-3:
            m = m / trace
        re, im = m.real.copy(), m.imag.copy()
    elif kind == "near-boundary":
        # a zero column makes G G^dagger singular, so lambda_min is the
        # shift up to rounding; 11 to 200 times t lies just outside the
        # excluded band, where a wrongly scaled threshold shows
        g = re + 1j * im
        g[:, -1] = 0.0
        m = g @ g.conj().T
        trace = np.trace(m).real
        assume(trace > 1e-3)
        m = m / trace
        sign = data.draw(st.sampled_from([-1.0, 1.0]), label="sign")
        ratio = data.draw(st.integers(11, 200), label="|shift| / t")
        shift = sign * ratio * 1e-9 * float(np.max(np.diag(m).real))
        m = (m + shift * np.eye(n)) / (1.0 + n * shift)
        re, im = m.real.copy(), m.imag.copy()
    # about one draw in five carries NaN or inf entries
    poison = []
    if data.draw(st.integers(0, 3), label="poisoned") == 3:
        entry = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), NON_FINITE)
        poison = data.draw(st.lists(entry, min_size=1, max_size=2), label="poison")
    for i, j, bad in poison:
        re[i, j] = bad
    path = tmp_path_factory.getbasetemp() / "matrix-fuzz.json"
    path.write_text(json.dumps({"n": n, "re": re.tolist(), "im": im.tolist()}))
    code, out, err = run_cli(["positivity", "--input", str(path)])
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if poison or not out:
        assert code == 2
    if out:
        report = json.loads(out, parse_constant=reject_constant)
    if code == 2:
        event("rejected on load")
        return
    positive = report["results"]["verdict"]["positive"]
    assert positive == report["results"]["oracle"]["positive"]
    assert code == (0 if positive else 1)
    if kind == "raw":
        return
    rho = re + 1j * im
    eye = np.eye(n)
    t = 1e-9 * float(np.max(np.diag(re)))
    if not cholesky_succeeds(rho - 10.0 * t * eye) and cholesky_succeeds(rho + 10.0 * t * eye):
        event("excluded: |lambda_min| <= 10 t")
        return
    event(f"compared ({kind})")
    assert positive == cholesky_succeeds(rho + t * eye)


class TestWriter:
    """``--out`` and ``--out-csv`` replace their target's bytes."""

    def test_shorter_rewrite_leaves_no_stale_tail(self, tmp_path):
        report, fresh = tmp_path / "report.json", tmp_path / "fresh.json"
        assert run_cli(["counting", "--n-max", "9", "--out", str(report)])[0] == 0
        longer = report.stat().st_size
        assert run_cli(["counting", "--n-max", "4", "--out", str(report)])[0] == 0
        assert run_cli(["counting", "--n-max", "4", "--out", str(fresh)])[0] == 0
        assert report.stat().st_size < longer
        assert report.read_bytes() == fresh.read_bytes()
        csv_path, fresh_csv = tmp_path / "scan.csv", tmp_path / "fresh.csv"
        csv_path.write_bytes(b"stale\n" * 1000)
        assert run_cli(SCAN + ["--out-csv", str(csv_path)])[0] == 0
        assert run_cli(SCAN + ["--out-csv", str(fresh_csv)])[0] == 0
        assert csv_path.read_bytes() == fresh_csv.read_bytes()

    def test_failed_write_leaves_no_stale_tail(self, tmp_path):
        # a file-size limit below the CSV's length makes the write stop
        # partway with EFBIG; the old file is longer than the limit
        resource = pytest.importorskip("resource")
        argv = ["invariance-scan", "--alphas", "0.5,1,2,3",
                "--n-states", "3", "--n-maps", "1", "--out-csv"]
        csv_path, fresh = tmp_path / "scan.csv", tmp_path / "fresh.csv"
        assert run_cli(argv + [str(fresh)])[0] == 0
        limit = 128
        assert fresh.stat().st_size > limit
        csv_path.write_bytes(b"stale\n" * 1000)
        proc = subprocess.run(
            [sys.executable, "-m", "onebit", *argv, str(csv_path)],
            capture_output=True,
            text=True,
            check=False,
            env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit)),
        )
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr.startswith(f"error: cannot write CSV to {csv_path}: ")
        assert fresh.read_bytes().startswith(csv_path.read_bytes())

    def test_symlink_is_followed(self, tmp_path):
        target, link = tmp_path / "target.json", tmp_path / "link.json"
        target.write_text("x" * 5000)
        link.symlink_to(target)
        code, out, _ = run_cli(["entropy", "--dist", "0.5,0.5", "--out", str(link)])
        assert (code, out) == (0, "")
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_text() == (GOLDEN_DIR / "entropy_fair_coin.json").read_text()

    def test_device_target(self):
        code, out, _ = run_cli(SCAN + ["--out-csv", os.devnull, "--out", os.devnull])
        assert (code, out) == (0, "")

    def test_directory_target_exits_3(self, tmp_path):
        code, out, err = run_cli(SCAN + ["--out-csv", str(tmp_path)])
        assert (code, out) == (3, "")
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: cannot write CSV to {tmp_path}: ")

    def test_new_file_mode_follows_the_umask(self, tmp_path):
        old = os.umask(0o027)
        try:
            with open(tmp_path / "reference.json", "w"):
                pass
            code, _, _ = run_cli(["entropy", "--dist", "1,0", "--out", str(tmp_path / "new.json")])
        finally:
            os.umask(old)
        assert code == 0
        mode = stat.S_IMODE((tmp_path / "new.json").stat().st_mode)
        assert mode == stat.S_IMODE((tmp_path / "reference.json").stat().st_mode) == 0o640


#: Runs with one output target that cannot be opened, and one that can.
SIDE_EFFECT_CASES = {
    "malus-report-in-missing-dir": ["malus", "--n-points", "3", "--out", "{tmp}/missing/m.json"],
    "scan-new-csv-report-in-missing-dir": SCAN
    + ["--out-csv", "{tmp}/scan.csv", "--out", "{tmp}/missing/s.json"],
    "scan-old-csv-report-on-directory": SCAN
    + ["--out-csv", "{tmp}/old.csv", "--out", "{tmp}"],
    "scan-csv-in-missing-dir-old-report": SCAN
    + ["--out-csv", "{tmp}/missing/scan.csv", "--out", "{tmp}/old.json"],
    "counting-report-in-missing-dir": ["counting", "--n-max", "4", "--out", "{tmp}/missing/c.json"],
    "scan-new-csv-empty-report-path": SCAN + ["--out-csv", "{tmp}/scan.csv", "--out", ""],
}


class TestUnwritableTargetHasNoSideEffects:
    """Exit 3 for a target that cannot be opened leaves stdout empty and
    creates, truncates or touches no file: every target is checked before
    the command runs."""

    @pytest.mark.parametrize("case", sorted(SIDE_EFFECT_CASES))
    def test_exit_3_writes_nothing(self, tmp_path, case):
        (tmp_path / "old.csv").write_bytes(b"stale\n" * 100)
        (tmp_path / "old.json").write_bytes(b"{}\n")
        before = tree_snapshot(tmp_path)
        argv = [arg.format(tmp=tmp_path) for arg in SIDE_EFFECT_CASES[case]]
        code, out, err = run_cli(argv)
        assert (code, out) == (3, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: cannot write ")
        assert tree_snapshot(tmp_path) == before

    @pytest.mark.parametrize(
        "targets",
        [["--out-csv", ""], ["--out-csv", "{tmp}/scan.csv", "--out", ""]],
        ids=["csv", "report"],
    )
    def test_an_empty_path_exits_before_the_scan_runs(self, tmp_path, monkeypatch, targets):
        def scan(*args):
            raise AssertionError("the scan ran before its output paths were checked")

        monkeypatch.setattr(cli, "invariance_scan", scan)
        code, out, err = run_cli(SCAN + [arg.format(tmp=tmp_path) for arg in targets])
        assert (code, out) == (3, "")
        assert err.startswith("error: cannot write ")
        assert "No such file or directory: ''" in err
        assert list(tmp_path.iterdir()) == []


#: Output targets for the argument fuzz; "missing-dir", "directory" and
#: "empty" cannot be written.
OUTPUT_KINDS = ("new", "longer", "missing-dir", "directory", "empty", "devnull")
UNWRITABLE = ("missing-dir", "directory", "empty")


def output_target(kind, directory, name):
    if kind == "new":
        return directory / name
    if kind == "longer":
        path = directory / name
        path.write_bytes(b"stale\n" * 20_000)
        return path
    if kind == "missing-dir":
        return directory / "missing" / name
    if kind == "directory":
        return directory
    if kind == "empty":
        return ""
    return Path(os.devnull)


def optional(flag, values):
    return st.one_of(st.just([]), values.map(lambda value: [flag, str(value)]))


FUZZ_ARGS = {
    "entropy": [
        optional(
            "--dist", st.sampled_from(["0.5,0.5", "1,0", "0.2,0.3,0.5", "0.5,0.6", "nan,0.5", "x"])
        ),
        optional(
            "--alpha",
            st.sampled_from(
                ["0.5", "1", "0.9999999999999999", "1.0000000000000002", "2", "3", "0", "-1",
                 "nan", "inf"]
            ),
        ),
    ],
    "invariance-scan": [
        optional(
            "--alphas",
            st.sampled_from(
                ["1,2", "2", "0.5,3", "0.9999999999999999", "1.0000000000000002", "", "nan", "0"]
            ),
        ),
        optional("--n-states", st.integers(-1, 12)),
        optional("--n-maps", st.integers(-1, 4)),
        optional("--seed", st.integers(-1, 3)),
    ],
    "search-preservers": [
        optional("--alpha", st.sampled_from(["2", "3", "1.5", "0", "nan"])),
        optional("--budget", st.integers(-1, 30)),
        optional("--seed", st.integers(0, 3)),
        optional("--tol", st.sampled_from(["1e-6", "0", "inf"])),
    ],
    "malus": [
        optional("--n-points", st.integers(-1, 9)),
        optional("--theta-max", st.sampled_from(["1.0", "-2", "nan", "inf"])),
    ],
    "counting": [
        optional("--n-max", st.integers(1, 7)),
        optional("--m-list", st.sampled_from(["3", "2,3,4", "", "x"])),
        optional("--r-max", st.integers(-1, 3)),
    ],
}


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_cli_argument_fuzz(data, tmp_path_factory):
    command = data.draw(st.sampled_from(sorted(FUZZ_ARGS)), label="command")
    argv = [command]
    for flag_values in FUZZ_ARGS[command]:
        argv += data.draw(flag_values)
    directory = tmp_path_factory.mktemp("cli-fuzz")
    targets = {}
    flags = ["--out-csv", "--out"] if command == "invariance-scan" else ["--out"]
    for flag in flags:
        choices = OUTPUT_KINDS if flag == "--out-csv" else (None,) + OUTPUT_KINDS
        kind = data.draw(st.sampled_from(choices), label=flag)
        if kind is not None:
            path = output_target(kind, directory, flag.strip("-"))
            targets[flag] = (kind, path)
            argv += [flag, str(path)]
    code, out, err = run_cli(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    if command == "malus" and out:
        assert out.startswith("theta,probability\n")
    elif out:
        json.loads(out, parse_constant=reject_constant)
    if any(kind in UNWRITABLE for kind, _ in targets.values()):
        assert code in (2, 3)
    else:
        assert code != 3
    if code != 0:
        return
    written = {flag: path for flag, (kind, path) in targets.items() if kind in ("new", "longer")}
    first = {flag: path.read_bytes() for flag, path in written.items()}
    for path in written.values():
        path.unlink()
    assert run_cli(argv)[0] == 0
    assert {flag: path.read_bytes() for flag, path in written.items()} == first
