"""CLI integration tests: exit codes, payload content, and determinism."""

import io
import json
import math
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onebit.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def run_cli_exit(argv):
    """run_cli that also returns the exit code of an argparse error."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def write_matrix(path, matrix):
    m = np.asarray(matrix, dtype=complex)
    payload = {"n": m.shape[0], "re": m.real.tolist(), "im": m.imag.tolist()}
    path.write_text(json.dumps(payload))


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

    def test_malformed_distribution(self):
        code, _, err = run_cli(["entropy", "--dist", "0.5,0.6", "--alpha", "2"])
        assert code == 2
        assert "1.1" in err

    def test_unparseable_distribution(self):
        code, _, err = run_cli(["entropy", "--dist", "0.5,zebra", "--alpha", "2"])
        assert code == 2

    def test_golden_report(self):
        _, out, _ = run_cli(["entropy", "--dist", "0.5,0.5", "--alpha", "2"])
        golden = (GOLDEN_DIR / "entropy_fair_coin.json").read_text()
        assert out == golden


class TestInvarianceScanCommand:
    def test_scan_results_and_determinism(self, tmp_path):
        csv_a = tmp_path / "a.csv"
        csv_b = tmp_path / "b.csv"
        args = [
            "invariance-scan",
            "--alphas", "1,2,3",
            "--n-states", "100",
            "--n-maps", "20",
            "--seed", "5",
        ]
        code_a, out_a, _ = run_cli(args + ["--out-csv", str(csv_a)])
        code_b, out_b, _ = run_cli(args + ["--out-csv", str(csv_b)])
        assert code_a == code_b == 0
        rows = {r["alpha"]: r for r in json.loads(out_a)["results"]["rows"]}
        assert rows[2.0]["max_deviation"] <= 1e-9
        assert rows[1.0]["max_deviation"] >= 0.19
        # results payloads and CSV bytes are reproducible
        assert json.loads(out_a)["results"] == json.loads(out_b)["results"]
        assert csv_a.read_bytes() == csv_b.read_bytes()
        header = csv_a.read_text().splitlines()[0]
        assert header == "alpha,max_deviation,argmax_state_id,argmax_map_id"

    def test_unwritable_output_path(self, tmp_path):
        code, _, err = run_cli(
            [
                "invariance-scan",
                "--alphas", "2",
                "--n-states", "5",
                "--n-maps", "2",
                "--seed", "0",
                "--out-csv", str(tmp_path / "missing" / "scan.csv"),
            ]
        )
        assert code == 3
        assert "cannot write" in err

    def test_empty_grid_rejected(self, tmp_path):
        code, _, _ = run_cli(
            [
                "invariance-scan",
                "--alphas", "",
                "--n-states", "5",
                "--n-maps", "2",
                "--seed", "0",
                "--out-csv", str(tmp_path / "scan.csv"),
            ]
        )
        assert code == 2

    @pytest.mark.parametrize("alphas", ["nan", "0", "-1", "inf", "1,nan"])
    def test_bad_alpha_rejected(self, tmp_path, alphas):
        csv_path = tmp_path / "scan.csv"
        code, out, err = run_cli(
            [
                "invariance-scan",
                "--alphas", alphas,
                "--n-states", "5",
                "--n-maps", "2",
                "--out-csv", str(csv_path),
            ]
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: alpha must be positive and finite")
        assert err.count("\n") == 1
        assert not csv_path.exists()

    @pytest.mark.parametrize("flag", ["--n-states", "--n-maps"])
    def test_negative_count_rejected(self, tmp_path, capsys, flag):
        with pytest.raises(SystemExit) as exit_info:
            main(["invariance-scan", flag, "-1", "--out-csv", str(tmp_path / "scan.csv")])
        assert exit_info.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines()[-1].endswith(f"{flag}: count must be nonnegative, got -1")


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

    def test_wrong_trace_rejected(self, tmp_path):
        path = tmp_path / "rho.json"
        write_matrix(path, np.diag([0.5, 0.4]))
        code, _, err = run_cli(["positivity", "--input", str(path)])
        assert code == 2
        assert "trace" in err

    def test_non_hermitian_rejected(self, tmp_path):
        path = tmp_path / "rho.json"
        payload = {"n": 2, "re": [[0.5, 0.2], [0.0, 0.5]], "im": [[0, 0], [0, 0]]}
        path.write_text(json.dumps(payload))
        code, _, err = run_cli(["positivity", "--input", str(path)])
        assert code == 2
        assert "Hermitian" in err

    def test_missing_file(self):
        code, _, err = run_cli(["positivity", "--input", "/nonexistent/rho.json"])
        assert code == 2

    def test_dimension_cap(self, tmp_path):
        path = tmp_path / "rho.json"
        write_matrix(path, np.eye(65) / 65)
        code, _, err = run_cli(["positivity", "--input", str(path)])
        assert code == 2
        assert "cap" in err

    def test_determinism(self, tmp_path):
        path = tmp_path / "rho.json"
        write_matrix(path, [[0.5, 0.6], [0.6, 0.5]])
        args = ["positivity", "--input", str(path), "--seed", "11"]
        _, out_a, _ = run_cli(args)
        _, out_b, _ = run_cli(args)
        assert out_a == out_b


class TestCountingCommand:
    def test_default_ranges_single_match(self):
        code, out, _ = run_cli(["counting"])
        assert code == 0
        assert json.loads(out)["results"]["matches"] == [[3, 2]]

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

    def test_requires_n_max_three(self):
        code, _, _ = run_cli(["counting", "--n-max", "2"])
        assert code == 2

    def test_golden_report(self):
        _, out, _ = run_cli(["counting", "--n-max", "5", "--m-list", "3", "--r-max", "2"])
        golden = (GOLDEN_DIR / "counting_small.json").read_text()
        assert out == golden


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

    def test_determinism(self):
        args = ["search-preservers", "--alpha", "2", "--budget", "1500", "--seed", "3"]
        _, out_a, _ = run_cli(args)
        _, out_b, _ = run_cli(args)
        assert out_a == out_b


class TestCrossProcessDeterminism:
    def test_seeded_commands_are_byte_identical_across_processes(self, tmp_path):
        # the determinism contract must hold between interpreter instances,
        # not just between calls in one process
        rho_path = tmp_path / "rho.json"
        write_matrix(rho_path, [[0.5, 0.6], [0.6, 0.5]])
        csv_path = tmp_path / "scan.csv"
        commands = [
            [
                "invariance-scan", "--alphas", "1,2", "--n-states", "30",
                "--n-maps", "5", "--seed", "17", "--out-csv", str(csv_path),
            ],
            ["positivity", "--input", str(rho_path), "--seed", "17"],
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

    def test_determinism(self):
        args = ["malus", "--n-points", "50"]
        _, out_a, _ = run_cli(args)
        _, out_b, _ = run_cli(args)
        assert out_a == out_b


SCAN = ["invariance-scan", "--alphas", "2", "--n-states", "3", "--n-maps", "1"]

#: Each case: argv (``{tmp}`` is the test's directory) and the expected exit code.
BAD_INPUTS = {
    "entropy-nan-dist": (["entropy", "--dist", "nan,0.5"], 2),
    "entropy-inf-alpha": (["entropy", "--dist", "0.5,0.5", "--alpha", "inf"], 2),
    "positivity-nan-matrix": (["positivity", "--input", "{tmp}/nan.json"], 2),
    "positivity-list-payload": (["positivity", "--input", "{tmp}/list.json"], 2),
    "positivity-missing-key": (["positivity", "--input", "{tmp}/no-re.json"], 2),
    "positivity-missing-file": (["positivity", "--input", "{tmp}/absent.json"], 2),
    "positivity-nan-tol": (["positivity", "--input", "{tmp}/mixed.json", "--tol", "nan"], 2),
    "positivity-negative-bases": (
        ["positivity", "--input", "{tmp}/mixed.json", "--n-bases", "-1"],
        2,
    ),
    "search-nan-alpha": (["search-preservers", "--alpha", "nan"], 2),
    "search-zero-alpha": (["search-preservers", "--alpha", "0"], 2),
    "search-negative-budget": (["search-preservers", "--alpha", "2", "--budget", "-1"], 2),
    "search-nan-tol": (["search-preservers", "--alpha", "2", "--tol", "nan"], 2),
    "malus-negative-points": (["malus", "--n-points", "-1"], 2),
    "counting-negative-r-max": (["counting", "--r-max", "-1"], 2),
    "counting-small-n-max": (["counting", "--n-max", "2"], 2),
    "scan-negative-alpha-steps": (
        ["invariance-scan", "--alpha-steps", "-1", "--out-csv", "{tmp}/scan.csv"],
        2,
    ),
    "entropy-unwritable-report": (
        ["entropy", "--dist", "0.5,0.5", "--out", "{tmp}/missing/report.json"],
        3,
    ),
    "scan-unwritable-csv": (SCAN + ["--out-csv", "{tmp}/missing/scan.csv"], 3),
}


class TestErrorBoundary:
    @pytest.mark.parametrize("argv, expected", BAD_INPUTS.values(), ids=list(BAD_INPUTS))
    def test_bad_input_exits_with_one_error_line(self, tmp_path, argv, expected):
        (tmp_path / "nan.json").write_text('{"n": 2, "re": [[NaN, 0], [0, NaN]]}')
        (tmp_path / "list.json").write_text("[[0.5, 0], [0, 0.5]]")
        (tmp_path / "no-re.json").write_text('{"n": 2}')
        write_matrix(tmp_path / "mixed.json", np.eye(2) / 2)
        code, out, err = run_cli_exit([arg.format(tmp=tmp_path) for arg in argv])
        assert code == expected
        assert out == ""
        assert "Traceback" not in err
        last = err.splitlines()[-1]
        assert last.startswith("error: ") or last.startswith(f"onebit {argv[0]}: error: ")
        if expected == 3:
            assert "cannot write" in last


NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


def draw_matrix(data, n):
    entries = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=n * n, max_size=n * n))
    return np.array(entries).reshape(n, n)


def reject_constant(name):
    raise AssertionError(f"stdout is not strict JSON: contains {name}")


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_matrix_file_fuzz(data, tmp_path_factory):
    n = data.draw(st.integers(2, 4), label="n")
    re, im = draw_matrix(data, n), draw_matrix(data, n)
    kind = data.draw(st.sampled_from(["raw", "hermitian", "shifted-gram"]), label="kind")
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
    entry = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), NON_FINITE)
    poison = data.draw(st.lists(entry, max_size=2), label="poison")
    for i, j, bad in poison:
        re[i, j] = bad
    path = tmp_path_factory.mktemp("fuzz") / "rho.json"
    path.write_text(json.dumps({"n": n, "re": re.tolist(), "im": im.tolist()}))
    code, out, err = run_cli(["positivity", "--input", str(path)])
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if poison:
        assert code == 2
    if out:
        report = json.loads(out, parse_constant=reject_constant)
    else:
        assert code == 2
    if code in (0, 1):
        results = report["results"]
        assert results["verdict"]["positive"] == results["oracle"]["positive"]
        assert code == (0 if results["verdict"]["positive"] else 1)
