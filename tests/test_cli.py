"""CLI integration tests: exit codes, payload content, and determinism."""

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

    def test_golden_report(self, tmp_path, monkeypatch):
        # a relative --input keeps the path in the parameters fixed
        monkeypatch.chdir(tmp_path)
        write_matrix(tmp_path / "rho.json", np.eye(2) / 2)
        _, out, _ = run_cli(["positivity", "--input", "rho.json"])
        assert out == (GOLDEN_DIR / "positivity_mixed.json").read_text()

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

    def test_r_max_at_its_cap(self):
        # 2**64 - 1 is past the signed 64-bit range: the count must stay exact
        code, out, _ = run_cli(["counting", "--n-max", "3", "--m-list", "3", "--r-max", "64"])
        assert code == 0
        assert json.loads(out)["results"]["matches"] == [[3, 2]]

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

    def test_budget_zero_gives_no_verdict(self):
        # all() of no candidates would read True, a verdict nothing backs
        code, out, err = run_cli(["search-preservers", "--alpha", "2", "--budget", "0"])
        assert code == 0
        results = json.loads(out)["results"]
        assert results["candidates"] == []
        assert results["all_candidates_permutation_like"] is None
        assert err.strip().endswith("no verdict")

    def test_golden_report_budget_zero(self):
        _, out, _ = run_cli(["search-preservers", "--alpha", "2", "--budget", "0"])
        assert out == (GOLDEN_DIR / "search_budget_zero.json").read_text()

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

    def test_golden_report(self, tmp_path):
        out_path = tmp_path / "malus.json"
        run_cli(["malus", "--n-points", "5", "--theta-max", "1.5", "--out", str(out_path)])
        assert out_path.read_text() == (GOLDEN_DIR / "malus_report.json").read_text()

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
    "positivity-re-object": (["positivity", "--input", "{tmp}/re-object.json"], 2),
    "positivity-im-object": (["positivity", "--input", "{tmp}/im-object.json"], 2),
    "positivity-object-entry": (["positivity", "--input", "{tmp}/object-entry.json"], 2),
    "positivity-string-entry": (["positivity", "--input", "{tmp}/string-entry.json"], 2),
    "positivity-bool-entry": (["positivity", "--input", "{tmp}/bool-entry.json"], 2),
    "positivity-null-entry": (["positivity", "--input", "{tmp}/null-entry.json"], 2),
    "positivity-huge-int-entry": (["positivity", "--input", "{tmp}/huge-int-entry.json"], 2),
    "positivity-bool-n": (["positivity", "--input", "{tmp}/bool-n.json"], 2),
    "positivity-float-n": (["positivity", "--input", "{tmp}/float-n.json"], 2),
    "positivity-re-not-square": (["positivity", "--input", "{tmp}/re-2x3.json"], 2),
    "positivity-nan-tol": (["positivity", "--input", "{tmp}/mixed.json", "--tol", "nan"], 2),
    "positivity-negative-bases": (
        ["positivity", "--input", "{tmp}/mixed.json", "--n-bases", "-1"],
        2,
    ),
    "positivity-n-bases-over-cap": (
        ["positivity", "--input", "{tmp}/mixed.json", "--n-bases", "1025"],
        2,
    ),
    "search-nan-alpha": (["search-preservers", "--alpha", "nan"], 2),
    "search-zero-alpha": (["search-preservers", "--alpha", "0"], 2),
    "search-negative-budget": (["search-preservers", "--alpha", "2", "--budget", "-1"], 2),
    "search-nan-tol": (["search-preservers", "--alpha", "2", "--tol", "nan"], 2),
    "malus-negative-points": (["malus", "--n-points", "-1"], 2),
    "malus-n-points-over-cap": (["malus", "--n-points", "1000001"], 2),
    "malus-nan-theta-max": (["malus", "--n-points", "3", "--theta-max", "nan"], 2),
    "malus-inf-theta-max": (["malus", "--n-points", "3", "--theta-max", "inf"], 2),
    "counting-negative-r-max": (["counting", "--r-max", "-1"], 2),
    "counting-small-n-max": (["counting", "--n-max", "2"], 2),
    "counting-n-max-over-cap": (["counting", "--n-max", "10001"], 2),
    "counting-r-max-over-cap": (["counting", "--r-max", "65"], 2),
    "counting-m-list-over-cap": (["counting", "--m-list", ",".join(["3"] * 17)], 2),
    "scan-seed-2-64": (
        ["invariance-scan", "--seed", str(2**64), "--out-csv", "{tmp}/scan.csv"],
        2,
    ),
    "scan-negative-alpha-steps": (
        ["invariance-scan", "--alpha-steps", "-1", "--out-csv", "{tmp}/scan.csv"],
        2,
    ),
    "scan-n-states-over-cap": (
        ["invariance-scan", "--n-states", "50001", "--out-csv", "{tmp}/scan.csv"],
        2,
    ),
    "scan-n-maps-over-cap": (
        ["invariance-scan", "--n-maps", "50001", "--out-csv", "{tmp}/scan.csv"],
        2,
    ),
    "scan-alpha-steps-over-cap": (
        ["invariance-scan", "--alpha-steps", "1001", "--out-csv", "{tmp}/scan.csv"],
        2,
    ),
    "scan-alphas-over-cap": (
        ["invariance-scan", "--alphas", ",".join(["2"] * 1001), "--out-csv", "{tmp}/scan.csv"],
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
        (tmp_path / "bool-n.json").write_text('{"n": true, "re": [[1.0]]}')
        (tmp_path / "float-n.json").write_text('{"n": 2.0, "re": [[0.5, 0], [0, 0.5]]}')
        (tmp_path / "re-2x3.json").write_text('{"n": 2, "re": [[0.5, 0, 0], [0, 0.5, 0]]}')
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


class TestWriter:
    """``--out`` and ``--out-csv`` rewrite their target in place."""

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
        argv = ["invariance-scan", "--alphas", "0.5,1,2,3", "--alpha-steps", "2",
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

    def test_opens_without_truncation(self, tmp_path, monkeypatch):
        # truncating to zero before the write is what makes ext4 flush the
        # file on close and stall the next rewrite
        target = tmp_path / "report.json"
        flags_seen = []
        real_open = os.open

        def spy(path, flags, *args, **kwargs):
            if os.fspath(path) == str(target):
                flags_seen.append(flags)
            return real_open(path, flags, *args, **kwargs)

        monkeypatch.setattr(os, "open", spy)
        for _ in range(2):
            assert run_cli(["entropy", "--dist", "0.5,0.5", "--out", str(target)])[0] == 0
        assert len(flags_seen) == 2, "the report was not written through os.open"
        assert all(flags & os.O_CREAT and not flags & os.O_TRUNC for flags in flags_seen)


def tree_snapshot(root):
    """Every path under ``root`` with its bytes and modification time."""
    return {
        path: (path.read_bytes() if path.is_file() else None, path.stat().st_mtime_ns)
        for path in sorted(root.rglob("*"))
    }


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


#: Output targets for the argument fuzz; "missing-dir" and "directory"
#: cannot be written.
OUTPUT_KINDS = ("new", "longer", "missing-dir", "directory", "devnull")
UNWRITABLE = ("missing-dir", "directory")


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
    return Path(os.devnull)


def optional(flag, values):
    return st.one_of(st.just([]), values.map(lambda value: [flag, str(value)]))


FUZZ_ARGS = {
    "entropy": [
        optional(
            "--dist", st.sampled_from(["0.5,0.5", "1,0", "0.2,0.3,0.5", "0.5,0.6", "nan,0.5", "x"])
        ),
        optional("--alpha", st.sampled_from(["0.5", "1", "2", "3", "0", "-1", "nan", "inf"])),
    ],
    "invariance-scan": [
        optional("--alphas", st.sampled_from(["1,2", "2", "0.5,3", "", "nan", "0"])),
        optional("--alpha-steps", st.integers(-1, 3)),
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
    code, out, err = run_cli_exit(argv)
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
    assert run_cli_exit(argv)[0] == 0
    assert {flag: path.read_bytes() for flag, path in written.items()} == first


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_matrix_file_fuzz_against_cholesky_oracle(data, tmp_path_factory):
    """The CLI verdict equals cholesky(rho + t I) succeeding, t = 1e-9 max
    diag, on test_matrix_file_fuzz's Hermitian and shifted-Gram shapes
    without the NaN/inf poison, plus near-boundary operators placed on the
    threshold's scale.
    Operators with |lambda_min| <= 10 t are located by two more
    factorizations, so no eigensolver is used, and are not compared; run
    with --hypothesis-show-statistics to see how many."""
    n = data.draw(st.integers(2, 4), label="n")
    re, im = draw_matrix(data, n), draw_matrix(data, n)
    kind = data.draw(
        st.sampled_from(["hermitian", "shifted-gram", "near-boundary"]), label="kind"
    )
    if kind == "hermitian":
        re = (re + re.T) / 2.0
        im = (im - im.T) / 2.0
        re[-1, -1] = 1.0 - np.trace(re[:-1, :-1])
    elif kind == "shifted-gram":
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
    path = tmp_path_factory.mktemp("fuzz") / "rho.json"
    path.write_text(json.dumps({"n": n, "re": re.tolist(), "im": im.tolist()}))
    code, out, _ = run_cli(["positivity", "--input", str(path)])
    assert code in (0, 1, 2)
    if code == 2:
        event("rejected on load")
        return
    rho = re + 1j * im
    eye = np.eye(n)
    t = 1e-9 * float(np.max(np.diag(re)))
    if not cholesky_succeeds(rho - 10.0 * t * eye) and cholesky_succeeds(rho + 10.0 * t * eye):
        event("excluded: |lambda_min| <= 10 t")
        return
    event(f"compared ({kind})")
    positive = json.loads(out)["results"]["verdict"]["positive"]
    assert positive == cholesky_succeeds(rho + t * eye)
    assert code == (0 if positive else 1)


def cholesky_succeeds(m):
    try:
        np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        return False
    return True
