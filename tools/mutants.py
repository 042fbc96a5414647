"""Mutation check: every planted bug must make a named test fail.

    python tools/mutants.py                 # every mutant
    python tools/mutants.py scan-tie-ge     # the named mutants only
    python tools/mutants.py --list

Run from anywhere; the script works on a temporary copy of the checkout's
``src/``, ``tests/`` and ``pyproject.toml``.  It first runs every named test
on the unmutated copy, which must pass, so that a kill is never a test that
fails anyway.  Then, for each mutant, it replaces one snippet (which must
occur exactly once) in one source file of the copy, runs pytest on the
mutant's named tests with the copy's ``src/`` on PYTHONPATH, and restores
the file.  A mutant is killed when pytest reports a failing test (exit 1);
a pass survives, and any other pytest exit (collection error, no tests) is
reported as an error.  Hypothesis runs with a fixed seed so that a result
repeats.  The exit status is 0 when every mutant is killed and 1 otherwise.

Standard library only, and not collected by the tier-1 suite (whose
testpaths is ``tests``); a full run takes under a minute on two cores.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to src/onebit
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the checkout


MUTANTS = (
    # the invariance scan: tie rule, NaN guard, kernel
    Mutant(
        "scan-tie-ge",
        "transforms.py",
        "if value > best[j][0]:",
        "if value >= best[j][0]:",
        ("tests/test_transforms.py::TestInvarianceScan",),
    ),
    Mutant(
        "scan-no-finite-check",
        "transforms.py",
        "if not all(np.isfinite(v) for v, _, _ in candidates):",
        "if False:",
        ("tests/test_transforms.py::TestInvarianceScan",),
    ),
    # the merge of the state slabs: a tie at one map goes to the earlier
    # slab, and a NaN in any slab raises
    Mutant(
        "scan-slab-tie-later",
        "transforms.py",
        "(v == value and m < m_idx)",
        "(v == value and m <= m_idx)",
        ("tests/test_transforms.py::TestScanSlabs",),
    ),
    Mutant(
        "scan-finite-slab-0-only",
        "transforms.py",
        "for v, _, _ in candidates)",
        "for v, _, _ in candidates[:1])",
        ("tests/test_transforms.py::TestScanSlabs",),
    ),
    Mutant(
        "scan-base-added",
        "transforms.py",
        "dev -= base",
        "dev += base",
        ("tests/test_transforms.py::TestInvarianceScan",),
    ),
    # equal to p**alpha at alpha = 2 only, so criterion 2's closed form
    # cannot see it
    Mutant(
        "entropy-wrong-power",
        "measures.py",
        "np.power(p, alpha, out=work)",
        "np.power(p, 2.0 * alpha - 2.0, out=work)",
        ("tests/test_transforms.py::TestScanScalarOracle",),
    ),
    Mutant(
        "shannon-log-of-zero",
        "measures.py",
        "np.log2(p, out=work, where=p > 0.0)",
        "np.log2(p, out=work, where=p >= 0.0)",
        ("tests/test_measures.py",),
    ),
    # the kernel's buffers: a reused work buffer keeps the last alpha's
    # terms, so the Shannon branch must clear it first
    Mutant(
        "shannon-no-zero-fill",
        "measures.py",
        "work.fill(0.0)",
        "pass",
        ("tests/test_measures.py::TestOneKernel::test_buffers_give_the_allocating_bits",),
    ),
    Mutant(
        "sqrt-fast-path-squares",
        "measures.py",
        "_FAST_POWERS = {0.5: np.sqrt, 2.0: np.square}",
        "_FAST_POWERS = {0.5: np.square, 2.0: np.square}",
        ("tests/test_measures.py::TestOneKernel::test_matches_the_math_reference",),
    ),
    # the rotation sampler must flip an improper draw to determinant +1
    Mutant(
        "rotation-no-det-flip",
        "transforms.py",
        "q[flip, :, 0] = -q[flip, :, 0]",
        "q[flip, :, 0] = q[flip, :, 0]",
        (
            "tests/test_transforms.py::TestBatchedConstruction::test_batch_matches_sequential_draws",
            "tests/test_transforms.py::TestInducedFromRotation::test_reflection_requires_flag",
        ),
    ),
    # the batched pure-state sampler must drop a degenerate normal group
    Mutant(
        "sampler-keeps-degenerate",
        "qubit.py",
        "groups = np.concatenate([groups[ok], top_up])",
        "groups = np.concatenate([groups, top_up])[:count]",
        ("tests/test_qubit.py::TestBatchedSampler::test_degenerate_groups_are_skipped_in_stream_order",),
    ),
    # tolerance constants: a check 10x looser than its constant
    Mutant(
        "distribution-sum-tol-10x",
        "measures.py",
        "if abs(total - 1.0) > DIST_TOL:",
        "if abs(total - 1.0) > 10.0 * DIST_TOL:",
        ("tests/test_measures.py::TestValidation::test_tolerance_boundary",),
    ),
    Mutant(
        "sector-stochastic-tol-10x",
        "transforms.py",
        "ok = column_gap <= SECTOR_TOL and sector_sum_gap <= SECTOR_TOL and range_gap <= SECTOR_TOL",
        "tol = 10.0 * SECTOR_TOL; "
        "ok = column_gap <= tol and sector_sum_gap <= tol and range_gap <= tol",
        ("tests/test_transforms.py::TestSectorStochasticCheck::test_tolerance_boundary",),
    ),
    # the positivity criterion: tie rule, thresholds, NaN guards
    Mutant(
        "witness-last-minimum",
        "highdim.py",
        "int(np.argmin(minors))",
        "minors.size - 1 - int(np.argmin(minors.ravel()[::-1]))",
        ("tests/test_highdim.py",),
    ),
    Mutant(
        "witness-reads-first-view",
        "highdim.py",
        "_read_off(views[v])",
        "_read_off(views[0])",
        ("tests/test_highdim.py::TestInfoPositivityCheck",),
    ),
    Mutant(
        "threshold-100x",
        "highdim.py",
        "    threshold = tol * float(np.max(diag[0]))",
        "    threshold = 100.0 * tol * float(np.max(diag[0]))",
        ("tests/test_cli.py::test_matrix_file_fuzz_against_cholesky_oracle",),
    ),
    Mutant(
        "threshold-fixed-1e-6",
        "highdim.py",
        "    threshold = tol * float(np.max(diag[0]))",
        "    threshold = 1e-6 * float(np.max(diag[0]))",
        ("tests/test_highdim.py::TestCholeskyOracle",),
    ),
    Mutant(
        "operator-no-finite-check",
        "highdim.py",
        "if not np.isfinite(m).all():",
        "if False:",
        ("tests/test_highdim.py",),
    ),
    Mutant(
        "qubit-nan-gap",
        "qubit.py",
        "            if not gap <= SECTOR_TOL:",
        "            if gap > SECTOR_TOL:",
        ("tests/test_qubit.py",),
    ),
    # CLI input checks
    Mutant(
        "cli-negative-count-accepted",
        "cli.py",
        "if value < 0:",
        "if value < -1:",
        ("tests/test_cli.py::TestErrorBoundary",),
    ),
    # matrix-file entries: isinstance admits booleans (bool subclasses int),
    # and without the check numpy casts strings
    Mutant(
        "loader-isinstance-admits-bool",
        "cli.py",
        "type(x) in (int, float)",
        "isinstance(x, (int, float))",
        ("tests/test_cli.py::TestErrorBoundary",),
    ),
    Mutant(
        "loader-no-entry-check",
        "cli.py",
        "if not all(type(x) in (int, float) for part in parts for x in part.flat):",
        "if False:",
        ("tests/test_cli.py::TestErrorBoundary",),
    ),
    Mutant(
        "cli-counting-cap-raised",
        "cli.py",
        "MAX_COUNTING_N = 10_000",
        "MAX_COUNTING_N = 100_000",
        ("tests/test_cli.py::TestErrorBoundary",),
    ),
    # the report encoder: a complex array must keep its imaginary part
    Mutant(
        "json-complex-real-part-only",
        "cli.py",
        'return {"re": obj.real.tolist(), "im": obj.imag.tolist()}',
        "return obj.real.tolist()",
        ("tests/test_cli.py::TestPositivityCommand::test_complex_arrays_are_re_im_objects",),
    ),
    # the output writer
    Mutant(
        "writer-no-ftruncate",
        "cli.py",
        "handle.truncate(len(data))",
        "pass",
        ("tests/test_cli.py::TestWriter",),
    ),
    Mutant(
        "writer-keeps-tail-on-failure",
        "cli.py",
        "handle.truncate(0)",
        "pass",
        ("tests/test_cli.py::TestWriter",),
    ),
    Mutant(
        "writer-o-trunc",
        "cli.py",
        "os.O_WRONLY | os.O_CREAT |",
        "os.O_WRONLY | os.O_CREAT | os.O_TRUNC |",
        ("tests/test_cli.py::TestWriter",),
    ),
    Mutant(
        "writer-truncates-devices",
        "cli.py",
        "regular = stat.S_ISREG(os.fstat(handle.fileno()).st_mode)",
        "regular = True",
        ("tests/test_cli.py::TestWriter",),
    ),
)


def run_pytest(copy: Path, tests) -> tuple[int, str]:
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--hypothesis-seed=0", *tests],
        cwd=copy,
        env=env,
        capture_output=True,
        text=True,
        check=False,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines[-1] if lines else proc.stderr.strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--list", action="store_true", help="list the mutants and exit")
    args = parser.parse_args(argv)
    by_name = {m.name: m for m in MUTANTS}
    if args.list:
        for m in MUTANTS:
            print(f"{m.name:28} {m.path:14} {' '.join(m.tests)}")
        return 0
    unknown = [name for name in args.names if name not in by_name]
    if unknown:
        parser.error(f"unknown mutant(s): {', '.join(unknown)}")
    selected = [by_name[name] for name in args.names] if args.names else list(MUTANTS)

    with tempfile.TemporaryDirectory(prefix="onebit-mutants-") as tmp:
        copy = Path(tmp)
        for tree in ("src", "tests"):
            shutil.copytree(ROOT / tree, copy / tree, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "pyproject.toml", copy / "pyproject.toml")

        for m in selected:
            count = (copy / "src" / "onebit" / m.path).read_text().count(m.old)
            if count != 1:
                print(f"error: {m.name}: snippet occurs {count} times in {m.path}")
                return 1
        named = sorted({test for m in selected for test in m.tests})
        code, summary = run_pytest(copy, named)
        if code != 0:
            print(f"error: the named tests fail on the unmutated copy: {summary}")
            return 1
        print(f"baseline: {summary}")

        survivors = 0
        for m in selected:
            source = copy / "src" / "onebit" / m.path
            original = source.read_text()
            source.write_text(original.replace(m.old, m.new))
            start = perf_counter()
            try:
                code, summary = run_pytest(copy, m.tests)
            finally:
                source.write_text(original)
            verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"ERROR (pytest exit {code})")
            survivors += code != 1
            print(f"{m.name:28} {verdict:10} {perf_counter() - start:5.1f}s  {summary}")
    print(f"{len(selected) - survivors} of {len(selected)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
