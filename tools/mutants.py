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
testpaths is ``tests``); a full run of the 77 mutants takes about 85 s on
two cores, 12 s of it for ``cli-search-budget-cap-raised``, whose
over-cap row then runs a search of 1 000 001 evaluations.
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
    # the measure's one-bit constant: a fair pair scores 1 at every degree,
    # and the Shannon limit has k = 1
    Mutant(
        "one-bit-k-exponent-flipped",
        "measures.py",
        "2.0 ** (1.0 - a)",
        "2.0 ** (a - 1.0)",
        ("tests/test_measures.py::TestNormalizedMeasure::test_fair_pair_scores_exactly_one",),
    ),
    Mutant(
        "one-bit-k-shannon-two",
        "measures.py",
        "k = 1.0 if _is_shannon(a)",
        "k = 2.0 if _is_shannon(a)",
        ("tests/test_measures.py::TestNormalizedMeasure::test_k",),
    ),
    # the Shannon band: every degree within 2**-26 of 1 takes the limit,
    # since the formula cancels there; the band's edges take the formula
    Mutant(
        "shannon-band-exact-one",
        "measures.py",
        "return abs(alpha - 1.0) < 2.0**-26",
        "return alpha == 1.0",
        ("tests/test_measures.py::TestNormalizedMeasure",),
    ),
    Mutant(
        "shannon-band-edges-included",
        "measures.py",
        "return abs(alpha - 1.0) < 2.0**-26",
        "return abs(alpha - 1.0) <= 2.0**-26",
        ("tests/test_measures.py::TestNormalizedMeasure::test_k",),
    ),
    # the invariance scan: tie rule, NaN guard, kernel; the one tie key is
    # (largest value, earliest map, earliest state) over every slab's cells
    Mutant(
        "scan-tie-ge",
        "transforms.py",
        "key=lambda c: (-c[0], c[2], c[1])",
        "key=lambda c: (-c[0], -c[2], c[1])",
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
    # slab, a tie at an earlier map in a later slab to that map, and a NaN
    # in any slab raises
    Mutant(
        "scan-slab-tie-later",
        "transforms.py",
        "key=lambda c: (-c[0], c[2], c[1])",
        "key=lambda c: (-c[0], c[2], -c[1])",
        ("tests/test_transforms.py::TestScanSlabs",),
    ),
    Mutant(
        "scan-key-state-first",
        "transforms.py",
        "key=lambda c: (-c[0], c[2], c[1])",
        "key=lambda c: (-c[0], c[1], c[2])",
        ("tests/test_transforms.py::TestScanSlabs",),
    ),
    Mutant(
        "scan-finite-slab-0-only",
        "transforms.py",
        "for v, _, _ in candidates)",
        "for v, _, _ in candidates[:1])",
        ("tests/test_transforms.py::TestScanSlabs",),
    ),
    # the slab threads: the core count caps the slabs, every helper starts,
    # and a helper's exception reaches the caller
    Mutant(
        "scan-slabs-ignore-cores",
        "transforms.py",
        "min(_usable_cores(), rows * count // _SLAB_CELLS)",
        "rows * count // _SLAB_CELLS",
        ("tests/test_transforms.py::TestScanSlabs::test_a_slab_holds_at_least_a_full_block_over_128_states",),
    ),
    Mutant(
        "scan-last-slab-never-started",
        "transforms.py",
        "for k in range(1, n_slabs)]",
        "for k in range(1, n_slabs - 1)]",
        ("tests/test_transforms.py::TestScanSlabs::test_caller_scans_the_first_slab_and_one_helper_each_other",),
    ),
    Mutant(
        "scan-helper-error-dropped",
        "transforms.py",
        "for exc in errors:",
        "for exc in errors[:1]:",
        ("tests/test_transforms.py::TestScanSlabs::test_a_slab_exception_reaches_the_caller",),
    ),
    Mutant(
        "scan-base-added",
        "transforms.py",
        "dev -= base",
        "dev += base",
        ("tests/test_transforms.py::TestInvarianceScan",),
    ),
    # the norm-preserver search: a descent call is charged the trials up to
    # its first improvement, and no start spends more than its cap
    Mutant(
        "descent-charges-every-trial",
        "transforms.py",
        "evals += j + 1",
        "evals += count",
        ("tests/test_transforms.py::TestBatchedDescent",),
    ),
    Mutant(
        "search-start-cap-dropped",
        "transforms.py",
        "min(_EVALS_PER_START, remaining)",
        "remaining",
        ("tests/test_transforms.py::TestSearchBudget",),
    ),
    Mutant(
        "search-start-kinds-swapped",
        "transforms.py",
        'elif kind == "permutation":',
        'elif kind != "permutation":',
        ("tests/test_transforms.py::TestSearchBudget::test_starts_cycle_rotation_permutation_generic",),
    ),
    # a converged map that fails the sector-stochastic check is dropped
    Mutant(
        "search-keeps-non-stochastic-maps",
        "transforms.py",
        "if not is_sector_stochastic(induced).ok:",
        "if False:",
        ("tests/test_transforms.py::TestSearchNormPreservers::test_a_map_that_fails_the_stochasticity_check_is_dropped",),
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
    # the one Haar phase fix multiplies column j by R_jj / |R_jj|; its
    # conjugate gives the same bits on LAPACK's real diagonal only
    Mutant(
        "haar-phase-conjugated",
        "qubit.py",
        "(d / np.abs(d))[..., None, :]",
        "(d / np.abs(d)).conj()[..., None, :]",
        ("tests/test_qubit.py::TestHaarPhaseFix",),
    ),
    # the rotation sampler must flip an improper draw to determinant +1
    Mutant(
        "rotation-no-det-flip",
        "transforms.py",
        "q[flip, :, 0] = -q[flip, :, 0]",
        "q[flip, :, 0] = q[flip, :, 0]",
        (
            "tests/test_transforms.py::TestBatchedConstruction::test_batch_matches_sequential_draws",
            "tests/test_transforms.py::TestInducedFromRotation::test_a_reflection_embeds_but_the_sampler_draws_only_rotations",
        ),
    ),
    # the state sampler: a degenerate normal group is redrawn, and a mixed
    # radius is the cube root of a uniform, so that the volume fraction
    # r**3 is uniform; the degenerate mutant selects no row, since one that
    # selected a row and left it unchanged would loop without end
    Mutant(
        "sampler-keeps-degenerate",
        "qubit.py",
        "while (bad := norms < 1e-12).any():",
        "while (bad := norms < 0.0).any():",
        ("tests/test_qubit.py::TestBatchedSampler::test_degenerate_groups_are_redrawn_in_place",),
    ),
    Mutant(
        "sampler-radius-sqrt",
        "qubit.py",
        "** (1.0 / 3.0)",
        "** 0.5",
        ("tests/test_qubit.py::TestBatchedSampler::test_draws_are_uniform_on_the_sphere_and_in_the_ball",),
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
    # outcome pairs, the one check of postselect and minor_condition: both
    # indices in [0, n), or -1 wraps to the last outcome
    Mutant(
        "postselect-range-le",
        "highdim.py",
        "0 <= i < n and 0 <= j < n",
        "0 <= i <= n and 0 <= j <= n",
        ("tests/test_highdim.py::TestPostselect::test_rejects_a_bad_outcome_pair",),
    ),
    Mutant(
        "postselect-no-lower-bound",
        "highdim.py",
        "0 <= i < n and 0 <= j < n",
        "i < n and j < n",
        ("tests/test_highdim.py::TestPostselect::test_rejects_a_bad_outcome_pair",),
    ),
    Mutant(
        "minor-condition-unchecked",
        "highdim.py",
        "    _check_pair(rho.n, i, j)\n",
        "",
        ("tests/test_highdim.py::TestPostselect::test_rejects_a_bad_outcome_pair",),
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
    # the check's frames: the sampled bases are one draw of
    # (n_bases, 2, n, n) normals, and eigen-directed checks the eigenbasis
    # alone, drawing nothing
    Mutant(
        "sampled-draw-axes-swapped",
        "highdim.py",
        ".normal(size=(count, 2, n, n))",
        ".normal(size=(2, count, n, n)).swapaxes(0, 1)",
        ("tests/test_highdim.py::TestGenerators::test_batched_bases_match_sequential_draws_bitwise",),
    ),
    Mutant(
        "eigen-directed-draws-n-bases",
        "highdim.py",
        '    n_sampled = n_bases if strategy == "sampled" else 0\n'
        '    bases, views = _check_views(rho, n_sampled, strategy == "eigen-directed", seed)',
        '    n_sampled = 0 if strategy == "fixed-basis" else n_bases\n'
        "    bases, views = _check_views(rho, n_sampled, False, seed)\n"
        '    if strategy == "eigen-directed":\n'
        "        eigen_basis, eigen_view = _check_views(rho, 0, True, seed)\n"
        "        bases = np.concatenate([bases, eigen_basis])\n"
        "        views = np.concatenate([views, eigen_view[1:]])",
        (
            "tests/test_highdim.py::TestInfoPositivityCheck::test_eigen_directed_checks_two_views_and_draws_nothing",
            "tests/test_highdim.py::TestInfoPositivityCheck::test_eigen_directed_witness_does_not_depend_on_n_bases_or_seed",
        ),
    ),
    # one eigendecomposition per operator, read-only and shared by the
    # check and the oracle
    Mutant(
        "check-decomposes-afresh",
        "highdim.py",
        "bases = rho.eigensystem[1][None]",
        "bases = _eigh(m)[1][None]",
        ("tests/test_highdim.py::TestSharedEigensystem::test_check_and_oracle_make_one_eigh_call",),
    ),
    Mutant(
        "oracle-decomposes-afresh",
        "highdim.py",
        "values, vectors = rho.eigensystem",
        "values, vectors = _eigh(rho.matrix)",
        ("tests/test_highdim.py::TestSharedEigensystem::test_check_and_oracle_make_one_eigh_call",),
    ),
    Mutant(
        "eigensystem-writable",
        "highdim.py",
        "        values.setflags(write=False)\n        vectors.setflags(write=False)\n",
        "",
        ("tests/test_highdim.py::TestSharedEigensystem::test_cached_arrays_reject_writes",),
    ),
    Mutant(
        "threshold-100x",
        "highdim.py",
        "    threshold = tol * float(np.max(diag[0]))",
        "    threshold = 100.0 * tol * float(np.max(diag[0]))",
        ("tests/test_cli.py::test_matrix_file_fuzz",),
    ),
    Mutant(
        "threshold-fixed-1e-6",
        "highdim.py",
        "    threshold = tol * float(np.max(diag[0]))",
        "    threshold = 1e-6 * float(np.max(diag[0]))",
        ("tests/test_highdim.py::TestCholeskyOracle",),
    ),
    # operator entries: each part finite and within MAX_ENTRY, so that no
    # product the check forms overflows
    Mutant(
        "operator-no-finite-check",
        "highdim.py",
        "if not largest <= MAX_ENTRY:  # a NaN fails too",
        "if False:",
        ("tests/test_highdim.py",),
    ),
    Mutant(
        "operator-cap-nan-passes",
        "highdim.py",
        "if not largest <= MAX_ENTRY:  # a NaN fails too",
        "if largest > MAX_ENTRY:",
        ("tests/test_highdim.py::TestHermitianOperator::test_rejects",),
    ),
    Mutant(
        "operator-entry-cap-10x",
        "highdim.py",
        "MAX_ENTRY = 1e100",
        "MAX_ENTRY = 1e101",
        ("tests/test_highdim.py::TestHermitianOperator::test_rejects_entries_above_the_cap",),
    ),
    Mutant(
        "basis-nan-gap",
        "highdim.py",
        "    if not gap <= HERMITIAN_TOL:  # a NaN gap fails too",
        "    if gap > HERMITIAN_TOL:",
        ("tests/test_highdim.py::TestGptFromDensity",),
    ),
    # a library tol must be positive and finite: NaN and inf give a verdict
    Mutant(
        "positivity-tol-nan-accepted",
        "measures.py",
        "if not (value > 0 and math.isfinite(value)):",
        "if value <= 0:",
        (
            "tests/test_highdim.py::TestEigenOracle",
            "tests/test_highdim.py::TestInfoPositivityCheck",
        ),
    ),
    Mutant(
        "qubit-nan-gap",
        "qubit.py",
        "            if not gap <= SECTOR_TOL:",
        "            if gap > SECTOR_TOL:",
        ("tests/test_qubit.py",),
    ),
    # a criterion the oracle contradicts must not exit as if it were right
    Mutant(
        "cli-no-disagreement-exit",
        "cli.py",
        "        return EXIT_DISAGREE, results",
        "        pass",
        ("tests/test_cli.py::TestPositivityCommand",),
    ),
    # CLI input checks: every flag's range is its parser type's, and every
    # parse error goes through main's one error line
    Mutant(
        "cli-negative-count-accepted",
        "cli.py",
        "if not low <= value <= high:",
        "if not low - 1 <= value <= high:",
        ("tests/test_cli.py::TestErrorBoundary",),
    ),
    # an output path given as "" is checked too, before the command runs
    Mutant(
        "cli-empty-target-unchecked",
        "cli.py",
        "if target is not None:",
        "if target:",
        ("tests/test_cli.py::TestUnwritableTargetHasNoSideEffects",),
    ),
    # a flag at its cap must parse; one past it is a BAD_INPUTS row
    Mutant(
        "cli-bound-cap-exclusive",
        "cli.py",
        "if not low <= value <= high:",
        "if not low <= value < high:",
        ("tests/test_cli.py::TestErrorBoundary::test_flag_at_its_cap_is_accepted",),
    ),
    Mutant(
        "cli-list-cap-exclusive",
        "cli.py",
        "if len(values) > cap:",
        "if len(values) >= cap:",
        ("tests/test_cli.py::TestErrorBoundary::test_flag_at_its_cap_is_accepted",),
    ),
    Mutant(
        "cli-parser-error-exits",
        "cli.py",
        "        raise ValueError(message)",
        "        super().error(message)",
        ("tests/test_cli.py::TestErrorBoundary",),
    ),
    # argparse's own negative-number pattern reads -1e0 as an option, and
    # a pattern without inf and nan, in any case, reads -inf and -NaN as one
    Mutant(
        "cli-default-negative-pattern",
        "cli.py",
        'self._negative_number_matcher = re.compile(r"^-(\\.?\\d|inf|nan)", re.IGNORECASE)',
        'self._negative_number_matcher = re.compile(r"^-\\d+$|^-\\d*\\.\\d+$")',
        ("tests/test_cli.py::TestErrorBoundary",),
    ),
    Mutant(
        "cli-pattern-no-inf-nan",
        "cli.py",
        'r"^-(\\.?\\d|inf|nan)"',
        'r"^-(\\.?\\d)"',
        ("tests/test_cli.py::TestErrorBoundary",),
    ),
    Mutant(
        "cli-pattern-case-sensitive",
        "cli.py",
        'r"^-(\\.?\\d|inf|nan)", re.IGNORECASE)',
        'r"^-(\\.?\\d|inf|nan)")',
        ("tests/test_cli.py::TestErrorBoundary",),
    ),
    # the report's parameters are the parsed flags, less the envelope's and --out
    Mutant(
        "cli-parameters-keep-out",
        "cli.py",
        '_NOT_PARAMETERS = frozenset({"command", "func", "seed", "out"})',
        '_NOT_PARAMETERS = frozenset({"command", "func", "seed"})',
        ("tests/test_cli.py::test_golden_report[malus_report.json]",),
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
    # matrix-file entries above the cap overflow the pair minors
    Mutant(
        "loader-entry-cap-raised",
        "highdim.py",
        "MAX_ENTRY = 1e100",
        "MAX_ENTRY = 1e300",
        ("tests/test_cli.py::TestErrorBoundary", "tests/test_cli.py::TestPositivityCommand"),
    ),
    Mutant(
        "cli-counting-cap-raised",
        "cli.py",
        "MAX_COUNTING_N = 10_000",
        "MAX_COUNTING_N = 100_000",
        ("tests/test_cli.py::TestErrorBoundary",),
    ),
    Mutant(
        "cli-search-budget-cap-raised",
        "cli.py",
        "MAX_BUDGET = 1_000_000",
        "MAX_BUDGET = 10_000_000",
        ("tests/test_cli.py::TestErrorBoundary::test_bad_input_exits_with_one_error_line[search-budget-over-cap]",),
    ),
    # the report encoder: a complex array must keep its imaginary part
    Mutant(
        "json-complex-real-part-only",
        "cli.py",
        'return {"re": obj.real.tolist(), "im": obj.imag.tolist()}',
        "return obj.real.tolist()",
        ("tests/test_cli.py::TestPositivityCommand::test_complex_arrays_are_re_im_objects",),
    ),
    # shape and count checks: each rejection row pins its message, so
    # dropping the check changes or removes the raise
    Mutant(
        "operator-shape-unchecked",
        "highdim.py",
        "if m.ndim != 2 or m.shape[0] != m.shape[1]:",
        "if False:",
        ("tests/test_highdim.py::TestHermitianOperator::test_rejects",),
    ),
    Mutant(
        "basis-shape-unchecked",
        "highdim.py",
        "if b.shape != (n, n):",
        "if False:",
        ("tests/test_highdim.py::TestGptFromDensity::test_rejects_a_bad_basis",),
    ),
    Mutant(
        "counting-n-max-unchecked",
        "highdim.py",
        "if n_max < 2:",
        "if False:",
        ("tests/test_highdim.py::TestCounting::test_rejects",),
    ),
    Mutant(
        "min-eigen-cap-unchecked",
        "highdim.py",
        "if smallest >= 1.0 / n:",
        "if False:",
        ("tests/test_highdim.py::TestGenerators::test_rejects",),
    ),
    Mutant(
        "min-eigen-bulk-unchecked",
        "highdim.py",
        "if float(rest.min()) < smallest:",
        "if False:",
        ("tests/test_highdim.py::TestGenerators::test_rejects",),
    ),
    Mutant(
        "frame-shape-unchecked",
        "qubit.py",
        "if a.shape != (3, 3):",
        "if False:",
        ("tests/test_qubit.py::TestFrames::test_rejects_non_orthonormal",),
    ),
    Mutant(
        "state-length-unchecked",
        "qubit.py",
        "if len(probs) != 6:",
        "if False:",
        ("tests/test_qubit.py::TestQubitStateValidation::test_rejects",),
    ),
    Mutant(
        "mean-shape-unchecked",
        "qubit.py",
        "if m.shape != (3,):",
        "if False:",
        ("tests/test_qubit.py::TestQubitStateValidation::test_rejects",),
    ),
    Mutant(
        "induced-map-shape-unchecked",
        "transforms.py",
        "if a.shape != (6, 6):",
        "if False:",
        ("tests/test_transforms.py::TestInducedFromRotation::test_rejects",),
    ),
    Mutant(
        "rotations-shape-unchecked",
        "transforms.py",
        "if r.ndim != 3 or r.shape[1:] != (3, 3):",
        "if False:",
        ("tests/test_transforms.py::TestInducedFromRotation::test_rejects",),
    ),
    Mutant(
        "rotation-shape-unchecked",
        "transforms.py",
        "if r.shape != (3, 3):",
        "if False:",
        ("tests/test_transforms.py::TestInducedFromRotation::test_rejects",),
    ),
    Mutant(
        "scan-no-states-unchecked",
        "transforms.py",
        "if states.shape[0] == 0 or maps.shape[0] == 0:",
        "if maps.shape[0] == 0:",
        ("tests/test_transforms.py::TestInvarianceScan::test_rejects",),
    ),
    Mutant(
        "scan-no-maps-unchecked",
        "transforms.py",
        "if states.shape[0] == 0 or maps.shape[0] == 0:",
        "if states.shape[0] == 0:",
        ("tests/test_transforms.py::TestInvarianceScan::test_rejects",),
    ),
    Mutant(
        "scan-states-sign-unchecked",
        "transforms.py",
        "if n_states < 0 or n_maps < 0:",
        "if n_maps < 0:",
        ("tests/test_transforms.py::TestInvarianceScan::test_rejects",),
    ),
    Mutant(
        "scan-maps-sign-unchecked",
        "transforms.py",
        "if n_states < 0 or n_maps < 0:",
        "if n_states < 0:",
        ("tests/test_transforms.py::TestInvarianceScan::test_rejects",),
    ),
    # the output writer replaces the old bytes; it does not add to them
    Mutant(
        "writer-appends",
        "cli.py",
        'open(path, "w", encoding="utf-8", newline="")',
        'open(path, "a", encoding="utf-8", newline="")',
        ("tests/test_cli.py::TestWriter::test_shorter_rewrite_leaves_no_stale_tail",),
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
