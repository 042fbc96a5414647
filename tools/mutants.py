"""Mutation check: every planted bug must make a library test fail.

    python tools/mutants.py                 # every mutant
    python tools/mutants.py scan-merge-last-largest   # the named mutants only
    python tools/mutants.py --list          # names and files

Run from anywhere; the script works on a temporary copy of the checkout's
``src/``, ``tests/`` and ``pyproject.toml``.  Each module ``<module>.py``
of ``src/onebit`` (leading underscore aside) has its test file
``tests/test_<module>.py``, and those files must first pass on the
unmutated copy, so that a kill is never a test that fails anyway.  Then,
for each mutant, it replaces one snippet (which must occur exactly once)
in one module of the copy, runs pytest with ``-x`` on that module's test
file and, only if that passes, on the other modules' files, with the
copy's ``src/`` on PYTHONPATH, and restores the file.  A mutant is killed
when pytest reports a failing test (exit 1), and its line names the first
one; a pass survives, and any other pytest exit (collection error, no
tests) is reported as an error.  Hypothesis runs with a fixed seed so
that a result repeats.  The exit status is 0 when every mutant is killed
and 1 otherwise.

Standard library only, and not collected by the tier-1 suite (whose
testpaths is ``tests``); a full run of the 107 mutants took 310 s on
two cores (Python 3.11, numpy 2.4), 18 s of it for
``cli-search-budget-cap-raised``, whose over-cap row then runs a search
of 1 000 001 evaluations.
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
#: The library's modules, each tested by ``tests/test_<module>.py``.
MODULES = sorted(
    p.stem for p in (ROOT / "src" / "onebit").glob("*.py") if not p.stem.startswith("_")
)
LIBRARY_TESTS = [f"tests/test_{module}.py" for module in MODULES]


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # a module of src/onebit
    old: str
    new: str


MUTANTS = (
    # the measure's one-bit constant: a fair pair scores 1 at every degree,
    # and the Shannon limit has k = 1
    Mutant("one-bit-k-exponent-flipped", "measures.py", "2.0 ** (1.0 - a)", "2.0 ** (a - 1.0)"),
    Mutant(
        "one-bit-k-shannon-two",
        "measures.py",
        "k = 1.0 if shannon",
        "k = 2.0 if shannon",
    ),
    # the Shannon band: every degree within 2**-26 of 1 takes the limit,
    # since the formula cancels there; the band's edges take the formula
    Mutant(
        "shannon-band-exact-one",
        "measures.py",
        "shannon = abs(a - 1.0) < 2.0**-26",
        "shannon = a == 1.0",
    ),
    Mutant(
        "shannon-band-edges-included",
        "measures.py",
        "shannon = abs(a - 1.0) < 2.0**-26",
        "shannon = abs(a - 1.0) <= 2.0**-26",
    ),
    # the degree's cap: above it k times a three-pair total overflows
    Mutant(
        "entropy-alpha-cap-dropped",
        "measures.py",
        "if not 0.0 < alpha <= MAX_ALPHA:",
        "if not 0.0 < alpha < math.inf:",
    ),
    Mutant(
        "entropy-alpha-cap-exclusive",
        "measures.py",
        "if not 0.0 < alpha <= MAX_ALPHA:",
        "if not 0.0 < alpha < MAX_ALPHA:",
    ),
    # the invariance scan: tie rule, NaN guard, kernel
    Mutant(
        "scan-no-finite-check",
        "transforms.py",
        "if not all(np.isfinite(v) for v, _, _ in candidates):",
        "if False:",
    ),
    # a state or map of the wrong shape, or an entry that is NaN or above
    # the cap, is rejected before any product, so that no image entry
    # overflows in the GEMM and no numpy error names the failure
    Mutant(
        "scan-shapes-unchecked",
        "transforms.py",
        "if states.shape[1:] != (6,) or maps.shape[1:] != (6, 6):",
        "if False:",
    ),
    Mutant(
        "scan-inputs-unchecked",
        "transforms.py",
        "        if not max(array.max(), -array.min()) <= MAX_SCAN_ENTRY:",
        "        if False:",
    ),
    Mutant(
        "scan-entry-cap-dropped",
        "transforms.py",
        "max(array.max(), -array.min()) <= MAX_SCAN_ENTRY",
        "max(array.max(), -array.min()) < np.inf",
    ),
    # the merge of the map slabs: a tie goes to the earlier slab's map, as
    # a tie between blocks goes to the earlier block's, and a NaN in any
    # slab raises
    Mutant(
        "scan-merge-last-largest",
        "transforms.py",
        "max(candidates, key=itemgetter(0))",
        "max(candidates[::-1], key=itemgetter(0))",
    ),
    Mutant(
        "scan-finite-slab-0-only",
        "transforms.py",
        "for v, _, _ in candidates)",
        "for v, _, _ in candidates[:1])",
    ),
    # within a slab, a block's argmax replaces a degree's winner only when
    # strictly larger, since a later block holds later maps, and a NaN in
    # any block is kept
    Mutant(
        "scan-block-tie-later",
        "transforms.py",
        "if value > cells[j][0] or value != value:",
        "if value >= cells[j][0] or value != value:",
    ),
    Mutant(
        "scan-block-nan-dropped",
        "transforms.py",
        "if value > cells[j][0] or value != value:",
        "if value > cells[j][0]:",
    ),
    # the slab threads: the core count and the map count cap the slabs,
    # every helper starts, and a helper's exception reaches the caller
    Mutant(
        "scan-slabs-ignore-cores",
        "transforms.py",
        "min(_usable_cores(), count, block * width // _SLAB_CELLS)",
        "min(count, block * width // _SLAB_CELLS)",
    ),
    Mutant(
        "scan-slabs-uncapped-at-maps",
        "transforms.py",
        "min(_usable_cores(), count, block * width // _SLAB_CELLS)",
        "min(_usable_cores(), block * width // _SLAB_CELLS)",
    ),
    Mutant(
        "scan-last-slab-never-started",
        "transforms.py",
        "for k in range(1, n_slabs)]",
        "for k in range(1, n_slabs - 1)]",
    ),
    Mutant(
        "scan-helper-error-dropped",
        "transforms.py",
        "for exc in errors:",
        "for exc in errors[:1]:",
    ),
    Mutant("scan-base-added", "transforms.py", "dev -= base", "dev += base"),
    # a cell's power-sum gap becomes an entropy gap through c = k / |alpha - 1|,
    # and the baseline sums are taken over the clipped states, as the images'
    Mutant(
        "scan-scale-is-k",
        "measures.py",
        '"sum_scale", k if shannon else k / abs(a - 1.0)',
        '"sum_scale", k',
    ),
    Mutant(
        "scan-base-unclipped",
        "transforms.py",
        "_entropy_terms(clipped, m)",
        "_entropy_terms(columns, m)",
    ),
    # the norm-preserver search: a descent call is charged the trials up to
    # its first improvement, and no start spends more than its cap
    Mutant("descent-charges-every-trial", "transforms.py", "evals += j + 1", "evals += count"),
    # a call accepts the first improving trial in sweep order and resumes
    # the sweep at the coordinate after the one it moved
    Mutant("descent-last-hit", "transforms.py", "j = int(hits[0])", "j = int(hits[-1])"),
    Mutant("descent-resume-coordinate", "transforms.py", "i += j // 2 + 1", "i += j + 1"),
    Mutant(
        "search-start-cap-dropped",
        "transforms.py",
        "min(_EVALS_PER_START, remaining)",
        "remaining",
    ),
    Mutant(
        "search-start-kinds-swapped",
        "transforms.py",
        'elif kind == "permutation":',
        'elif kind != "permutation":',
    ),
    # a converged map that fails the sector-stochastic check is dropped
    Mutant(
        "search-keeps-non-stochastic-maps",
        "transforms.py",
        "if not is_sector_stochastic(induced).ok:",
        "if False:",
    ),
    # the probes' baseline norms come from the trials' term kernel, in entry
    # order, so the identity scores exactly 0
    Mutant(
        "search-baseline-reordered",
        "transforms.py",
        "np.add.reduce(terms(columns).reshape(6, -1), axis=0)",
        "np.add.reduce(terms(columns).reshape(6, -1)[::-1], axis=0)",
    ),
    # the search's alpha domain, [0.01, 1000]: each bound rejects just past
    # it and runs at it
    Mutant(
        "search-alpha-min-dropped",
        "transforms.py",
        "if not SEARCH_ALPHA_MIN <= alpha <= SEARCH_ALPHA_MAX:",
        "if not 0.0 < alpha <= SEARCH_ALPHA_MAX:",
    ),
    Mutant(
        "search-alpha-max-dropped",
        "transforms.py",
        "if not SEARCH_ALPHA_MIN <= alpha <= SEARCH_ALPHA_MAX:",
        "if not SEARCH_ALPHA_MIN <= alpha <= 1e308:",
    ),
    Mutant(
        "search-alpha-bounds-exclusive",
        "transforms.py",
        "if not SEARCH_ALPHA_MIN <= alpha <= SEARCH_ALPHA_MAX:",
        "if not SEARCH_ALPHA_MIN < alpha < SEARCH_ALPHA_MAX:",
    ),
    # equal to p**alpha at alpha = 2 only, so criterion 2's closed form
    # cannot see it
    Mutant(
        "entropy-wrong-power",
        "measures.py",
        "_power(p, measure.alpha, out=work)",
        "_power(p, 2.0 * measure.alpha - 2.0, out=work)",
    ),
    # the Shannon terms take p log2 p of every entry, so each entry with
    # p <= 0 (the product is NaN there) must be zeroed after the multiply
    Mutant(
        "shannon-log-of-zero",
        "measures.py",
        "np.copyto(work, 0.0, where=p <= 0.0)",
        "np.copyto(work, 0.0, where=p < 0.0)",
    ),
    Mutant(
        "shannon-no-zero-fill",
        "measures.py",
        "        np.copyto(work, 0.0, where=p <= 0.0)\n",
        "",
    ),
    # the power ladder: each rung is p**alpha to within 2 ulp, and a step
    # is the rung below it times p
    Mutant("sqrt-fast-path-squares", "measures.py", "0.5: (np.sqrt, 0),", "0.5: (np.square, 0),"),
    Mutant(
        "ladder-step-skips-multiply",
        "measures.py",
        "    for _ in range(height):\n        out *= p\n",
        "    for _ in range(height - 1):\n        out *= p\n",
    ),
    Mutant("ladder-cube-from-1.5", "measures.py", "3.0: (np.square, 1),", "3.0: (np.sqrt, 2),"),
    # the walk climbs in place only from a power of the same root, by the
    # difference of the heights
    Mutant(
        "walk-climb-skips-multiply",
        "measures.py",
        "for _ in range(height - climbed):",
        "for _ in range(height - climbed - 1):",
    ),
    Mutant(
        "ladder-climbs-from-any-earlier-rung",
        "measures.py",
        "if root is not held:",
        "if held is None:",
    ),
    # the ladder's np.power fallback serves every other degree, for the
    # entropies, alpha_norm and the search
    Mutant(
        "power-fallback-wrong-degree",
        "measures.py",
        "np.power(p, alpha, out=out)",
        "np.power(p, 2.0 * alpha - 2.0, out=out)",
    ),
    # alpha_norm takes flat vectors and the entropy's degrees only, and
    # only where its root is a double
    Mutant("alpha-norm-domain-unchecked", "transforms.py", "    _check_alpha(alpha)\n", "\n"),
    Mutant("alpha-norm-shape-unchecked", "transforms.py", "if v.ndim != 1:", "if False:"),
    Mutant(
        "alpha-norm-overflow-unchecked",
        "transforms.py",
        "if np.isinf(norm) and np.isfinite(top):",
        "if False:",
    ),
    # a sum that overflows, or underflows to 0, is taken again scaled by
    # max |v_i|
    Mutant(
        "alpha-norm-overflow-unscaled",
        "transforms.py",
        "(np.isinf(total) or (total == 0.0 and top > 0.0))",
        "(total == 0.0 and top > 0.0)",
    ),
    Mutant(
        "alpha-norm-underflow-unscaled",
        "transforms.py",
        "(np.isinf(total) or (total == 0.0 and top > 0.0))",
        "np.isinf(total)",
    ),
    # the one Haar phase fix multiplies column j by R_jj / |R_jj|; its
    # conjugate gives the same bits on LAPACK's real diagonal only
    Mutant(
        "haar-phase-conjugated",
        "qubit.py",
        "(d / np.abs(d))[..., None, :]",
        "(d / np.abs(d)).conj()[..., None, :]",
    ),
    # the rotation sampler must flip an improper draw to determinant +1
    Mutant(
        "rotation-no-det-flip",
        "transforms.py",
        "q[flip, :, 0] = -q[flip, :, 0]",
        "q[flip, :, 0] = q[flip, :, 0]",
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
    ),
    Mutant("sampler-radius-sqrt", "qubit.py", "** (1.0 / 3.0)", "** 0.5"),
    # tolerance constants: a check 10x looser than its constant
    Mutant(
        "distribution-sum-tol-10x",
        "measures.py",
        "if abs(total - 1.0) > DIST_TOL:",
        "if abs(total - 1.0) > 10.0 * DIST_TOL:",
    ),
    Mutant(
        "sector-stochastic-tol-10x",
        "transforms.py",
        "ok = column_gap <= SECTOR_TOL and sector_sum_gap <= SECTOR_TOL and range_gap <= SECTOR_TOL",
        "tol = 10.0 * SECTOR_TOL; "
        "ok = column_gap <= tol and sector_sum_gap <= tol and range_gap <= tol",
    ),
    # outcome pairs, the one check of postselect and minor_condition: both
    # indices in [0, n), or -1 wraps to the last outcome
    Mutant(
        "postselect-range-le",
        "highdim.py",
        "0 <= i < n and 0 <= j < n",
        "0 <= i <= n and 0 <= j <= n",
    ),
    Mutant(
        "postselect-no-lower-bound",
        "highdim.py",
        "0 <= i < n and 0 <= j < n",
        "i < n and j < n",
    ),
    Mutant("minor-condition-unchecked", "highdim.py", "    _check_pair(rho.n, i, j)\n", ""),
    # the positivity criterion: tie rule, thresholds, NaN guards
    Mutant(
        "witness-last-minimum",
        "highdim.py",
        "int(np.argmin(minors))",
        "minors.size - 1 - int(np.argmin(minors.ravel()[::-1]))",
    ),
    # the pair mask hides the diagonal and the lower triangle only, and the
    # flat argmin splits into (view, i, j) with i < j
    Mutant(
        "pair-mask-skips-first-superdiagonal",
        "highdim.py",
        "np.tri(n, dtype=bool)",
        "np.tri(n, k=1, dtype=bool)",
    ),
    Mutant(
        "pair-index-transposed",
        "highdim.py",
        "    i, j = divmod(pair, n)\n",
        "    j, i = divmod(pair, n)\n",
    ),
    Mutant("witness-reads-first-view", "highdim.py", "_read_off(views[v])", "_read_off(views[0])"),
    # the check's frames: the sampled bases are one draw of
    # (n_bases, 2, n, n) normals, and eigen-directed checks the eigenbasis
    # alone, drawing nothing
    Mutant(
        "sampled-draw-axes-swapped",
        "highdim.py",
        ".normal(size=(count, 2, n, n))",
        ".normal(size=(2, count, n, n)).swapaxes(0, 1)",
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
    ),
    # one eigendecomposition per operator, read-only and shared by the
    # check and the oracle
    Mutant(
        "check-decomposes-afresh",
        "highdim.py",
        "bases = rho.eigensystem[1][None]",
        "bases = np.linalg.eigh(m)[1][None]",
    ),
    Mutant(
        "oracle-decomposes-afresh",
        "highdim.py",
        "values, vectors = rho.eigensystem",
        "values, vectors = np.linalg.eigh(rho.matrix)",
    ),
    Mutant(
        "eigensystem-writable",
        "highdim.py",
        "        values.setflags(write=False)\n        vectors.setflags(write=False)\n",
        "",
    ),
    Mutant(
        "threshold-100x",
        "highdim.py",
        "    threshold = tol * float(np.max(diag[0]))",
        "    threshold = 100.0 * tol * float(np.max(diag[0]))",
    ),
    Mutant(
        "threshold-fixed-1e-6",
        "highdim.py",
        "    threshold = tol * float(np.max(diag[0]))",
        "    threshold = 1e-6 * float(np.max(diag[0]))",
    ),
    # operator entries: each part finite and within MAX_ENTRY, so that no
    # product the check forms overflows
    Mutant(
        "operator-no-finite-check",
        "highdim.py",
        "if not largest <= MAX_ENTRY:  # a NaN fails too",
        "if False:",
    ),
    Mutant(
        "operator-cap-nan-passes",
        "highdim.py",
        "if not largest <= MAX_ENTRY:  # a NaN fails too",
        "if largest > MAX_ENTRY:",
    ),
    Mutant("operator-entry-cap-10x", "highdim.py", "MAX_ENTRY = 1e100", "MAX_ENTRY = 1e101"),
    Mutant(
        "basis-nan-gap",
        "highdim.py",
        "    if not gap <= HERMITIAN_TOL:  # a NaN gap fails too",
        "    if gap > HERMITIAN_TOL:",
    ),
    # the one orthonormality gap: an inf or 1e200 entry must reach the
    # callers' ValueError, not a RuntimeWarning from the product
    Mutant(
        "ortho-gap-unguarded",
        "qubit.py",
        'with np.errstate(over="ignore", invalid="ignore"):',
        "with np.errstate():",
    ),
    # a library tol must be positive and finite: NaN and inf give a verdict
    Mutant(
        "positivity-tol-nan-accepted",
        "measures.py",
        "if not (value > 0 and math.isfinite(value)):",
        "if value <= 0:",
    ),
    Mutant(
        "qubit-nan-gap",
        "qubit.py",
        "            if not gap <= SECTOR_TOL:",
        "            if gap > SECTOR_TOL:",
    ),
    # a criterion the oracle contradicts must not exit as if it were right
    Mutant(
        "cli-no-disagreement-exit",
        "cli.py",
        "        return EXIT_DISAGREE, results",
        "        pass",
    ),
    # CLI input checks: every flag's range is its parser type's, and every
    # parse error goes through main's one error line
    Mutant(
        "cli-negative-count-accepted",
        "cli.py",
        "if not low <= value <= high:",
        "if not low - 1 <= value <= high:",
    ),
    # an output path given as "" is checked too, before the command runs
    Mutant("cli-empty-target-unchecked", "cli.py", "if target is not None:", "if target:"),
    # a flag at its cap must parse; one past it is a BAD_INPUTS row
    Mutant(
        "cli-bound-cap-exclusive",
        "cli.py",
        "if not low <= value <= high:",
        "if not low <= value < high:",
    ),
    Mutant("cli-list-cap-exclusive", "cli.py", "if len(values) > cap:", "if len(values) >= cap:"),
    Mutant(
        "cli-parser-error-exits",
        "cli.py",
        "        raise ValueError(message)",
        "        super().error(message)",
    ),
    # argparse's own negative-number pattern reads -1e0 as an option, and
    # a pattern without inf and nan, in any case, reads -inf and -NaN as one
    Mutant(
        "cli-default-negative-pattern",
        "cli.py",
        'self._negative_number_matcher = re.compile(r"^-(\\.?\\d|inf|nan)", re.IGNORECASE)',
        'self._negative_number_matcher = re.compile(r"^-\\d+$|^-\\d*\\.\\d+$")',
    ),
    Mutant("cli-pattern-no-inf-nan", "cli.py", 'r"^-(\\.?\\d|inf|nan)"', 'r"^-(\\.?\\d)"'),
    Mutant(
        "cli-pattern-case-sensitive",
        "cli.py",
        'r"^-(\\.?\\d|inf|nan)", re.IGNORECASE)',
        'r"^-(\\.?\\d|inf|nan)")',
    ),
    # main parses with one parser per process; build_parser stays fresh
    Mutant(
        "cli-main-rebuilds-parser",
        "cli.py",
        "args = _parser().parse_args(argv)",
        "args = build_parser().parse_args(argv)",
    ),
    Mutant(
        "cli-build-parser-cached",
        "cli.py",
        "def build_parser() -> argparse.ArgumentParser:",
        "@functools.cache\ndef build_parser() -> argparse.ArgumentParser:",
    ),
    # the report's parameters are the parsed flags, less the envelope's and --out
    Mutant(
        "cli-parameters-keep-out",
        "cli.py",
        '_NOT_PARAMETERS = frozenset({"command", "func", "seed", "out"})',
        '_NOT_PARAMETERS = frozenset({"command", "func", "seed"})',
    ),
    # matrix-file entries: isinstance admits booleans (bool subclasses int),
    # and without the check numpy casts strings
    Mutant(
        "loader-isinstance-admits-bool",
        "cli.py",
        "type(x) in (int, float)",
        "isinstance(x, (int, float))",
    ),
    Mutant(
        "loader-no-entry-check",
        "cli.py",
        "if not all(type(x) in (int, float) for part in parts for x in part.flat):",
        "if False:",
    ),
    # a matrix file's dimension lies in [1, MAX_DIMENSION]
    Mutant(
        "loader-n-lower-bound-dropped",
        "cli.py",
        "not 1 <= n <= MAX_DIMENSION",
        "not n <= MAX_DIMENSION",
    ),
    # matrix-file entries above the cap overflow the pair minors
    Mutant("loader-entry-cap-raised", "highdim.py", "MAX_ENTRY = 1e100", "MAX_ENTRY = 1e300"),
    Mutant(
        "cli-counting-cap-raised",
        "cli.py",
        "MAX_COUNTING_N = 10_000",
        "MAX_COUNTING_N = 100_000",
    ),
    Mutant(
        "cli-search-budget-cap-raised",
        "cli.py",
        "MAX_BUDGET = 1_000_000",
        "MAX_BUDGET = 10_000_000",
    ),
    # the report encoder: a complex array must keep its imaginary part
    Mutant(
        "json-complex-real-part-only",
        "cli.py",
        'return {"re": obj.real.tolist(), "im": obj.imag.tolist()}',
        "return obj.real.tolist()",
    ),
    # shape and count checks: each rejection row pins its message, so
    # dropping the check changes or removes the raise
    Mutant(
        "operator-shape-unchecked",
        "highdim.py",
        "if m.ndim != 2 or m.shape[0] != m.shape[1]:",
        "if False:",
    ),
    Mutant("basis-shape-unchecked", "highdim.py", "if b.shape != (n, n):", "if False:"),
    Mutant("counting-n-max-unchecked", "highdim.py", "if n_max < 2:", "if False:"),
    Mutant("min-eigen-cap-unchecked", "highdim.py", "if smallest >= 1.0 / n:", "if False:"),
    Mutant(
        "min-eigen-bulk-unchecked",
        "highdim.py",
        "if float(rest.min()) < smallest:",
        "if False:",
    ),
    Mutant("frame-shape-unchecked", "qubit.py", "if a.shape != (3, 3):", "if False:"),
    Mutant("state-length-unchecked", "qubit.py", "if len(probs) != 6:", "if False:"),
    Mutant("mean-shape-unchecked", "qubit.py", "if m.shape != (3,):", "if False:"),
    Mutant("induced-map-shape-unchecked", "transforms.py", "if a.shape != (6, 6):", "if False:"),
    Mutant(
        "rotations-shape-unchecked",
        "transforms.py",
        "if r.ndim != 3 or r.shape[1:] != (3, 3):",
        "if False:",
    ),
    Mutant("rotation-shape-unchecked", "transforms.py", "if r.shape != (3, 3):", "if False:"),
    Mutant(
        "scan-no-states-unchecked",
        "transforms.py",
        "if states.shape[0] == 0 or maps.shape[0] == 0:",
        "if maps.shape[0] == 0:",
    ),
    Mutant(
        "scan-no-maps-unchecked",
        "transforms.py",
        "if states.shape[0] == 0 or maps.shape[0] == 0:",
        "if states.shape[0] == 0:",
    ),
    Mutant(
        "scan-states-sign-unchecked",
        "transforms.py",
        "if n_states < 0 or n_maps < 0:",
        "if n_maps < 0:",
    ),
    Mutant(
        "scan-maps-sign-unchecked",
        "transforms.py",
        "if n_states < 0 or n_maps < 0:",
        "if n_states < 0:",
    ),
    # the output writer replaces the old bytes; it does not add to them
    Mutant(
        "writer-appends",
        "cli.py",
        'open(path, "w", encoding="utf-8", newline="")',
        'open(path, "a", encoding="utf-8", newline="")',
    ),
)


def run_pytest(copy: Path, files) -> tuple[int, str]:
    """pytest's exit code, and the first failing test or else the summary line."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-rf", "-p", "no:cacheprovider",
         "--hypothesis-seed=0", *files],
        cwd=copy,
        env=env,
        capture_output=True,
        text=True,
        check=False,
    )
    lines = proc.stdout.strip().splitlines()
    for line in lines:
        if line.startswith("FAILED "):
            return proc.returncode, line.removeprefix("FAILED ").split(" - ")[0]
    return proc.returncode, lines[-1] if lines else proc.stderr.strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--list", action="store_true", help="list the mutants and exit")
    args = parser.parse_args(argv)
    by_name = {m.name: m for m in MUTANTS}
    if args.list:
        for m in MUTANTS:
            print(f"{m.name:36} {m.path}")
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
        code, summary = run_pytest(copy, LIBRARY_TESTS)
        if code != 0:
            print(f"error: the library tests fail on the unmutated copy: {summary}")
            return 1
        print(f"baseline: {summary}")

        survivors = 0
        for m in selected:
            source = copy / "src" / "onebit" / m.path
            original = source.read_text()
            source.write_text(original.replace(m.old, m.new))
            own = f"tests/test_{Path(m.path).stem}.py"
            start = perf_counter()
            try:
                code, summary = run_pytest(copy, [own])
                if code == 0:
                    code, summary = run_pytest(copy, [f for f in LIBRARY_TESTS if f != own])
            finally:
                source.write_text(original)
            verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"ERROR (pytest exit {code})")
            survivors += code != 1
            print(f"{m.name:36} {verdict:10} {perf_counter() - start:5.1f}s  {summary}")
    print(f"{len(selected) - survivors} of {len(selected)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
