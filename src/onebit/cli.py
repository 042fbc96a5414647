"""Command-line front end.

Each flag's argparse type enforces its range and cap.  The library
checks what no one flag's range states, such as an empty list, a zero
among ``--m-list`` or an alpha outside a command's domain, and its
ValueError exits 2 with one error line, as a parse error does.  Each
``_cmd_*`` handler returns ``(exit_code, results)`` and :func:`main`
writes the run report, the one JSON envelope ``{command, parameters,
seed, results, version}``, to stdout or ``--out``: ``parameters`` holds
every parsed flag but ``--seed`` and ``--out``, and ``seed`` is 0 for
commands without ``--seed``.  Its results payload is byte-identical
across reruns with the same parameters and seed.  ``malus`` prints CSV
on stdout and returns results only with ``--out``, so it writes a report
only then.  Human-readable summaries go to stderr.
Exit codes: 0 success (for ``positivity``: the operator is positive),
1 operator not positive, 2 invalid input, 3 unwritable output path,
4 ``positivity``'s criterion and oracle disagree (its report is written).
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import math
import os
import re
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .highdim import (
    MAX_ENTRY,  # the matrix file's entry cap, which HermitianOperator enforces
    HermitianOperator,
    STRATEGIES,
    counting_consistency,
    degrees_of_freedom,
    eigen_positivity_oracle,
    info_positivity_check,
)
from .measures import EntropyMeasure, entropy
from .qubit import malus_probability
from .transforms import PERMUTATION_TOL, invariance_scan, search_norm_preservers

#: CLI cap on operator dimension; dense eigendecompositions stay sub-second.
MAX_DIMENSION = 64
#: CLI caps on ``counting``'s dimension, hierarchy level and number of m
#: values; the table holds one row per (N, m), about 1.2 KB each with its
#: JSON text, so an uncapped --n-max or --m-list exhausts memory (at the
#: caps, 160 000 rows peak at 220 MiB RSS).
MAX_COUNTING_N = 10_000
MAX_COUNTING_R = 64
MAX_COUNTING_M = 16
#: CLI cap on ``positivity --n-bases``: ``sampled`` stacks its bases and
#: their views as (n_bases, n, n) complex128 arrays, 64 KiB per basis at
#: n = 64, so 64 MiB per stack; n = 64 at the cap peaks at 359 MiB RSS on
#: 2 cores, with one BLAS thread or OpenBLAS's default pool.
MAX_BASES = 1024
#: CLI cap on ``invariance-scan --n-states`` and ``--n-maps``: the scan
#: holds one 64-map block's images and the entropy kernel's terms in two
#: float64 buffers of 64 x 6 rows by n_states, split among its map slabs,
#: 3 KiB per state each whatever the slab count, so 293 MiB for both at
#: the cap (a scan of 50 000 states and 64 maps on the default six-alpha
#: grid peaks at 377-378 MiB RSS in two slabs, 386-387 MiB in one); the
#: maps are (n_maps, 6, 6) float64, 288 B per map, so 14 MiB at the cap
#: (73-74 MiB RSS peak, on the default grid or on 1000 alphas).
MAX_SCAN_COUNT = 50_000
#: CLI cap on the scan's alpha grid, the number of ``--alphas``: the scan
#: keeps one (n_states,) float64 baseline per alpha, 8 B per state, so
#: 381 MiB over 50 000 states at the cap (449 MiB RSS peak with the four
#: probe maps alone) and one cell per alpha and slab (74 MiB at 50 000 maps).
MAX_ALPHAS = 1000
#: CLI cap on ``malus --n-points``: the rows, as Python floats, and the CSV
#: text cost about 300 B per point, so 1 000 000 points peak at 342 MiB RSS.
MAX_MALUS_POINTS = 1_000_000
#: CLI cap on ``search-preservers --budget``: a run takes about 10 us per
#: objective evaluation and returns about one candidate, 1.2 KiB of report,
#: per 1000 evaluations, so at the cap a run at alpha = 2 and seed 1 takes
#: 9.4 s and returns 1014 candidates in a 1.2 MiB report, peaking at
#: 43 MiB RSS (alpha = 3: 8.5 s, 366 candidates, 39 MiB; 2-core Xeon).
MAX_BUDGET = 1_000_000

EXIT_OK = 0
EXIT_NOT_POSITIVE = 1
EXIT_BAD_INPUT = 2
EXIT_BAD_OUTPUT = 3
EXIT_DISAGREE = 4

#: What a ``_cmd_*`` handler returns: its exit code and its results; ``None``
#: results mean the run writes no report.
_Outcome = tuple[int, dict | None]
#: Parsed names that are not the report's ``parameters``: the envelope holds
#: ``command`` and ``seed``, ``func`` is the handler and ``out`` the target.
_NOT_PARAMETERS = frozenset({"command", "func", "seed", "out"})


def _fmt(value: float) -> str:
    """17 significant digits: round-trips float64 exactly."""
    return format(float(value), ".17g")


def _csv(header, rows) -> str:
    """CSV text: floats through :func:`_fmt`, other values as they are."""
    lines = [",".join(header)]
    lines.extend(
        ",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row) for row in rows
    )
    return "\n".join(lines) + "\n"


def _json_default(obj):
    """Encode what ``json`` cannot: an array, a complex one as {re, im}.
    Every other value a handler returns is a Python scalar, a list or a
    dict (``np.float64`` is a float), so anything else raises TypeError."""
    if isinstance(obj, np.ndarray):
        if np.iscomplexobj(obj):
            return {"re": obj.real.tolist(), "im": obj.imag.tolist()}
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _write(path: str, text: str, what: str) -> None:
    """Write ``text`` to ``path`` as UTF-8, replacing any old bytes, with no
    newline translation: symlinks are followed, a new file gets mode 0o666
    minus the umask, and the write is neither atomic nor durable.  A failed
    write leaves at most a prefix of the new bytes."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise OSError(f"cannot write {what} to {path}: {exc}") from exc


def _check_target(path: str, what: str) -> None:
    """Raise the OSError :func:`_write` would, with its message, when
    ``path`` is a directory, is an existing file that cannot be written,
    or is a new file in a missing or unwritable directory; the empty path
    names no file, as for ``open``.  It only asks: it creates, opens
    and changes nothing, so :func:`main` can check every target before the
    first output."""
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        code = errno.EISDIR
    elif os.path.exists(path):
        code = 0 if os.access(path, os.W_OK) else errno.EACCES
    elif path and os.path.isdir(parent):
        code = 0 if os.access(parent, os.W_OK | os.X_OK) else errno.EACCES
    else:
        code = errno.ENOENT
    if code:
        raise OSError(f"cannot write {what} to {path}: {OSError(code, os.strerror(code), path)}")


def _emit(command: str, parameters: dict, seed: int, results, out_path: str | None) -> None:
    """Write the run report as strict JSON: a non-finite value raises
    ValueError before anything is written."""
    report = {
        "command": command,
        "parameters": parameters,
        "seed": seed,
        "results": results,
        "version": __version__,
    }
    text = json.dumps(
        report, indent=2, sort_keys=True, allow_nan=False, default=_json_default
    ) + "\n"
    if out_path is not None:
        _write(out_path, text, "report")
    else:
        sys.stdout.write(text)


_MAX_FLOAT = sys.float_info.max
_TINY = math.ulp(0.0)  # the least positive float: ``value >= _TINY`` is ``value > 0``
_SPANS = {(_TINY, _MAX_FLOAT): "positive and finite", (-_MAX_FLOAT, _MAX_FLOAT): "finite"}


def _bounded(kind: type, low, high=_MAX_FLOAT):
    """An argparse type: ``kind(text)``, accepted when low <= value <= high.
    NaN fails the test, and so do infinities under the default ``high``."""
    span = _SPANS.get((low, high), f"between {low} and {high}")

    def parse(text: str):
        value = kind(text)
        if not low <= value <= high:
            raise argparse.ArgumentTypeError(f"must be {span}, got {value}")
        return value

    parse.__name__ = kind.__name__  # argparse's "invalid int value" names it
    return parse


def _listed(kind: type, cap: int = sys.maxsize):
    """An argparse type: comma-separated ``kind`` values, empty tokens
    skipped, at most ``cap`` of them."""

    def parse(text: str) -> list:
        values = [kind(token) for token in text.split(",") if token != ""]
        if len(values) > cap:
            raise argparse.ArgumentTypeError(f"must hold at most {cap} values, got {len(values)}")
        return values

    parse.__name__ = f"comma-separated {kind.__name__}"
    return parse


class _Parser(argparse.ArgumentParser):
    """A parser whose every error, in any subcommand, is a ValueError, so
    :func:`main` reports it like any other invalid input, and that reads
    every argument starting with ``-`` and a digit, ``.digit``, ``inf`` or
    ``nan`` (in any case) as a value, so that it meets its flag's check
    (argparse's own pattern misses ``-2e0``, ``-0.5,1.5`` and ``-inf``);
    every flag starts with ``--``, so none matches."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\.?\d|inf|nan)", re.IGNORECASE)

    def error(self, message):
        raise ValueError(message)


def _cmd_entropy(args) -> _Outcome:
    value = entropy(args.dist, EntropyMeasure(args.alpha))
    print(f"entropy = {_fmt(value)}", file=sys.stderr)
    return EXIT_OK, {"entropy": value}


def _cmd_invariance_scan(args) -> _Outcome:
    reports = invariance_scan(args.alphas, args.n_states, args.n_maps, args.seed)
    fields = ("alpha", "max_deviation", "argmax_state_id", "argmax_map_id")
    rows = [{field: getattr(rep, field) for field in fields} for rep in reports]
    _write(args.out_csv, _csv(fields, (row.values() for row in rows)), "CSV")
    worst = max(reports, key=lambda rep: rep.max_deviation)
    print(
        f"scanned {len(reports)} alphas; worst deviation {worst.max_deviation:.3g} "
        f"at alpha={worst.alpha:g}",
        file=sys.stderr,
    )
    return EXIT_OK, {"rows": rows}


def _load_hermitian(path: str) -> HermitianOperator:
    """Read a {n, re, im} operator file; every read, parse, shape or entry
    failure is a ValueError."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    if not isinstance(payload, dict) or "n" not in payload or "re" not in payload:
        raise ValueError(f"{path} must hold a JSON object with keys n, re and optionally im")
    n = payload["n"]
    if type(n) is not int or not 1 <= n <= MAX_DIMENSION:
        raise ValueError(f"n must be an integer in [1, {MAX_DIMENSION}] (the CLI cap), got {n!r}")
    parts = [np.array(payload.get(key, [[0.0] * n] * n), dtype=object) for key in ("re", "im")]
    if any(part.shape != (n, n) for part in parts):
        raise ValueError(f"matrix parts must be {n}x{n} arrays")
    # entry by entry: numpy would cast a string and read a boolean among numbers as 0 or 1
    if not all(type(x) in (int, float) for part in parts for x in part.flat):
        raise ValueError("matrix entries must be numbers, not strings, booleans or null")
    try:
        re, im = (part.astype(float) for part in parts)
    except OverflowError as exc:  # an integer beyond the float range
        raise ValueError(f"matrix entries must be finite numbers: {exc}") from exc
    matrix = re.astype(complex)
    matrix.imag = im  # not re + 1j * im: 1j * inf warns, and the operator names the fault
    return HermitianOperator(matrix)


def _cmd_positivity(args) -> _Outcome:
    rho = _load_hermitian(args.input)
    verdict = info_positivity_check(
        rho, strategy=args.strategy, n_bases=args.n_bases, seed=args.seed, tol=args.tol
    )
    oracle = eigen_positivity_oracle(rho, tol=args.tol)
    print(
        f"criterion: {'positive' if verdict.positive else 'NOT positive'} "
        f"({verdict.strategy}); oracle: "
        f"{'positive' if oracle.positive else 'NOT positive'}",
        file=sys.stderr,
    )
    if verdict.witness is not None:
        print(
            f"witness: basis {verdict.witness.basis}, pair {verdict.witness.pair}, "
            f"minor {verdict.witness.minor:.6g}",
            file=sys.stderr,
        )
    results = {
        "verdict": {
            "positive": verdict.positive,
            "strategy": verdict.strategy,
            "witness": verdict.witness and asdict(verdict.witness),
        },
        "oracle": {
            "positive": oracle.positive,
            "witness": oracle.witness and asdict(oracle.witness),
        },
    }
    if verdict.positive != oracle.positive:
        print("warning: the criterion and the eigenvalue oracle disagree", file=sys.stderr)
        return EXIT_DISAGREE, results
    return (EXIT_OK if verdict.positive else EXIT_NOT_POSITIVE), results


def _cmd_counting(args) -> _Outcome:
    r_values = list(range(1, args.r_max + 1))
    table = [
        {"n": n, "m": m, "k": degrees_of_freedom(n, m)}
        for m in args.m_list
        for n in range(2, args.n_max + 1)
    ]
    matches = counting_consistency(args.n_max, args.m_list, r_values)
    print(
        f"consistent (m, r) pairs over N=2..{args.n_max}: "
        + (", ".join(f"({m}, {r})" for m, r in matches) or "none"),
        file=sys.stderr,
    )
    return EXIT_OK, {"table": table, "matches": matches}


def _cmd_search_preservers(args) -> _Outcome:
    candidates = search_norm_preservers(args.alpha, args.budget, args.seed, tol=args.tol)
    payload = [
        {
            "matrix": cand.map.matrix,
            "residual": cand.residual,
            "permutation_distance": cand.permutation_distance,
            "start_kind": cand.start_kind,
        }
        for cand in candidates
    ]
    if candidates:
        all_permutation_like = all(
            cand.permutation_distance <= PERMUTATION_TOL for cand in candidates
        )
        verdict = f"all_candidates_permutation_like={all_permutation_like}"
    else:  # the all() of no candidates would read True, a verdict nothing backs
        all_permutation_like = None
        verdict = "no verdict"
    print(
        f"{len(candidates)} candidate(s) below residual {args.tol:g}; {verdict}",
        file=sys.stderr,
    )
    return EXIT_OK, {"candidates": payload, "all_candidates_permutation_like": all_permutation_like}


def _cmd_malus(args) -> _Outcome:
    thetas = np.linspace(0.0, args.theta_max, args.n_points)
    rows = [(float(t), malus_probability(float(t))) for t in thetas]
    sys.stdout.write(_csv(("theta", "probability"), rows))
    print(f"{args.n_points} points over [0, {args.theta_max:g}]", file=sys.stderr)
    return EXIT_OK, ({"rows": rows} if args.out is not None else None)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="onebit",
        description="Information-invariance and positivity checks over "
        "complementary measurements",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    seed, positive = _bounded(int, 0, 2**64 - 1), _bounded(float, _TINY)

    p = sub.add_parser("entropy", help="degree-alpha entropy of a distribution")
    p.add_argument(
        "--dist", type=_listed(float), required=True, help="comma-separated probabilities"
    )
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.set_defaults(func=_cmd_entropy)

    p = sub.add_parser(
        "invariance-scan",
        help="worst total-uncertainty deviation under rotations, per alpha",
    )
    p.add_argument(
        "--alphas",
        type=_listed(float, MAX_ALPHAS),
        default="0.5,1,1.5,2,2.5,3",
        help="comma-separated grid",
    )
    p.add_argument("--n-states", type=_bounded(int, 0, MAX_SCAN_COUNT), default=1000)
    p.add_argument("--n-maps", type=_bounded(int, 0, MAX_SCAN_COUNT), default=200)
    p.add_argument("--seed", type=seed, default=0)
    p.add_argument("--out-csv", required=True, help="CSV output path")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_invariance_scan)

    p = sub.add_parser("positivity", help="one-bit positivity criterion vs oracle")
    p.add_argument("--input", required=True, help="JSON file: {n, re, im}")
    p.add_argument("--strategy", choices=STRATEGIES, default="eigen-directed")
    p.add_argument("--n-bases", type=_bounded(int, 0, MAX_BASES), default=8)
    p.add_argument("--seed", type=seed, default=0)
    p.add_argument("--tol", type=positive, default=1e-9)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_positivity)

    p = sub.add_parser("counting", help="degree-of-freedom table and scaling matches")
    p.add_argument("--n-max", type=_bounded(int, 3, MAX_COUNTING_N), default=50)
    p.add_argument("--m-list", type=_listed(int, MAX_COUNTING_M), default="2,3,4,5,6,7,8,9")
    p.add_argument("--r-max", type=_bounded(int, 1, MAX_COUNTING_R), default=4)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_counting)

    p = sub.add_parser(
        "search-preservers", help="randomized search for alpha-norm preservers"
    )
    p.add_argument("--alpha", type=positive, required=True)
    p.add_argument("--budget", type=_bounded(int, 0, MAX_BUDGET), default=10000)
    p.add_argument("--seed", type=seed, default=0)
    p.add_argument("--tol", type=positive, default=PERMUTATION_TOL)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_search_preservers)

    p = sub.add_parser("malus", help="cos^2(theta/2) curve as CSV")
    p.add_argument("--n-points", type=_bounded(int, 0, MAX_MALUS_POINTS), default=361)
    p.add_argument("--theta-max", type=_bounded(float, -_MAX_FLOAT), default=2.0 * np.pi)
    p.add_argument("--out", default=None, help="also write a JSON report here")
    p.set_defaults(func=_cmd_malus)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` reuses, built on its first call."""
    return build_parser()


def main(argv=None) -> int:
    """Run one command and write its report, unless it returned no results.
    The only error boundary: invalid input (ValueError, every parse error
    included) returns 2 and an unwritable output path (OSError) returns 3,
    each with one ``error:`` line on stderr; only ``--help`` exits.  Every
    output path given, the empty one included, is checked before the
    command runs, so a target that cannot be opened exits 3 with nothing
    written anywhere.

    Every call parses with one parser, built on the first call: argparse
    does not change a parser while parsing, every default is a scalar or
    a string that is converted anew on each parse, and the handlers look
    up the library functions when they run.  :func:`run` runs one command
    per process and builds one parser either way; only a caller that runs
    many commands in one process, such as the test suite or the benchmark
    harness, skips the rebuild."""
    try:
        args = _parser().parse_args(argv)
        for flag, what in (("out_csv", "CSV"), ("out", "report")):
            target = getattr(args, flag, None)
            if target is not None:
                _check_target(target, what)
        code, results = args.func(args)
        if results is not None:
            parameters = {k: v for k, v in vars(args).items() if k not in _NOT_PARAMETERS}
            _emit(args.command, parameters, getattr(args, "seed", 0), results, args.out)
        return code
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT if isinstance(exc, ValueError) else EXIT_BAD_OUTPUT


def run() -> None:
    sys.exit(main())
