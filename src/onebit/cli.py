"""Command-line front end.

Each ``_cmd_*`` handler returns ``(exit_code, parameters, results)`` and
:func:`main` writes the run report, the one JSON envelope
``{command, parameters, seed, results, version}`` (``seed`` is 0 for
commands without ``--seed``), to stdout or ``--out``.  Its results payload
is byte-identical across reruns with the same parameters and seed.
``malus`` prints CSV on stdout and returns results only with ``--out``, so
it writes a report only then.  Human-readable summaries go to stderr.
Exit codes: 0 success (for ``positivity``: the operator is positive),
1 operator not positive, 2 invalid input, 3 unwritable output path.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import stat
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .highdim import (
    HermitianOperator,
    STRATEGIES,
    counting_consistency,
    degrees_of_freedom,
    eigen_positivity_oracle,
    info_positivity_check,
)
from .measures import entropy, normalized_measure
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
#: CLI cap on ``positivity --n-bases``: the check stacks the sampled bases
#: and their views as (n_bases, n, n) complex128 arrays, 64 KiB per basis at
#: n = 64, so 64 MiB per stack; n = 64 at the cap peaks at 358 MiB RSS.
MAX_BASES = 1024
#: CLI cap on ``invariance-scan --n-states`` and ``--n-maps``: the scan
#: holds one 64-map block's images and the entropy kernel's terms in two
#: (64 x 6, slab width) float64 buffers per state slab, 3 KiB per state
#: each whatever the slab count, so 293 MiB for both at the cap (a scan of
#: 50 000 states and 64 maps on the default six-alpha grid peaks at
#: 386-396 MiB RSS in two slabs, 389 MiB in one); the maps are
#: (n_maps, 6, 6) float64, 288 B per map, so 14 MiB at the cap (72 MiB
#: RSS peak).
MAX_SCAN_COUNT = 50_000
#: CLI cap on the scan's alpha grid (``--alpha-steps`` or the number of
#: ``--alphas``): the scan keeps one (n_states,) float64 baseline per alpha,
#: 8 B per state, so 381 MiB over 50 000 states at the cap (452 MiB RSS
#: peak with the four probe maps alone).
MAX_ALPHAS = 1000
#: CLI cap on ``malus --n-points``: the rows, as Python floats, and the CSV
#: text cost about 300 B per point, so 1 000 000 points peak at 342 MiB RSS.
MAX_MALUS_POINTS = 1_000_000

EXIT_OK = 0
EXIT_NOT_POSITIVE = 1
EXIT_BAD_INPUT = 2
EXIT_BAD_OUTPUT = 3

#: What a ``_cmd_*`` handler returns: its exit code, the report's parameters
#: and its results; ``None`` results mean the run writes no report.
_Outcome = tuple[int, dict, dict | None]


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
    """Encode what ``json`` cannot: an array (a complex one as {re, im}), a
    numpy bool or integer.  ``np.float64`` is a float and never gets here."""
    if isinstance(obj, np.ndarray):
        if np.iscomplexobj(obj):
            return {"re": obj.real.tolist(), "im": obj.imag.tolist()}
        return obj.tolist()
    if isinstance(obj, (np.bool_, np.integer)):
        return obj.item()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _write(path: str, text: str, what: str) -> None:
    """Rewrite ``path`` in place: write over the old bytes from offset 0,
    then cut a regular file to the new length; a failed write cuts it to 0.

    ``open(path, "w")`` truncates to zero first, and on an ext4 root
    (mounted with ``discard``) that truncation took 50-80 ms whenever the
    file was last written after an earlier truncation, 20 ms or 35 s
    before.  Like ``open(path, "w")``, this follows symlinks, gives a new
    file mode 0o666 minus the umask, translates no newlines, and is neither
    atomic nor durable.  Unlike it, a crash before the cut, or before the
    overwritten blocks reach the disk, can leave old and new bytes mixed.
    Device files and FIFOs (``/dev/null``) are never cut.
    """
    data = text.encode("utf-8")
    flags = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)
    try:
        with open(os.open(path, flags, 0o666), "wb", buffering=0) as handle:
            regular = stat.S_ISREG(os.fstat(handle.fileno()).st_mode)
            try:
                view = memoryview(data)
                while view:
                    view = view[handle.write(view) :]
            except OSError:
                if regular:
                    handle.truncate(0)
                raise
            if regular:
                handle.truncate(len(data))
    except OSError as exc:
        raise OSError(f"cannot write {what} to {path}: {exc}") from exc


def _check_target(path: str, what: str) -> None:
    """Raise the OSError :func:`_write` would, with its message, when
    ``path`` is a directory, is an existing file that cannot be written,
    or is a new file in a missing or unwritable directory.  It only asks:
    it creates, opens and changes nothing, so :func:`main` can check every
    target before the first output."""
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        code = errno.EISDIR
    elif os.path.exists(path):
        code = 0 if os.access(path, os.W_OK) else errno.EACCES
    elif os.path.isdir(parent):
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
    if out_path:
        _write(out_path, text, "report")
    else:
        sys.stdout.write(text)


def _uint64(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError(f"seed must be an unsigned 64-bit integer, got {text}")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"count must be nonnegative, got {text}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not (value > 0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text}")
    return value


def _check_cap(what: str, value: int, cap: int) -> None:
    if value > cap:
        raise ValueError(f"{what} must be at most {cap}, got {value}")


def _parse_list(text: str, kind: type) -> list:
    try:
        return [kind(token) for token in text.split(",") if token != ""]
    except ValueError as exc:
        raise ValueError(f"cannot parse {text!r} as comma-separated {kind.__name__}s") from exc


def _cmd_entropy(args) -> _Outcome:
    dist = _parse_list(args.dist, float)
    value = entropy(dist, normalized_measure(args.alpha))
    print(f"entropy = {_fmt(value)}", file=sys.stderr)
    return EXIT_OK, {"dist": dist, "alpha": args.alpha}, {"entropy": value}


def _cmd_invariance_scan(args) -> _Outcome:
    _check_cap("--n-states", args.n_states, MAX_SCAN_COUNT)
    _check_cap("--n-maps", args.n_maps, MAX_SCAN_COUNT)
    if args.alphas is not None:
        alphas = _parse_list(args.alphas, float)
        _check_cap("the number of --alphas", len(alphas), MAX_ALPHAS)
    else:
        _check_cap("--alpha-steps", args.alpha_steps, MAX_ALPHAS)
        alphas = list(np.linspace(args.alpha_min, args.alpha_max, args.alpha_steps))
    reports = invariance_scan(alphas, args.n_states, args.n_maps, args.seed)
    fields = ("alpha", "max_deviation", "argmax_state_id", "argmax_map_id")
    rows = [{field: getattr(rep, field) for field in fields} for rep in reports]
    _write(args.out_csv, _csv(fields, (row.values() for row in rows)), "CSV")
    worst = max(reports, key=lambda rep: rep.max_deviation)
    print(
        f"scanned {len(reports)} alphas; worst deviation {worst.max_deviation:.3g} "
        f"at alpha={worst.alpha:g}",
        file=sys.stderr,
    )
    parameters = {
        "alphas": [float(a) for a in alphas],
        "n_states": args.n_states,
        "n_maps": args.n_maps,
        "out_csv": args.out_csv,
    }
    return EXIT_OK, parameters, {"rows": rows}


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
    if type(n) is not int or n > MAX_DIMENSION:
        raise ValueError(f"n must be an integer within the CLI cap of {MAX_DIMENSION}, got {n!r}")
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
    return HermitianOperator(re + 1j * im)


def _cmd_positivity(args) -> _Outcome:
    _check_cap("--n-bases", args.n_bases, MAX_BASES)
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
    parameters = {
        "input": args.input,
        "strategy": args.strategy,
        "n_bases": args.n_bases,
        "tol": args.tol,
    }
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
    return (EXIT_OK if verdict.positive else EXIT_NOT_POSITIVE), parameters, results


def _cmd_counting(args) -> _Outcome:
    m_values = _parse_list(args.m_list, int)
    if not 3 <= args.n_max <= MAX_COUNTING_N:
        raise ValueError(f"--n-max must be between 3 and {MAX_COUNTING_N}, got {args.n_max}")
    _check_cap("--r-max", args.r_max, MAX_COUNTING_R)
    _check_cap("the number of --m-list values", len(m_values), MAX_COUNTING_M)
    r_values = list(range(1, args.r_max + 1))
    table = [
        {"n": n, "m": m, "k": degrees_of_freedom(n, m)}
        for m in m_values
        for n in range(2, args.n_max + 1)
    ]
    matches = counting_consistency(args.n_max, m_values, r_values)
    print(
        f"consistent (m, r) pairs over N=2..{args.n_max}: "
        + (", ".join(f"({m}, {r})" for m, r in matches) or "none"),
        file=sys.stderr,
    )
    parameters = {"n_max": args.n_max, "m_list": m_values, "r_max": args.r_max}
    return EXIT_OK, parameters, {"table": table, "matches": matches}


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
    parameters = {"alpha": args.alpha, "budget": args.budget, "tol": args.tol}
    results = {"candidates": payload, "all_candidates_permutation_like": all_permutation_like}
    return EXIT_OK, parameters, results


def _cmd_malus(args) -> _Outcome:
    _check_cap("--n-points", args.n_points, MAX_MALUS_POINTS)
    if not math.isfinite(args.theta_max):
        raise ValueError(f"--theta-max must be finite, got {args.theta_max}")
    thetas = np.linspace(0.0, args.theta_max, args.n_points)
    rows = [(float(t), malus_probability(float(t))) for t in thetas]
    sys.stdout.write(_csv(("theta", "probability"), rows))
    print(f"{args.n_points} points over [0, {args.theta_max:g}]", file=sys.stderr)
    parameters = {"n_points": args.n_points, "theta_max": args.theta_max}
    return EXIT_OK, parameters, ({"rows": rows} if args.out else None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="onebit",
        description="Information-invariance and positivity checks over "
        "complementary measurements",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("entropy", help="degree-alpha entropy of a distribution")
    p.add_argument("--dist", required=True, help="comma-separated probabilities")
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.set_defaults(func=_cmd_entropy)

    p = sub.add_parser(
        "invariance-scan",
        help="worst total-uncertainty deviation under rotations, per alpha",
    )
    p.add_argument("--alpha-min", type=float, default=0.5)
    p.add_argument("--alpha-max", type=float, default=3.0)
    p.add_argument("--alpha-steps", type=_nonnegative_int, default=6)
    p.add_argument("--alphas", default=None, help="explicit comma-separated grid")
    p.add_argument("--n-states", type=_nonnegative_int, default=1000)
    p.add_argument("--n-maps", type=_nonnegative_int, default=200)
    p.add_argument("--seed", type=_uint64, default=0)
    p.add_argument("--out-csv", required=True, help="CSV output path")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_invariance_scan)

    p = sub.add_parser("positivity", help="one-bit positivity criterion vs oracle")
    p.add_argument("--input", required=True, help="JSON file: {n, re, im}")
    p.add_argument("--strategy", choices=STRATEGIES, default="eigen-directed")
    p.add_argument("--n-bases", type=_nonnegative_int, default=8)
    p.add_argument("--seed", type=_uint64, default=0)
    p.add_argument("--tol", type=_positive_float, default=1e-9)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_positivity)

    p = sub.add_parser("counting", help="degree-of-freedom table and scaling matches")
    p.add_argument("--n-max", type=int, default=50)
    p.add_argument("--m-list", default="2,3,4,5,6,7,8,9")
    p.add_argument("--r-max", type=_nonnegative_int, default=4)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_counting)

    p = sub.add_parser(
        "search-preservers", help="randomized search for alpha-norm preservers"
    )
    p.add_argument("--alpha", type=_positive_float, required=True)
    p.add_argument("--budget", type=_nonnegative_int, default=10000)
    p.add_argument("--seed", type=_uint64, default=0)
    p.add_argument("--tol", type=_positive_float, default=PERMUTATION_TOL)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_search_preservers)

    p = sub.add_parser("malus", help="cos^2(theta/2) curve as CSV")
    p.add_argument("--n-points", type=_nonnegative_int, default=361)
    p.add_argument("--theta-max", type=float, default=2.0 * np.pi)
    p.add_argument("--out", default=None, help="also write a JSON report here")
    p.set_defaults(func=_cmd_malus)

    return parser


def main(argv=None) -> int:
    """Run one command and write its report, unless it returned no results.
    The only error boundary: invalid input (ValueError) exits 2 and an
    unwritable output path (OSError) exits 3, each with one ``error:`` line
    on stderr.  Every output path is checked before the command runs, so a
    target that cannot be opened exits 3 with nothing written anywhere."""
    args = build_parser().parse_args(argv)
    try:
        for flag, what in (("out_csv", "CSV"), ("out", "report")):
            target = getattr(args, flag, None)
            if target:
                _check_target(target, what)
        code, parameters, results = args.func(args)
        if results is not None:
            _emit(args.command, parameters, getattr(args, "seed", 0), results, args.out)
        return code
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT if isinstance(exc, ValueError) else EXIT_BAD_OUTPUT


def run() -> None:
    sys.exit(main())
