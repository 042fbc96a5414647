"""Command-line front end.

Every command emits a JSON run report (stdout, or ``--out``) whose results
payload is byte-identical across reruns with the same parameters and seed;
human-readable summaries go to stderr.  Exit codes: 0 success (for
``positivity``: the operator is positive), 1 operator not positive,
2 invalid input, 3 unwritable output path.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

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

EXIT_OK = 0
EXIT_NOT_POSITIVE = 1
EXIT_BAD_INPUT = 2
EXIT_BAD_OUTPUT = 3


def _fmt(value: float) -> str:
    """17 significant digits: round-trips float64 exactly."""
    return format(float(value), ".17g")


def _jsonify(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        if np.iscomplexobj(obj):
            return {"re": _jsonify(obj.real), "im": _jsonify(obj.imag)}
        return _jsonify(obj.tolist())
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def _write(path: str, text: str, what: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise OSError(f"cannot write {what} to {path}: {exc}") from exc


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
    text = json.dumps(_jsonify(report), indent=2, sort_keys=True, allow_nan=False) + "\n"
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


def _parse_list(text: str, kind: type) -> list:
    try:
        return [kind(token) for token in text.split(",") if token != ""]
    except ValueError as exc:
        raise ValueError(f"cannot parse {text!r} as comma-separated {kind.__name__}s") from exc


def _cmd_entropy(args) -> int:
    dist = _parse_list(args.dist, float)
    value = entropy(dist, normalized_measure(args.alpha))
    print(f"entropy = {_fmt(value)}", file=sys.stderr)
    _emit(
        "entropy",
        {"dist": dist, "alpha": args.alpha},
        seed=0,
        results={"entropy": value},
        out_path=args.out,
    )
    return EXIT_OK


def _cmd_invariance_scan(args) -> int:
    if args.alphas is not None:
        alphas = _parse_list(args.alphas, float)
    else:
        alphas = list(np.linspace(args.alpha_min, args.alpha_max, args.alpha_steps))
    reports = invariance_scan(alphas, args.n_states, args.n_maps, args.seed)
    lines = ["alpha,max_deviation,argmax_state_id,argmax_map_id"]
    for rep in reports:
        lines.append(
            f"{_fmt(rep.alpha)},{_fmt(rep.max_deviation)},"
            f"{rep.argmax_state_id},{rep.argmax_map_id}"
        )
    _write(args.out_csv, "\n".join(lines) + "\n", "CSV")
    worst = max(reports, key=lambda rep: rep.max_deviation)
    print(
        f"scanned {len(reports)} alphas; worst deviation {worst.max_deviation:.3g} "
        f"at alpha={worst.alpha:g}",
        file=sys.stderr,
    )
    rows = [
        {
            "alpha": rep.alpha,
            "max_deviation": rep.max_deviation,
            "argmax_state_id": rep.argmax_state_id,
            "argmax_map_id": rep.argmax_map_id,
        }
        for rep in reports
    ]
    _emit(
        "invariance-scan",
        {
            "alphas": [float(a) for a in alphas],
            "n_states": args.n_states,
            "n_maps": args.n_maps,
            "out_csv": args.out_csv,
        },
        seed=args.seed,
        results={"rows": rows},
        out_path=args.out,
    )
    return EXIT_OK


def _load_hermitian(path: str) -> HermitianOperator:
    """Read a {n, re, im} operator file; every read, parse or shape failure
    is a ValueError."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    if not isinstance(payload, dict) or "n" not in payload or "re" not in payload:
        raise ValueError(f"{path} must hold a JSON object with keys n, re and optionally im")
    n = payload["n"]
    re = np.asarray(payload["re"], dtype=float)
    im = np.asarray(payload.get("im", np.zeros_like(re)), dtype=float)
    if re.shape != (n, n) or im.shape != (n, n):
        raise ValueError(f"matrix parts must be {n}x{n} arrays")
    if n > MAX_DIMENSION:
        raise ValueError(f"dimension {n} exceeds the CLI cap of {MAX_DIMENSION}")
    return HermitianOperator(re + 1j * im)


def _witness_payload(witness) -> dict | None:
    if witness is None:
        return None
    return {
        "basis": witness.basis,
        "pair": None if witness.pair is None else list(witness.pair),
        "minor": witness.minor,
        "pair_total": witness.pair_total,
        "eigenvalue": witness.eigenvalue,
        "basis_matrix": witness.basis_matrix,
        "vector": witness.vector,
    }


def _cmd_positivity(args) -> int:
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
    _emit(
        "positivity",
        {
            "input": args.input,
            "strategy": args.strategy,
            "n_bases": args.n_bases,
            "tol": args.tol,
        },
        seed=args.seed,
        results={
            "verdict": {
                "positive": verdict.positive,
                "strategy": verdict.strategy,
                "witness": _witness_payload(verdict.witness),
            },
            "oracle": {
                "positive": oracle.positive,
                "witness": _witness_payload(oracle.witness),
            },
        },
        out_path=args.out,
    )
    return EXIT_OK if verdict.positive else EXIT_NOT_POSITIVE


def _cmd_counting(args) -> int:
    m_values = _parse_list(args.m_list, int)
    if args.n_max < 3:
        raise ValueError("--n-max must be at least 3")
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
    _emit(
        "counting",
        {"n_max": args.n_max, "m_list": m_values, "r_max": args.r_max},
        seed=0,
        results={"table": table, "matches": [list(pair) for pair in matches]},
        out_path=args.out,
    )
    return EXIT_OK


def _cmd_search_preservers(args) -> int:
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
    all_permutation_like = all(
        cand.permutation_distance <= PERMUTATION_TOL for cand in candidates
    )
    print(
        f"{len(candidates)} candidate(s) below residual {args.tol:g}; "
        f"all_candidates_permutation_like={all_permutation_like}",
        file=sys.stderr,
    )
    _emit(
        "search-preservers",
        {"alpha": args.alpha, "budget": args.budget, "tol": args.tol},
        seed=args.seed,
        results={
            "candidates": payload,
            "all_candidates_permutation_like": all_permutation_like,
        },
        out_path=args.out,
    )
    return EXIT_OK


def _cmd_malus(args) -> int:
    thetas = np.linspace(0.0, args.theta_max, args.n_points)
    rows = [(float(t), malus_probability(float(t))) for t in thetas]
    lines = ["theta,probability"]
    lines.extend(f"{_fmt(t)},{_fmt(p)}" for t, p in rows)
    csv_text = "\n".join(lines) + "\n"
    sys.stdout.write(csv_text)
    print(f"{args.n_points} points over [0, {args.theta_max:g}]", file=sys.stderr)
    if args.out:
        _emit(
            "malus",
            {"n_points": args.n_points, "theta_max": args.theta_max},
            seed=0,
            results={"rows": [[t, p] for t, p in rows]},
            out_path=args.out,
        )
    return EXIT_OK


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
    """Run one command.  The only error boundary: invalid input
    (ValueError) exits 2 and an unwritable output path (OSError) exits 3,
    each with one ``error:`` line on stderr."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT if isinstance(exc, ValueError) else EXIT_BAD_OUTPUT


def run() -> None:
    sys.exit(main())
