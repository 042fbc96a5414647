"""The four workloads: inputs made from the seed, one closed-loop operation
each, and the oracle that checks every output.

Every call into onebit goes through a module attribute looked up at call
time (``cli.main``, ``highdim.info_positivity_check``), so the span
wrappers installed by ``tracing.Tracer`` see it.  The positivity operators
are generated here with the benchmark's own numpy code, not with the
program's samplers, so a change to those samplers cannot change the inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from itertools import permutations, product
from pathlib import Path
from typing import Callable

import numpy as np

from onebit import cli, highdim

SCAN_ALPHAS = "0.5,1,1.5,2,3"
SCAN_STATES = 380
SCAN_MAPS = 252
SCAN_PROBES = 4  # the CLI scans 4 probe states and 4 probe maps beside the samples

SEARCH_BUDGETS = ((3.0, 2100), (2.0, 525))

POSITIVITY_TOL = 1e-9
IDENTITY_TOL = 1e-10
IDENTITY_MIN_WEIGHT = 1e-3  # pairs lighter than this are outside criterion 5's domain
PERMUTATION_TOL = 1e-6


@dataclass
class OpResult:
    items: int
    ok: bool
    payload: object  # exact, JSON-serialisable record of the program's output
    error: str = ""


@dataclass
class Workload:
    item: str
    rounds: list[list[Callable[[], OpResult]]]  # one pass; rounds repeat cyclically
    params: dict
    reference: str  # the reference kernel whose slowdown tracks this work


def _run_cli(argv: list[str]) -> tuple[int, dict | None]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    text = out.getvalue()
    return code, (json.loads(text) if text else None)


def _derived_seeds(rng: np.random.Generator, count: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 2**32, size=count)]


# --- scan ------------------------------------------------------------------


def _shannon_pair(m: float) -> float:
    total = 0.0
    for p in ((1.0 + m) / 2.0, (1.0 - m) / 2.0):
        if p > 0.0:
            total -= p * math.log2(p)
    return total


#: Shannon total-uncertainty change of the pure +x probe state under the
#: 45-degree probe rotation about z, both of which every CLI scan includes.
_PROBE_SHANNON_DEVIATION = abs(
    sum(_shannon_pair(m) for m in (math.sqrt(0.5), math.sqrt(0.5), 0.0))
    - sum(_shannon_pair(m) for m in (1.0, 0.0, 0.0))
)


def _scan_op(cli_seed: int, csv_path: str) -> OpResult:
    argv = [
        "invariance-scan", "--alphas", SCAN_ALPHAS,
        "--n-states", str(SCAN_STATES), "--n-maps", str(SCAN_MAPS),
        "--seed", str(cli_seed), "--out-csv", csv_path,
    ]
    code, report = _run_cli(argv)
    alphas = [float(a) for a in SCAN_ALPHAS.split(",")]
    items = (SCAN_STATES + SCAN_PROBES) * (SCAN_MAPS + SCAN_PROBES) * len(alphas)
    if code != 0 or report is None:
        return OpResult(items, False, None, f"invariance-scan exit {code}")
    rows = report["results"]["rows"]
    deviation = {row["alpha"]: row["max_deviation"] for row in rows}
    errors = []
    if sorted(deviation) != sorted(alphas):
        errors.append(f"alphas {sorted(deviation)}")
    elif deviation[2.0] > 1e-9:
        errors.append(f"alpha=2 deviation {deviation[2.0]!r} > 1e-9")
    elif deviation[1.0] < max(0.19, _PROBE_SHANNON_DEVIATION - 1e-12):
        errors.append(f"alpha=1 deviation {deviation[1.0]!r} below the probe's")
    return OpResult(items, not errors, report["results"], "; ".join(errors))


# --- search ----------------------------------------------------------------


def _sector_permutations() -> np.ndarray:
    mats = []
    for perm in permutations(range(3)):
        for flips in product((0, 1), repeat=3):
            a = np.zeros((6, 6))
            for u in range(3):
                v = perm[u]
                a[2 * u, 2 * v + flips[u]] = 1.0
                a[2 * u + 1, 2 * v + 1 - flips[u]] = 1.0
            mats.append(a)
    return np.array(mats)


_PERMUTATIONS = _sector_permutations()


def _permutation_distance(matrix) -> float:
    a = np.asarray(matrix, dtype=float)
    return float(np.min(np.max(np.abs(_PERMUTATIONS - a), axis=(1, 2))))


def _search_op(cli_seed: int) -> OpResult:
    items = sum(budget for _, budget in SEARCH_BUDGETS)
    payload = {}
    errors = []
    for alpha, budget in SEARCH_BUDGETS:
        argv = ["search-preservers", "--alpha", repr(alpha),
                "--budget", str(budget), "--seed", str(cli_seed)]
        code, report = _run_cli(argv)
        if code != 0 or report is None:
            return OpResult(items, False, None, f"search-preservers exit {code}")
        results = report["results"]
        payload[repr(alpha)] = results
        distances = [_permutation_distance(c["matrix"]) for c in results["candidates"]]
        if alpha == 3.0:
            if not distances or max(distances) > PERMUTATION_TOL:
                errors.append(f"alpha=3 candidates not all permutations: {distances}")
        elif not any(d > PERMUTATION_TOL for d in distances):
            errors.append(f"alpha=2 found no non-permutation preserver: {distances}")
    return OpResult(items, not errors, payload, "; ".join(errors))


# --- positivity --------------------------------------------------------------


def _haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def _operator(rng: np.random.Generator, n: int, kind: str) -> np.ndarray:
    """Unit-trace Hermitian matrix whose smallest eigenvalue is set by kind:
    'positive' (spectrum in a ratio-2 band), 'indefinite' (in [-0.5, -0.01])
    or 'boundary' (in [-1e-6, -1e-8], log-uniform)."""
    if kind == "positive":
        values = rng.uniform(1.0, 2.0, size=n)
        values /= values.sum()
    else:
        if kind == "indefinite":
            smallest = -rng.uniform(0.01, 0.5)
        else:
            smallest = -(10.0 ** rng.uniform(-8.0, -6.0))
        rest = rng.uniform(1.0, 2.0, size=n - 1)
        values = np.concatenate([[smallest], rest / rest.sum() * (1.0 - smallest)])
    u = _haar_unitary(rng, n)
    m = (u * values) @ u.conj().T
    return (m + m.conj().T) / 2.0


KINDS = ("positive", "indefinite", "boundary")


def _pair_minor(m: np.ndarray, i: int, j: int) -> float:
    return float(m[i, i].real * m[j, j].real - abs(m[i, j]) ** 2)


def _positivity_op(matrix, kind, n_bases, check_seed, identity, stats) -> OpResult:
    rho = highdim.HermitianOperator(matrix)
    verdict = highdim.info_positivity_check(
        rho, strategy="eigen-directed", n_bases=n_bases, seed=check_seed,
        tol=POSITIVITY_TOL,
    )
    oracle = highdim.eigen_positivity_oracle(rho, tol=POSITIVITY_TOL)
    errors = []
    expected = kind == "positive"
    if not verdict.positive == oracle.positive == expected:
        errors.append(
            f"{kind}: criterion {verdict.positive}, oracle {oracle.positive}"
        )
    witness = verdict.witness
    payload = {"positive": verdict.positive, "oracle": oracle.positive}
    if witness is not None:
        if witness.pair is None or not witness.minor < 0.0:
            errors.append(f"witness without a negative minor: {witness.minor!r}")
        else:
            b = witness.basis_matrix
            view = rho.matrix if b is None else b.conj().T @ rho.matrix @ b
            if not _pair_minor(view, *witness.pair) < 0.0:
                errors.append(f"witness pair {witness.pair} has a nonnegative minor")
        payload["witness"] = [witness.basis, list(witness.pair or ()), repr(witness.minor)]
    if oracle.witness is not None:
        payload["eigenvalue"] = repr(oracle.witness.eigenvalue)
    if identity:
        gpt = highdim.gpt_from_density(rho)
        diag = np.real(np.diag(rho.matrix))
        for i in range(rho.n):
            for j in range(i + 1, rho.n):
                s = diag[i] + diag[j]
                if s < IDENTITY_MIN_WEIGHT:
                    stats["identity_pairs_skipped"] += 1
                    continue
                slack = highdim.pair_uncertainty(gpt, i, j) - 2.0
                expected_slack = 4.0 * highdim.minor_condition(rho, i, j) / (s * s)
                stats["identity_pairs"] += 1
                if abs(slack - expected_slack) > IDENTITY_TOL:
                    errors.append(
                        f"pair ({i}, {j}): slack {slack!r} vs 4 minor/s^2 "
                        f"{expected_slack!r}"
                    )
    return OpResult(1, not errors, payload, "; ".join(errors))


# --- construction --------------------------------------------------------------

def build(name: str, seed: int, scratch: Path) -> Workload:
    """Generate the inputs of one pass of ``name`` from ``seed``."""
    rng = np.random.default_rng([seed, *name.encode()])
    if name == "scan":
        csv_path = str(scratch / "scan.csv")
        rounds = [[lambda s=s: _scan_op(s, csv_path)] for s in _derived_seeds(rng, 4)]
        return Workload(
            "state x map x alpha cell", rounds,
            {"alphas": SCAN_ALPHAS, "n_states": SCAN_STATES, "n_maps": SCAN_MAPS,
             "probes": SCAN_PROBES},
            "bulk",
        )
    if name == "search":
        rounds = [[lambda s=s: _search_op(s)] for s in _derived_seeds(rng, 4)]
        return Workload(
            "objective evaluation", rounds,
            {"budgets": {repr(a): b for a, b in SEARCH_BUDGETS}},
            "small",
        )
    stats = {"identity_pairs": 0, "identity_pairs_skipped": 0}
    if name == "positivity_n64":
        dims, n_bases, identity, n_rounds = (64,), 8, False, 10
    elif name == "positivity_small":
        dims, n_bases, identity, n_rounds = (2, 3, 4, 5, 6), 3, True, 4
    else:
        raise ValueError(f"unknown workload {name!r}")
    rounds = []
    check_seed = 0
    for _ in range(n_rounds):
        ops = []
        for n in dims:
            for kind in KINDS:
                matrix = _operator(rng, n, kind)
                ops.append(
                    lambda m=matrix, k=kind, c=check_seed: _positivity_op(
                        m, k, n_bases, c, identity, stats
                    )
                )
                check_seed += 1
        rounds.append(ops)
    return Workload(
        "operator checked", rounds,
        {"dims": list(dims), "n_bases": n_bases, "kinds": list(KINDS),
         "pairwise_identity": identity, "identity": stats},
        "small",
    )
