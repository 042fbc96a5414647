"""Compare the positivity check's verdicts and witnesses between two checkouts.

    python tools/positivity_diff.py OLD_CHECKOUT [NEW_CHECKOUT]

NEW_CHECKOUT defaults to this checkout.  The operators are built here with
numpy alone, so both sides check the same matrices: criterion 4's mix
(positive, lambda_min in [-0.5, -0.01], |lambda_min| <= 1e-6) at n = 2..6
with 3 bases, the benchmark's positivity sizes (n = 64 with 8 bases,
n = 2..6 with 3), and near-threshold operators at n = 2..64 with 1-16
bases.  Each side runs ``info_positivity_check`` with every strategy in a
child process importing that checkout's ``src/``.  The report counts, per
strategy, the checks whose verdict differs and those whose witness
(frame label, pair, minor, pair total, basis matrix) differs with the same
verdict, and groups the witness frame changes by n.  Exit status 1 when a
verdict differs, else 0.
"""

from __future__ import annotations

import pickle
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

CHILD = """
import pickle, sys
sys.path.insert(0, sys.argv[1])
from onebit.highdim import STRATEGIES, HermitianOperator, info_positivity_check

def bits(verdict):
    w = verdict.witness
    if w is None:
        return (verdict.positive,)
    return (verdict.positive, w.basis, w.pair, w.minor.hex(),
            None if w.pair_total is None else w.pair_total.hex(),
            None if w.basis_matrix is None else w.basis_matrix.tobytes())

with open(sys.argv[2], "rb") as f:
    ops = pickle.load(f)
out = [{s: bits(info_positivity_check(HermitianOperator(m), s, n_bases=b, seed=seed))
        for s in STRATEGIES} for m, b, seed in ops]
with open(sys.argv[3], "wb") as f:
    pickle.dump(out, f)
"""


def operator(rng, n, smallest=None):
    """Unit-trace Hermitian matrix with a Haar eigenbasis: a positive
    spectrum when ``smallest`` is None, else one whose minimum is it."""
    rest = rng.uniform(1.0, 2.0, size=n if smallest is None else n - 1)
    if smallest is None:
        values = rest / rest.sum()
    else:
        values = np.concatenate([[smallest], rest / rest.sum() * (1.0 - smallest)])
    q, r = np.linalg.qr((rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / np.sqrt(2.0))
    d = np.diag(r)
    q = q * (d / np.abs(d))
    m = (q * values) @ q.conj().T
    return (m + m.conj().T) / 2.0


def ensemble():
    """(matrix, n_bases, seed) triples."""
    rng = np.random.default_rng(2009)
    ops = []
    for n in range(2, 7):
        for k in range(500):
            smallest = (None, -rng.uniform(0.01, 0.5), rng.uniform(-1e-6, 1e-6))[k % 3]
            ops.append((operator(rng, n, smallest), 3, len(ops)))
    for dims, n_bases in (((64,), 8), ((2, 3, 4, 5, 6), 3)):
        for _ in range(30):
            for n in dims:
                for smallest in (None, -rng.uniform(0.01, 0.5), -(10.0 ** rng.uniform(-8, -6))):
                    ops.append((operator(rng, n, smallest), n_bases, len(ops)))
    for _ in range(1000):
        n = int(rng.choice([2, 2, 3, 4, 5, 8, 16, 31, 32, 48, 64]))
        sign = rng.choice([-1.0, 1.0])
        smallest = sign * 10.0 ** rng.uniform(-11, -7) if rng.uniform() < 0.6 else -rng.uniform(1e-4, 0.3)
        ops.append((operator(rng, n, smallest), int(rng.integers(1, 17)), len(ops)))
    return ops


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not 1 <= len(argv) <= 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    old, new = Path(argv[0]), Path(argv[1]) if len(argv) > 1 else ROOT
    ops = ensemble()
    with tempfile.TemporaryDirectory(prefix="onebit-positivity-diff-") as tmp:
        ops_path = Path(tmp) / "ops.pkl"
        with open(ops_path, "wb") as f:
            pickle.dump(ops, f)
        results = []
        for side, checkout in (("old", old), ("new", new)):
            out = Path(tmp) / f"{side}.pkl"
            cmd = [sys.executable, "-c", CHILD, str(checkout / "src"), str(ops_path), str(out)]
            subprocess.run(cmd, check=True)
            with open(out, "rb") as f:
                results.append(pickle.load(f))
    verdicts, witnesses, frames = Counter(), Counter(), Counter()
    for (m, _, _), before, after in zip(ops, *results):
        for strategy in before:
            a, b = before[strategy], after[strategy]
            if a[0] != b[0]:
                verdicts[strategy] += 1
            elif a != b:
                witnesses[strategy] += 1
                frames[strategy, m.shape[0], a[1].split("[")[0], b[1].split("[")[0]] += 1
    n2 = sum(m.shape[0] == 2 for m, _, _ in ops)
    print(f"{len(ops)} operators ({n2} at n = 2), {len(ops) * len(results[0][0])} checks")
    for strategy in results[0][0]:
        print(f"{strategy:15} verdicts differ: {verdicts[strategy]:5}   "
              f"witnesses differ: {witnesses[strategy]:5}")
    for (strategy, n, a, b), count in sorted(frames.items()):
        print(f"  {strategy} n = {n}: {a} -> {b}: {count}")
    return 1 if verdicts else 0


if __name__ == "__main__":
    sys.exit(main())
