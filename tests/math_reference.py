"""Independent references for the tests: entropies built from ``math``
alone, one float at a time, for the kernel tests in ``test_measures.py``
and ``test_transforms.py``, a Cholesky positivity test with no
eigensolver for ``test_highdim.py`` and ``test_cli.py``, the
boundary cases that the tests of every tolerance constant share, and the
alpha grids that the ladder walk's tests and the scan's share."""

import math
from fractions import Fraction

import numpy as np
import pytest

SCAN_ALPHAS = (0.5, 1.0, 1.5, 2.0, 3.0)
#: Grids whose visit order up the power ladder differs from grid order:
#: reversed, every step climbed, repeated rungs (the second 1.5 must not
#: climb from the first) and degrees off the ladder between its rungs.
LADDER_GRIDS = (
    SCAN_ALPHAS,
    (3.0, 2.0, 1.5, 1.0, 0.5),
    (2.5, 1.5, 0.5, 3.0, 2.0),
    (2.0, 2.0, 3.0),
    (1.5, 1.5, 0.5),
    (1.7, 3.0, 0.25, 2.0),
)


def math_entropy_sum(entries, alpha, k, count):
    """k (count - sum_i x_i**alpha) / (alpha - 1) over a flat sequence of
    floats, and at alpha = 1 the Shannon limit -k sum_i x_i log2 x_i over
    the entries x_i > 0."""
    if alpha == 1.0:
        return -k * sum(x * math.log2(x) for x in entries if x > 0.0)
    return k * (count - sum(math.pow(x, alpha) for x in entries)) / (alpha - 1.0)


def scalar_pair_total(p6, alpha):
    """Normalized total uncertainty of a probability 6-vector: the pair
    entropy of (p, 1 - p) per sector, with p the sector's first entry
    clipped to [0, 1], and k chosen so that a fair pair scores 1."""
    k = 1.0 if alpha == 1.0 else (alpha - 1.0) / (1.0 - math.pow(2.0, 1.0 - alpha))
    total = 0.0
    for u in range(3):
        p = min(max(p6[2 * u], 0.0), 1.0)
        total += math_entropy_sum((p, 1.0 - p), alpha, k, 1)
    return total


def diagonal_minus_axis(alpha):
    """3 h_alpha(1/2 + 1/(2 sqrt 3)) - 2: the normalized total uncertainty
    of the pure diagonal state m = (1, 1, 1) / sqrt 3 minus that of a pure
    axis state (one certain sector, two fair ones)."""
    p = 0.5 + 0.5 / math.sqrt(3.0)
    return scalar_pair_total((p, 1.0 - p) * 3, alpha) - 2.0


def scan_supremum(alpha):
    """D(alpha) = |3 h_alpha(1/2 + 1/(2 sqrt 3)) - 2|, the largest
    |H_total(A p) - H_total(p)| over all states and rotations.  The total
    depends on a state only through the squared mean values, rotations
    act transitively on each sphere |m| = r, and the extremes sit at the
    pure axis and pure diagonal states."""
    return abs(diagonal_minus_axis(alpha))


def exact_scan_supremum(alpha):
    """D(alpha) as an exact Fraction at an integer alpha >= 2.  Here
    h_alpha(p) = (1 - s_alpha) / (1 - 2**(1 - alpha)) with the power sum
    s_k = p**k + q**k at p = 1/2 + 1/(2 sqrt 3) and q = 1 - p; since
    p + q = 1 and p q = 1/6, s_k = s_{k-1} - s_{k-2} / 6 from s_0 = 2 and
    s_1 = 1, so every s_k is rational."""
    s = [Fraction(2), Fraction(1)]
    while len(s) <= alpha:
        s.append(s[-1] - s[-2] / 6)
    h = (1 - s[alpha]) / (1 - Fraction(1, 2 ** (alpha - 1)))
    return abs(3 * h - 2)


def cholesky_succeeds(m):
    """True when numpy finds a Cholesky factor of ``m``: a Hermitian ``m``
    is then positive definite, up to rounding (Higham, ch. 10)."""
    try:
        np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        return False
    return True


#: Boundary cases for a tolerance constant: a violation of half the
#: constant passes, one of twice the constant is rejected.
HALF_OR_TWICE = pytest.mark.parametrize(
    "factor, ok", [(0.5, True), (2.0, False)], ids=["half-tol", "twice-tol"]
)
