"""Degree-alpha entropies of discrete distributions and their totals
over complete sets of complementary binary experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Absolute tolerance on distribution sums and entries.
DIST_TOL = 1e-9


@dataclass(frozen=True)
class EntropyMeasure:
    """A member (alpha, k) of the degree-alpha entropy family.

    ``alpha != 1`` selects H(p) = k (1 - sum_i p_i**alpha) / (alpha - 1);
    ``alpha == 1`` selects the Shannon limit -k sum_i p_i log2 p_i.
    """

    alpha: float
    k: float

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if not self.k > 0:
            raise ValueError(f"k must be positive, got {self.k}")


#: Quadratic measure with the bit normalization k = 2.
QUADRATIC = EntropyMeasure(alpha=2.0, k=2.0)

#: Shannon entropy, base-2 logarithm.
SHANNON = EntropyMeasure(alpha=1.0, k=1.0)


def normalized_measure(alpha: float) -> EntropyMeasure:
    """Degree-alpha measure scaled so a fair binary pair scores exactly 1.

    Solving H((1/2, 1/2)) = 1 for k gives k = (alpha - 1) / (1 - 2**(1 - alpha))
    when alpha != 1; its alpha -> 1 limit is the base-2 Shannon entropy with
    k = 1, which is what alpha == 1 returns.
    """
    if not (alpha > 0 and math.isfinite(alpha)):
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    if alpha == 1.0:
        return SHANNON
    return EntropyMeasure(alpha=alpha, k=(alpha - 1.0) / (1.0 - 2.0 ** (1.0 - alpha)))


def validate_distribution(probs, tol: float = DIST_TOL) -> np.ndarray:
    """Validate a probability distribution, returning it renormalized.

    Entries must lie in [0, 1] and sum to 1, each within ``tol``.  Inputs
    inside the tolerance are clipped and renormalized exactly; anything
    further out is rejected, never silently repaired.
    """
    p = np.asarray(probs, dtype=float)
    if p.ndim != 1 or p.size < 2:
        raise ValueError(
            f"distribution must be a flat sequence of length >= 2, got shape {p.shape}"
        )
    if not np.isfinite(p).all():
        raise ValueError(f"distribution entries must be finite: {p.tolist()}")
    if np.any(p < -tol) or np.any(p > 1.0 + tol):
        raise ValueError(f"distribution entries outside [0, 1]: {p.tolist()}")
    total = float(p.sum())
    if abs(total - 1.0) > tol:
        raise ValueError(
            f"distribution sum {total:.6g} differs from 1 beyond tolerance {tol:g}"
        )
    p = np.clip(p, 0.0, 1.0)
    return p / p.sum()


def entropy_sum(p, measure: EntropyMeasure, count, axis: int = -1):
    """The one entropy kernel: the summed degree-alpha entropy of ``count``
    distributions whose entries lie along ``axis`` of ``p``.

    Returns k (count - sum_i p_i**alpha) / (alpha - 1) for alpha != 1 and
    the Shannon limit -k sum_i p_i log2 p_i at alpha = 1, where nonpositive
    entries contribute 0.  Entries are neither validated nor clipped, so
    diagnostic callers can score unphysical vectors; the one exception is
    a negative entry under a fractional degree, which has no real power
    and raises ValueError instead of producing NaN.
    """
    p = np.asarray(p, dtype=float)
    if measure.alpha == 1.0:
        safe = np.where(p > 0.0, p, 1.0)
        return -measure.k * np.add.reduce(p * np.log2(safe), axis=axis)
    if measure.alpha % 1.0 and (p < 0.0).any():
        raise ValueError(
            f"negative entry {p.min()!r} has no real power {measure.alpha!r}"
        )
    powers = np.add.reduce(p**measure.alpha, axis=axis)
    return measure.k * (count - powers) / (measure.alpha - 1.0)


def pair_entropy(p: float, measure: EntropyMeasure) -> float:
    """Entropy of the binary pair (p, 1 - p).

    Evaluates the defining formula directly with no range validation, so
    diagnostic callers can score pairs that fall outside [0, 1]; see
    :func:`entropy_sum`.
    """
    return float(entropy_sum(np.array([p, 1.0 - p]), measure, 1))


def entropy(probs, measure: EntropyMeasure, tol: float = DIST_TOL) -> float:
    """Degree-alpha entropy of a probability distribution.

    Returns k (1 - sum_i p_i**alpha) / (alpha - 1) for alpha != 1 and the
    base-2 Shannon entropy -k sum_i p_i log2 p_i (with 0 log 0 := 0) at
    alpha = 1.  The result is nonnegative and vanishes exactly on
    deterministic distributions.

    Raises ValueError for inputs that fail :func:`validate_distribution`.
    """
    return float(entropy_sum(validate_distribution(probs, tol), measure, 1))


def total_uncertainty(pairs, measure: EntropyMeasure, tol: float = DIST_TOL) -> float:
    """Sum of pair entropies over a set of complementary binary experiments.

    ``pairs`` is an iterable of (p, 1 - p) distributions, one per
    measurement in the complete set; an empty iterable totals 0.
    """
    validated = [validate_distribution(pair, tol) for pair in pairs]
    for p in validated:
        if p.size != 2:
            raise ValueError(f"expected binary pairs, got length {p.size}")
    return float(entropy_sum(np.array(validated).reshape(-1), measure, len(validated)))
