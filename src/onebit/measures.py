"""Degree-alpha entropies of discrete distributions and their totals
over complete sets of complementary binary experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

#: Absolute tolerance on distribution sums and entries.
DIST_TOL = 1e-9
#: Largest entropy degree.  k grows like alpha, and a total over ``count``
#: pairs, k (count - sum_i p_i**alpha) / (alpha - 1), multiplies it by up
#: to ``count``: over three pairs that overflows from alpha = 6e307 on.
MAX_ALPHA = 1e300


def _check_positive_finite(name: str, value: float) -> None:
    """Raise ValueError unless ``value`` is positive and finite.  The test
    fails on NaN: a NaN tolerance would switch a threshold test off, and an
    infinite one would pass everything."""
    if not (value > 0 and math.isfinite(value)):
        raise ValueError(f"{name} must be positive and finite, got {value}")


def _check_alpha(alpha: float) -> None:
    """Raise ValueError unless the entropy degree ``alpha`` lies in
    (0, ``MAX_ALPHA``]."""
    if not 0.0 < alpha <= MAX_ALPHA:  # a NaN fails too
        raise ValueError(f"alpha must be positive and finite, at most {MAX_ALPHA:g}, got {alpha}")


@dataclass(frozen=True)
class EntropyMeasure:
    """The degree-alpha entropy that gives a fair binary pair exactly one bit.

    ``alpha != 1`` selects H(p) = k (1 - sum_i p_i**alpha) / (alpha - 1);
    ``alpha == 1`` selects the Shannon limit -k sum_i p_i log2 p_i.  The
    degree alone names the measure: solving H((1/2, 1/2)) = 1 for k gives
    k = (alpha - 1) / (1 - 2**(1 - alpha)), whose alpha -> 1 limit k = 1 is
    what alpha == 1 gets.

    Every degree with 0 < |alpha - 1| < 2**-26 takes the Shannon limit too,
    with k = 1, because the formula cancels there: 1 - 2**(1 - alpha) is
    exactly 0 at alpha = 1 - 2**-53, and at 1 + 2**-52 the pair (0.3, 0.7)
    scores 2 bits, twice the binary maximum.  At the band's edges the
    formula's two cancelled differences, 1 - 2**(1 - alpha) and
    1 - sum_i p_i**alpha, turn each ulp(1) = 2**-52 of rounding into about
    2**-26 = 1.5e-8 bits, already more than the formula's true distance
    from the limit (about 1.1e-9 on (0.3, 0.7)).

    ``shannon`` says whether the degree takes the Shannon limit.
    ``sum_scale`` is c = k / |alpha - 1|, and k at the Shannon degrees:
    two entropies over the same count of distributions differ by c times
    their power sums' difference (sum_i p_i log2 p_i at the Shannon
    degrees), |H(q) - H(p)| = c |S(q) - S(p)|.  Raises ValueError unless
    ``alpha`` is positive and at most ``MAX_ALPHA``.
    """

    alpha: float
    k: float = field(init=False)
    shannon: bool = field(init=False, repr=False)
    sum_scale: float = field(init=False, repr=False)

    def __post_init__(self):
        a = self.alpha
        _check_alpha(a)
        shannon = abs(a - 1.0) < 2.0**-26
        k = 1.0 if shannon else (a - 1.0) / (1.0 - 2.0 ** (1.0 - a))
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "shannon", shannon)
        object.__setattr__(self, "sum_scale", k if shannon else k / abs(a - 1.0))


#: Quadratic measure, k = 2.
QUADRATIC = EntropyMeasure(2.0)

#: Shannon entropy, base-2 logarithm.
SHANNON = EntropyMeasure(1.0)


def validate_distribution(probs) -> np.ndarray:
    """Validate a probability distribution, returning it renormalized.

    Entries must lie in [0, 1] and sum to 1, each within ``DIST_TOL``.  Inputs
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
    if np.any(p < -DIST_TOL) or np.any(p > 1.0 + DIST_TOL):
        raise ValueError(f"distribution entries outside [0, 1]: {p.tolist()}")
    total = float(p.sum())
    if abs(total - 1.0) > DIST_TOL:
        raise ValueError(
            f"distribution sum {total:.6g} differs from 1 beyond tolerance {DIST_TOL:g}"
        )
    p = np.clip(p, 0.0, 1.0)
    return p / p.sum()


def entropy_sum(p, measure: EntropyMeasure, count):
    """The one entropy kernel: the summed degree-alpha entropy of ``count``
    distributions whose entries lie along the last axis of ``p``.

    Returns k (count - sum_i p_i**alpha) / (alpha - 1) for alpha != 1 and
    the Shannon limit -k sum_i p_i log2 p_i at and next to alpha = 1 (see
    :class:`EntropyMeasure`), where nonpositive entries contribute 0.
    Entries are neither validated nor clipped, so diagnostic callers can
    score unphysical vectors; the one exception is a negative entry under
    a fractional degree, which has no real power and raises ValueError
    instead of producing NaN.  The scan reduces :func:`_entropy_terms`
    to power sums itself and compares those (``sum_scale``).
    """
    p = np.asarray(p, dtype=float)
    alpha = measure.alpha
    if alpha % 1.0 and not measure.shannon and (p < 0.0).any():
        raise ValueError(f"negative entry {p.min()!r} has no real power {alpha!r}")
    sums = np.add.reduce(_entropy_terms(p, measure), axis=-1)
    if measure.shannon:
        return -measure.k * sums
    return measure.k * (count - sums) / (alpha - 1.0)


#: The package's one power ladder, for the degrees of the scan's default
#: grid but 1, built from square roots and multiplies, which every loop
#: numpy may dispatch rounds correctly, so their bits depend on no CPU
#: kernel.  A degree's (root, height) gives p**alpha as root(p) times p,
#: ``height`` times in turn: p**1.5 = p**0.5 p, p**2.5 = (p**0.5 p) p and
#: p**3 = p**2 p, within 1 ulp (1.5, 3) or 2 ulp (2.5) of the correctly
#: rounded power.  Listed by root and then by height.
_LADDER = {
    0.5: (np.sqrt, 0),
    1.5: (np.sqrt, 1),
    2.5: (np.sqrt, 2),
    2.0: (np.square, 0),
    3.0: (np.square, 1),
}


def _power(p: np.ndarray, alpha: float, out=None) -> np.ndarray:
    """p**alpha from ``_LADDER`` at its degrees and from ``np.power`` at
    every other, written into ``out`` (``None`` allocates) with no
    temporary.  ``out`` must not alias ``p``: a multiply reads ``p``
    after ``out`` holds the power below it."""
    rung = _LADDER.get(alpha)
    if rung is None:
        return np.power(p, alpha, out=out)
    root, height = rung
    out = root(p, out=out)
    for _ in range(height):
        out *= p
    return out


def _ladder_walk(p: np.ndarray, measures, work: np.ndarray):
    """Yield (j, ``work``) for every index j of ``measures``, with ``work``
    holding :func:`_entropy_terms` of ``p`` under ``measures[j]``, bit for
    bit.  The ladder's degrees come first, in ``_LADDER``'s order, each
    climbed in place from the degree yielded before it when both share a
    root; every other degree follows in grid order.  ``work`` must not
    alias ``p`` nor be written to while the walk runs."""
    alphas = [measure.alpha for measure in measures]
    held, climbed = None, 0  # the root and height of the power in ``work``
    for degree, (root, height) in _LADDER.items():
        for j in (j for j, alpha in enumerate(alphas) if alpha == degree):
            if root is not held:
                held, climbed = root, 0
                root(p, out=work)
            for _ in range(height - climbed):
                work *= p
            climbed = height
            yield j, work
    for j, alpha in enumerate(alphas):
        if alpha not in _LADDER:
            yield j, _entropy_terms(p, measures[j], work)


def _entropy_terms(p: np.ndarray, measure: EntropyMeasure, work=None) -> np.ndarray:
    """The per-entry terms of ``measure``'s entropy, written into ``work``
    (``None`` allocates): p log2 p, 0 where p <= 0 (-inf included), at
    the Shannon degrees, else p**alpha from :func:`_power`.  Checks no
    sign.  The Shannon terms take p log2 p of every entry and then zero
    those where p <= 0 (the product is NaN there), which is faster than a
    masked log and gives its bits."""
    if measure.shannon:
        with np.errstate(divide="ignore", invalid="ignore"):
            work = np.log2(p, out=work)
            work *= p
        np.copyto(work, 0.0, where=p <= 0.0)
        return work
    return _power(p, measure.alpha, out=work)


def pair_entropy(p: float, measure: EntropyMeasure) -> float:
    """Entropy of the binary pair (p, 1 - p).

    Evaluates the defining formula directly with no range validation, so
    diagnostic callers can score pairs that fall outside [0, 1]; see
    :func:`entropy_sum`.
    """
    return float(entropy_sum(np.array([p, 1.0 - p]), measure, 1))


def entropy(probs, measure: EntropyMeasure) -> float:
    """Degree-alpha entropy of a probability distribution.

    Returns k (1 - sum_i p_i**alpha) / (alpha - 1) for alpha != 1 and the
    base-2 Shannon entropy -k sum_i p_i log2 p_i (with 0 log 0 := 0) at
    alpha = 1.  The result is nonnegative and vanishes exactly on
    deterministic distributions.

    Raises ValueError for inputs that fail :func:`validate_distribution`.
    """
    return float(entropy_sum(validate_distribution(probs), measure, 1))


def total_uncertainty(pairs, measure: EntropyMeasure) -> float:
    """Sum of pair entropies over a set of complementary binary experiments.

    ``pairs`` is an iterable of (p, 1 - p) distributions, one per
    measurement in the complete set; an empty iterable totals 0.
    """
    validated = [validate_distribution(pair) for pair in pairs]
    for p in validated:
        if p.size != 2:
            raise ValueError(f"expected binary pairs, got length {p.size}")
    return float(entropy_sum(np.array(validated).reshape(-1), measure, len(validated)))
