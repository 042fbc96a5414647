"""Two-dimensional states over a complete set of three mutually
complementary binary measurements.

States are probability 6-vectors (p_x, 1-p_x, p_y, 1-p_y, p_z, 1-p_z);
the equivalent mean-value vector (2p_x-1, 2p_y-1, 2p_z-1) lives in the
unit ball, with pure states on the unit sphere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measures import QUADRATIC, EntropyMeasure, entropy_sum

#: Tolerance on sector sums and entry ranges.
SECTOR_TOL = 1e-9
#: Tolerance on the mean-value norm for physicality.
PHYSICAL_TOL = 1e-9

_SECTOR_NAMES = ("x", "y", "z")


@dataclass(frozen=True)
class ComplementaryFrame:
    """Three pairwise orthonormal measurement axes in mean-value space.

    Orthonormality is exactly mutual complementarity: certainty along one
    axis forces even odds along the other two.  Improper frames
    (determinant -1) are accepted.
    """

    axes: np.ndarray

    def __post_init__(self):
        a = np.array(self.axes, dtype=float)
        if a.shape != (3, 3):
            raise ValueError(f"frame needs three 3-vectors, got shape {a.shape}")
        gram = a @ a.T
        gap = float(np.max(np.abs(gram - np.eye(3))))
        if not gap <= SECTOR_TOL:  # a NaN gap fails too
            raise ValueError(f"frame axes are not orthonormal (gap {gap:.3g})")
        a.setflags(write=False)
        object.__setattr__(self, "axes", a)


CANONICAL_FRAME = ComplementaryFrame(np.eye(3))


@dataclass(frozen=True)
class QubitState:
    """Probability 6-vector over the three complementary measurements.

    Construction checks the sector structure (each (p, 1-p) pair sums
    to 1); it does not enforce entry ranges or physicality, because
    post-selection diagnostics must be able to represent the unphysical
    6-vectors whose detection is the point of the positivity criterion.
    Use :meth:`from_probabilities` or :meth:`validate` for the full check.
    """

    probs: tuple[float, ...]

    def __post_init__(self):
        probs = tuple(float(v) for v in self.probs)
        if len(probs) != 6:
            raise ValueError(f"state needs 6 probabilities, got {len(probs)}")
        object.__setattr__(self, "probs", probs)
        for u in range(3):
            gap = abs(probs[2 * u] + probs[2 * u + 1] - 1.0)
            if not gap <= SECTOR_TOL:  # a NaN gap fails too
                raise ValueError(
                    f"sector {_SECTOR_NAMES[u]} sums to "
                    f"{probs[2 * u] + probs[2 * u + 1]!r}, not 1"
                )

    @classmethod
    def from_probabilities(cls, probs) -> "QubitState":
        """Fully validated construction: sector sums, entry ranges and
        physicality of the mean-value vector are all enforced."""
        state = cls(tuple(probs))
        state.validate()
        return state

    @property
    def as_array(self) -> np.ndarray:
        return np.array(self.probs)

    @property
    def mean_values(self) -> np.ndarray:
        """The mean-value vector (2p_x - 1, 2p_y - 1, 2p_z - 1)."""
        p = self.probs
        return np.array([2.0 * p[0] - 1.0, 2.0 * p[2] - 1.0, 2.0 * p[4] - 1.0])

    def validate(self) -> None:
        """Raise ValueError unless entries are in [0, 1] and |m| <= 1,
        each within ``PHYSICAL_TOL``.  States outside tolerance are
        rejected, not clipped; silent clipping would mask positivity
        violations."""
        p = self.as_array
        if np.any(p < -PHYSICAL_TOL) or np.any(p > 1.0 + PHYSICAL_TOL):
            raise ValueError(f"probabilities outside [0, 1]: {self.probs}")
        norm = float(np.linalg.norm(self.mean_values))
        if norm > 1.0 + PHYSICAL_TOL:
            raise ValueError(
                f"mean-value vector has norm {norm!r} > 1: not a physical state"
            )


def probabilities_from_mean(m, frame: ComplementaryFrame = CANONICAL_FRAME) -> QubitState:
    """State whose outcome probabilities along the frame axes are
    p_u = (1 + m . u) / 2.

    Rejects mean-value vectors with |m| > 1 + PHYSICAL_TOL.  Round-trips with
    :attr:`QubitState.mean_values` on the canonical frame.
    """
    m = np.asarray(m, dtype=float)
    if m.shape != (3,):
        raise ValueError(f"mean-value vector must have 3 components, got {m.shape}")
    norm = float(np.linalg.norm(m))
    if norm > 1.0 + PHYSICAL_TOL:
        raise ValueError(
            f"mean-value vector has norm {norm!r} > 1: not a physical state"
        )
    return QubitState(tuple(np.clip(p6_from_means(frame.axes @ m), 0.0, 1.0)))


def p6_from_means(m, axis: int = -1) -> np.ndarray:
    """Probability 6-vectors (p_u, 1 - p_u) with p_u = (1 + m_u) / 2 of
    mean-value vectors laid out along ``axis``, unclipped; the output has
    the six entries along that axis."""
    p = (1.0 + np.asarray(m, dtype=float)) / 2.0
    axis = range(p.ndim)[axis]
    out = np.empty(p.shape[:axis] + (6,) + p.shape[axis + 1 :])
    lead = (slice(None),) * axis
    out[lead + (slice(0, None, 2),)] = p
    out[lead + (slice(1, None, 2),)] = 1.0 - p
    return out


def total_uncertainty_state(
    state: QubitState, measure: EntropyMeasure = QUADRATIC
) -> float:
    """Total uncertainty of a state: the sum of pair entropies over its
    three sectors.

    Agrees with :func:`onebit.measures.total_uncertainty` on valid states
    and extends it to diagnostic states whose entries fall outside [0, 1].
    """
    return float(entropy_sum(np.array(state.probs), measure, 3))


def is_pure(state: QubitState) -> bool:
    """True when the mean-value vector sits on the unit sphere within
    ``PHYSICAL_TOL``."""
    return abs(float(np.linalg.norm(state.mean_values)) - 1.0) <= PHYSICAL_TOL


def malus_probability(theta: float) -> float:
    """cos^2(theta / 2): probability of the + outcome when a pure state is
    measured along an axis at angle theta from its mean-value direction."""
    return math.cos(theta / 2.0) ** 2


def _row_norms(m: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of ``m`` (..., 3), each with the bits of
    ``np.linalg.norm`` on that row (the root of its dot product)."""
    return np.sqrt((m[..., None, :] @ m[..., :, None])[..., 0, 0])


def random_mean_vectors(rng: np.random.Generator, count: int, kind: str = "pure") -> np.ndarray:
    """``count`` uniform mean-value vectors, shape (count, 3), on the unit
    sphere (pure) or in the unit ball (mixed).

    Each vector is a normal 3-group scaled to unit length, a group whose
    norm is below 1e-12 being dropped and redrawn; a mixed one is then
    scaled by a radius drawn after it.  Returns the vectors, and leaves
    the generator in the state, of ``count`` draws of one vector at a
    time.  Pure groups are drawn in one call and topped up, in stream
    order, until ``count`` are kept; a mixed draw interleaves its normals
    with its radius, so mixed groups are drawn one at a time.
    """
    if kind not in ("pure", "mixed"):
        raise ValueError(f"kind must be 'pure' or 'mixed', got {kind!r}")
    if kind == "pure":
        groups = rng.normal(size=(count, 3))
        norms = _row_norms(groups)
        while (norms < 1e-12).any():
            ok = norms >= 1e-12
            top_up = rng.normal(size=(count - int(ok.sum()), 3))
            groups = np.concatenate([groups[ok], top_up])
            norms = np.concatenate([norms[ok], _row_norms(top_up)])
        return groups / norms[:, None]
    groups = np.empty((count, 3))
    radii = np.empty((count, 1))
    for group, radius in zip(groups, radii):
        group[:] = rng.normal(size=3)
        while _row_norms(group) < 1e-12:
            group[:] = rng.normal(size=3)
        radius[0] = rng.uniform() ** (1.0 / 3.0)
    return groups / _row_norms(groups)[:, None] * radii


def random_state(rng: np.random.Generator, kind: str = "pure") -> QubitState:
    """Random state in the canonical frame; deterministic for a given
    generator.  kind='pure' samples the sphere, 'mixed' the ball."""
    return probabilities_from_mean(random_mean_vectors(rng, 1, kind)[0])
