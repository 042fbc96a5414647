"""Linear maps on probability 6-vectors induced by frame changes,
invariance scans over the entropy degree, and the randomized search for
alpha-norm preservers.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product

import numpy as np

from .measures import EntropyMeasure, entropy_sum, normalized_measure
from .qubit import SECTOR_TOL, QubitState, p6_from_means, random_mean_vector

#: Tolerance for orthogonality of rotation inputs.
ORTHO_TOL = 1e-9
#: Candidates within this Chebyshev distance of a sector permutation count
#: as permutation-like.
PERMUTATION_TOL = 1e-6

_STEP_FLOOR = 1e-10
_CONVERGED_OBJECTIVE = 1e-14


@dataclass(frozen=True)
class InducedMap:
    """6x6 real linear map acting on probability 6-vectors."""

    matrix: np.ndarray

    def __post_init__(self):
        a = np.array(self.matrix, dtype=float)
        if a.shape != (6, 6):
            raise ValueError(f"induced map must be 6x6, got shape {a.shape}")
        a.setflags(write=False)
        object.__setattr__(self, "matrix", a)


@dataclass(frozen=True)
class StochasticityReport:
    """Outcome of the sector-stochasticity check with violation magnitudes."""

    ok: bool
    column_gap: float
    sector_sum_gap: float
    range_gap: float

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class InvarianceReport:
    """Worst total-uncertainty deviation found for one entropy degree."""

    alpha: float
    n_states: int
    n_maps: int
    max_deviation: float
    argmax_state_id: str
    argmax_map_id: str


@dataclass(frozen=True)
class PreserverCandidate:
    """A map found by the norm-preserver search, with its mean alpha-norm
    residual over the probe set and its distance to the permutation family."""

    map: InducedMap
    residual: float
    permutation_distance: float
    start_kind: str


def _embed(s: np.ndarray, off, m: np.ndarray) -> np.ndarray:
    """The one 6x6 sector-block layout: entry (u, v) of the 3x3 inputs
    becomes the 2x2 block [[s+off+m, s+off-m], [s-off-m, s-off+m]] / 2 at
    rows 2u, 2u+1 and columns 2v, 2v+1.  Vectorized over leading axes;
    ``off`` broadcasts against ``s``."""
    hi = s + off
    lo = s - off
    a = np.empty(hi.shape[:-2] + (3, 2, 3, 2))
    a[..., 0, :, 0] = hi + m
    a[..., 0, :, 1] = hi - m
    a[..., 1, :, 0] = lo - m
    a[..., 1, :, 1] = lo + m
    a *= 0.5
    return a.reshape(a.shape[:-4] + (6, 6))


def induced_from_rotations(rotations, tol: float = ORTHO_TOL) -> np.ndarray:
    """The 6x6 maps, shape (n, 6, 6), acting on probability vectors as the
    given (n, 3, 3) orthogonal matrices act on mean-value vectors.

    Each output entry is (1 +- (r m)_u) / 2; the constant 1/2 is realized
    linearly through the unit sector sums, weighted by the squared entries
    of the rotation (rows of an orthogonal matrix have unit norm), so signed
    permutations come out as exact permutation matrices and the identity
    maps to the identity.  Raises ValueError unless every matrix is
    orthogonal within ``tol``.
    """
    r = np.asarray(rotations, dtype=float)
    if r.ndim != 3 or r.shape[1:] != (3, 3):
        raise ValueError(f"rotations must have shape (n, 3, 3), got {r.shape}")
    gap = float(np.max(np.abs(np.swapaxes(r, 1, 2) @ r - np.eye(3)), initial=0.0))
    if gap > tol:
        raise ValueError(f"matrix is not orthogonal (r^T r gap {gap:.3g})")
    return _embed(r * r, 0.0, r)


def induced_from_rotation(rotation, tol: float = ORTHO_TOL) -> InducedMap:
    """The 6x6 map acting on probability vectors as the given orthogonal
    matrix acts on mean-value vectors; see :func:`induced_from_rotations`.
    """
    r = np.asarray(rotation, dtype=float)
    if r.shape != (3, 3):
        raise ValueError(f"rotation must be 3x3, got shape {r.shape}")
    return InducedMap(induced_from_rotations(r[None], tol)[0])


_QUARTER_TURN = np.array(
    [
        [0, 0, 1, 0, 0, 0],
        [0, 0, 0, 1, 0, 0],
        [0, 1, 0, 0, 0, 0],
        [1, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 1, 0],
        [0, 0, 0, 0, 0, 1],
    ],
    dtype=float,
)


def example_permutation_map() -> InducedMap:
    """The sector permutation sending p_x -> p_y, p_y -> 1-p_x, p_z -> p_z:
    a quarter turn about the z axis in mean-value space.  Its fourth power
    is the identity."""
    return InducedMap(_QUARTER_TURN)


def apply(induced: InducedMap, state: QubitState, tol: float = SECTOR_TOL) -> QubitState:
    """Apply a map to a state, checking that the image is a valid
    probability vector.

    Raises ValueError with the violation magnitude when sector sums or
    entry ranges break, which means the map was not sector-stochastic.
    The image's physicality (|m| <= 1) is not enforced here; sector
    stochasticity only guarantees a valid probability vector.
    """
    image = induced.matrix @ state.as_array
    sector_gap = float(np.max(np.abs(image[0::2] + image[1::2] - 1.0)))
    range_gap = float(max(0.0, np.max(image) - 1.0, -np.min(image)))
    if sector_gap > tol or range_gap > tol:
        raise ValueError(
            "map is not sector-stochastic on this state: "
            f"sector-sum gap {sector_gap:.3g}, range excursion {range_gap:.3g}"
        )
    return QubitState(tuple(image))


def is_sector_stochastic(induced: InducedMap, tol: float = SECTOR_TOL) -> StochasticityReport:
    """Check the sector-stochastic property from the matrix structure.

    Three conditions, each reported with its worst violation: (a) within
    every 2x2 block the two column sums agree, so image sector sums depend
    only on input sector sums; (b) those block sums make every image
    sector sum equal 1; (c) every output entry stays in [0, 1] across the
    whole physical ball, checked exactly from the affine form
    p'_i = c_i + d_i . m of each entry.
    """
    a = induced.matrix
    block_cols = a.reshape(3, 2, 6).sum(axis=1)
    column_gap = float(np.max(np.abs(block_cols[:, 0::2] - block_cols[:, 1::2])))
    c_uv = 0.5 * (block_cols[:, 0::2] + block_cols[:, 1::2])
    sector_sum_gap = float(np.max(np.abs(c_uv.sum(axis=1) - 1.0)))
    const = a.sum(axis=1) / 2.0
    direction = (a[:, 0::2] - a[:, 1::2]) / 2.0
    reach = np.linalg.norm(direction, axis=1)
    range_gap = float(
        max(0.0, np.max(const + reach - 1.0), np.max(reach - const))
    )
    ok = column_gap <= tol and sector_sum_gap <= tol and range_gap <= tol
    return StochasticityReport(ok, column_gap, sector_sum_gap, range_gap)


def _alpha_norms(v: np.ndarray, alpha: float) -> np.ndarray:
    """(sum_i |v_i|**alpha)**(1/alpha) over the last axis."""
    return np.add.reduce(np.abs(v) ** alpha, axis=-1) ** (1.0 / alpha)


def alpha_norm(vec, alpha: float) -> float:
    """(sum_i |v_i|**alpha)**(1/alpha)."""
    return float(_alpha_norms(np.asarray(vec, dtype=float), alpha))


def alpha_norm_deviation(induced: InducedMap, state: QubitState, alpha: float) -> float:
    """| ||A p||_alpha - ||p||_alpha | for one state."""
    p = state.as_array
    return abs(alpha_norm(induced.matrix @ p, alpha) - alpha_norm(p, alpha))


def random_rotations(rng: np.random.Generator, n: int, reflections: bool = False) -> np.ndarray:
    """``n`` Haar-uniform rotation matrices, shape (n, 3, 3), from one
    stacked QR with the sign fix of Mezzadri (2007); with ``reflections``
    the determinant may be -1 (Haar on the full orthogonal group).

    Draws the same normals, in the same order, as ``n`` calls of
    :func:`random_rotation`, and returns the same matrices.
    """
    z = rng.normal(size=(n, 3, 3))
    q, r = np.linalg.qr(z)
    q = q * np.where(np.diagonal(r, axis1=1, axis2=2) >= 0.0, 1.0, -1.0)[:, None, :]
    if not reflections:
        flip = np.linalg.det(q) < 0.0
        q[flip, :, 0] = -q[flip, :, 0]
    return q


def random_rotation(rng: np.random.Generator, reflections: bool = False) -> np.ndarray:
    """Haar-uniform rotation matrix; with ``reflections`` the determinant
    may be -1 (Haar on the full orthogonal group)."""
    return random_rotations(rng, 1, reflections)[0]


def total_uncertainty_p6(p6: np.ndarray, alpha: float, k: float) -> np.ndarray:
    """Vectorized total uncertainty over the last axis (six entries).

    Uses sum_u [1 - p_u**a - (1-p_u)**a] = 3 - sum_i p6_i**a.  Entries are
    clipped at [0, 1] to guard sub-ulp excursions before fractional powers.
    """
    p = np.clip(np.asarray(p6, dtype=float), 0.0, 1.0)
    return entropy_sum(p, EntropyMeasure(alpha, k), 3)


#: Maps applied per scan block; caps the images held at once at
#: 64 x 6 x S floats for S states.
_SCAN_BLOCK = 64


def scan_deviations(states: np.ndarray, maps: np.ndarray, alphas) -> list[tuple[float, int, int]]:
    """Per alpha: (max |H_total(A p) - H_total(p)|, state index, map index).

    ``states`` has shape (S, 6) and ``maps`` (M, 6, 6).  Maps are applied
    in blocks of 64: each block's images are built once, as
    ``block @ states.T`` in the sector-major layout (maps, 6, states), and
    clipped once, and every alpha is then reduced from them over the
    six-entry axis (numpy adds the six terms in entry order along any
    axis, so this layout gives the bits of the last-axis one).  Ties go to
    the earliest map, then the earliest state: the argmax inside a block
    runs over (map, state) in row-major order, and a later block replaces
    the best only when strictly larger.
    Raises ValueError when a deviation is not finite.
    """
    states = np.asarray(states, dtype=float)
    maps = np.asarray(maps, dtype=float)
    if states.shape[0] == 0 or maps.shape[0] == 0:
        raise ValueError("scan needs at least one state and one map")
    measures = [normalized_measure(alpha) for alpha in alphas]
    columns = np.ascontiguousarray(states.T)
    clipped = np.clip(columns, 0.0, 1.0)
    bases = [entropy_sum(clipped, m, 3, axis=0) for m in measures]
    best = [(-1.0, 0, 0)] * len(measures)
    for start in range(0, maps.shape[0], _SCAN_BLOCK):
        block = maps[start : start + _SCAN_BLOCK]
        images = (block.reshape(-1, 6) @ columns).reshape(block.shape[0], 6, -1)
        np.clip(images, 0.0, 1.0, out=images)
        for j, (measure, base) in enumerate(zip(measures, bases)):
            dev = entropy_sum(images, measure, 3, axis=1)
            dev -= base
            np.abs(dev, out=dev)
            m_idx, s_idx = np.unravel_index(int(np.argmax(dev)), dev.shape)
            value = float(dev[m_idx, s_idx])
            if not np.isfinite(value):
                raise ValueError(
                    f"total-uncertainty deviation is not finite at alpha={measure.alpha}"
                )
            if value > best[j][0]:
                best[j] = (value, int(s_idx), start + int(m_idx))
    return best


def _rotation_about(axis: int, angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    r = np.eye(3)
    i, j = [(1, 2), (2, 0), (0, 1)][axis]
    r[i, i] = c
    r[j, j] = c
    r[i, j] = -s
    r[j, i] = s
    return r


#: Deterministic probe states: the axis-pure states and the maximally mixed
#: state, covering the hand-checked worst cases.
_PROBE_STATES = (
    ("probe:pure+x", np.array([1.0, 0.0, 0.0])),
    ("probe:pure+y", np.array([0.0, 1.0, 0.0])),
    ("probe:pure+z", np.array([0.0, 0.0, 1.0])),
    ("probe:mixed", np.array([0.0, 0.0, 0.0])),
)

_PROBE_MAPS = (
    ("probe:identity", np.eye(3)),
    ("probe:rot45x", _rotation_about(0, np.pi / 4)),
    ("probe:rot45y", _rotation_about(1, np.pi / 4)),
    ("probe:rot45z", _rotation_about(2, np.pi / 4)),
)


def invariance_scan(
    alphas,
    n_states: int,
    n_maps: int,
    seed: int,
    *,
    include_probes: bool = True,
    include_reflections: bool = False,
) -> list[InvarianceReport]:
    """Worst |H_total(A p) - H_total(p)| per entropy degree over sampled
    states and rotation-induced maps.

    Half the sampled states are pure and half mixed.  A small deterministic
    probe set (axis-pure states, the maximally mixed state, the identity and
    quarter-turn rotations) is scanned alongside the samples so the known
    worst cases, such as a 45-degree rotation of a pure-x state at alpha = 1,
    are exercised at any sample size.  Deterministic for a given seed;
    improper orthogonal maps join the ensemble only when
    ``include_reflections`` is set.

    The sampled rotations are drawn in one batch (:func:`random_rotations`)
    and embedded in one call, probes first.  :func:`scan_deviations` then
    applies each 64-map block once for every alpha; ties report the
    earliest map, then the earliest state, in that order.
    """
    alphas = list(alphas)
    if not alphas:
        raise ValueError("alpha grid must be nonempty")
    if n_states < 0 or n_maps < 0:
        raise ValueError("sample counts must be nonnegative")
    state_seed, map_seed = np.random.SeedSequence(seed).spawn(2)
    state_rng = np.random.default_rng(state_seed)
    map_rng = np.random.default_rng(map_seed)

    state_ids: list[str] = []
    means: list[np.ndarray] = []
    if include_probes:
        for name, m in _PROBE_STATES:
            state_ids.append(name)
            means.append(m)
    n_pure = n_states - n_states // 2
    for idx in range(n_states):
        kind = "pure" if idx < n_pure else "mixed"
        state_ids.append(f"{kind}[{idx}]")
        means.append(random_mean_vector(state_rng, kind))
    if not means:
        raise ValueError("scan needs at least one state (samples or probes)")
    states = p6_from_means(np.array(means))

    probe_maps = _PROBE_MAPS if include_probes else ()
    map_ids = [name for name, _ in probe_maps]
    map_ids.extend(f"rot[{idx}]" for idx in range(n_maps))
    if not map_ids:
        raise ValueError("scan needs at least one map (samples or probes)")
    rotations = np.concatenate(
        [
            np.reshape([r for _, r in probe_maps], (-1, 3, 3)),
            random_rotations(map_rng, n_maps, include_reflections),
        ]
    )
    maps = induced_from_rotations(rotations)

    reports = []
    for alpha, (dev, s_idx, m_idx) in zip(alphas, scan_deviations(states, maps, alphas)):
        reports.append(
            InvarianceReport(
                alpha=float(alpha),
                n_states=n_states,
                n_maps=n_maps,
                max_deviation=dev,
                argmax_state_id=state_ids[s_idx],
                argmax_map_id=map_ids[m_idx],
            )
        )
    return reports


#: The 48 signed permutations of mean values: row u carries the sign of
#: sector u's outcome swap at the column of the sector it moves to.
_SIGNED_PERMUTATIONS = np.array(
    [
        np.eye(3, dtype=int)[list(order)] * np.array(signs)[:, None]
        for order in permutations(range(3))
        for signs in product((1, -1), repeat=3)
    ],
    dtype=float,
)
_SECTOR_PERMUTATION_MATRICES = induced_from_rotations(_SIGNED_PERMUTATIONS)


def sector_permutation_maps() -> list[InducedMap]:
    """All 48 sector-respecting permutation maps: a permutation of the
    three sectors composed with optional within-sector outcome swaps,
    embedded exactly from the signed permutations of mean values."""
    return [InducedMap(a) for a in _SECTOR_PERMUTATION_MATRICES]


def permutation_distance(induced: InducedMap) -> float:
    """Chebyshev distance from the nearest sector-respecting permutation."""
    gaps = np.abs(induced.matrix - _SECTOR_PERMUTATION_MATRICES)
    return float(np.min(np.max(gaps, axis=(1, 2))))


def is_permutation_type(induced: InducedMap, tol: float = PERMUTATION_TOL) -> bool:
    """True when every entry is within tol of the nearest sector-respecting
    permutation matrix."""
    return permutation_distance(induced) <= tol


# --- norm-preserver search -------------------------------------------------
#
# Candidate maps are parameterized by 12 numbers: an offset c in R^3 and a
# matrix M acting on mean values, m' = c + M m.  The embedding into 6x6
# matrices spreads constants through the unit sector sums so orthogonal M
# with c = 0 reproduces induced_from_rotation and signed permutations come
# out exact.  Validity on the physical ball is |c_u| + ||M_u|| <= 1 per row.
#
# Norm deviations are scored on sector-consistent probe vectors spanning the
# full mean-value cube, not only the physical ball: the preservation claim
# quantifies over the probability vectors of the individual experiments, and
# on the ball alone the cubic norm cannot separate rotations from
# permutations (1 - p**3 - q**3 = 3 p q there, the quadratic expression up
# to scale).

_N_FIXED_PROBES = 64
_N_SAMPLED_PROBES = 32
_FIXED_PROBE_SEED = 20260810


def _map_from_params(c: np.ndarray, m: np.ndarray) -> np.ndarray:
    """6x6 map of offsets ``c`` (..., 3) and matrices ``m`` (..., 3, 3);
    the squared entries are corrected so each row sums to 1."""
    s = m * m
    s = s + (1.0 - s.sum(axis=-1, keepdims=True)) / 3.0
    return _embed(s, (c / 3.0)[..., None], m)


def _project_params(theta: np.ndarray) -> np.ndarray:
    theta = theta.copy()
    for u in range(3):
        c_u = theta[u]
        row = theta[3 + 3 * u : 6 + 3 * u]
        total = abs(c_u) + float(np.linalg.norm(row))
        if total > 1.0:
            theta[u] = c_u / total
            theta[3 + 3 * u : 6 + 3 * u] = row / total
    return theta


def _probe_vectors(rng: np.random.Generator) -> np.ndarray:
    corners = np.array(list(product((-1.0, 1.0), repeat=3)))
    axes = np.concatenate([np.eye(3), -np.eye(3)])
    center = np.zeros((1, 3))
    fixed_rng = np.random.default_rng(_FIXED_PROBE_SEED)
    n_fill = _N_FIXED_PROBES - len(corners) - len(axes) - 1
    fill = fixed_rng.uniform(-1.0, 1.0, size=(n_fill, 3))
    sampled = rng.uniform(-1.0, 1.0, size=(_N_SAMPLED_PROBES, 3))
    return p6_from_means(np.concatenate([corners, axes, center, fill, sampled]))


def _coordinate_descent(theta0, objective, max_evals):
    """Derivative-free coordinate descent with a shrinking step.

    Returns (theta, value, evals, converged); converged means the step
    shrank to the floor or the objective reached the numeric floor, rather
    than the evaluation budget running out mid-descent.
    """
    theta = theta0.copy()
    best = objective(theta)
    evals = 1
    step = 0.1
    while step > _STEP_FLOOR and evals < max_evals and best > _CONVERGED_OBJECTIVE:
        improved = False
        for i in range(theta.size):
            for delta in (step, -step):
                if evals >= max_evals:
                    break
                trial = theta.copy()
                trial[i] += delta
                value = objective(trial)
                evals += 1
                if value < best:
                    theta, best = trial, value
                    improved = True
                    break
        if not improved:
            step *= 0.5
    converged = step <= _STEP_FLOOR or best <= _CONVERGED_OBJECTIVE
    return theta, best, evals, converged


def search_norm_preservers(
    alpha: float,
    budget: int,
    seed: int,
    tol: float = PERMUTATION_TOL,
    *,
    evals_per_start: int = 2000,
) -> list[PreserverCandidate]:
    """Randomized search for sector-stochastic maps preserving the
    alpha-norm of probability vectors.

    Random starts (rotation-induced maps, sector permutations, and generic
    sector-stochastic maps, cycled in that order) are refined by
    derivative-free coordinate descent on the mean alpha-norm deviation
    over the probe set.  Every converged map whose residual falls below
    ``tol`` is returned with its distance to the nearest sector-respecting
    permutation.  ``budget`` counts objective evaluations across all
    starts; an exhausted budget with no hits returns an empty list.  The
    output is evidence, not proof.  Raises ValueError unless ``alpha``
    is positive and finite.
    """
    if not (alpha > 0 and np.isfinite(alpha)):
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    if budget < 1:
        return []
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    probes = _probe_vectors(rng)
    base_norms = _alpha_norms(probes, alpha)

    def residual(a: np.ndarray) -> float:
        return float(np.mean(np.abs(_alpha_norms(probes @ a.T, alpha) - base_norms)))

    def objective(theta: np.ndarray) -> float:
        c = theta[:3]
        m = theta[3:].reshape(3, 3)
        deviation = residual(_map_from_params(c, m))
        penalty = 0.0
        for u in range(3):
            excess = abs(c[u]) + float(np.linalg.norm(m[u])) - 1.0
            if excess > 0.0:
                penalty += 10.0 * excess * excess
        return deviation + penalty

    start_kinds = ("rotation", "permutation", "generic")
    candidates: list[PreserverCandidate] = []
    remaining = budget
    attempt = 0
    while remaining > 0:
        kind = start_kinds[attempt % 3]
        if kind == "rotation":
            m0 = random_rotation(rng)
            theta0 = np.concatenate([np.zeros(3), m0.ravel()])
        elif kind == "permutation":
            m0 = _SIGNED_PERMUTATIONS[rng.integers(len(_SIGNED_PERMUTATIONS))]
            theta0 = np.concatenate([np.zeros(3), m0.ravel()])
        else:
            rows = rng.normal(size=(3, 3))
            rows /= np.linalg.norm(rows, axis=1, keepdims=True)
            radii = rng.uniform(0.0, 0.9, size=3)
            m0 = rows * radii[:, None]
            c0 = rng.uniform(-1.0, 1.0, size=3) * (1.0 - radii) * 0.9
            theta0 = np.concatenate([c0, m0.ravel()])
        theta, _, used, converged = _coordinate_descent(
            theta0, objective, min(evals_per_start, remaining)
        )
        remaining -= used
        attempt += 1
        if not converged:
            continue
        theta = _project_params(theta)
        final = _map_from_params(theta[:3], theta[3:].reshape(3, 3))
        final_residual = residual(final)
        if final_residual >= tol:
            continue
        induced = InducedMap(final)
        if not is_sector_stochastic(induced).ok:
            continue
        candidates.append(
            PreserverCandidate(
                map=induced,
                residual=final_residual,
                permutation_distance=permutation_distance(induced),
                start_kind=kind,
            )
        )
    return candidates
