"""Linear maps on probability 6-vectors induced by frame changes,
invariance scans over the entropy degree, and the randomized search for
alpha-norm preservers.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from itertools import pairwise, permutations, product

import numpy as np

from .measures import EntropyMeasure, _check_alpha, _check_positive_finite, _entropy_terms
from .measures import _ladder_walk, _power, entropy_sum
from .qubit import SECTOR_TOL, QubitState, _haar_q, _orthonormality_gap, _row_norms
from .qubit import p6_from_means, random_mean_vectors

#: Tolerance for orthogonality of rotation inputs.
ORTHO_TOL = 1e-9
#: Candidates within this Chebyshev distance of a sector permutation count
#: as permutation-like.
PERMUTATION_TOL = 1e-6

_STEP_FLOOR = 1e-10
_CONVERGED_OBJECTIVE = 1e-14
#: Objective evaluations granted to one search start.
_EVALS_PER_START = 2000


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


@dataclass(frozen=True)
class InvarianceReport:
    """Worst total-uncertainty deviation found for one entropy degree."""

    alpha: float
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


def induced_from_rotations(rotations) -> np.ndarray:
    """The 6x6 maps, shape (n, 6, 6), acting on probability vectors as the
    given (n, 3, 3) orthogonal matrices act on mean-value vectors.

    Each output entry is (1 +- (r m)_u) / 2; the constant 1/2 is realized
    linearly through the unit sector sums, weighted by the squared entries
    of the rotation (rows of an orthogonal matrix have unit norm), so signed
    permutations come out as exact permutation matrices and the identity
    maps to the identity.  Raises ValueError unless every matrix is
    orthogonal within ``ORTHO_TOL``.
    """
    r = np.asarray(rotations, dtype=float)
    if r.ndim != 3 or r.shape[1:] != (3, 3):
        raise ValueError(f"rotations must have shape (n, 3, 3), got {r.shape}")
    gap = _orthonormality_gap(r)
    if not gap <= ORTHO_TOL:  # a NaN gap fails too
        raise ValueError(f"matrix is not orthogonal (r^T r gap {gap:.3g})")
    return _embed(r * r, 0.0, r)


def induced_from_rotation(rotation) -> InducedMap:
    """The 6x6 map acting on probability vectors as the given orthogonal
    matrix acts on mean-value vectors; see :func:`induced_from_rotations`.
    """
    r = np.asarray(rotation, dtype=float)
    if r.shape != (3, 3):
        raise ValueError(f"rotation must be 3x3, got shape {r.shape}")
    return InducedMap(induced_from_rotations(r[None])[0])


def example_permutation_map() -> InducedMap:
    """The sector permutation sending p_x -> p_y, p_y -> 1-p_x, p_z -> p_z:
    a quarter turn about the z axis in mean-value space.  Its fourth power
    is the identity."""
    return induced_from_rotation([[0, 1, 0], [-1, 0, 0], [0, 0, 1]])


def apply(induced: InducedMap, state: QubitState) -> QubitState:
    """Apply a map to a state, checking that the image is a valid
    probability vector.

    Raises ValueError with the violation magnitude when sector sums or
    entry ranges break by more than ``SECTOR_TOL``, which means the map
    was not sector-stochastic.  The image's physicality (|m| <= 1) is not
    enforced here; sector stochasticity only guarantees a valid
    probability vector.
    """
    image = induced.matrix @ state.as_array
    sector_gap = float(np.max(np.abs(image[0::2] + image[1::2] - 1.0)))
    range_gap = float(max(0.0, np.max(image) - 1.0, -np.min(image)))
    if sector_gap > SECTOR_TOL or range_gap > SECTOR_TOL:
        raise ValueError(
            "map is not sector-stochastic on this state: "
            f"sector-sum gap {sector_gap:.3g}, range excursion {range_gap:.3g}"
        )
    return QubitState(tuple(image))


def is_sector_stochastic(induced: InducedMap) -> StochasticityReport:
    """Check the sector-stochastic property from the matrix structure.

    Three conditions, each reported with its worst violation and each
    held to ``SECTOR_TOL``: (a) within every 2x2 block the two column sums
    agree, so image sector sums depend only on input sector sums; (b) those
    block sums make every image sector sum equal 1; (c) every output entry
    stays in [0, 1] across the whole physical ball, checked exactly from
    the affine form p'_i = c_i + d_i . m of each entry.
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
    ok = column_gap <= SECTOR_TOL and sector_sum_gap <= SECTOR_TOL and range_gap <= SECTOR_TOL
    return StochasticityReport(ok, column_gap, sector_sum_gap, range_gap)


def alpha_norm(vec, alpha: float) -> float:
    """(sum_i |v_i|**alpha)**(1/alpha), each term from the package's power
    ladder (:func:`measures._power`).  Where that sum overflows, or
    underflows to 0 while some |v_i| > 0, and every entry is finite, the
    norm is taken as m (sum_i (|v_i| / m)**alpha)**(1/alpha) with
    m = max_i |v_i| instead, so 2-norms such as that of (1e200, 0) or
    (1e-200, 0) stay the doubles they are; every other input takes the
    plain formula.  Raises ValueError unless ``vec`` is 1-D and ``alpha``
    lies in (0, ``MAX_ALPHA``], as :class:`EntropyMeasure` does, and when
    the norm of finite entries exceeds the largest double (2**1e300 at
    alpha = 1e-300 on (0.5, 1))."""
    _check_alpha(alpha)
    v = np.abs(np.asarray(vec, dtype=float))
    if v.ndim != 1:
        raise ValueError(f"alpha-norm needs a flat vector, got shape {v.shape}")
    top = np.max(v, initial=0.0)  # NaN when an entry is NaN
    with np.errstate(over="ignore"):
        total = np.add.reduce(_power(v, alpha))
        if np.isfinite(top) and (np.isinf(total) or (total == 0.0 and top > 0.0)):
            norm = float(top * np.add.reduce(_power(v / top, alpha)) ** (1.0 / alpha))
        else:
            norm = float(total ** (1.0 / alpha))
    if np.isinf(norm) and np.isfinite(top):
        raise ValueError(f"alpha-norm at alpha={alpha} overflows a double, outside its domain")
    return norm


def random_rotations(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` Haar-uniform rotation matrices, shape (n, 3, 3), from one
    stacked QR with the sign fix of Mezzadri (2007) (the package's one
    phase fix, shared with the unitary bases of ``highdim``); the first
    column of a matrix with determinant -1 is negated.

    Draws the same normals, in the same order, as ``n`` calls of
    :func:`random_rotation`, and returns the same matrices.
    """
    q = _haar_q(rng.normal(size=(n, 3, 3)))
    flip = np.linalg.det(q) < 0.0
    q[flip, :, 0] = -q[flip, :, 0]
    return q


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Haar-uniform rotation matrix (determinant +1)."""
    return random_rotations(rng, 1)[0]


def total_uncertainty_p6(p6: np.ndarray, alpha: float) -> np.ndarray:
    """Vectorized total uncertainty under ``EntropyMeasure(alpha)`` over the
    last axis (six entries).

    Uses sum_u [1 - p_u**a - (1-p_u)**a] = 3 - sum_i p6_i**a.  Entries are
    clipped at [0, 1] to guard sub-ulp excursions before fractional powers.
    """
    p = np.clip(np.asarray(p6, dtype=float), 0.0, 1.0)
    return entropy_sum(p, EntropyMeasure(alpha), 3)


#: Maps applied per scan block; caps the images held at once at
#: 64 x 6 x S floats for S states.
_SCAN_BLOCK = 64
#: Fewest block cells (maps in a block x states) per scan slab: a scan of
#: S states in blocks of B maps runs in min(usable cores, B S // _SLAB_CELLS)
#: slabs, at least one.  With smaller slabs the numpy calls are too short
#: for a helper thread to gain (timed on 2 cores at B = 1 to 64).
_SLAB_CELLS = _SCAN_BLOCK * 128
#: Largest state or map entry magnitude the scan accepts: an image entry
#: sums six products, so it stays finite while 6 x cap**2 < DBL_MAX.
MAX_SCAN_ENTRY = 1e150


def _usable_cores() -> int:
    """Cores this process may run on: its affinity set where the platform
    reports one, else the machine's core count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _slab_buffers(states: np.ndarray, measures, rows: int):
    """One slab's inputs and scratch: its state columns (6, s), the
    per-alpha baseline power sums of its clipped columns, and the image,
    term and deviation buffers for a block of ``rows`` maps."""
    columns = np.ascontiguousarray(states.T)
    clipped = np.clip(columns, 0.0, 1.0)
    bases = [np.add.reduce(_entropy_terms(clipped, m), axis=0) for m in measures]
    image = np.empty((rows * 6, columns.shape[1]))
    return columns, bases, image, np.empty_like(image), np.empty((rows, columns.shape[1]))


def _scan_slab(maps, measures, offset, columns, bases, image_buffer, work_buffer, dev_buffer):
    """The argmax cell (value, state index, map index) of every alpha, in
    grid order, for the states in ``columns``, the first of which is state
    ``offset``; both indices count over the whole scan.  A cell's value is
    the raw power-sum deviation |S(A p) - S(p)|, not yet scaled to an
    entropy.  The argmax is row-major over (map, state): a block's argmax
    replaces an alpha's winner only when strictly larger, as later blocks
    hold later maps, and a NaN, once held, is kept.  Allocates nothing
    large: every array it writes is one of the buffers.

    Each block raises its images to every alpha through
    :func:`measures._ladder_walk`, into the term buffer.  The images are
    clipped to [0, 1], so no entry is checked for a sign, and each alpha's
    terms are reduced over the six entries, less the baseline power sum,
    into the deviation buffer."""
    cells = [(-np.inf, 0, 0)] * len(measures)
    for start in range(0, maps.shape[0], _SCAN_BLOCK):
        block = maps[start : start + _SCAN_BLOCK]
        n = block.shape[0]
        flat = np.matmul(block.reshape(-1, 6), columns, out=image_buffer[: n * 6])
        np.clip(flat, 0.0, 1.0, out=flat)
        images = flat.reshape(n, 6, -1)
        work = work_buffer[: n * 6].reshape(n, 6, -1)
        dev = dev_buffer[:n]
        for j, terms in _ladder_walk(images, measures, work):
            np.add.reduce(terms, axis=1, out=dev)
            dev -= bases[j]
            np.abs(dev, out=dev)
            flat_idx = int(np.argmax(dev))
            value = float(dev.flat[flat_idx])
            if value > cells[j][0] or value != value:
                m_idx, s_idx = divmod(flat_idx, dev.shape[1])
                cells[j] = (value, offset + s_idx, start + m_idx)
    return cells


def scan_deviations(states: np.ndarray, maps: np.ndarray, alphas) -> list[tuple[float, int, int]]:
    """Per alpha: (max |H_total(A p) - H_total(p)|, state index, map index).

    Every cell compares power sums, not entropies: with S the sum of a
    cell's six entropy terms (:func:`measures._entropy_terms`),
    |H_total(A p) - H_total(p)| = c |S(A p) - S(p)| for c the measure's
    ``sum_scale``.  So each cell carries the raw |delta S|, the tie rule
    below applies to it, and each alpha's winner is multiplied by c once,
    after the merge.  S(A p) - S(p) is exact wherever the two sums lie
    within a factor of 2 of each other (Sterbenz).  On physical states
    the values at alpha = 1 (c = 1) and alpha = 2 (c = 2, S in [1.5, 3])
    have the bits of the difference of the two entropies.

    ``states`` has shape (S, 6) and ``maps`` (M, 6, 6).  The states are
    split into min(usable cores, S min(M, 64) // (64 x 128)) contiguous
    slabs, at least one, so a full block needs 128 states per slab.  The
    calling thread scans the first slab, and one helper thread, started
    before it, scans each of the others (numpy's GEMM and ufuncs release
    the interpreter lock).  Within a slab, maps are applied in blocks of
    64: each block's images are built once, as ``block @ columns`` in the
    sector-major layout (maps, 6, states), and clipped once, and every
    alpha is then reduced from them over the six-entry axis (numpy adds
    the six terms in entry order along any axis, so this layout gives the
    bits of the last-axis one).  The alphas are visited in the order of
    :func:`measures._ladder_walk`, which keeps every term's bits; the
    cells still come out in grid order.  The calling thread allocates every
    slab's columns, baselines and image, term and deviation buffers
    before any slab starts, each as wide as its slab, so together they
    take the memory of a one-slab scan, and a helper allocates nothing
    large (helpers that allocated their own slab measured slower and
    larger; ROADMAP, "Measured and not pursued").  Every helper is joined, even
    when the first slab raises; then the exception of the earliest slab
    that raised is re-raised here, with its type and message.

    A cell's arithmetic is the same whichever slab of two or more states
    holds it (a six-term dot product, a clip, six terms summed in entry
    order, the baseline power sum subtracted), so the slab count cannot
    change a bit while every slab holds two states or more, as it does
    unless the slab size is patched (a split gives each slab at least 128
    states).  A one-state slab's product is a matrix-vector one, which
    BLAS may round differently.  Every slab reports one winner per alpha
    with indices over the whole scan, and each alpha's result is the best
    of the slabs' winners by the tie rule of a row-major argmax over
    (map, state), applied to |delta S|: the largest value, then the
    earliest map, then the earliest state.  Raises ValueError, before any
    slab starts, when the shapes are not (S, 6) and (M, 6, 6) with S and
    M at least 1 or a state or map entry is NaN or above
    ``MAX_SCAN_ENTRY`` in magnitude, and when a deviation is not finite,
    naming the first alpha in grid order that has such a cell.
    """
    states = np.asarray(states, dtype=float)
    maps = np.asarray(maps, dtype=float)
    if states.shape[1:] != (6,) or maps.shape[1:] != (6, 6):
        raise ValueError(
            "scan needs states of shape (S, 6) and maps of shape (M, 6, 6), "
            f"got {states.shape} and {maps.shape}"
        )
    if states.shape[0] == 0 or maps.shape[0] == 0:
        raise ValueError("scan needs at least one state and one map")
    for name, array in (("state", states), ("map", maps)):
        if not np.abs(array).max() <= MAX_SCAN_ENTRY:  # a NaN fails too
            raise ValueError(
                f"{name} entries must be finite and at most {MAX_SCAN_ENTRY:g} in magnitude"
            )
    measures = [EntropyMeasure(alpha) for alpha in alphas]
    rows = min(_SCAN_BLOCK, maps.shape[0])
    count = states.shape[0]
    n_slabs = max(1, min(_usable_cores(), rows * count // _SLAB_CELLS))
    offsets = [count * k // n_slabs for k in range(n_slabs + 1)]
    slabs = [(a, *_slab_buffers(states[a:b], measures, rows)) for a, b in pairwise(offsets)]
    results = [None] * n_slabs
    errors = [None] * n_slabs

    def run(k):
        try:
            results[k] = _scan_slab(maps, measures, *slabs[k])
        except Exception as exc:  # re-raised below, after every join
            errors[k] = exc

    # plain threads: importing concurrent.futures adds about 3 ms to every CLI start
    helpers = [threading.Thread(target=run, args=(k,)) for k in range(1, n_slabs)]
    for helper in helpers:
        helper.start()
    try:
        run(0)
    finally:
        for helper in helpers:
            helper.join()
    for exc in errors:
        if exc is not None:
            raise exc

    cells = list(zip(*results))  # per alpha, in grid order: every slab's winner
    for candidates, measure in zip(cells, measures):
        if not all(np.isfinite(v) for v, _, _ in candidates):
            raise ValueError(f"total-uncertainty deviation is not finite at alpha={measure.alpha}")
    # a row-major argmax's tie rule: largest value, then earliest map, then earliest state
    best = [min(candidates, key=lambda c: (-c[0], c[2], c[1])) for candidates in cells]
    return [(m.sum_scale * v, s, a) for m, (v, s, a) in zip(measures, best)]


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


def invariance_scan(alphas, n_states: int, n_maps: int, seed: int) -> list[InvarianceReport]:
    """Worst |H_total(A p) - H_total(p)| per entropy degree over sampled
    states and rotation-induced maps.

    Half the sampled states are pure and half mixed.  A small deterministic
    probe set (axis-pure states, the maximally mixed state, the identity and
    quarter-turn rotations) is scanned alongside the samples so the known
    worst cases, such as a 45-degree rotation of a pure-x state at alpha = 1,
    are exercised at any sample size.  Deterministic for a given seed;
    the sampled maps are proper rotations.

    The sampled states are drawn with one :func:`random_mean_vectors` call
    per kind, and the sampled rotations in one batch
    (:func:`random_rotations`) and embedded in one call, probes first.
    :func:`scan_deviations` scans them (its docstring gives the state
    slabs, the threads and the tie rule); the report has the same bits
    for any core count.
    """
    alphas = list(alphas)
    if not alphas:
        raise ValueError("alpha grid must be nonempty")
    if n_states < 0 or n_maps < 0:
        raise ValueError("sample counts must be nonnegative")
    state_seed, map_seed = np.random.SeedSequence(seed).spawn(2)
    state_rng = np.random.default_rng(state_seed)
    map_rng = np.random.default_rng(map_seed)

    n_pure = n_states - n_states // 2
    state_ids = [name for name, _ in _PROBE_STATES]
    state_ids.extend(f"pure[{idx}]" for idx in range(n_pure))
    state_ids.extend(f"mixed[{idx}]" for idx in range(n_pure, n_states))
    means = np.concatenate(
        [
            np.array([m for _, m in _PROBE_STATES]),
            random_mean_vectors(state_rng, n_pure, "pure"),
            random_mean_vectors(state_rng, n_states - n_pure, "mixed"),
        ]
    )
    states = p6_from_means(means)

    map_ids = [name for name, _ in _PROBE_MAPS]
    map_ids.extend(f"rot[{idx}]" for idx in range(n_maps))
    rotations = np.concatenate(
        [np.array([r for _, r in _PROBE_MAPS]), random_rotations(map_rng, n_maps)]
    )
    maps = induced_from_rotations(rotations)

    reports = []
    for alpha, (dev, s_idx, m_idx) in zip(alphas, scan_deviations(states, maps, alphas)):
        reports.append(
            InvarianceReport(
                alpha=float(alpha),
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


def permutation_distance(induced: InducedMap) -> float:
    """Chebyshev distance from the nearest of the 48 sector-respecting
    permutations (a sector permutation with optional outcome swaps)."""
    gaps = np.abs(induced.matrix - _SECTOR_PERMUTATION_MATRICES)
    return float(np.min(np.max(gaps, axis=(1, 2))))


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
#: The search's domain of alpha.  The probes' baseline norms reach
#: 6**(1/alpha), which overflows below ln 6 / ln DBL_MAX = 0.0025, and the
#: trial terms |p|**alpha overflow from alpha = 3000 on.
SEARCH_ALPHA_MIN = 0.01
SEARCH_ALPHA_MAX = 1000.0


def _map_from_params(c: np.ndarray, m: np.ndarray) -> np.ndarray:
    """6x6 map of offsets ``c`` (..., 3) and matrices ``m`` (..., 3, 3);
    the squared entries are corrected so each row sums to 1."""
    s = m * m
    s = s + (1.0 - s.sum(axis=-1, keepdims=True)) / 3.0
    return _embed(s, (c / 3.0)[..., None], m)


def _project_params(theta: np.ndarray) -> np.ndarray:
    """Scale every row (c_u, M_u) with |c_u| + ||M_u|| > 1 onto the
    boundary of the validity region; other rows are kept as they are."""
    c = theta[:3]
    m = theta[3:].reshape(3, 3)
    total = np.abs(c) + _row_norms(m)
    scale = np.where(total > 1.0, total, 1.0)
    return np.concatenate([c / scale, (m / scale[:, None]).ravel()])


def _probe_means(rng: np.random.Generator) -> np.ndarray:
    """The 96 probe mean-value vectors, shape (96, 3): cube corners, axis
    points and the center, a fixed uniform fill, then 32 draws from ``rng``."""
    corners = np.array(list(product((-1.0, 1.0), repeat=3)))
    axes = np.concatenate([np.eye(3), -np.eye(3)])
    center = np.zeros((1, 3))
    fixed_rng = np.random.default_rng(_FIXED_PROBE_SEED)
    n_fill = _N_FIXED_PROBES - len(corners) - len(axes) - 1
    fill = fixed_rng.uniform(-1.0, 1.0, size=(n_fill, 3))
    sampled = rng.uniform(-1.0, 1.0, size=(_N_SAMPLED_PROBES, 3))
    return np.concatenate([corners, axes, center, fill, sampled])


def _norm_objective(means: np.ndarray, alpha: float):
    """The search objective ``score(thetas)``: the values, shape (k,), of
    a (k, 12) stack of parameter vectors.

    Row t scores theta_t = (c, M) as the mean over the probes of
    | ||p6(c + M m)||_alpha - ||p6(m)||_alpha |, plus 10 * excess**2 for
    every row u with excess |c_u| + ||M_u|| - 1 > 0.  Since the sector
    sums of every probe are 1, the 6x6 map of the parameters sends p6(m)
    to p6(c + M m), so scoring runs in mean-value space: every probe image
    comes from one GEMM of the stacked M with the probe means.  Each norm,
    the probes' baseline included, sums its six terms |p6_i|**alpha in
    entry order.
    """
    columns = np.ascontiguousarray(means.T)

    def terms(images: np.ndarray) -> np.ndarray:
        p = (1.0 + images) / 2.0
        sides = np.concatenate([p, 1.0 - p], axis=-1)
        return _power(np.abs(sides, out=sides), alpha)

    base_norms = np.add.reduce(terms(columns).reshape(6, -1), axis=0) ** (1.0 / alpha)

    def score(thetas: np.ndarray) -> np.ndarray:
        c = thetas[:, :3]
        m = thetas[:, 3:].reshape(-1, 3, 3)
        images = (m.reshape(-1, 3) @ columns).reshape(-1, 3, columns.shape[1])
        images += c[:, :, None]
        norms = np.add.reduce(terms(images).reshape(len(thetas), 6, -1), axis=1) ** (1.0 / alpha)
        deviation = np.add.reduce(np.abs(norms - base_norms), axis=-1) / len(base_norms)
        excess = np.abs(c) + _row_norms(m) - 1.0
        penalty = np.where(excess > 0.0, 10.0 * excess * excess, 0.0)
        return deviation + np.add.reduce(penalty, axis=-1)

    return score


def _coordinate_descent(theta0, score, max_evals):
    """Derivative-free coordinate descent on ``score`` (see
    :func:`_norm_objective`) with a shrinking step.

    A sweep tries theta_i + step, then theta_i - step, for i = 0..11, and
    accepts the first trial that beats the best value, moving on to
    coordinate i + 1 from there; a sweep with no acceptance halves the
    step.  The remaining trials of a sweep, truncated to the evaluations
    left, are scored in one call.  The first improving trial in sweep
    order wins, the call is charged index + 1 evaluations, the trials up
    to and including it, and the sweep re-batches from the next
    coordinate.  So accounting, acceptance order, budget truncation and
    every bit are those of scoring the trials one at a time.

    Returns (theta, value, evals, converged); converged means the step
    shrank to the floor or the objective reached the numeric floor, rather
    than the evaluation budget running out mid-descent.
    """
    theta = theta0.copy()
    best = float(score(theta[None])[0])
    evals = 1
    step = 0.1
    while step > _STEP_FLOOR and evals < max_evals and best > _CONVERGED_OBJECTIVE:
        improved = False
        i = 0
        while i < theta.size and evals < max_evals:
            # trial t moves coordinate i + t // 2 by +step (t even) or -step
            count = min(2 * (theta.size - i), max_evals - evals)
            t = np.arange(count)
            trials = np.repeat(theta[None], count, axis=0)
            trials[t, i + t // 2] += np.where(t % 2 == 0, step, -step)
            values = score(trials)
            hits = np.flatnonzero(values < best)
            if hits.size == 0:
                evals += count
                break
            j = int(hits[0])
            evals += j + 1
            theta, best = trials[j], float(values[j])
            improved = True
            i += j // 2 + 1
        if not improved:
            step *= 0.5
    converged = step <= _STEP_FLOOR or best <= _CONVERGED_OBJECTIVE
    return theta, best, evals, converged


def search_norm_preservers(
    alpha: float,
    budget: int,
    seed: int,
    tol: float = PERMUTATION_TOL,
) -> list[PreserverCandidate]:
    """Randomized search for sector-stochastic maps preserving the
    alpha-norm of probability vectors.

    Starts cycle through rotation-induced maps, sector permutations and
    generic sector-stochastic maps, in that order, and each is refined by
    :func:`_coordinate_descent` on the mean alpha-norm deviation over the
    probe set.  ``budget`` counts objective evaluations across all starts,
    at most 2000 per start.  A converged start is projected onto the
    validity region and scored again, its residual; one whose residual
    falls below ``tol`` and whose map is sector-stochastic is returned
    with its distance to the nearest sector-respecting permutation.  An
    exhausted budget with no hits returns an empty list.  The output is
    evidence, not proof.  Raises ValueError unless ``alpha`` lies in
    [``SEARCH_ALPHA_MIN``, ``SEARCH_ALPHA_MAX``] and ``tol`` is positive
    and finite.
    """
    if not SEARCH_ALPHA_MIN <= alpha <= SEARCH_ALPHA_MAX:  # a NaN fails too
        raise ValueError(
            f"alpha must lie in [{SEARCH_ALPHA_MIN:g}, {SEARCH_ALPHA_MAX:g}] for the search, "
            f"got {alpha}"
        )
    _check_positive_finite("tol", tol)  # a NaN tol would switch the residual filter off
    if budget < 1:
        return []
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    score = _norm_objective(_probe_means(rng), alpha)

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
            theta0, score, min(_EVALS_PER_START, remaining)
        )
        remaining -= used
        attempt += 1
        if not converged:
            continue
        theta = _project_params(theta)
        # projected rows have |c_u| + ||M_u|| <= 1 up to rounding, so the
        # penalty adds at most about 1e-29 and the value is the residual
        final_residual = float(score(theta[None])[0])
        if final_residual >= tol:
            continue
        induced = InducedMap(_map_from_params(theta[:3], theta[3:].reshape(3, 3)))
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
