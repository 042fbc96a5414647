"""Tests for induced maps, invariance scans, and the norm-preserver search."""

import itertools
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from onebit import transforms
from onebit.measures import MAX_ALPHA, QUADRATIC, SHANNON, EntropyMeasure, entropy_sum
from onebit.measures import pair_entropy
from onebit.qubit import SECTOR_TOL, QubitState, p6_from_means, random_state
from onebit.transforms import (
    _SIGNED_PERMUTATIONS,
    MAX_SCAN_ENTRY,
    ORTHO_TOL,
    PERMUTATION_TOL,
    InducedMap,
    _coordinate_descent,
    _map_from_params,
    _norm_objective,
    _probe_means,
    _project_params,
    alpha_norm,
    apply,
    example_permutation_map,
    induced_from_rotation,
    induced_from_rotations,
    invariance_scan,
    is_sector_stochastic,
    permutation_distance,
    random_rotation,
    random_rotations,
    scan_deviations,
    search_norm_preservers,
)

from math_reference import (
    HALF_OR_TWICE,
    LADDER_GRIDS,
    SCAN_ALPHAS,
    diagonal_minus_axis,
    exact_scan_supremum,
    math_entropy_sum,
    scalar_pair_total,
    scan_supremum,
)

QUARTER_TURN_MATRIX = np.array(
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

# mean-value map m -> (m_y, -m_x, m_z): the rotation behind the quarter turn
QUARTER_TURN_ROTATION = np.array([[0, 1, 0], [-1, 0, 0], [0, 0, 1.0]])


def identity_with_block(block):
    """The 6x6 identity with its x-sector block replaced."""
    a = np.eye(6)
    a[:2, :2] = block
    return a


#: Identity-based maps, each breaking one sector-stochastic condition by
#: exactly ``e``: the column gap, the image sector sum, or the entry range
#: (the last is the offset p_x -> p_x + e, which keeps the sector sums).
STOCHASTICITY_VIOLATIONS = {
    "column_gap": lambda e: identity_with_block([[1.0, 0.0], [e / 2, 1.0 - e / 2]]),
    "sector_sum_gap": lambda e: (1.0 + e) * (0.5 * np.eye(6) + 0.5 / 6.0),
    "range_gap": lambda e: identity_with_block([[1.0 + e, e], [-e, 1.0 - e]]),
}


def loop_rotation(rng):
    """Per-matrix Haar sampler: QR of one 3x3 normal draw, sign fix, and a
    column flip for determinant -1."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.where(np.diag(r) >= 0.0, 1.0, -1.0)
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q


def loop_embedding(rot):
    """Entry-by-entry 6x6 embedding of a 3x3 orthogonal matrix."""
    s = rot * rot
    a = np.zeros((6, 6))
    for u in range(3):
        for v in range(3):
            plus = 0.5 * (s[u, v] + rot[u, v])
            minus = 0.5 * (s[u, v] - rot[u, v])
            a[2 * u, 2 * v] = plus
            a[2 * u, 2 * v + 1] = minus
            a[2 * u + 1, 2 * v] = minus
            a[2 * u + 1, 2 * v + 1] = plus
    return a


#: The 48 signed permutations of mean values, built independently of the
#: module's table.
SIGNED_PERMUTATIONS = np.array(
    [
        np.eye(3)[list(order)] * np.array(signs)[:, None]
        for order in itertools.permutations(range(3))
        for signs in itertools.product((1.0, -1.0), repeat=3)
    ]
)


def alpha_norms(v, alpha):
    """(sum_i |v_i|**alpha)**(1/alpha) over the last axis."""
    return np.sum(np.abs(v) ** alpha, axis=-1) ** (1.0 / alpha)


def norm_gap(induced, state, alpha):
    """| ||A p||_alpha - ||p||_alpha | for one state."""
    p = state.as_array
    return abs(alpha_norm(induced.matrix @ p, alpha) - alpha_norm(p, alpha))


def random_states_array(rng, count):
    means = rng.normal(size=(count, 3))
    means /= np.linalg.norm(means, axis=1, keepdims=True)
    means *= rng.uniform(size=(count, 1)) ** (1.0 / 3.0)
    p = (1.0 + means) / 2.0
    out = np.empty((count, 6))
    out[:, 0::2] = p
    out[:, 1::2] = 1.0 - p
    return out


class TestExamplePermutationMap:
    def test_matches_printed_matrix(self):
        assert np.array_equal(example_permutation_map().matrix, QUARTER_TURN_MATRIX)

    def test_performs_stated_mapping(self):
        state = QubitState((0.9, 0.1, 0.3, 0.7, 0.5, 0.5))
        image = apply(example_permutation_map(), state)
        assert image.probs == pytest.approx((0.3, 0.7, 0.1, 0.9, 0.5, 0.5), abs=1e-15)

    def test_fixes_maximally_mixed(self):
        mixed = QubitState((0.5,) * 6)
        assert apply(example_permutation_map(), mixed).probs == (0.5,) * 6

    def test_fourth_power_is_identity(self):
        a = example_permutation_map().matrix
        assert np.array_equal(np.linalg.matrix_power(a, 4), np.eye(6))

    def test_is_induced_by_the_quarter_turn_rotation(self):
        induced = induced_from_rotation(QUARTER_TURN_ROTATION)
        assert np.array_equal(induced.matrix, QUARTER_TURN_MATRIX)


class TestInducedFromRotation:
    def test_identity_rotation_gives_identity_matrix(self):
        assert np.array_equal(induced_from_rotation(np.eye(3)).matrix, np.eye(6))

    @pytest.mark.parametrize(
        "call, start",
        [
            (
                lambda: induced_from_rotation(np.full((3, 3), 0.5)),
                r"matrix is not orthogonal \(r\^T r gap 0\.75\)$",
            ),
            # no RuntimeWarning (an error under pytest) from the gap's product
            (
                lambda: induced_from_rotation(np.diag([math.inf, 1.0, 1.0])),
                r"matrix is not orthogonal \(r\^T r gap nan\)$",
            ),
            (
                lambda: induced_from_rotation(np.diag([1e200, 1.0, 1.0])),
                r"matrix is not orthogonal \(r\^T r gap inf\)$",
            ),
            (lambda: induced_from_rotation(np.eye(2)), r"rotation must be 3x3, got shape \(2, 2\)$"),
            (
                lambda: induced_from_rotations(np.eye(3)),
                r"rotations must have shape \(n, 3, 3\), got \(3, 3\)$",
            ),
            (lambda: InducedMap(np.eye(5)), r"induced map must be 6x6, got shape \(5, 5\)$"),
        ],
        ids=["non-orthogonal", "inf", "1e200", "rotation-shape", "rotations-shape", "map-shape"],
    )
    def test_rejects(self, call, start):
        with pytest.raises(ValueError, match="^" + start):
            call()

    def test_mean_value_equivariance(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            rot = random_rotation(rng)
            induced = induced_from_rotation(rot)
            state = random_state(rng, "mixed")
            image = apply(induced, state)
            np.testing.assert_allclose(
                image.mean_values, rot @ state.mean_values, atol=1e-12
            )

    def test_images_are_valid_states(self):
        rng = np.random.default_rng(42)
        states = random_states_array(rng, 1000)
        for _ in range(10):
            a = induced_from_rotation(random_rotation(rng)).matrix
            images = states @ a.T
            sums = images[:, 0::2] + images[:, 1::2]
            np.testing.assert_allclose(sums, 1.0, atol=1e-12)
            assert images.min() >= -1e-12
            assert images.max() <= 1.0 + 1e-12

    def test_a_reflection_embeds_but_the_sampler_draws_only_rotations(self):
        reflection = np.diag([1.0, 1.0, -1.0])
        induced = induced_from_rotation(reflection)
        assert is_sector_stochastic(induced).ok
        rng = np.random.default_rng(42)
        dets = [np.linalg.det(random_rotation(rng)) for _ in range(50)]
        assert all(d > 0 for d in dets)

    def test_group_action_composes_on_states(self):
        # matrix-level equality cannot hold for this embedding; the action
        # on physical states is what composes
        rng = np.random.default_rng(42)
        for _ in range(30):
            r1, r2 = random_rotation(rng), random_rotation(rng)
            a12 = induced_from_rotation(r1 @ r2)
            a1, a2 = induced_from_rotation(r1), induced_from_rotation(r2)
            state = random_state(rng, "mixed")
            lhs = apply(a12, state).as_array
            rhs = apply(a1, apply(a2, state)).as_array
            np.testing.assert_allclose(lhs, rhs, atol=1e-10)


class TestBatchedConstruction:
    def test_batch_matches_sequential_draws(self):
        batch = random_rotations(np.random.default_rng(9), 256)
        loop_rng = np.random.default_rng(9)
        loop = np.array([loop_rotation(loop_rng) for _ in range(256)])
        call_rng = np.random.default_rng(9)
        calls = np.array([random_rotation(call_rng) for _ in range(256)])
        assert np.array_equal(batch, loop)
        assert np.array_equal(batch, calls)
        assert np.all(np.linalg.det(batch) > 0.0)

    def test_batched_embedding_matches_per_map(self):
        rots = random_rotations(np.random.default_rng(9), 64)
        rots[1::2, :, 0] = -rots[1::2, :, 0]  # every other matrix improper
        assert np.all(np.linalg.det(rots[1::2]) < 0.0)
        batch = induced_from_rotations(rots)
        assert batch.shape == (64, 6, 6)
        for rot, a in zip(rots, batch):
            assert np.array_equal(a, loop_embedding(rot))
            assert np.array_equal(a, induced_from_rotation(rot).matrix)

    def test_signed_permutations_embed_exactly(self):
        for rot, a in zip(SIGNED_PERMUTATIONS, induced_from_rotations(SIGNED_PERMUTATIONS)):
            assert np.array_equal(a, loop_embedding(rot))
            assert set(np.unique(a)) <= {0.0, 1.0}
            assert np.array_equal(a.sum(axis=0), np.ones(6))
            assert np.array_equal(a.sum(axis=1), np.ones(6))

    def test_one_non_orthogonal_entry_rejects_the_batch(self):
        rots = random_rotations(np.random.default_rng(9), 5)
        rots[3] = np.full((3, 3), 0.5)
        with pytest.raises(ValueError, match="orthogonal"):
            induced_from_rotations(rots)

    @HALF_OR_TWICE
    def test_orthogonality_tolerance_boundary(self, factor, ok):
        # (1 + d/2)^2 - 1 puts an r^T r gap of d (to rounding) on the diagonal
        rots = QUARTER_TURN_ROTATION[None] * (1.0 + factor * ORTHO_TOL / 2.0)
        if ok:
            assert induced_from_rotations(rots).shape == (1, 6, 6)
        else:
            with pytest.raises(ValueError, match="orthogonal"):
                induced_from_rotations(rots)

    def test_nan_rotation_rejects_the_batch(self):
        rots = random_rotations(np.random.default_rng(9), 5)
        rots[2] = np.full((3, 3), np.nan)
        with pytest.raises(ValueError, match="orthogonal"):
            induced_from_rotations(rots)


def loop_map_from_params(c, m):
    """Entry-by-entry 6x6 embedding of offsets c and matrix m, with the
    squared entries corrected so each row sums to 1."""
    s = m * m
    s = s + (1.0 - s.sum(axis=1, keepdims=True)) / 3.0
    a = np.zeros((6, 6))
    for u in range(3):
        for v in range(3):
            base = s[u, v]
            off = c[u] / 3.0
            a[2 * u, 2 * v] = 0.5 * (base + off + m[u, v])
            a[2 * u, 2 * v + 1] = 0.5 * (base + off - m[u, v])
            a[2 * u + 1, 2 * v] = 0.5 * (base - off - m[u, v])
            a[2 * u + 1, 2 * v + 1] = 0.5 * (base - off + m[u, v])
    return a


class TestMapFromParams:
    def test_single_and_batched_match_the_loop_bitwise(self):
        rng = np.random.default_rng(23)
        offsets = rng.uniform(-1.0, 1.0, size=(500, 3))
        matrices = rng.normal(size=(500, 3, 3))
        batch = _map_from_params(offsets, matrices)
        assert batch.shape == (500, 6, 6)
        for c, m, a in zip(offsets, matrices, batch):
            expected = loop_map_from_params(c, m)
            assert np.array_equal(_map_from_params(c, m), expected)
            assert np.array_equal(a, expected)


class TestApply:
    def test_identity(self):
        state = QubitState((0.7, 0.3, 0.2, 0.8, 0.5, 0.5))
        assert apply(InducedMap(np.eye(6)), state).probs == state.probs

    def test_quarter_turn_on_pure_x(self):
        state = QubitState((1.0, 0.0, 0.5, 0.5, 0.5, 0.5))
        image = apply(example_permutation_map(), state)
        assert image.probs == pytest.approx((0.5, 0.5, 0.0, 1.0, 0.5, 0.5), abs=1e-15)

    def test_rotation_preserves_quadratic_total(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            induced = induced_from_rotation(random_rotation(rng))
            state = random_state(rng, "mixed")
            before = entropy_sum(state.as_array, QUADRATIC, 3)
            after = entropy_sum(apply(induced, state).as_array, QUADRATIC, 3)
            assert abs(after - before) <= 1e-10

    def test_rejects_non_stochastic_map(self):
        bad = np.eye(6)
        bad[0, 0] = 2.0
        state = QubitState((0.7, 0.3, 0.5, 0.5, 0.5, 0.5))
        with pytest.raises(ValueError, match="sector-stochastic"):
            apply(InducedMap(bad), state)

    @HALF_OR_TWICE
    @pytest.mark.parametrize(
        "block, state",
        [
            # image p_x = 0.5 + e: the x sector sums to 1 + e
            (lambda e: [[1.0 + 2.0 * e, 0.0], [0.0, 1.0]], (0.5,) * 6),
            # image (1 + e, -e): the x sector sums to 1, both entries leave [0, 1]
            (lambda e: [[1.0 + e, e], [-e, 1.0 - e]], (1.0, 0.0, 0.5, 0.5, 0.5, 0.5)),
        ],
        ids=["sector-sum", "range"],
    )
    def test_tolerance_boundary(self, factor, ok, block, state):
        induced = InducedMap(identity_with_block(block(factor * SECTOR_TOL)))
        if ok:
            apply(induced, QubitState(state))
        else:
            with pytest.raises(ValueError, match="sector-stochastic"):
                apply(induced, QubitState(state))


class TestSectorStochasticCheck:
    def test_quarter_turn_passes(self):
        assert is_sector_stochastic(example_permutation_map()).ok

    def test_rotation_induced_passes(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            induced = induced_from_rotation(random_rotation(rng))
            report = is_sector_stochastic(induced)
            assert report.ok, report

    def test_swapping_only_upper_entries_fails(self):
        # exchanging p_x with p_y while leaving 1-p_x and 1-p_y in place
        # breaks the sector sums whenever p_x != p_y
        a = np.eye(6)
        a[[0, 2]] = a[[2, 0]]
        report = is_sector_stochastic(InducedMap(a))
        assert not report.ok
        assert report.column_gap > 0.5

    @HALF_OR_TWICE
    @pytest.mark.parametrize("gap", list(STOCHASTICITY_VIOLATIONS))
    def test_tolerance_boundary(self, factor, ok, gap):
        excess = factor * SECTOR_TOL
        report = is_sector_stochastic(InducedMap(STOCHASTICITY_VIOLATIONS[gap](excess)))
        assert report.ok == ok
        assert getattr(report, gap) == pytest.approx(excess, rel=1e-6)
        for other in set(STOCHASTICITY_VIOLATIONS) - {gap}:
            assert getattr(report, other) <= 1e-15

    def test_contraction_passes(self):
        # shrinking toward the maximally mixed state is stochastic
        half = 0.5 * np.eye(6) + 0.5 * np.full((6, 6), 1.0 / 6.0)
        assert is_sector_stochastic(InducedMap(half)).ok


class TestAlphaNorms:
    @pytest.mark.parametrize("alpha, tol", [(1.0, 1e-12), (2.0, 1e-10)])
    def test_rotations_preserve_the_one_and_two_norms(self, alpha, tol):
        rng = np.random.default_rng(42)
        for _ in range(100):
            induced = induced_from_rotation(random_rotation(rng))
            state = random_state(rng, "mixed")
            assert alpha_norm(state.as_array, 1.0) == pytest.approx(3.0, abs=1e-12)
            assert norm_gap(induced, state, alpha) <= tol

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 3.0, 5.0])
    def test_quarter_turn_preserves_every_norm(self, alpha):
        rng = np.random.default_rng(42)
        quarter = example_permutation_map()
        for _ in range(100):
            state = random_state(rng, "mixed")
            assert norm_gap(quarter, state, alpha) <= 1e-12

    # as EntropyMeasure: 1 / alpha divides by zero at 0 and takes the
    # root of a sum of infinities below it, and NaN would pass through
    @pytest.mark.parametrize(
        "alpha", [0.0, -0.0, -1.0, math.nan, math.inf, math.nextafter(MAX_ALPHA, math.inf)]
    )
    def test_rejects_alpha_outside_the_entropy_domain(self, alpha):
        message = r"^alpha must be positive and finite, at most 1e\+300, got "
        with pytest.raises(ValueError, match=message):
            alpha_norm([0.5, 0.0, 1.0], alpha)

    def test_accepts_the_largest_degree(self):
        assert alpha_norm([0.5, 0.0, -1.0], MAX_ALPHA) == 1.0

    @pytest.mark.parametrize("vec", [[[0.5, 0.5], [1.0, 0.0]], 0.5, [[1.0]]], ids=str)
    def test_rejects_a_vector_that_is_not_flat(self, vec):
        message = re.escape(f"alpha-norm needs a flat vector, got shape {np.shape(vec)}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            alpha_norm(vec, 2.0)

    # |0.5|**alpha + 1 is about 2, and 2**(1 / alpha) overflows at 1e-300;
    # at 5e-324 the root's exponent 1 / alpha is already inf
    @pytest.mark.parametrize("alpha", [1e-300, 5e-324])
    def test_rejects_a_root_beyond_the_largest_double(self, alpha):
        message = r"^alpha-norm at alpha=\S+ overflows a double, outside its domain$"
        with pytest.raises(ValueError, match=message):
            alpha_norm([0.5, 0.0, 1.0], alpha)

    # each plain sum of squares overflows or underflows to 0 (pytest turns
    # the overflow's RuntimeWarning into an error); scaled by max |v_i|
    # these norms are exact
    @pytest.mark.parametrize(
        "vec",
        [[1e200, 0.0], [1e-200, 0.0], [3 * 2.0**600, -4 * 2.0**600], [3 * 2.0**-600, 4 * 2.0**-600]],
        ids=["1e200", "1e-200", "5*2**600", "5*2**-600"],
    )
    def test_a_two_norm_beyond_the_plain_sum_is_exact(self, vec):
        norm = alpha_norm(vec, 2.0)
        assert Fraction(norm) ** 2 == sum(Fraction(x) ** 2 for x in vec)

    @pytest.mark.parametrize(
        "vec", [[2.0**400, -(2.0**401)], [1e300, 2e300], [1e-300, 7e-301], [2.0**-400, 3 * 2.0**-399]]
    )
    def test_a_cubic_norm_beyond_the_plain_sum_is_near_exact(self, vec):
        # measured within 1.5 units of 2**-52 relative to the exact cube
        exact = sum(abs(Fraction(x)) ** 3 for x in vec)
        assert abs(Fraction(alpha_norm(vec, 3.0)) ** 3 - exact) <= 4 * Fraction(2) ** -52 * exact

    def test_a_sum_of_finite_terms_overflowing_past_the_largest_double_raises(self):
        message = r"^alpha-norm at alpha=1.0 overflows a double, outside its domain$"
        with pytest.raises(ValueError, match=message):
            alpha_norm([1e308, 1e308], 1.0)

    def test_non_finite_entries_keep_the_plain_formula(self):
        assert alpha_norm([math.inf, 1e200], 2.0) == math.inf
        assert math.isnan(alpha_norm([math.nan, 1e200], 2.0))
        assert alpha_norm([], 2.0) == 0.0


BAD_STATE = r"state entries must be finite and at most 1e\+150 in magnitude"
BAD_MAP = r"map entries must be finite and at most 1e\+150 in magnitude"
#: Row 0 takes 1e300 x 1e300 - 1e300 x 1e300: both products overflow.
HUGE_ROW_MAP = np.diag([0.0] + [1.0] * 5)[None]
HUGE_ROW_MAP[0, 0, :2] = 1e300, -1e300


class TestInvarianceScan:
    def test_quadratic_degree_is_invariant(self):
        reports = invariance_scan([2.0], 200, 50, seed=42)
        assert reports[0].max_deviation <= 1e-9

    def test_shannon_degree_deviates(self):
        reports = invariance_scan([1.0], 200, 50, seed=42)
        assert reports[0].max_deviation >= 0.19

    @pytest.mark.parametrize("alpha", [0.5, 1.5])
    def test_witnesses_for_other_degrees(self, alpha):
        reports = invariance_scan([alpha], 100, 20, seed=42)
        assert reports[0].max_deviation > 0.01

    def test_cubic_degree_coincides_with_quadratic_on_states(self):
        # on binary pairs 1 - p**3 - q**3 = 3 p q, so the normalized cubic
        # total equals 3 - |m|^2 just like the quadratic one and rotations
        # leave it invariant on physical states
        rng = np.random.default_rng(42)
        states = random_states_array(rng, 500)
        h3 = entropy_sum(states, EntropyMeasure(3.0), 3)
        h2 = entropy_sum(states, QUADRATIC, 3)
        np.testing.assert_allclose(h3, h2, atol=1e-12)
        reports = invariance_scan([3.0], 200, 50, seed=42)
        assert reports[0].max_deviation <= 1e-12

    def test_identity_map_only_gives_zero(self):
        rng = np.random.default_rng(42)
        states = random_states_array(rng, 100)
        maps = np.eye(6)[None, :, :]
        for alpha in (0.5, 1.0, 1.5, 2.0, 3.0):
            dev, _, _ = scan_deviations(states, maps, [alpha])[0]
            assert dev == 0.0

    def test_ties_go_to_the_earliest_map_and_state(self):
        # the depolarizing map sends every state to the maximally mixed one;
        # all entries are dyadic, so every copy of a cell has the same bits
        depolarize = np.kron(np.eye(3), np.full((2, 2), 0.5))
        pure_x = [1.0, 0.0, 0.5, 0.5, 0.5, 0.5]
        states = np.array([[0.5] * 6, pure_x, pure_x])
        maps = np.repeat(np.eye(6)[None], 130, axis=0)
        maps[[5, 129]] = depolarize  # block 0 and block 2
        for dev, s_idx, m_idx in scan_deviations(states, maps, SCAN_ALPHAS):
            assert dev == pytest.approx(1.0, abs=1e-12)
            assert (s_idx, m_idx) == (1, 5)

    def test_non_finite_deviation_raises(self, monkeypatch):
        states = random_states_array(np.random.default_rng(7), 4)
        poison_last_map(monkeypatch)
        message = "^total-uncertainty deviation is not finite at alpha=2.0$"
        with pytest.raises(ValueError, match=message):
            scan_deviations(states, np.eye(6)[None], [2.0, 0.5])

    @pytest.mark.parametrize(
        "poisoned, named",
        [({1: 0.5}, 0.5), ({1: 0.5, 2: 2.0}, 2.0)],
        ids=["one-degree", "grid-order"],
    )
    def test_a_nan_in_a_later_block_raises(self, monkeypatch, poisoned, named):
        # block 0 holds a finite winner at every degree, and block 2 follows
        # the poisoned block 1; with two degrees poisoned, the message names
        # the first in grid order, not the first block's
        walk = transforms._ladder_walk
        blocks = []

        def poisoning_walk(p, measures, work):
            blocks.append(p.shape[0])
            for j, terms in walk(p, measures, work):
                if poisoned.get(len(blocks) - 1) == measures[j].alpha:
                    terms[-1, 0, -1] = math.nan
                yield j, terms

        monkeypatch.setattr(transforms, "_ladder_walk", poisoning_walk)
        rng = np.random.default_rng(7)
        maps = induced_from_rotations(random_rotations(rng, 130))
        message = f"^total-uncertainty deviation is not finite at alpha={named}$"
        with pytest.raises(ValueError, match=message):
            scan_deviations(random_states_array(rng, 4), maps, [2.0, 0.5])
        assert blocks == [64, 64, 2]

    def test_peak_memory_does_not_grow_with_blocks_times_degrees(self):
        # each slab keeps one winner per degree, so ten blocks of maps
        # take no more than one beyond the maps' size; a cell kept per
        # block and degree would add about 450 KiB here
        states = random_states_array(np.random.default_rng(9), 4)
        alphas = np.linspace(0.25, 4.0, 400).tolist()
        scan_deviations(states, np.eye(6)[None], alphas)  # one-time allocations

        def traced_peak(n_maps):
            maps = np.repeat(np.eye(6)[None], n_maps, axis=0)
            tracemalloc.start()
            try:
                scan_deviations(states, maps, alphas)
                return tracemalloc.get_traced_memory()[1] - maps.nbytes
            finally:
                tracemalloc.stop()

        assert traced_peak(640) <= traced_peak(64) + 32 * 1024

    def test_the_input_check_copies_no_input(self):
        # the maps take 1.8 MB; the buffers for 4 states, a few KiB
        states = random_states_array(np.random.default_rng(9), 4)
        maps = np.repeat(np.eye(6)[None], 6400, axis=0)
        scan_deviations(states, maps[:1], [2.0])  # one-time allocations
        tracemalloc.start()
        try:
            scan_deviations(states, maps, [2.0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < maps.nbytes

    def test_worst_shannon_case_is_the_probe_pair(self):
        # with no sampling at all, the 45-degree probe on a pure state
        # realizes the hand-computed worst case 2 h((1 + 1/sqrt(2))/2) - 1
        reports = invariance_scan([1.0], 0, 0, seed=0)
        p = (1.0 + 1.0 / math.sqrt(2.0)) / 2.0
        h = -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))
        assert reports[0].max_deviation == pytest.approx(2.0 * h - 1.0, abs=1e-12)
        assert reports[0].argmax_map_id.startswith("probe:rot45")

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: invariance_scan([], 10, 10, seed=0), "alpha grid must be nonempty"),
            (lambda: invariance_scan([2.0], -1, 0, seed=0), "sample counts must be nonnegative"),
            (lambda: invariance_scan([2.0], 0, -1, seed=0), "sample counts must be nonnegative"),
            (
                lambda: scan_deviations(np.empty((0, 6)), np.eye(6)[None], [2.0]),
                "scan needs at least one state and one map",
            ),
            (
                lambda: scan_deviations(np.full((1, 6), 0.5), np.empty((0, 6, 6)), [2.0]),
                "scan needs at least one state and one map",
            ),
            # before any product: an inf map entry would warn in the GEMM
            (
                lambda: scan_deviations(
                    np.full((2, 6), 0.5), np.diag([math.inf] + [1.0] * 5)[None], [2.0]
                ),
                BAD_MAP,
            ),
            (
                lambda: scan_deviations(
                    np.array([[0.5] * 6, [math.nan] * 6]), np.eye(6)[None], [2.0]
                ),
                BAD_STATE,
            ),
            # finite entries whose products overflow in the GEMM
            (lambda: scan_deviations(np.full((1, 6), 1e300), HUGE_ROW_MAP, [2.0]), BAD_STATE),
            # the clip would hide an unbounded image: deviation 9.0 at alpha = 2
            (
                lambda: scan_deviations(np.full((2, 6), 0.5), 1e308 * np.eye(6)[None], [2.0]),
                BAD_MAP,
            ),
            (
                lambda: scan_deviations(
                    np.full((2, 6), np.nextafter(MAX_SCAN_ENTRY, math.inf)),
                    np.eye(6)[None],
                    [2.0],
                ),
                BAD_STATE,
            ),
        ],
        ids=["empty-grid", "negative-states", "negative-maps", "no-states", "no-maps",
             "inf-map", "nan-state", "overflowing-state-and-map", "1e308-identity",
             "state-just-above-cap"],
    )
    def test_rejects(self, call, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()

    @pytest.mark.parametrize(
        "states_shape, maps_shape",
        [
            ((3, 5), (1, 6, 6)),  # a matmul core-dimension error without the guard
            ((3, 0), (1, 6, 6)),  # a zero-size reduction
            ((1, 6), (1, 0, 6)),
            ((1, 6), (1, 6, 5)),  # a matmul error
            ((6,), (1, 6, 6)),  # an IndexError
            ((1, 1, 6), (1, 6, 6)),
            ((1, 6), (6, 6)),
            ((1, 6), (1, 1, 6, 6)),
        ],
        ids=["states-5-wide", "states-0-wide", "maps-0-rows", "maps-5-wide", "flat-states",
             "3d-states", "2d-maps", "4d-maps"],
    )
    def test_rejects_shapes(self, monkeypatch, states_shape, maps_shape):
        calls = spy_slabs(monkeypatch)
        message = re.escape(
            "scan needs states of shape (S, 6) and maps of shape (M, 6, 6), "
            f"got {states_shape} and {maps_shape}"
        )
        with pytest.raises(ValueError, match=f"^{message}$"):
            scan_deviations(np.full(states_shape, 0.5), np.full(maps_shape, 0.1), [2.0])
        assert calls == []

    def test_entries_at_the_cap_scan_without_warning(self):
        # every image entry is 6 cap**2, the largest the cap allows; pytest
        # turns any RuntimeWarning into an error
        assert math.isfinite(6.0 * MAX_SCAN_ENTRY**2)
        for sign in (1.0, -1.0):
            states = np.full((2, 6), sign * MAX_SCAN_ENTRY)
            maps = np.full((1, 6, 6), MAX_SCAN_ENTRY)
            for dev, _, _ in scan_deviations(states, maps, SCAN_ALPHAS):
                assert math.isfinite(dev)


class TestPermutationFamily:
    FAMILY = induced_from_rotations(SIGNED_PERMUTATIONS)

    def test_family_has_48_distinct_members(self):
        assert len({a.tobytes() for a in self.FAMILY}) == 48

    def test_all_members_are_sector_stochastic_permutations(self):
        for a in self.FAMILY:
            member = InducedMap(a)
            assert is_sector_stochastic(member).ok
            assert permutation_distance(member) == 0.0

    def test_thirty_degree_rotation_is_not(self):
        rot = np.array(
            [
                [math.cos(math.pi / 6), -math.sin(math.pi / 6), 0.0],
                [math.sin(math.pi / 6), math.cos(math.pi / 6), 0.0],
                [0.0, 0.0, 1.0],
            ]
        )
        induced = induced_from_rotation(rot)
        assert permutation_distance(induced) > max(0.1, PERMUTATION_TOL)


class TestSearchNormPreservers:
    def test_zero_budget_returns_empty(self):
        assert search_norm_preservers(3.0, 0, seed=0) == []

    # outside [0.01, 1000] the baseline norms or the trial terms overflow
    @pytest.mark.parametrize(
        "alpha",
        [0.0, -1.0, math.nan, math.inf]
        + [math.nextafter(0.01, 0.0), math.nextafter(1000.0, math.inf)],
    )
    def test_rejects_alpha_outside_the_search_domain(self, alpha):
        message = r"^alpha must lie in \[0\.01, 1000\] for the search, got "
        with pytest.raises(ValueError, match=message):
            search_norm_preservers(alpha, 10, seed=0)

    @pytest.mark.parametrize("tol", [0.0, -1e-6, math.nan, math.inf])
    def test_rejects_tol_that_is_not_positive_and_finite(self, tol):
        # a NaN tol would let every converged map through the residual filter
        with pytest.raises(ValueError, match="^tol must be positive and finite"):
            search_norm_preservers(2.0, 10, seed=0, tol=tol)

    def test_alpha_two_finds_non_permutation_preservers(self):
        candidates = search_norm_preservers(2.0, 2000, seed=7)
        assert candidates
        non_perm = [c for c in candidates if c.permutation_distance > 1e-6]
        assert non_perm
        for cand in candidates:
            assert cand.residual < 1e-6
            assert is_sector_stochastic(cand.map).ok

    def test_a_map_that_fails_the_stochasticity_check_is_dropped(self, monkeypatch):
        assert search_norm_preservers(2.0, 2000, seed=7)
        failing = transforms.StochasticityReport(False, 1.0, 1.0, 1.0)
        monkeypatch.setattr(transforms, "is_sector_stochastic", lambda induced: failing)
        assert search_norm_preservers(2.0, 2000, seed=7) == []

    def test_alpha_three_candidates_are_permutation_like(self):
        candidates = search_norm_preservers(3.0, 10000, seed=7)
        assert candidates
        for cand in candidates:
            assert cand.permutation_distance <= 1e-6

    def test_rotations_deviate_on_the_probe_domain_at_alpha_three(self):
        # the probe set spans the full sector-consistent cube, where the
        # cubic norm does separate rotations from permutations
        rng = np.random.default_rng(42)
        probes = p6_from_means(_probe_means(rng))
        base = np.sum(np.abs(probes) ** 3.0, axis=1) ** (1.0 / 3.0)
        worst = 0.0
        for _ in range(20):
            a = induced_from_rotation(random_rotation(rng)).matrix
            norms = np.sum(np.abs(probes @ a.T) ** 3.0, axis=1) ** (1.0 / 3.0)
            worst = max(worst, float(np.mean(np.abs(norms - base))))
        assert worst > 1e-4


def rotation_about_axis(axis, angle):
    """The rotation by ``angle`` about the unit vector along ``axis``
    (Rodrigues' formula)."""
    x, y, z = np.asarray(axis, dtype=float) / np.linalg.norm(axis)
    k = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def cubic_search_objective(seed=42):
    """The search's probe means at ``seed`` and its alpha = 3 objective."""
    means = _probe_means(np.random.default_rng(np.random.SeedSequence(seed)))
    return means, _norm_objective(means, 3.0)


class TestCubicIdentity:
    """For a binary pair with x = p - q, p**3 + q**3 = (1 + 3 x**2) / 4, so
    the signed cubic sum of any sector-consistent 6-vector is
    3/4 + 3/4 |m|**2 and no rotation moves it: the alpha = 3 search can
    separate rotations only through the negative entries of images that
    leave [0, 1]**6, which criterion 1's physical states never have."""

    def test_the_signed_cubic_sum_depends_on_the_radius_alone(self):
        means = np.random.default_rng(61).uniform(-1.5, 1.5, size=(2000, 3))
        sums = np.sum(p6_from_means(means) ** 3, axis=-1)
        assert np.max(np.abs(sums - 0.75 * (1.0 + np.sum(means**2, axis=-1)))) <= 1e-14

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rotations_move_the_cubic_norm_only_through_negative_entries(self, seed):
        means, objective = cubic_search_objective()
        rotation = random_rotation(np.random.default_rng(seed))
        images = p6_from_means(means @ rotation.T)
        signed = np.cbrt(np.sum(images**3, axis=-1))
        assert np.mean(np.abs(signed - np.cbrt(np.sum(p6_from_means(means) ** 3, axis=-1)))) <= 1e-15
        inside = np.all(images >= 0.0, axis=-1)
        deviation = np.abs(alpha_norms(images, 3.0) - alpha_norms(p6_from_means(means), 3.0))
        assert np.max(deviation[inside]) <= 1e-15
        assert np.min(deviation[~inside]) > 0.0
        assert objective(np.concatenate([np.zeros(3), rotation.ravel()])[None])[0] >= 1e-5

    def test_the_residual_near_a_signed_permutation_grows_as_eps_cubed(self):
        # each negative entry of a rotated corner is O(eps) and adds 2 |q|**3
        _, objective = cubic_search_objective()
        axis = np.random.default_rng(42).normal(size=3)
        eps = np.array([0.1, 0.03, 0.01, 0.003, 0.001])
        maps = [_SIGNED_PERMUTATIONS[13] @ rotation_about_axis(axis, e) for e in eps]
        residuals = objective(np.array([np.concatenate([np.zeros(3), m.ravel()]) for m in maps]))
        assert 2.9 <= np.polyfit(np.log(eps), np.log(residuals), 1)[0] <= 3.1
        # at eps = 0.03 a rotation passes the search's tolerance while being
        # far from every sector permutation
        assert residuals[1] < PERMUTATION_TOL
        assert permutation_distance(induced_from_rotation(maps[1])) > 1e-3


class TestScanScalarOracle:
    def test_matches_math_only_oracle_cell_by_cell(self):
        # 130 maps: two full 64-map blocks and a partial third
        rng = np.random.default_rng(5)
        states = random_states_array(rng, 10)
        maps = induced_from_rotations(random_rotations(rng, 130))
        images = [
            [[sum(a[i, j] * p[j] for j in range(6)) for i in range(6)] for p in states]
            for a in maps
        ]
        got = scan_deviations(states, maps, SCAN_ALPHAS)
        for j, alpha in enumerate(SCAN_ALPHAS):
            base = [scalar_pair_total(p, alpha) for p in states]
            table = np.array(
                [
                    [abs(scalar_pair_total(image, alpha) - b) for image, b in zip(row, base)]
                    for row in images
                ]
            )
            dev, s_idx, m_idx = got[j]
            assert dev == pytest.approx(table.max(), abs=1e-12)
            assert dev == pytest.approx(table[m_idx, s_idx], abs=1e-12)
            if alpha not in (2.0, 3.0):  # elsewhere every cell is rounding noise
                assert (m_idx, s_idx) == np.unravel_index(table.argmax(), table.shape)
            for a in range(0, len(maps), 7):
                for b in range(len(states)):
                    cell = scan_deviations(states[b : b + 1], maps[a : a + 1], [alpha])
                    assert cell[0][0] == pytest.approx(table[a, b], abs=1e-12)


#: The scan's default grid, the ladder's other degree, and four degrees
#: off the ladder, one of them below 0.5.
POWER_SUM_ALPHAS = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 0.25, 1.7, 4.0, 10.0)


def physical_scan_inputs(seed, n_states=200, n_maps=100):
    """Mixed and pure states (the pure +x state first) and rotation maps,
    an exact quarter turn among them."""
    rng = np.random.default_rng(seed)
    states = random_states_array(rng, n_states)
    pure = rng.normal(size=(n_states // 4, 3))
    states[1 : 1 + len(pure)] = p6_from_means(pure / np.linalg.norm(pure, axis=1, keepdims=True))
    states[0] = p6_from_means([1.0, 0.0, 0.0])
    rotations = random_rotations(rng, n_maps)
    rotations[n_maps // 2] = QUARTER_TURN_ROTATION
    return states, induced_from_rotations(rotations)


class TestPowerSumDeviations:
    """The scan compares power sums S and scales each alpha's winner once:
    |H_total(A p) - H_total(p)| = c |S(A p) - S(p)|."""

    @pytest.mark.parametrize("seed", [0, 1, 42])
    def test_shannon_and_quadratic_rows_keep_the_entropy_difference_bits(self, seed):
        # c = 1 at alpha = 1, where negating a sum is exact; at alpha = 2,
        # c = 2 and every physical sum lies in [1.5, 3], so 3 - S, the
        # scalings and both differences are exact
        states, maps = physical_scan_inputs(seed, 300, 130)
        got = scan_deviations(states, maps, (1.0, 2.0))
        assert hexed(got) == hexed(entropy_difference_scan(states, maps, (1.0, 2.0)))

    @pytest.mark.parametrize("seed", range(6))
    def test_every_row_is_near_the_math_reference_at_its_cell(self, monkeypatch, seed):
        # the math reference takes the scan's own clipped image at the
        # argmax cell, so the gap is arithmetic alone: ladder or np.power
        # terms against math.pow, two six-term sums and the scaling; it
        # was measured at most 2.3 c ulp(3) over 20 seeds and these degrees
        monkeypatch.setattr(transforms, "_usable_cores", lambda: 1)
        states, maps = physical_scan_inputs(seed)
        columns = np.ascontiguousarray(states.T)
        rows = scan_deviations(states, maps, POWER_SUM_ALPHAS)
        for alpha, (dev, s_idx, m_idx) in zip(POWER_SUM_ALPHAS, rows):
            start = m_idx - m_idx % 64
            block = maps[start : start + 64]
            images = (block.reshape(-1, 6) @ columns).reshape(block.shape[0], 6, -1)
            image = np.clip(images[m_idx - start, :, s_idx], 0.0, 1.0)
            measure = EntropyMeasure(alpha)
            after = math_entropy_sum(image.tolist(), alpha, measure.k, 3)
            before = math_entropy_sum(np.clip(states[s_idx], 0.0, 1.0).tolist(), alpha, measure.k, 3)
            bound = 8 * measure.sum_scale * math.ulp(3.0)
            assert abs(dev - abs(after - before)) <= bound, alpha

    def test_unphysical_states_are_clipped_before_every_power_sum(self):
        # entries outside [0, 1] in the states, and so in their images: the
        # baseline power sums, like the images', are taken after the clip
        rng = np.random.default_rng(8)
        states = rng.uniform(-0.5, 1.5, size=(40, 6))
        maps = induced_from_rotations(random_rotations(rng, 70))
        got = scan_deviations(states, maps, POWER_SUM_ALPHAS)
        assert hexed(got) == hexed(fresh_scan_deviations(states, maps, POWER_SUM_ALPHAS))


SUPREMUM_ALPHAS = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 6.0)


class TestScanSupremum:
    """D(alpha) = |3 h_alpha(1/2 + 1/(2 sqrt 3)) - 2| bounds every deviation
    the scan can find; it is computed with ``math`` alone."""

    @pytest.mark.parametrize("seed", [42, 1, 7])
    def test_the_scan_stays_below_the_supremum(self, seed):
        for report in invariance_scan(SUPREMUM_ALPHAS, 1000, 200, seed):
            assert report.max_deviation <= scan_supremum(report.alpha) + 1e-12

    @pytest.mark.parametrize("seed", [42, 1, 7])
    def test_the_scan_comes_close_to_the_supremum(self, seed):
        # measured at these sizes: 0.11% to 0.19% below D on every seed
        for report in invariance_scan(SUPREMUM_ALPHAS, 1000, 200, seed):
            if report.alpha not in (2.0, 3.0):
                assert report.max_deviation >= 0.995 * scan_supremum(report.alpha)

    def test_vanishes_exactly_at_2_and_3(self):
        # on binary pairs 1 - p**3 - q**3 = 3 p q, so the cubic total is the
        # quadratic one; no other degree is invariant
        assert scan_supremum(2.0) <= 1e-15 and scan_supremum(3.0) <= 1e-15
        assert scan_supremum(4.0) == pytest.approx(2.0 / 21.0, abs=1e-15)
        grid = [0.055 + 0.01 * k for k in range(995)]  # 0.055 to 9.995, never 2 or 3
        signs = [diagonal_minus_axis(alpha) > 0.0 for alpha in grid]
        changes = [(a, b) for a, b, s, t in zip(grid, grid[1:], signs, signs[1:]) if s != t]
        assert len(changes) == 2
        assert changes[0][0] < 2.0 < changes[0][1] and changes[1][0] < 3.0 < changes[1][1]
        assert signs[0] and diagonal_minus_axis(2.5) < 0.0

    def test_exact_at_integer_alpha(self):
        assert exact_scan_supremum(2) == exact_scan_supremum(3) == 0
        assert exact_scan_supremum(4) == Fraction(2, 21)
        for alpha in range(2, 11):
            assert float(exact_scan_supremum(alpha)) == pytest.approx(
                scan_supremum(float(alpha)), abs=1e-15
            )

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.5, 4.0])
    def test_simplex_grid_finds_the_extremes(self, alpha):
        # the total depends on a state only through t_u = m_u**2; on each
        # sphere sum(t) = r**2 of a coarse grid the widest spread is on the
        # pure sphere, between the axis state and the diagonal state
        side = 30  # a multiple of 3: the diagonal state is a grid point
        weights = [(i, j, side - i - j) for i in range(side + 1) for j in range(side + 1 - i)]
        spreads = []
        for r in [k / 10 for k in range(11)]:
            totals = []
            for w in weights:
                p = [0.5 + 0.5 * r * math.sqrt(x / side) for x in w]
                p6 = (p[0], 1.0 - p[0], p[1], 1.0 - p[1], p[2], 1.0 - p[2])
                totals.append((scalar_pair_total(p6, alpha), w))
            (high, high_w), (low, low_w) = max(totals), min(totals)
            spreads.append((high - low, r, high_w, low_w))
        spread, r, high_w, low_w = max(spreads)
        kinds = {(0, 0, side): "axis", (side // 3,) * 3: "diagonal"}
        found = tuple(kinds.get(tuple(sorted(w))) for w in (high_w, low_w))
        assert r == 1.0
        # max and min swap where the diagonal state's total drops below the axis one
        diagonal_first = diagonal_minus_axis(alpha) > 0.0
        assert found == (("diagonal", "axis") if diagonal_first else ("axis", "diagonal"))
        assert spread == pytest.approx(scan_supremum(alpha), abs=1e-12)


def binomial(alpha, n):
    """The generalized binomial coefficient C(alpha, n) as an exact Fraction."""
    c = Fraction(1)
    for i in range(n):
        c *= (Fraction(alpha) - i) / (i + 1)
    return c


class TestInvariantDegrees:
    """Why only alpha = 2 and 3 are invariant (README, "Known red
    criterion"): the pair sum (1 + m)**alpha + (1 - m)**alpha is
    2 sum_j C(alpha, 2j) m**(2j), and the total is rotation-invariant
    only if its m**4 coefficient vanishes, since sum_u m_u**4 is not a
    function of |m|."""

    # the default grid's degrees, then others
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 0.25, 1.7, 3.5, 4.0, 10.0])
    def test_fourth_coefficient_vanishes_only_at_1_2_and_3(self, alpha):
        assert (binomial(alpha, 4) == 0) == (alpha in (1.0, 2.0, 3.0))

    @pytest.mark.parametrize("alpha", [2, 3])
    def test_every_higher_coefficient_vanishes_at_2_and_3(self, alpha):
        assert [binomial(alpha, 2 * j) for j in range(2, 6)] == [0] * 4

    def test_shannon_fourth_coefficient_is_not_zero(self):
        # h((1 + m) / 2) = 1 - sum_k m**(2k) / (2k (2k - 1) ln 2); the m**6
        # term moves the quotient by 4.8e-6 at m = 0.01
        m, ln2 = 0.01, math.log(2.0)
        quartic = (pair_entropy((1.0 + m) / 2.0, SHANNON) - 1.0 + m**2 / (2.0 * ln2)) / m**4
        assert quartic == pytest.approx(-1.0 / (12.0 * ln2), rel=1e-4)


#: The power ladder's steps at 1.5, 2.5 and 3, written out: the scan's
#: terms there are these products, not the ufunc power p**alpha.
WRITTEN_POWERS = {
    1.5: lambda p: np.sqrt(p) * p,
    2.5: lambda p: np.sqrt(p) * p * p,
    3.0: lambda p: p * p * p,
}


def written_power_sum(p, alpha, axis):
    """The sum along ``axis`` of the entropy terms, written out: the
    products of ``WRITTEN_POWERS``, p**alpha at other degrees, or p log2 p
    (0 where p <= 0) at alpha = 1."""
    if alpha == 1.0:
        safe = np.where(p > 0.0, p, 1.0)
        return np.add.reduce(p * np.log2(safe), axis=axis)
    return np.add.reduce(WRITTEN_POWERS.get(alpha, lambda p: p**alpha)(p), axis=axis)


def row_major_scan(states, maps, alphas, deviations):
    """Per alpha, the (value, state index, map index) that a row-major
    argmax over (map, state) picks from ``deviations(images, clipped,
    alpha)``, freshly allocated for every 64-map block of clipped images:
    the largest value, then the earliest map, then the earliest state."""
    columns = np.ascontiguousarray(states.T)
    clipped = np.clip(columns, 0.0, 1.0)
    best = [(-1.0, 0, 0)] * len(alphas)
    for start in range(0, maps.shape[0], 64):
        block = maps[start : start + 64]
        images = (block.reshape(-1, 6) @ columns).reshape(block.shape[0], 6, -1)
        images = np.clip(images, 0.0, 1.0)
        for j, alpha in enumerate(alphas):
            dev = deviations(images, clipped, alpha)
            m_idx, s_idx = np.unravel_index(int(np.argmax(dev)), dev.shape)
            if dev[m_idx, s_idx] > best[j][0]:
                best[j] = (float(dev[m_idx, s_idx]), int(s_idx), start + int(m_idx))
    return best


def fresh_scan_deviations(states, maps, alphas):
    """scan_deviations as the row-major scan of the raw power-sum
    deviations |S(A p) - S(p)| (``written_power_sum``), each alpha's
    winner then scaled to an entropy by k / |alpha - 1|, and by k at
    alpha = 1: the block loop the buffers must reproduce."""

    def power_sums(images, clipped, alpha):
        return np.abs(written_power_sum(images, alpha, 1) - written_power_sum(clipped, alpha, 0))

    best = row_major_scan(states, maps, alphas, power_sums)
    measures = [EntropyMeasure(alpha) for alpha in alphas]
    scales = [m.k if m.alpha == 1.0 else m.k / abs(m.alpha - 1.0) for m in measures]
    return [(c * v, s_idx, m_idx) for c, (v, s_idx, m_idx) in zip(scales, best)]


def entropy_difference_scan(states, maps, alphas):
    """The row-major scan of |H_total(A p) - H_total(p)|, each total
    evaluated as -k S at alpha = 1 and k (3 - S) / (alpha - 1) elsewhere:
    the scan's definition before it compared power sums."""

    def total(p, alpha, axis):
        measure = EntropyMeasure(alpha)
        sums = written_power_sum(p, alpha, axis)
        if alpha == 1.0:
            return -measure.k * sums
        return measure.k * (3 - sums) / (alpha - 1.0)

    def entropies(images, clipped, alpha):
        return np.abs(total(images, alpha, 1) - total(clipped, alpha, 0))

    return row_major_scan(states, maps, alphas, entropies)


def hexed(scan):
    return [(dev.hex(), s, m) for dev, s, m in scan]


def force_slabs(monkeypatch, cores):
    """Make the next scans of M maps run in min(``cores``, M) slabs."""
    monkeypatch.setattr(transforms, "_SLAB_CELLS", 1)
    monkeypatch.setattr(transforms, "_usable_cores", lambda: cores)


def poison_last_map(monkeypatch):
    """Make the next scans report a NaN deviation for the first alpha of
    the slab that holds the last map.  The inputs are checked to be
    finite, so this stands for a NaN the kernel itself would make (an
    image product that overflows both ways)."""
    scan_slab = transforms._scan_slab

    def poisoned(maps, measures, first, last, *rest):
        cells = scan_slab(maps, measures, first, last, *rest)
        if last == maps.shape[0]:
            cells[0] = (math.nan, *cells[0][1:])
        return cells

    monkeypatch.setattr(transforms, "_scan_slab", poisoned)


def sector_depolarizer(sector):
    """Sends one sector's outcome pair to (1/2, 1/2), fixes the others."""
    a = np.eye(6)
    a[2 * sector : 2 * sector + 2, 2 * sector : 2 * sector + 2] = 0.5
    return a


def spy_slabs(monkeypatch):
    """Record (thread, (first map, last map + 1)) for every slab the next
    scans run."""
    calls = []
    scan_slab = transforms._scan_slab

    def spy(maps, measures, first, last, *rest):
        calls.append((threading.current_thread(), (first, last)))
        return scan_slab(maps, measures, first, last, *rest)

    monkeypatch.setattr(transforms, "_scan_slab", spy)
    return calls


class TestScanSlabs:
    """The map axis split into slabs.  The slab count is forced to 1-4
    by patching the slab size and the core count, so a one-core machine
    still runs the helpers and the merge."""

    @pytest.mark.parametrize("n_states", [1, 4, 5, 8, 9, 23])
    @pytest.mark.parametrize("n_maps", [1, 63, 64, 65, 130])
    @pytest.mark.parametrize("alphas", LADDER_GRIDS, ids=str)
    def test_every_slab_count_gives_the_fresh_bits(self, monkeypatch, n_states, n_maps, alphas):
        # the pure +x state and an exact quarter turn put exact zeros and
        # ones into the images; the last block is partial unless M = 64.
        # Every block's product covers every state, so each slab count,
        # one slab per map included, gives the one-product bits
        rng = np.random.default_rng(n_states * 1000 + n_maps)
        states = random_states_array(rng, n_states)
        states[0] = p6_from_means([1.0, 0.0, 0.0])
        rotations = random_rotations(rng, n_maps)
        rotations[n_maps // 2] = QUARTER_TURN_ROTATION
        maps = induced_from_rotations(rotations)
        expected = hexed(fresh_scan_deviations(states, maps, alphas))
        for cores in range(1, 5):
            force_slabs(monkeypatch, cores)
            assert hexed(scan_deviations(states, maps, alphas)) == expected, cores

    def test_more_helpers_than_cores_under_fast_thread_switching(self, monkeypatch):
        rng = np.random.default_rng(11)
        states = random_states_array(rng, 64)
        maps = induced_from_rotations(random_rotations(rng, 130))
        force_slabs(monkeypatch, 1)
        serial = hexed(scan_deviations(states, maps, SCAN_ALPHAS))
        force_slabs(monkeypatch, 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                assert hexed(scan_deviations(states, maps, SCAN_ALPHAS)) == serial
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("cores", [1, 2, 3, 4])
    def test_caller_scans_the_first_slab_and_one_helper_each_other(self, monkeypatch, cores):
        calls = spy_slabs(monkeypatch)
        force_slabs(monkeypatch, cores)
        rng = np.random.default_rng(cores)
        maps = induced_from_rotations(random_rotations(rng, 10))
        scan_deviations(random_states_array(rng, 3), maps, [2.0])
        runs = list(itertools.pairwise([10 * k // cores for k in range(cores + 1)]))
        assert len({thread for thread, _ in calls}) == cores
        assert (threading.current_thread(), runs[0]) in calls
        assert sorted(run for _, run in calls) == runs

    @pytest.mark.parametrize("n_maps", [1, 3])
    def test_fewer_maps_than_cores_run_one_slab_per_map(self, monkeypatch, n_maps):
        rng = np.random.default_rng(n_maps)
        states = random_states_array(rng, 9)
        maps = induced_from_rotations(random_rotations(rng, n_maps))
        force_slabs(monkeypatch, 1)
        serial = hexed(scan_deviations(states, maps, SCAN_ALPHAS))
        calls = spy_slabs(monkeypatch)
        force_slabs(monkeypatch, 4)
        assert hexed(scan_deviations(states, maps, SCAN_ALPHAS)) == serial
        assert sorted(run for _, run in calls) == [(k, k + 1) for k in range(n_maps)]

    @pytest.mark.parametrize(
        "n_states, n_maps, slabs",
        [(255, 64, 1), (256, 64, 2), (256, 200, 2), (4095, 4, 1), (4096, 4, 2), (10**4, 64, 2),
         (2 * 10**4, 1, 1)],
    )
    def test_a_slab_holds_at_least_a_full_block_over_128_states(
        self, monkeypatch, n_states, n_maps, slabs
    ):
        calls = spy_slabs(monkeypatch)
        monkeypatch.setattr(transforms, "_usable_cores", lambda: 2)
        states = np.full((n_states, 6), 0.5)
        scan_deviations(states, np.repeat(np.eye(6)[None], n_maps, axis=0), [2.0])
        edges = [n_maps * k // slabs for k in range(slabs + 1)]
        assert sorted(run for _, run in calls) == list(itertools.pairwise(edges))

    @pytest.mark.parametrize("cores", [2, 3, 4])
    def test_a_tie_across_slabs_goes_to_the_earliest_state(self, monkeypatch, cores):
        # pure +x at states 3-7 ties within each block, and maps 5 and 129
        # lie in the first and the last of 2, 3 and 4 slabs; all entries
        # are dyadic, so every copy of a cell has the same bits
        pure_x = [1.0, 0.0, 0.5, 0.5, 0.5, 0.5]
        states = np.array([[0.5] * 6] * 3 + [pure_x] * 5)
        maps = np.repeat(np.eye(6)[None], 130, axis=0)
        maps[[5, 129]] = np.kron(np.eye(3), np.full((2, 2), 0.5))
        force_slabs(monkeypatch, 1)
        serial = hexed(scan_deviations(states, maps, SCAN_ALPHAS))
        force_slabs(monkeypatch, cores)
        got = scan_deviations(states, maps, SCAN_ALPHAS)
        assert hexed(got) == serial
        assert hexed(fresh_scan_deviations(states, maps, SCAN_ALPHAS)) == serial
        for dev, s_idx, m_idx in got:
            assert dev == pytest.approx(1.0, abs=1e-12)
            assert (s_idx, m_idx) == (3, 5)

    def test_an_equal_value_in_two_slabs_goes_to_the_earlier_slabs_map(self, monkeypatch):
        # slab 0 (maps 0-4) peaks at map 2 on pure +y (state 1), slab 1
        # (maps 5-9) at map 7 on pure +x (state 0) with the same value; at
        # these degrees every term is dyadic, so the two peaks have the same
        # bits and only the tie rule decides, against the earlier state
        alphas = (1.0, 2.0, 3.0)
        states = np.array([[1.0, 0.0, 0.5, 0.5, 0.5, 0.5], [0.5, 0.5, 1.0, 0.0, 0.5, 0.5]])
        maps = np.repeat(np.eye(6)[None], 10, axis=0)
        maps[2] = sector_depolarizer(1)
        maps[7] = sector_depolarizer(0)
        force_slabs(monkeypatch, 1)
        serial = hexed(scan_deviations(states, maps, alphas))
        force_slabs(monkeypatch, 2)
        got = scan_deviations(states, maps, alphas)
        assert hexed(got) == serial
        assert [(s_idx, m_idx) for _, s_idx, m_idx in got] == [(1, 2)] * 3

    @pytest.mark.parametrize("cores", [2, 3, 4])
    def test_a_nan_in_the_last_slab_raises_the_serial_message(self, monkeypatch, cores):
        rng = np.random.default_rng(cores)
        states = random_states_array(rng, 8)
        maps = induced_from_rotations(random_rotations(rng, 70))
        poison_last_map(monkeypatch)
        force_slabs(monkeypatch, 1)
        with pytest.raises(ValueError, match="not finite") as serial:
            scan_deviations(states, maps, [2.0, 0.5])
        force_slabs(monkeypatch, cores)
        with pytest.raises(ValueError, match="not finite") as got:
            scan_deviations(states, maps, [2.0, 0.5])
        assert str(got.value) == str(serial.value) == (
            "total-uncertainty deviation is not finite at alpha=2.0"
        )

    @pytest.mark.parametrize("failing_slab", ["helper", "caller"])
    def test_a_slab_exception_reaches_the_caller(self, monkeypatch, capfd, failing_slab):
        caller = threading.get_ident()
        scan_slab = transforms._scan_slab

        def failing(*args):
            if (threading.get_ident() == caller) == (failing_slab == "caller"):
                raise FloatingPointError(f"{failing_slab} slab failed")
            return scan_slab(*args)

        monkeypatch.setattr(transforms, "_scan_slab", failing)
        force_slabs(monkeypatch, 3)
        rng = np.random.default_rng(0)
        maps = induced_from_rotations(random_rotations(rng, 3))
        running = threading.active_count()
        with pytest.raises(FloatingPointError, match=f"^{failing_slab} slab failed$"):
            scan_deviations(random_states_array(rng, 6), maps, [2.0])
        assert threading.active_count() == running
        assert capfd.readouterr().err == ""

    def test_core_count_without_an_affinity_call(self, monkeypatch):
        monkeypatch.delattr(transforms.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(transforms.os, "cpu_count", lambda: None)
        assert transforms._usable_cores() == 1
        monkeypatch.setattr(transforms.os, "cpu_count", lambda: 3)
        assert transforms._usable_cores() == 3


def test_import_leaves_concurrent_futures_unloaded():
    # the scan's helpers are plain threads; concurrent.futures would add
    # about 3 ms to every CLI start
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import onebit, onebit.cli; "
        "print('concurrent.futures' in sys.modules)"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-c", code, str(src)], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


#: numpy's AVX-512 loops: disabling them changes the SIMD loop of every
#: ufunc that has one, but not the bits of a square root or a multiply.
AVX512 = ("X86_V4", "AVX512_ICL", "AVX512_SPR")


def dispatched_avx512():
    """The AVX-512 features numpy both was built to dispatch and finds on
    this CPU."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:
        return []
    return [f for f in AVX512 if f in __cpu_dispatch__ and __cpu_features__.get(f)]


def test_table_degrees_scan_to_the_same_bits_without_avx512():
    # alpha = 1 is left out: its log2 is a SIMD loop.  At seed 3 a cube
    # from np.power reads 0x1.ep-49 in the alpha = 3 row with the AVX-512
    # loops and 0x1p-48 without
    features = dispatched_avx512()
    if not features:
        pytest.skip("numpy dispatches no AVX-512 loop here")
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); "
        "from onebit.transforms import invariance_scan; "
        "print([(r.max_deviation.hex(), r.argmax_state_id, r.argmax_map_id) "
        "for r in invariance_scan((0.5, 1.5, 2.0, 2.5, 3.0), 200, 40, 3)])"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    rows = []
    for disabled in ({}, {"NPY_DISABLE_CPU_FEATURES": " ".join(features)}):
        env = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
        env.update(OPENBLAS_NUM_THREADS="1", **disabled)
        done = subprocess.run(
            [sys.executable, "-c", code, str(src)],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert done.returncode == 0, done.stderr
        rows.append(done.stdout)
    assert rows[0] == rows[1]


def loop_project_params(theta):
    """Row-by-row scaling of every (c_u, M_u) with |c_u| + ||M_u|| > 1."""
    theta = theta.copy()
    for u in range(3):
        c_u = theta[u]
        row = theta[3 + 3 * u : 6 + 3 * u]
        total = abs(c_u) + float(np.linalg.norm(row))
        if total > 1.0:
            theta[u] = c_u / total
            theta[3 + 3 * u : 6 + 3 * u] = row / total
    return theta


def boundary_thetas(rng, count):
    """Parameter vectors whose rows lie inside (|c_u| + ||M_u|| < 1), on
    (scaled to the boundary, within rounding, or exactly dyadic) and
    outside the validity region."""
    thetas = rng.uniform(-1.0, 1.0, size=(count, 12))
    c = thetas[:, :3]
    m = thetas[:, 3:].reshape(count, 3, 3)
    total = np.abs(c) + np.linalg.norm(m, axis=2)
    kind = rng.integers(4, size=(count, 3))
    scale = np.select(
        [kind == 0, kind == 1, kind == 2],
        [total / rng.uniform(0.1, 0.99, size=total.shape), total, np.ones_like(total)],
        total / rng.uniform(1.01, 3.0, size=total.shape),
    )
    c /= scale
    m /= scale[:, :, None]
    exact = kind == 2
    c[exact] = 0.5
    m[exact] = [0.5, 0.0, 0.0]  # |c| + ||M|| = 1 exactly
    return thetas


class TestProjectParams:
    def test_matches_the_row_loop_bitwise(self):
        thetas = boundary_thetas(np.random.default_rng(31), 500)
        totals = np.abs(thetas[:, :3]) + np.linalg.norm(
            thetas[:, 3:].reshape(-1, 3, 3), axis=2
        )
        assert np.any(totals < 1.0) and np.any(totals > 1.0) and np.any(totals == 1.0)
        for theta in thetas:
            assert loop_project_params(theta).tobytes() == _project_params(theta).tobytes()


def scalar_objective(probes, base_norms, alpha):
    """The search objective of one parameter vector through its 6x6 map:
    mean alpha-norm deviation over the probes plus the per-row penalty."""

    def objective(theta):
        c = theta[:3]
        m = theta[3:].reshape(3, 3)
        a = _map_from_params(c, m)
        norms = np.sum(np.abs(probes @ a.T) ** alpha, axis=1) ** (1.0 / alpha)
        deviation = float(np.mean(np.abs(norms - base_norms)))
        penalty = 0.0
        for u in range(3):
            excess = abs(c[u]) + float(np.linalg.norm(m[u])) - 1.0
            if excess > 0.0:
                penalty += 10.0 * excess * excess
        return deviation + penalty

    return objective


def search_objectives(alpha, seed=0):
    """The batched objective and the 6x6-route reference on one probe set."""
    means = _probe_means(np.random.default_rng(seed))
    probes = p6_from_means(means)
    return (
        _norm_objective(means, alpha),
        scalar_objective(probes, alpha_norms(probes, alpha), alpha),
    )


class TestMeanValueObjective:
    def test_map_action_is_the_mean_value_affine_map(self):
        rng = np.random.default_rng(41)
        offsets = rng.uniform(-1.0, 1.0, size=(2000, 3))
        matrices = rng.uniform(-1.0, 1.0, size=(2000, 3, 3))
        means = rng.uniform(-1.0, 1.0, size=(2000, 3))
        lhs = (_map_from_params(offsets, matrices) @ p6_from_means(means)[:, :, None])[..., 0]
        rhs = p6_from_means(offsets + (matrices @ means[:, :, None])[..., 0])
        assert np.max(np.abs(lhs - rhs)) <= 1e-14

    def test_a_coordinate_moves_only_its_sector(self):
        # c_u and row M_u set the map's rows 2u and 2u + 1 alone, so a
        # coordinate move changes sector u of every probe's image
        theta = boundary_thetas(np.random.default_rng(51), 1)[0]
        before = _map_from_params(theta[:3], theta[3:].reshape(3, 3))
        for j in range(12):
            moved = theta.copy()
            moved[j] += 0.25
            after = _map_from_params(moved[:3], moved[3:].reshape(3, 3))
            changed = np.flatnonzero(np.any(after != before, axis=-1))
            u = j if j < 3 else (j - 3) // 3
            assert changed.tolist() == [2 * u, 2 * u + 1], j

    # below alpha = 1 the norm amplifies rounding at zero entries without
    # bound (|1e-17|**0.5 is 3e-9), so the two routes are compared at 1..3
    @pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0, 3.0])
    def test_batched_objective_matches_the_map_route(self, alpha):
        batched, scalar = search_objectives(alpha)
        thetas = boundary_thetas(np.random.default_rng(43), 300)
        thetas[::3] *= 1.7  # deep outside the validity region: penalty active
        values = batched(thetas)
        assert values.shape == (300,)
        expected = np.array([scalar(theta) for theta in thetas])
        assert np.any(expected > 1.0)  # some penalties dominate
        assert np.all(np.abs(values - expected) <= 1e-14 * np.maximum(1.0, expected))
        for theta, value in zip(thetas[:20], values[:20]):
            assert batched(theta[None])[0] == value

    @pytest.mark.parametrize("alpha", [0.01, 0.5, 1.0, 1.5, 2.0, 3.0, 1000.0])
    @pytest.mark.parametrize("seed", [0, 1, 42])
    def test_the_identity_scores_exactly_zero(self, alpha, seed):
        # the baseline norms come from the same term kernel and entry order
        # as every trial's, so the identity's images reproduce them bitwise
        score = _norm_objective(_probe_means(np.random.default_rng(seed)), alpha)
        values = score(np.concatenate([np.zeros(3), np.eye(3).ravel()])[None])
        assert values.shape == (1,) and values[0] == 0.0


def sequential_descent(theta0, objective, max_evals):
    """Coordinate descent scoring one trial per objective call: for each
    coordinate, +step then -step; the first improvement is taken and the
    sweep moves to the next coordinate; a sweep without one halves the
    step."""
    def score(theta):
        return float(objective(theta[None])[0])

    theta = theta0.copy()
    best = score(theta)
    evals = 1
    step = 0.1
    while step > 1e-10 and evals < max_evals and best > 1e-14:
        improved = False
        for i in range(theta.size):
            for delta in (step, -step):
                if evals >= max_evals:
                    break
                trial = theta.copy()
                trial[i] += delta
                value = score(trial)
                evals += 1
                if value < best:
                    theta, best = trial, value
                    improved = True
                    break
        if not improved:
            step *= 0.5
    converged = step <= 1e-10 or best <= 1e-14
    return theta, best, evals, converged


def descent_starts(rng):
    rotation = np.concatenate([np.zeros(3), random_rotation(rng).ravel()])
    permutation = np.concatenate([np.zeros(3), _SIGNED_PERMUTATIONS[13].ravel()])
    rows = rng.normal(size=(3, 3))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    radii = rng.uniform(0.0, 0.9, size=3)
    offsets = rng.uniform(-1.0, 1.0, size=3) * (1.0 - radii) * 0.9
    generic = np.concatenate([offsets, (rows * radii[:, None]).ravel()])
    # descends to the step floor, accepting trials, well inside 2000 evaluations
    perturbed = permutation + rng.normal(size=12) * 1e-3
    # every row outside the validity region: the penalty is active
    outside = rotation * 1.05
    outside[:3] = [0.3, 0.05, -0.2]
    return {
        "rotation": rotation,
        "permutation": permutation,
        "generic": generic,
        "perturbed": perturbed,
        "outside": outside,
    }


DESCENT_BUDGETS = (1, 2, 13, 25, 2000)


def assert_descent_matches_sequential(descent, alpha):
    objective, _ = search_objectives(alpha, seed=int(alpha))
    for kind, theta0 in descent_starts(np.random.default_rng(int(alpha))).items():
        for max_evals in DESCENT_BUDGETS:
            theta, value, evals, converged = descent(theta0, objective, max_evals)
            ref = sequential_descent(theta0, objective, max_evals)
            assert theta.tobytes() == ref[0].tobytes(), (kind, max_evals)
            assert (value, evals, converged) == ref[1:], (kind, max_evals)
            assert isinstance(evals, int) and isinstance(value, float)


class TestBatchedDescent:
    # every entry of the power table, and 1.7 for its np.power fallback
    @pytest.mark.parametrize("alpha", [0.5, 1.5, 1.7, 2.0, 2.5, 3.0])
    def test_matches_the_sequential_descent(self, alpha):
        assert_descent_matches_sequential(_coordinate_descent, alpha)


class TestSearchBudget:
    @pytest.mark.parametrize("alpha", [2.0, 3.0])
    @pytest.mark.parametrize("budget", [1, 525, 2100, 10000])
    def test_spends_exactly_the_budget(self, monkeypatch, alpha, budget):
        spent = []
        descent = transforms._coordinate_descent

        def counting(theta0, objective, max_evals):
            result = descent(theta0, objective, max_evals)
            spent.append(result[2])
            return result

        monkeypatch.setattr(transforms, "_coordinate_descent", counting)
        search_norm_preservers(alpha, budget, seed=11)
        assert sum(spent) == budget
        assert all(used <= 2000 for used in spent)

    def test_starts_cycle_rotation_permutation_generic(self, monkeypatch):
        starts = []

        def unconverged(theta0, objective, max_evals):
            starts.append(theta0)
            return theta0, math.inf, max_evals, False

        monkeypatch.setattr(transforms, "_coordinate_descent", unconverged)
        assert search_norm_preservers(3.0, 6 * 2000, seed=11) == []
        assert len(starts) == 6
        for attempt, theta0 in enumerate(starts):
            c, m = theta0[:3], theta0[3:].reshape(3, 3)
            kind = ("rotation", "permutation", "generic")[attempt % 3]
            if kind == "generic":
                assert np.all(np.linalg.norm(m, axis=1) < 0.9)
                assert np.all(np.abs(c) < 0.9)
                continue
            assert np.array_equal(c, np.zeros(3))
            assert np.allclose(m @ m.T, np.eye(3), atol=1e-12)
            is_permutation = any(np.array_equal(m, p) for p in SIGNED_PERMUTATIONS)
            assert is_permutation == (kind == "permutation"), attempt
            if kind == "rotation":
                assert np.linalg.det(m) == pytest.approx(1.0)
