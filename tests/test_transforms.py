"""Tests for induced maps, invariance scans, and the norm-preserver search."""

import itertools
import math
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from onebit import transforms
from onebit.measures import QUADRATIC, EntropyMeasure, entropy_sum
from onebit.qubit import SECTOR_TOL, QubitState, p6_from_means, random_state
from onebit.transforms import (
    _SIGNED_PERMUTATIONS,
    ORTHO_TOL,
    PERMUTATION_TOL,
    InducedMap,
    _alpha_norms,
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
    diagonal_minus_axis,
    exact_scan_supremum,
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


SCAN_ALPHAS = (0.5, 1.0, 1.5, 2.0, 3.0)


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
            (lambda: induced_from_rotation(np.eye(2)), r"rotation must be 3x3, got shape \(2, 2\)$"),
            (
                lambda: induced_from_rotations(np.eye(3)),
                r"rotations must have shape \(n, 3, 3\), got \(3, 3\)$",
            ),
            (lambda: InducedMap(np.eye(5)), r"induced map must be 6x6, got shape \(5, 5\)$"),
        ],
        ids=["non-orthogonal", "rotation-shape", "rotations-shape", "map-shape"],
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

    def test_non_finite_deviation_raises(self):
        states = np.array([[0.5] * 6, [math.nan] * 6])
        with pytest.raises(ValueError, match="not finite"):
            scan_deviations(states, np.eye(6)[None], [2.0])

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
        ],
        ids=["empty-grid", "negative-states", "negative-maps", "no-states", "no-maps"],
    )
    def test_rejects(self, call, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()


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

    @pytest.mark.parametrize("alpha", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_alpha_that_is_not_positive_and_finite(self, alpha):
        with pytest.raises(ValueError, match="positive and finite"):
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


def fresh_scan_deviations(states, maps, alphas, bounds=None):
    """scan_deviations with every block's images, every alpha's entropy
    terms and every deviation freshly allocated, the entropy written out
    as p**alpha or p log2 p: the block loop the buffers must reproduce.
    ``bounds`` (state offsets, 0 first and S last) takes each block's
    product over those runs of states instead of all at once."""
    columns = np.ascontiguousarray(states.T)
    clipped = np.clip(columns, 0.0, 1.0)
    bounds = bounds or [0, states.shape[0]]

    def total(p, measure, axis):
        if measure.alpha == 1.0:
            safe = np.where(p > 0.0, p, 1.0)
            return -measure.k * np.add.reduce(p * np.log2(safe), axis=axis)
        powers = np.add.reduce(p**measure.alpha, axis=axis)
        return measure.k * (3 - powers) / (measure.alpha - 1.0)

    measures = [EntropyMeasure(alpha) for alpha in alphas]
    best = [(-1.0, 0, 0)] * len(measures)
    for start in range(0, maps.shape[0], 64):
        block = maps[start : start + 64]
        flat = block.reshape(-1, 6)
        runs = [flat @ columns[:, a:b].copy() for a, b in itertools.pairwise(bounds)]
        images = np.concatenate(runs, axis=1).reshape(block.shape[0], 6, -1)
        images = np.clip(images, 0.0, 1.0)
        for j, measure in enumerate(measures):
            dev = np.abs(total(images, measure, 1) - total(clipped, measure, 0))
            m_idx, s_idx = np.unravel_index(int(np.argmax(dev)), dev.shape)
            if dev[m_idx, s_idx] > best[j][0]:
                best[j] = (float(dev[m_idx, s_idx]), int(s_idx), start + int(m_idx))
    return best


def hexed(scan):
    return [(dev.hex(), s, m) for dev, s, m in scan]


def force_slabs(monkeypatch, cores):
    """Make the next scans run in ``cores`` slabs (every test scans at
    least ``cores`` states)."""
    monkeypatch.setattr(transforms, "_SLAB_CELLS", 1)
    monkeypatch.setattr(transforms, "_usable_cores", lambda: cores)


def sector_depolarizer(sector):
    """Sends one sector's outcome pair to (1/2, 1/2), fixes the others."""
    a = np.eye(6)
    a[2 * sector : 2 * sector + 2, 2 * sector : 2 * sector + 2] = 0.5
    return a


def spy_slabs(monkeypatch):
    """Record (thread, slab width) for every slab the next scans run."""
    calls = []
    scan_slab = transforms._scan_slab

    def spy(maps, measures, offset, columns, *buffers):
        calls.append((threading.current_thread(), columns.shape[1]))
        return scan_slab(maps, measures, offset, columns, *buffers)

    monkeypatch.setattr(transforms, "_scan_slab", spy)
    return calls


class TestScanSlabs:
    """The state axis split into slabs.  The slab count is forced to 1-4
    by patching the slab size and the core count, so a one-core machine
    still runs the helpers and the merge."""

    @pytest.mark.parametrize("n_states", [1, 4, 5, 8, 9, 23])
    @pytest.mark.parametrize("n_maps", [1, 63, 64, 65, 130])
    def test_every_slab_count_gives_the_fresh_bits(self, monkeypatch, n_states, n_maps):
        # the pure +x state and an exact quarter turn put exact zeros and
        # ones into the images; the last block is partial unless M = 64.
        # Slabs of two states or more give the one-product bits.  A
        # one-state slab's product is a matrix-vector one, which BLAS may
        # round differently, so its cells get that product's bits (a scan
        # the library runs splits only into slabs of 128 states or more)
        rng = np.random.default_rng(n_states * 1000 + n_maps)
        states = random_states_array(rng, n_states)
        states[0] = p6_from_means([1.0, 0.0, 0.0])
        rotations = random_rotations(rng, n_maps)
        rotations[n_maps // 2] = QUARTER_TURN_ROTATION
        maps = induced_from_rotations(rotations)
        for cores in range(1, min(4, n_states) + 1):
            slabs = itertools.pairwise([n_states * k // cores for k in range(cores + 1)])
            singles = {edge for a, b in slabs if b - a == 1 for edge in (a, b)}
            bounds = sorted({0, n_states} | singles)
            expected = hexed(fresh_scan_deviations(states, maps, SCAN_ALPHAS, bounds))
            force_slabs(monkeypatch, cores)
            assert hexed(scan_deviations(states, maps, SCAN_ALPHAS)) == expected, cores

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
        maps = induced_from_rotations(random_rotations(rng, 3))
        scan_deviations(random_states_array(rng, 10), maps, [2.0])
        widths = [10 * (k + 1) // cores - 10 * k // cores for k in range(cores)]
        assert len({thread for thread, _ in calls}) == cores
        assert (threading.current_thread(), widths[0]) in calls
        assert sorted(width for _, width in calls) == sorted(widths)

    @pytest.mark.parametrize(
        "n_states, n_maps, slabs",
        [(255, 64, 1), (256, 64, 2), (256, 200, 2), (4095, 4, 1), (4096, 4, 2), (10**4, 64, 2)],
    )
    def test_a_slab_holds_at_least_a_full_block_over_128_states(
        self, monkeypatch, n_states, n_maps, slabs
    ):
        calls = spy_slabs(monkeypatch)
        monkeypatch.setattr(transforms, "_usable_cores", lambda: 2)
        states = np.full((n_states, 6), 0.5)
        scan_deviations(states, np.repeat(np.eye(6)[None], n_maps, axis=0), [2.0])
        assert len(calls) == slabs

    @pytest.mark.parametrize("cores", [2, 3, 4])
    def test_a_tie_across_slabs_goes_to_the_earliest_state(self, monkeypatch, cores):
        # pure +x at states 3-7, so the tie straddles every slab boundary
        # for 2, 3 and 4 slabs; all entries are dyadic, so every copy of a
        # cell has the same bits
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

    def test_an_equal_value_at_an_earlier_map_in_a_later_slab_wins(self, monkeypatch):
        # slab 0 (pure +x) peaks at map 7, slab 1 (pure +y) at map 5 with the
        # same value; at these degrees every term is dyadic, so the two
        # peaks have the same bits and only the tie rule decides
        alphas = (1.0, 2.0, 3.0)
        states = np.array([[1.0, 0.0, 0.5, 0.5, 0.5, 0.5], [0.5, 0.5, 1.0, 0.0, 0.5, 0.5]])
        maps = np.repeat(np.eye(6)[None], 10, axis=0)
        maps[7] = sector_depolarizer(0)
        maps[5] = sector_depolarizer(1)
        force_slabs(monkeypatch, 1)
        serial = hexed(scan_deviations(states, maps, alphas))
        force_slabs(monkeypatch, 2)
        got = scan_deviations(states, maps, alphas)
        assert hexed(got) == serial
        assert [(s_idx, m_idx) for _, s_idx, m_idx in got] == [(1, 5)] * 3

    @pytest.mark.parametrize("cores", [2, 3, 4])
    def test_a_nan_in_the_last_slab_raises_the_serial_message(self, monkeypatch, cores):
        rng = np.random.default_rng(cores)
        states = random_states_array(rng, 8)
        states[-1] = math.nan
        maps = induced_from_rotations(random_rotations(rng, 70))
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
    base_norms = _alpha_norms(probes, alpha)
    return (
        _norm_objective(means, base_norms, alpha),
        scalar_objective(probes, base_norms, alpha),
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

    def test_axis_arguments_match_the_default_layout_bitwise(self):
        rng = np.random.default_rng(47)
        means = rng.uniform(-1.0, 1.0, size=(5, 96, 3))
        p6 = p6_from_means(means)
        assert np.array_equal(p6_from_means(means.swapaxes(1, 2), axis=1), p6.swapaxes(1, 2))
        assert np.array_equal(p6_from_means(means[0].T, axis=0), p6[0].T)
        for alpha in (0.5, 1.0, 2.0, 3.0):
            norms = _alpha_norms(p6, alpha)
            assert np.array_equal(_alpha_norms(p6.swapaxes(1, 2), alpha, axis=1), norms)
            assert np.array_equal(
                _alpha_norms(np.ascontiguousarray(p6.swapaxes(1, 2)), alpha, axis=1), norms
            )


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
    return {
        "rotation": rotation,
        "permutation": permutation,
        "generic": generic,
        "perturbed": perturbed,
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
    @pytest.mark.parametrize("alpha", [2.0, 3.0])
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
