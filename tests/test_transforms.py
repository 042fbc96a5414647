"""Tests for induced maps, invariance scans, and the norm-preserver search."""

import itertools
import math

import numpy as np
import pytest

from onebit.measures import normalized_measure
from onebit.qubit import (
    QubitState,
    probabilities_from_mean,
    random_state,
    total_uncertainty_state,
)
from onebit.transforms import (
    InducedMap,
    _map_from_params,
    alpha_norm,
    alpha_norm_deviation,
    apply,
    example_permutation_map,
    induced_from_rotation,
    induced_from_rotations,
    invariance_scan,
    is_permutation_type,
    is_sector_stochastic,
    permutation_distance,
    random_rotation,
    random_rotations,
    scan_deviations,
    search_norm_preservers,
    sector_permutation_maps,
    total_uncertainty_p6,
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


SCAN_ALPHAS = (0.5, 1.0, 1.5, 2.0, 3.0)


def loop_rotation(rng, reflections):
    """Per-matrix Haar sampler: QR of one 3x3 normal draw, sign fix, and a
    column flip for determinant -1 when reflections are excluded."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.where(np.diag(r) >= 0.0, 1.0, -1.0)
    if not reflections and np.linalg.det(q) < 0.0:
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

    def test_rejects_non_orthogonal(self):
        with pytest.raises(ValueError, match="orthogonal"):
            induced_from_rotation(np.full((3, 3), 0.5))

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

    def test_reflection_requires_flag(self):
        reflection = np.diag([1.0, 1.0, -1.0])
        induced = induced_from_rotation(reflection)
        assert is_sector_stochastic(induced).ok
        rng = np.random.default_rng(42)
        dets = [np.linalg.det(random_rotation(rng)) for _ in range(50)]
        assert all(d > 0 for d in dets)
        dets = [np.linalg.det(random_rotation(rng, reflections=True)) for _ in range(50)]
        assert any(d < 0 for d in dets)

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
    @pytest.mark.parametrize("reflections", [False, True])
    def test_batch_matches_sequential_draws(self, reflections):
        batch = random_rotations(np.random.default_rng(9), 256, reflections)
        loop_rng = np.random.default_rng(9)
        loop = np.array([loop_rotation(loop_rng, reflections) for _ in range(256)])
        call_rng = np.random.default_rng(9)
        calls = np.array([random_rotation(call_rng, reflections) for _ in range(256)])
        assert np.array_equal(batch, loop)
        assert np.array_equal(batch, calls)
        dets = np.linalg.det(batch)
        if reflections:
            assert np.any(dets < 0.0)
        else:
            assert np.all(dets > 0.0)

    def test_batched_embedding_matches_per_map(self):
        rots = random_rotations(np.random.default_rng(9), 64, reflections=True)
        batch = induced_from_rotations(rots)
        assert batch.shape == (64, 6, 6)
        for rot, a in zip(rots, batch):
            assert np.array_equal(a, loop_embedding(rot))
            assert np.array_equal(a, induced_from_rotation(rot).matrix)

    def test_signed_permutations_embed_exactly(self):
        perms = np.array(
            [
                np.eye(3)[list(order)] * np.array(signs)[:, None]
                for order in itertools.permutations(range(3))
                for signs in itertools.product((1.0, -1.0), repeat=3)
            ]
        )
        family = {m.matrix.tobytes() for m in sector_permutation_maps()}
        batch = induced_from_rotations(perms)
        assert {a.tobytes() for a in batch} == family

    def test_one_non_orthogonal_entry_rejects_the_batch(self):
        rots = random_rotations(np.random.default_rng(9), 5)
        rots[3] = np.full((3, 3), 0.5)
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
            before = total_uncertainty_p6(state.as_array, 2.0, 2.0)
            after = total_uncertainty_p6(apply(induced, state).as_array, 2.0, 2.0)
            assert abs(after - before) <= 1e-10

    def test_rejects_non_stochastic_map(self):
        bad = np.eye(6)
        bad[0, 0] = 2.0
        state = QubitState((0.7, 0.3, 0.5, 0.5, 0.5, 0.5))
        with pytest.raises(ValueError, match="sector-stochastic"):
            apply(InducedMap(bad), state)


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

    def test_contraction_passes(self):
        # shrinking toward the maximally mixed state is stochastic
        half = induced_from_rotation(np.eye(3)).matrix * 0.0
        half = 0.5 * np.eye(6) + 0.5 * np.full((6, 6), 1.0 / 6.0)
        assert is_sector_stochastic(InducedMap(half)).ok


class TestAlphaNorms:
    def test_one_norm_of_states_is_three(self):
        rng = np.random.default_rng(42)
        states = random_states_array(rng, 100)
        for row in states:
            assert alpha_norm(row, 1.0) == pytest.approx(3.0, abs=1e-12)

    def test_rotations_preserve_two_norm(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            induced = induced_from_rotation(random_rotation(rng))
            state = random_state(rng, "mixed")
            assert alpha_norm_deviation(induced, state, 2.0) <= 1e-10

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 3.0, 5.0])
    def test_quarter_turn_preserves_every_norm(self, alpha):
        rng = np.random.default_rng(42)
        quarter = example_permutation_map()
        for _ in range(100):
            state = random_state(rng, "mixed")
            assert alpha_norm_deviation(quarter, state, alpha) <= 1e-12

    def test_one_norm_always_preserved(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            induced = induced_from_rotation(random_rotation(rng))
            state = random_state(rng, "mixed")
            assert alpha_norm_deviation(induced, state, 1.0) <= 1e-12


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
        h3 = total_uncertainty_p6(states, 3.0, 8.0 / 3.0)
        h2 = total_uncertainty_p6(states, 2.0, 2.0)
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

    def test_matches_cellwise_oracle(self):
        # 130 maps: two full 64-map blocks and a partial third
        rng = np.random.default_rng(5)
        states = random_states_array(rng, 10)
        maps = induced_from_rotations(random_rotations(rng, 130))
        got = scan_deviations(states, maps, SCAN_ALPHAS)
        for alpha, (dev, s_idx, m_idx) in zip(SCAN_ALPHAS, got):
            measure = normalized_measure(alpha)
            table = np.array(
                [
                    [
                        abs(
                            total_uncertainty_state(QubitState(tuple(a @ p)), measure)
                            - total_uncertainty_state(QubitState(tuple(p)), measure)
                        )
                        for p in states
                    ]
                    for a in maps
                ]
            )
            assert dev == pytest.approx(table.max(), abs=1e-12)
            assert dev == pytest.approx(table[m_idx, s_idx], abs=1e-12)
            if alpha not in (2.0, 3.0):  # elsewhere every cell is rounding noise
                assert (m_idx, s_idx) == np.unravel_index(table.argmax(), table.shape)

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

    def test_deterministic_given_seed(self):
        a = invariance_scan([1.0, 2.0], 50, 10, seed=11)
        b = invariance_scan([1.0, 2.0], 50, 10, seed=11)
        assert a == b

    def test_worst_shannon_case_is_the_probe_pair(self):
        # with no sampling at all, the 45-degree probe on a pure state
        # realizes the hand-computed worst case 2 h((1 + 1/sqrt(2))/2) - 1
        reports = invariance_scan([1.0], 0, 0, seed=0)
        p = (1.0 + 1.0 / math.sqrt(2.0)) / 2.0
        h = -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))
        assert reports[0].max_deviation == pytest.approx(2.0 * h - 1.0, abs=1e-12)
        assert reports[0].argmax_map_id.startswith("probe:rot45")

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError, match="nonempty"):
            invariance_scan([], 10, 10, seed=0)


class TestPermutationFamily:
    def test_family_has_48_distinct_members(self):
        mats = [m.matrix.tobytes() for m in sector_permutation_maps()]
        assert len(mats) == 48
        assert len(set(mats)) == 48

    def test_all_members_are_sector_stochastic_permutations(self):
        for member in sector_permutation_maps():
            assert is_sector_stochastic(member).ok
            assert is_permutation_type(member)
            assert permutation_distance(member) == 0.0

    def test_quarter_turn_is_permutation_type(self):
        assert is_permutation_type(example_permutation_map())

    def test_identity_is_permutation_type(self):
        assert is_permutation_type(InducedMap(np.eye(6)))

    def test_thirty_degree_rotation_is_not(self):
        rot = np.array(
            [
                [math.cos(math.pi / 6), -math.sin(math.pi / 6), 0.0],
                [math.sin(math.pi / 6), math.cos(math.pi / 6), 0.0],
                [0.0, 0.0, 1.0],
            ]
        )
        induced = induced_from_rotation(rot)
        assert not is_permutation_type(induced)
        assert permutation_distance(induced) > 0.1


class TestSearchNormPreservers:
    def test_zero_budget_returns_empty(self):
        assert search_norm_preservers(3.0, 0, seed=0) == []

    @pytest.mark.parametrize("alpha", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_alpha_that_is_not_positive_and_finite(self, alpha):
        with pytest.raises(ValueError, match="positive and finite"):
            search_norm_preservers(alpha, 10, seed=0)

    def test_alpha_two_finds_non_permutation_preservers(self):
        candidates = search_norm_preservers(2.0, 2000, seed=7)
        assert candidates
        non_perm = [c for c in candidates if c.permutation_distance > 1e-6]
        assert non_perm
        for cand in candidates:
            assert cand.residual < 1e-6
            assert is_sector_stochastic(cand.map).ok

    def test_alpha_three_candidates_are_permutation_like(self):
        candidates = search_norm_preservers(3.0, 10000, seed=7)
        assert candidates
        for cand in candidates:
            assert cand.permutation_distance <= 1e-6

    def test_rotations_deviate_on_the_probe_domain_at_alpha_three(self):
        # the probe set spans the full sector-consistent cube, where the
        # cubic norm does separate rotations from permutations
        from onebit.transforms import _probe_vectors

        rng = np.random.default_rng(42)
        probes = _probe_vectors(rng)
        base = np.sum(np.abs(probes) ** 3.0, axis=1) ** (1.0 / 3.0)
        worst = 0.0
        for _ in range(20):
            a = induced_from_rotation(random_rotation(rng)).matrix
            norms = np.sum(np.abs(probes @ a.T) ** 3.0, axis=1) ** (1.0 / 3.0)
            worst = max(worst, float(np.mean(np.abs(norms - base))))
        assert worst > 1e-4

    def test_deterministic_given_seed(self):
        a = search_norm_preservers(2.0, 1000, seed=3)
        b = search_norm_preservers(2.0, 1000, seed=3)
        assert len(a) == len(b)
        for ca, cb in zip(a, b):
            assert np.array_equal(ca.map.matrix, cb.map.matrix)
            assert ca.residual == cb.residual
