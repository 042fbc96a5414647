"""Tests for the two-dimensional state over three complementary measurements."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onebit.measures import QUADRATIC, SHANNON, normalized_measure, total_uncertainty
from onebit.qubit import (
    CANONICAL_FRAME,
    PHYSICAL_TOL,
    ComplementaryFrame,
    QubitState,
    is_pure,
    malus_probability,
    p6_from_means,
    probabilities_from_mean,
    random_mean_vectors,
    random_state,
    total_uncertainty_state,
)

#: Boundary cases for a tolerance constant: a violation of half the
#: constant passes, one of twice the constant is rejected.
HALF_OR_TWICE = pytest.mark.parametrize(
    "factor, ok", [(0.5, True), (2.0, False)], ids=["half-tol", "twice-tol"]
)


def state_with_norm(norm):
    """Unclipped state whose mean-value vector has the given norm, off the
    axes so that no entry leaves [0, 1] first."""
    return QubitState(tuple(p6_from_means(norm * np.array([0.6, 0.8, 0.0]))))


class TestFrames:
    def test_canonical_frame_is_proper(self):
        assert np.linalg.det(CANONICAL_FRAME.axes) == pytest.approx(1.0, abs=1e-12)

    def test_improper_frame_accepted(self):
        frame = ComplementaryFrame(np.diag([1.0, 1.0, -1.0]))
        assert np.linalg.det(frame.axes) == pytest.approx(-1.0, abs=1e-12)

    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError, match="orthonormal"):
            ComplementaryFrame(np.array([[1, 0, 0], [1, 0, 0], [0, 0, 1.0]]))

    def test_rejects_nan_axes(self):
        # a NaN gap compares False against the tolerance, so it must not pass
        with pytest.raises(ValueError, match="orthonormal"):
            ComplementaryFrame(np.full((3, 3), math.nan))


class TestProbabilityMeanConversion:
    def test_certainty_along_z(self):
        state = probabilities_from_mean([0.0, 0.0, 1.0])
        assert state.probs == (0.5, 0.5, 0.5, 0.5, 1.0, 0.0)

    def test_maximally_mixed(self):
        state = probabilities_from_mean([0.0, 0.0, 0.0])
        assert state.probs == (0.5,) * 6

    def test_diagonal_pure_state(self):
        c = 1.0 / math.sqrt(2.0)
        state = probabilities_from_mean([c, 0.0, c])
        expected = (1.0 + c) / 2.0
        assert state.probs[0] == pytest.approx(expected, abs=1e-15)
        assert state.probs[2] == pytest.approx(0.5, abs=1e-15)
        assert state.probs[4] == pytest.approx(expected, abs=1e-15)

    def test_mean_from_probabilities_examples(self):
        np.testing.assert_allclose(
            QubitState((1, 0, 0.5, 0.5, 0.5, 0.5)).mean_values,
            [1.0, 0.0, 0.0],
            atol=1e-15,
        )
        np.testing.assert_allclose(
            QubitState((0.5,) * 6).mean_values, [0.0, 0.0, 0.0], atol=1e-15
        )
        np.testing.assert_allclose(
            QubitState((0.75, 0.25, 0.5, 0.5, 0.5, 0.5)).mean_values,
            [0.5, 0.0, 0.0],
            atol=1e-15,
        )

    def test_round_trip_is_identity(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            state = random_state(rng, "mixed")
            back = probabilities_from_mean(state.mean_values)
            np.testing.assert_allclose(back.as_array, state.as_array, atol=1e-12)

    def test_rejects_unphysical_mean(self):
        with pytest.raises(ValueError, match="not a physical state"):
            probabilities_from_mean([1.0, 1.0, 0.0])

    @given(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3))
    @settings(max_examples=300, deadline=None)
    def test_round_trip_on_arbitrary_ball_vectors(self, raw):
        m = np.array(raw)
        norm = float(np.linalg.norm(m))
        if norm > 1.0:
            m = m / norm
        state = probabilities_from_mean(m)
        state.validate()
        np.testing.assert_allclose(state.mean_values, m, atol=1e-12)

    def test_complementarity_in_arbitrary_frames(self):
        # certainty along one frame axis forces even odds on the other two
        rng = np.random.default_rng(42)
        for _ in range(20):
            q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            frame = ComplementaryFrame(q)
            for axis in range(3):
                state = probabilities_from_mean(q[axis], frame)
                probs = state.probs
                assert probs[2 * axis] == pytest.approx(1.0, abs=1e-9)
                for other in range(3):
                    if other != axis:
                        assert probs[2 * other] == pytest.approx(0.5, abs=1e-9)


class TestQubitStateValidation:
    def test_rejects_bad_sector_sum(self):
        with pytest.raises(ValueError, match="sector"):
            QubitState((0.5, 0.6, 0.5, 0.5, 0.5, 0.5))

    def test_rejects_nan_entries(self):
        with pytest.raises(ValueError, match="sector"):
            QubitState((math.nan,) * 6)

    def test_from_probabilities_accepts_a_physical_state(self):
        probs = (1.0, 0.0, 0.5, 0.5, 0.5, 0.5)
        state = QubitState.from_probabilities(probs)
        assert state == QubitState(probs)
        assert state.probs == probs

    def test_from_probabilities_rejects_unphysical(self):
        # sectors are fine but |m| = sqrt(3) > 1
        with pytest.raises(ValueError, match="not a physical state"):
            QubitState.from_probabilities((1, 0, 1, 0, 1, 0))

    def test_from_probabilities_rejects_out_of_range(self):
        with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
            QubitState.from_probabilities((1.1, -0.1, 0.5, 0.5, 0.5, 0.5))

    @HALF_OR_TWICE
    def test_physicality_tolerance_boundary(self, factor, ok):
        state = state_with_norm(1.0 + factor * PHYSICAL_TOL)
        if ok:
            state.validate()
        else:
            with pytest.raises(ValueError, match="not a physical state"):
                state.validate()

    def test_diagnostic_construction_allows_out_of_range(self):
        state = QubitState((1.1, -0.1, 0.5, 0.5, 0.5, 0.5))
        assert state.probs[0] == 1.1
        with pytest.raises(ValueError):
            state.validate()


class TestTotalUncertainty:
    def test_pure_state_carries_one_bit(self):
        state = probabilities_from_mean([0.0, 0.0, 1.0])
        assert total_uncertainty_state(state, QUADRATIC) == pytest.approx(2.0, abs=1e-12)

    def test_maximally_mixed_is_three(self):
        state = probabilities_from_mean([0.0, 0.0, 0.0])
        assert total_uncertainty_state(state, QUADRATIC) == pytest.approx(3.0, abs=1e-12)

    def test_pure_x_shannon(self):
        state = probabilities_from_mean([1.0, 0.0, 0.0])
        assert total_uncertainty_state(state, SHANNON) == pytest.approx(2.0, abs=1e-12)

    def test_quadratic_closed_form(self):
        # H_total(alpha=2, k=2) = 3 - |m|^2, an exact algebraic identity
        rng = np.random.default_rng(42)
        for kind in ("pure", "mixed"):
            for _ in range(500):
                state = random_state(rng, kind)
                m = state.mean_values
                expected = 3.0 - float(m @ m)
                assert total_uncertainty_state(state, QUADRATIC) == pytest.approx(
                    expected, abs=1e-10
                )

    def test_range_of_quadratic_total(self):
        rng = np.random.default_rng(42)
        for _ in range(500):
            state = random_state(rng, "mixed")
            h = total_uncertainty_state(state, QUADRATIC)
            assert 2.0 - 1e-10 <= h <= 3.0 + 1e-10

    def test_agrees_with_measures_total(self):
        rng = np.random.default_rng(42)
        for alpha in (0.5, 1.0, 2.0, 3.0):
            measure = normalized_measure(alpha)
            for _ in range(50):
                state = random_state(rng, "mixed")
                p = state.probs
                pairs = [(p[0], p[1]), (p[2], p[3]), (p[4], p[5])]
                assert total_uncertainty_state(state, measure) == pytest.approx(
                    total_uncertainty(pairs, measure), abs=1e-12
                )


class TestPurity:
    def test_axis_pure(self):
        assert is_pure(probabilities_from_mean([0.0, 0.0, 1.0]))

    def test_mixed_not_pure(self):
        assert not is_pure(probabilities_from_mean([0.0, 0.0, 0.0]))

    def test_three_four_five_vector_is_pure(self):
        assert is_pure(probabilities_from_mean([0.6, 0.8, 0.0]))

    @HALF_OR_TWICE
    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["outside", "inside"])
    def test_tolerance_boundary(self, factor, ok, sign):
        assert is_pure(state_with_norm(1.0 + sign * factor * PHYSICAL_TOL)) == ok


class TestMalus:
    def test_aligned(self):
        assert malus_probability(0.0) == 1.0

    def test_opposite(self):
        assert malus_probability(math.pi) == pytest.approx(0.0, abs=1e-12)

    def test_complementary_axis(self):
        assert malus_probability(math.pi / 2.0) == pytest.approx(0.5, abs=1e-12)

    def test_matches_rotated_frame_probability(self):
        # measuring a pure-z state along a frame tilted by theta about y
        for theta in np.linspace(0.0, 2.0 * math.pi, 97):
            c, s = math.cos(theta), math.sin(theta)
            frame = ComplementaryFrame(
                np.array([[c, 0.0, -s], [0.0, 1.0, 0.0], [s, 0.0, c]])
            )
            state = probabilities_from_mean([0.0, 0.0, 1.0], frame)
            assert state.probs[4] == pytest.approx(malus_probability(theta), abs=1e-12)


class TestRandomStates:
    def test_pure_state_on_sphere(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            m = random_state(rng, "pure").mean_values
            assert abs(float(np.linalg.norm(m)) - 1.0) <= 1e-12

    def test_mixed_state_in_ball(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            m = random_state(rng, "mixed").mean_values
            assert float(np.linalg.norm(m)) <= 1.0 + 1e-12

    def test_deterministic_given_seed(self):
        a = random_state(np.random.default_rng(7), "mixed")
        b = random_state(np.random.default_rng(7), "mixed")
        assert a.probs == b.probs

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            random_state(np.random.default_rng(0), "thermal")


def sequential_mean_vector(rng, kind):
    """One mean-value vector drawn a normal 3-group at a time: redraw the
    group while its norm is below 1e-12, normalize it, and for a mixed
    vector scale it by the cube root of a uniform drawn after it."""
    v = rng.normal(size=3)
    norm = float(np.linalg.norm(v))
    while norm < 1e-12:
        v = rng.normal(size=3)
        norm = float(np.linalg.norm(v))
    v = v / norm
    if kind == "mixed":
        v = v * rng.uniform() ** (1.0 / 3.0)
    return v


class ZeroGroupStream:
    """Generator stand-in with a fixed stream: normal 3-groups 0, 2 and 3
    are all zeros, and the uniforms come from a list of their own."""

    def __init__(self):
        rng = np.random.default_rng(5)
        self.groups = rng.normal(size=(8, 3))
        self.groups[[0, 2, 3]] = 0.0
        self.normals = list(self.groups.ravel())
        self.uniforms = list(rng.uniform(size=8))

    def normal(self, size):
        n = int(np.prod(size))
        values, self.normals = self.normals[:n], self.normals[n:]
        return np.array(values).reshape(size)

    def uniform(self):
        return self.uniforms.pop(0)


class TestBatchedSampler:
    @pytest.mark.parametrize("kind", ["pure", "mixed"])
    @pytest.mark.parametrize("count", [0, 1, 2, 190])
    def test_matches_sequential_draws_bitwise(self, count, kind):
        batch_rng, loop_rng = np.random.default_rng(23), np.random.default_rng(23)
        got = random_mean_vectors(batch_rng, count, kind)
        expected = np.array(
            [sequential_mean_vector(loop_rng, kind) for _ in range(count)]
        ).reshape(count, 3)
        assert got.shape == (count, 3)
        assert got.tobytes() == expected.tobytes()
        assert batch_rng.bit_generator.state == loop_rng.bit_generator.state

    def test_single_draws_match_sequential_draws_bitwise(self):
        rng, loop_rng = np.random.default_rng(29), np.random.default_rng(29)
        for kind in ["pure", "mixed", "mixed", "pure"] * 25:
            got = random_mean_vectors(rng, 1, kind)[0]
            assert got.tobytes() == sequential_mean_vector(loop_rng, kind).tobytes()

    @pytest.mark.parametrize("kind", ["pure", "mixed"])
    def test_degenerate_groups_are_skipped_in_stream_order(self, kind):
        # pure: the first draw of 3 groups keeps group 1, the top-up of 2
        # keeps group 4 and the top-up of 1 takes group 5
        stream, loop_stream = ZeroGroupStream(), ZeroGroupStream()
        got = random_mean_vectors(stream, 3, kind)
        expected = [sequential_mean_vector(loop_stream, kind) for _ in range(3)]
        assert got.tobytes() == np.array(expected).tobytes()
        assert (stream.normals, stream.uniforms) == (loop_stream.normals, loop_stream.uniforms)
        kept = stream.groups[[1, 4, 5]]
        directions = got / np.linalg.norm(got, axis=1, keepdims=True)
        np.testing.assert_allclose(
            directions, kept / np.linalg.norm(kept, axis=1, keepdims=True), atol=1e-15
        )

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            random_mean_vectors(np.random.default_rng(0), 3, "thermal")
