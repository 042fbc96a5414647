"""Tests for the two-dimensional state over three complementary measurements."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onebit.measures import QUADRATIC, SHANNON
from onebit.qubit import (
    CANONICAL_FRAME,
    PHYSICAL_TOL,
    ComplementaryFrame,
    QubitState,
    _haar_q,
    is_pure,
    malus_probability,
    p6_from_means,
    probabilities_from_mean,
    random_mean_vectors,
    random_state,
    total_uncertainty_state,
)

from math_reference import HALF_OR_TWICE


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

    # a NaN gap compares False against the tolerance, so it must not pass;
    # an inf entry makes the gap NaN and a 1e200 one overflows it to inf,
    # both without a RuntimeWarning (an error under pytest)
    @pytest.mark.parametrize(
        "axes, start",
        [
            ([[1, 0, 0], [1, 0, 0], [0, 0, 1.0]], r"frame axes are not orthonormal \(gap 1\)$"),
            (np.full((3, 3), math.nan), r"frame axes are not orthonormal \(gap nan\)$"),
            (np.diag([math.inf, 1.0, 1.0]), r"frame axes are not orthonormal \(gap nan\)$"),
            (np.diag([1e200, 1.0, 1.0]), r"frame axes are not orthonormal \(gap inf\)$"),
            (np.eye(2), r"frame needs three 3-vectors, got shape \(2, 2\)$"),
        ],
        ids=["gap", "nan", "inf", "1e200", "shape"],
    )
    def test_rejects_non_orthonormal(self, axes, start):
        with pytest.raises(ValueError, match="^" + start):
            ComplementaryFrame(np.array(axes))


C = 1.0 / math.sqrt(2.0)
DIAGONAL_PAIR = ((1.0 + C) / 2.0, (1.0 - C) / 2.0)

#: (mean values, probabilities), each side exact from the other.
CONVERSIONS = {
    "certain-z": ([0.0, 0.0, 1.0], (0.5, 0.5, 0.5, 0.5, 1.0, 0.0)),
    "certain-x": ([1.0, 0.0, 0.0], (1.0, 0.0, 0.5, 0.5, 0.5, 0.5)),
    "half-x": ([0.5, 0.0, 0.0], (0.75, 0.25, 0.5, 0.5, 0.5, 0.5)),
    "mixed": ([0.0, 0.0, 0.0], (0.5,) * 6),
    "diagonal": ([C, 0.0, C], DIAGONAL_PAIR + (0.5, 0.5) + DIAGONAL_PAIR),
}


class TestProbabilityMeanConversion:
    @pytest.mark.parametrize("means, probs", CONVERSIONS.values(), ids=list(CONVERSIONS))
    def test_examples_both_ways(self, means, probs):
        assert probabilities_from_mean(means).probs == probs
        assert QubitState(probs).mean_values.tolist() == means

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


def assert_positive_qr(q, z):
    """q^dagger z is upper triangular with a positive real diagonal."""
    r = np.swapaxes(q.conj(), -1, -2) @ z
    np.testing.assert_allclose(np.tril(r, -1), 0.0, atol=1e-12)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    assert (diag.real > 0.0).all()
    np.testing.assert_allclose(diag.imag, 0.0, atol=1e-12)


class TestHaarPhaseFix:
    """The Q of the one QR whose R has a positive diagonal (Mezzadri 2007),
    whichever column phases the factorization chose."""

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_q_does_not_depend_on_the_qr_phases(self, monkeypatch, dtype):
        rng = np.random.default_rng(3)
        z = rng.normal(size=(4, 5, 5)).astype(dtype)
        if dtype is complex:
            z += 1j * rng.normal(size=z.shape)
            phases = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size=(4, 5)))
        else:
            phases = rng.choice([-1.0, 1.0], size=(4, 5))
        expected = _haar_q(z)
        assert_positive_qr(expected, z)
        qr = np.linalg.qr

        def rephased(a):
            # (Q D)(D* R) is a QR of the same matrices for any unit phases D
            q, r = qr(a)
            return q * phases[..., None, :], phases.conj()[..., :, None] * r

        monkeypatch.setattr(np.linalg, "qr", rephased)
        got = _haar_q(z)
        np.testing.assert_allclose(got, expected, atol=1e-12)
        assert_positive_qr(got, z)


class TestQubitStateValidation:
    @pytest.mark.parametrize(
        "build, probs, pattern",
        [
            (QubitState, (0.5, 0.6, 0.5, 0.5, 0.5, 0.5), r"sector x sums to 1\.1, not 1$"),
            (QubitState, (math.nan,) * 6, "sector x sums to nan, not 1$"),
            # sectors are fine but |m| = sqrt(3) > 1
            (QubitState.from_probabilities, (1, 0, 1, 0, 1, 0), "mean-value .*: not a physical"),
            (
                QubitState.from_probabilities,
                (1.1, -0.1, 0.5, 0.5, 0.5, 0.5),
                r"probabilities outside \[0, 1\]",
            ),
            (QubitState, (0.5,) * 4, "state needs 6 probabilities, got 4$"),
            (
                probabilities_from_mean,
                (0.0, 0.0),
                r"mean-value vector must have 3 components, got \(2,\)$",
            ),
        ],
        ids=["sector-sum", "nan", "unphysical", "out-of-range", "length", "mean-shape"],
    )
    def test_rejects(self, build, probs, pattern):
        with pytest.raises(ValueError, match="^" + pattern):
            build(probs)

    def test_from_probabilities_accepts_a_physical_state(self):
        probs = (1.0, 0.0, 0.5, 0.5, 0.5, 0.5)
        state = QubitState.from_probabilities(probs)
        assert state == QubitState(probs)
        assert state.probs == probs

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
    @pytest.mark.parametrize(
        "means, measure, total",
        [([0.0, 0.0, 1.0], QUADRATIC, 2.0), ([0.0, 0.0, 0.0], QUADRATIC, 3.0),
         ([1.0, 0.0, 0.0], SHANNON, 2.0)],
        ids=["pure-z", "mixed", "pure-x-shannon"],
    )
    def test_examples(self, means, measure, total):
        assert total_uncertainty_state(probabilities_from_mean(means), measure) == total

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


class TestPurity:
    @pytest.mark.parametrize(
        "means, pure",
        [([0.0, 0.0, 1.0], True), ([0.0, 0.0, 0.0], False), ([0.6, 0.8, 0.0], True)],
        ids=["axis", "mixed", "three-four-five"],
    )
    def test_examples(self, means, pure):
        assert is_pure(probabilities_from_mean(means)) == pure

    @HALF_OR_TWICE
    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["outside", "inside"])
    def test_tolerance_boundary(self, factor, ok, sign):
        assert is_pure(state_with_norm(1.0 + sign * factor * PHYSICAL_TOL)) == ok


class TestMalus:
    @pytest.mark.parametrize(
        "theta, p, tol", [(0.0, 1.0, 0.0), (math.pi, 0.0, 1e-12), (math.pi / 2.0, 0.5, 1e-12)],
        ids=["aligned", "opposite", "complementary"],
    )
    def test_examples(self, theta, p, tol):
        assert abs(malus_probability(theta) - p) <= tol

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

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            random_state(np.random.default_rng(0), "thermal")


def sequential_mean_vectors(rng, count, kind):
    """``count`` mean-value vectors drawn a normal 3-group at a time: redraw
    each group while its norm is below 1e-12 and normalize it; for mixed
    vectors, then scale every direction by the cube root of a uniform, all
    uniforms drawn after all the groups."""
    rows = []
    for _ in range(count):
        v = rng.normal(size=3)
        norm = float(np.linalg.norm(v))
        while norm < 1e-12:
            v = rng.normal(size=3)
            norm = float(np.linalg.norm(v))
        rows.append(v / norm)
    vectors = np.array(rows, float).reshape(count, 3)
    if kind == "mixed":
        vectors = vectors * rng.uniform(size=(count, 1)) ** (1.0 / 3.0)
    return vectors


class ZeroGroupStream:
    """Generator stand-in with a fixed stream: normal 3-groups 0, 2, 3 and
    5 are all zeros, and the uniforms come from a list of their own."""

    def __init__(self):
        rng = np.random.default_rng(5)
        self.groups = rng.normal(size=(8, 3))
        self.groups[[0, 2, 3, 5]] = 0.0
        self.normals = self.groups.ravel()
        self.uniforms = rng.uniform(size=8)

    def normal(self, size):
        n = int(np.prod(size))
        values, self.normals = self.normals[:n], self.normals[n:]
        return values.reshape(size)

    def uniform(self, size):
        n = int(np.prod(size))
        values, self.uniforms = self.uniforms[:n], self.uniforms[n:]
        return values.reshape(size)


class TestBatchedSampler:
    @pytest.mark.parametrize("kind", ["pure", "mixed"])
    @pytest.mark.parametrize("count", [0, 1, 2, 190])
    def test_matches_sequential_draws_bitwise(self, count, kind):
        batch_rng, loop_rng = np.random.default_rng(23), np.random.default_rng(23)
        got = random_mean_vectors(batch_rng, count, kind)
        expected = sequential_mean_vectors(loop_rng, count, kind)
        assert got.shape == (count, 3)
        assert got.tobytes() == expected.tobytes()
        assert batch_rng.bit_generator.state == loop_rng.bit_generator.state

    def test_single_draws_match_sequential_draws_bitwise(self):
        rng, loop_rng = np.random.default_rng(29), np.random.default_rng(29)
        for kind in ["pure", "mixed", "mixed", "pure"] * 25:
            got = random_mean_vectors(rng, 1, kind)
            assert got.tobytes() == sequential_mean_vectors(loop_rng, 1, kind).tobytes()
        assert rng.bit_generator.state == loop_rng.bit_generator.state

    @pytest.mark.parametrize("kind", ["pure", "mixed"])
    def test_degenerate_groups_are_redrawn_in_place(self, kind):
        # rows 0 and 2 of the first call (groups 0 and 2) are degenerate;
        # redrawing both gives row 0 group 3 (zero again) and row 2 group 4,
        # and row 0 then takes group 5 (zero) and group 6
        stream = ZeroGroupStream()
        uniforms = stream.uniforms
        got = random_mean_vectors(stream, 3, kind)
        kept = stream.groups[[6, 1, 4]]
        expected = kept / np.linalg.norm(kept, axis=1, keepdims=True)
        if kind == "mixed":
            expected *= uniforms[:3, None] ** (1.0 / 3.0)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-15)
        assert len(stream.normals) == 3
        assert len(stream.uniforms) == (8 if kind == "pure" else 5)

    def test_draws_are_uniform_on_the_sphere_and_in_the_ball(self):
        # n = 20000 draws per kind, seeded.  Radii: r**3 of a mixed draw is
        # the volume fraction, uniform on [0, 1]; its empirical CDF stays
        # within 0.02 of t with probability at least 1 - 2 exp(-2 n 0.02**2)
        # = 1 - 2.3e-7 (Dvoretzky-Kiefer-Wolfowitz), while r = sqrt(U)
        # gives r**3 the CDF t**(2/3), 0.148 from t at t = 8/27.
        # Directions: u u^T averages to I/3 for a uniform direction u; each
        # entry lies in [-1, 1], so each mean stays within 0.05 of I/3 with
        # probability at least 1 - 2 exp(-n 0.05**2 / 2) = 1 - 2.8e-11
        # (Hoeffding).
        n = 20_000
        rng = np.random.default_rng(2009)
        pure = random_mean_vectors(rng, n, "pure")
        mixed = random_mean_vectors(rng, n, "mixed")
        volume = np.sort(np.linalg.norm(mixed, axis=1) ** 3)
        steps = np.arange(n + 1) / n
        assert np.max(np.maximum(steps[1:] - volume, volume - steps[:-1])) <= 0.02
        for m in (pure, mixed):
            u = m / np.linalg.norm(m, axis=1, keepdims=True)
            np.testing.assert_allclose(u.T @ u / n, np.eye(3) / 3, rtol=0, atol=0.05)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            random_mean_vectors(np.random.default_rng(0), 3, "thermal")
