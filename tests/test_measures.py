"""Unit and property tests for the degree-alpha entropy family."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onebit.measures import (
    DIST_TOL,
    QUADRATIC,
    SHANNON,
    EntropyMeasure,
    _entropy_sum,
    entropy,
    entropy_sum,
    pair_entropy,
    total_uncertainty,
    validate_distribution,
)
from onebit.qubit import QubitState, random_state, total_uncertainty_state
from onebit.transforms import total_uncertainty_p6

from math_reference import HALF_OR_TWICE, math_entropy_sum


class TestEntropyValues:
    def test_fair_coin_quadratic_is_one_bit(self):
        assert entropy([0.5, 0.5], QUADRATIC) == pytest.approx(1.0, abs=1e-15)

    def test_deterministic_is_zero(self):
        assert entropy([1.0, 0.0], QUADRATIC) == 0.0

    def test_fair_coin_shannon_is_one_bit(self):
        assert entropy([0.5, 0.5], SHANNON) == pytest.approx(1.0, abs=1e-15)

    def test_quarter_three_quarter_quadratic(self):
        # 2 (1 - 0.0625 - 0.5625) = 0.75
        assert entropy([0.25, 0.75], QUADRATIC) == pytest.approx(0.75, abs=1e-15)

    def test_zero_log_zero_convention(self):
        assert entropy([0.0, 1.0], SHANNON) == 0.0

    def test_longer_distributions(self):
        assert entropy([0.25] * 4, SHANNON) == pytest.approx(2.0, abs=1e-12)
        assert entropy([0.25] * 4, QUADRATIC) == pytest.approx(1.5, abs=1e-12)


class TestNormalizedMeasure:
    def test_alpha_two_gives_k_two(self):
        measure = EntropyMeasure(2.0)
        assert measure.k == pytest.approx(2.0, abs=1e-15)

    def test_alpha_one_is_shannon(self):
        measure = EntropyMeasure(1.0)
        assert measure.alpha == 1.0
        assert measure.k == 1.0

    def test_alpha_three_k(self):
        # solve H((1/2, 1/2)) = 1: k = 2 / (1 - 1/4) = 8/3
        assert EntropyMeasure(3.0).k == pytest.approx(8.0 / 3.0, rel=1e-15)

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0])
    def test_fair_pair_scores_exactly_one(self, alpha):
        measure = EntropyMeasure(alpha)
        assert pair_entropy(0.5, measure) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(ValueError):
            EntropyMeasure(0.0)
        with pytest.raises(ValueError):
            EntropyMeasure(-1.0)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf])
    def test_rejects_non_finite_alpha(self, alpha):
        with pytest.raises(ValueError, match="finite"):
            EntropyMeasure(alpha)

    def test_measure_invariants(self):
        with pytest.raises(ValueError):
            EntropyMeasure(alpha=-0.5)


class TestTotalUncertainty:
    def test_pure_state_pairs_total_two(self):
        pairs = [(1.0, 0.0), (0.5, 0.5), (0.5, 0.5)]
        assert total_uncertainty(pairs, QUADRATIC) == pytest.approx(2.0, abs=1e-12)

    def test_maximally_mixed_pairs_total_three(self):
        pairs = [(0.5, 0.5)] * 3
        assert total_uncertainty(pairs, QUADRATIC) == pytest.approx(3.0, abs=1e-12)

    def test_empty_sum(self):
        assert total_uncertainty([], QUADRATIC) == 0.0

    def test_rejects_a_non_binary_pair(self):
        pairs = [(0.5, 0.5), (0.2, 0.3, 0.5)]
        with pytest.raises(ValueError, match="expected binary pairs, got length 3"):
            total_uncertainty(pairs, QUADRATIC)

    def test_seven_measurement_set(self):
        # one deterministic measurement, the rest fully random
        pairs = [(1.0, 0.0)] + [(0.5, 0.5)] * 6
        assert total_uncertainty(pairs, QUADRATIC) == pytest.approx(6.0, abs=1e-12)


class TestValidation:
    def test_rejects_negative_entry(self):
        with pytest.raises(ValueError, match="outside"):
            entropy([-0.1, 1.1], QUADRATIC)

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="sum"):
            entropy([0.5, 0.6], QUADRATIC)

    def test_renormalizes_within_tolerance(self):
        probs = validate_distribution([0.5 + 4e-10, 0.5 + 4e-10])
        assert probs.sum() == pytest.approx(1.0, abs=1e-15)

    def test_rejects_scalar_and_singleton(self):
        with pytest.raises(ValueError):
            validate_distribution([1.0])

    @HALF_OR_TWICE
    @pytest.mark.parametrize(
        "violate, match",
        [(lambda e: [0.5 + e / 2, 0.5 + e / 2], "sum"), (lambda e: [-e, 1.0 + e], "outside")],
        ids=["sum", "range"],
    )
    def test_tolerance_boundary(self, factor, ok, violate, match):
        probs = violate(factor * DIST_TOL)
        if ok:
            assert validate_distribution(probs).sum() == pytest.approx(1.0, abs=1e-15)
        else:
            with pytest.raises(ValueError, match=match):
                validate_distribution(probs)


class TestProperties:
    @given(
        st.lists(st.floats(0.01, 1.0), min_size=2, max_size=5),
        st.lists(st.floats(0.01, 1.0), min_size=2, max_size=5),
        st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]),
    )
    @settings(max_examples=200, deadline=None)
    def test_pseudoadditivity(self, raw_a, raw_b, alpha):
        """H(AB)/k = H(A)/k + H(B)/k + (1 - alpha) H(A)/k H(B)/k for
        independent distributions."""
        a = np.array(raw_a) / sum(raw_a)
        b = np.array(raw_b) / sum(raw_b)
        joint = np.outer(a, b).ravel()
        measure = EntropyMeasure(alpha)
        ha = entropy(a, measure) / measure.k
        hb = entropy(b, measure) / measure.k
        hab = entropy(joint, measure) / measure.k
        assert hab == pytest.approx(ha + hb + (1.0 - alpha) * ha * hb, abs=1e-9)

    @given(st.lists(st.floats(0.001, 1.0), min_size=2, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_entropy_nonnegative(self, raw):
        p = np.array(raw) / sum(raw)
        for alpha in (0.5, 1.0, 2.0, 3.0):
            assert entropy(p, EntropyMeasure(alpha)) >= -1e-12

    def test_zero_iff_deterministic(self):
        for alpha in (0.5, 1.0, 1.5, 2.0, 3.0):
            measure = EntropyMeasure(alpha)
            for n in (2, 3, 5):
                det = np.zeros(n)
                det[0] = 1.0
                assert entropy(det, measure) == pytest.approx(0.0, abs=1e-12)
            assert entropy([0.9, 0.1], measure) > 1e-3

    @pytest.mark.parametrize("alpha", [0.5, 1.5, 3.0])
    def test_continuity_toward_shannon(self, alpha):
        rng = np.random.default_rng(42)
        for _ in range(20):
            p = rng.dirichlet(np.ones(4))
            at_one = entropy(p, EntropyMeasure(1.0))
            for eps in (1e-6, -1e-6):
                near_one = entropy(p, EntropyMeasure(1.0 + eps))
                assert near_one == pytest.approx(at_one, abs=1e-4)

    def test_binary_maximum_at_half(self):
        grid = np.linspace(0.0, 1.0, 101)
        for alpha in (0.5, 1.0, 2.0, 3.0):
            measure = EntropyMeasure(alpha)
            values = [pair_entropy(p, measure) for p in grid]
            assert max(values) == pytest.approx(1.0, abs=1e-12)
            assert np.argmax(values) == 50

    @pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0, 3.0])
    def test_pair_entropy_concave_for_alpha_ge_one(self, alpha):
        measure = EntropyMeasure(alpha)
        grid = np.linspace(0.0, 1.0, 51)
        for i, a in enumerate(grid):
            for b in grid[i:]:
                mid = pair_entropy((a + b) / 2.0, measure)
                avg = (pair_entropy(a, measure) + pair_entropy(b, measure)) / 2.0
                assert mid >= avg - 1e-12


class TestPairEntropyDiagnostics:
    def test_quadratic_accepts_out_of_range(self):
        # the formula extends smoothly; used for unphysical pair qubits
        value = pair_entropy(1.1, QUADRATIC)
        assert value == pytest.approx(2.0 * (1.0 - 1.21 - 0.01), abs=1e-12)

    def test_agrees_with_entropy_on_valid_pairs(self):
        rng = np.random.default_rng(42)
        for alpha in (0.5, 1.0, 2.0, 3.0):
            measure = EntropyMeasure(alpha)
            for _ in range(50):
                p = float(rng.uniform())
                assert pair_entropy(p, measure) == pytest.approx(
                    entropy([p, 1.0 - p], measure), abs=1e-12
                )

    def test_shannon_limit_matches_stdlib(self):
        p = 0.8535533905932737
        expected = -(p * math.log2(p) + (1 - p) * math.log2(1 - p))
        assert pair_entropy(p, SHANNON) == pytest.approx(expected, abs=1e-15)


#: The kernel's layouts, each a (shape, axis) with six entries along the
#: axis: one 6-vector, the scan's (6, states) baselines and its
#: (maps, 6, states) images.
KERNEL_LAYOUTS = {"1-D": ((6,), -1), "axis-0": ((6, 5), 0), "axis-1": ((4, 6, 5), 1)}
#: The square-root and square fast paths, the Shannon branch and two
#: general powers.
KERNEL_ALPHAS = pytest.mark.parametrize("alpha", [0.5, 2.0, 1.0, 1.5, 3.0])


def kernel_input(layout, alpha):
    """Entries in [0, 1] with an exact 0 and an exact 1 in every
    distribution, and a negative entry at an integer degree."""
    shape, axis = KERNEL_LAYOUTS[layout]
    p = np.random.default_rng(17).uniform(size=shape)
    lanes = np.moveaxis(p, axis, -1)
    lanes[..., 1] = 0.0
    lanes[..., 4] = 1.0
    if alpha % 1.0 == 0.0:
        lanes[..., 2] = -0.25
    return p, axis


class TestOneKernel:
    @KERNEL_ALPHAS
    @pytest.mark.parametrize("layout", sorted(KERNEL_LAYOUTS))
    def test_matches_the_math_reference(self, alpha, layout):
        p, axis = kernel_input(layout, alpha)
        measure = EntropyMeasure(alpha)
        got = entropy_sum(p, measure, 3, axis=axis)
        lanes = np.moveaxis(p, axis, -1).reshape(-1, 6)
        expected = [math_entropy_sum(lane.tolist(), alpha, measure.k, 3) for lane in lanes]
        np.testing.assert_allclose(np.ravel(got), expected, rtol=0.0, atol=1e-12)

    @KERNEL_ALPHAS
    @pytest.mark.parametrize("layout", sorted(KERNEL_LAYOUTS))
    def test_buffers_give_the_allocating_bits(self, alpha, layout):
        # stale NaN in the buffers must not reach the result
        p, axis = kernel_input(layout, alpha)
        measure = EntropyMeasure(alpha)
        expected = entropy_sum(p, measure, 3, axis=axis)
        work = np.full(p.shape, np.nan)
        out = np.full(np.shape(expected), np.nan)
        assert _entropy_sum(p, measure, 3, axis, work=work, out=out) is out
        assert out.tobytes() == np.asarray(expected).tobytes()

    def test_fractional_power_of_negative_entry_raises(self):
        with pytest.raises(ValueError, match="no real power"):
            pair_entropy(1.1, EntropyMeasure(2.5))

    def test_out_of_range_state_raises_at_fractional_alpha(self):
        state = QubitState((1.1, -0.1, 0.5, 0.5, 0.5, 0.5))
        with pytest.raises(ValueError, match="no real power"):
            total_uncertainty_state(state, EntropyMeasure(2.5))

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 3.0])
    def test_every_caller_agrees_on_valid_states(self, alpha):
        measure = EntropyMeasure(alpha)
        rng = np.random.default_rng(31)
        for _ in range(100):
            state = random_state(rng, "mixed" if rng.uniform() < 0.5 else "pure")
            p = state.probs
            pairs = [p[0:2], p[2:4], p[4:6]]
            by_entropy = sum(entropy(pair, measure) for pair in pairs)
            by_total = total_uncertainty(pairs, measure)
            by_state = total_uncertainty_state(state, measure)
            by_p6 = float(total_uncertainty_p6(state.as_array, measure.alpha))
            for value in (by_total, by_state, by_p6):
                assert value == pytest.approx(by_entropy, abs=1e-12)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_validate_distribution_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        validate_distribution([bad, 0.5])
