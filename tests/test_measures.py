"""Unit and property tests for the degree-alpha entropy family."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onebit import measures, transforms
from onebit.measures import (
    _LADDER,
    DIST_TOL,
    MAX_ALPHA,
    QUADRATIC,
    SHANNON,
    EntropyMeasure,
    _entropy_terms,
    _ladder_walk,
    _power,
    entropy,
    entropy_sum,
    pair_entropy,
    total_uncertainty,
    validate_distribution,
)
from onebit.qubit import QubitState, random_state, total_uncertainty_state
from onebit.transforms import _norm_objective, _probe_means, alpha_norm, total_uncertainty_p6

from math_reference import HALF_OR_TWICE, LADDER_GRIDS, math_entropy_sum


#: (distribution, alpha, bits), every one exact: fair coins, certain
#: outcomes (0 log 0 := 0), 2 (1 - 1/16 - 9/16) and four even outcomes.
ENTROPY_VALUES = {
    "fair-quadratic": ([0.5, 0.5], 2.0, 1.0),
    "certain-quadratic": ([1.0, 0.0], 2.0, 0.0),
    "fair-shannon": ([0.5, 0.5], 1.0, 1.0),
    "quarter-quadratic": ([0.25, 0.75], 2.0, 0.75),
    "certain-shannon": ([0.0, 1.0], 1.0, 0.0),
    "even-4-shannon": ([0.25] * 4, 1.0, 2.0),
    "even-4-quadratic": ([0.25] * 4, 2.0, 1.5),
}


@pytest.mark.parametrize("dist, alpha, bits", ENTROPY_VALUES.values(), ids=list(ENTROPY_VALUES))
def test_entropy_values(dist, alpha, bits):
    assert entropy(dist, EntropyMeasure(alpha)) == bits


#: Degrees next to 1: 1 - 2 * 2**-53 and 1 - 2**-53 below, 1 + k * 2**-52
#: above, all inside the Shannon band |alpha - 1| < 2**-26; and its edges.
NEXT_TO_ONE = [1.0 - 2.0**-52, 1.0 - 2.0**-53, 1.0 + 2.0**-52, 1.0 + 2.0**-51, 1.0 + 3 * 2.0**-52]
BAND_EDGES = [1.0 - 2.0**-26, 1.0 + 2.0**-26]


class TestNormalizedMeasure:
    @pytest.mark.parametrize(
        "alpha, k",
        [(2.0, 2.0), (3.0, 8.0 / 3.0), (1.0, 1.0)]  # at 3: H((1/2, 1/2)) = 1 gives 2 / (3/4)
        + [(alpha, 1.0) for alpha in NEXT_TO_ONE]
        + [(a, (a - 1.0) / (1.0 - 2.0 ** (1.0 - a))) for a in BAND_EDGES],
    )
    def test_k(self, alpha, k):
        measure = EntropyMeasure(alpha)
        assert (measure.alpha, measure.k) == (alpha, k)

    @pytest.mark.parametrize("alpha", NEXT_TO_ONE + BAND_EDGES)
    def test_degrees_next_to_one_stay_near_shannon(self, alpha):
        # without the band, 1 - 2**-53 divides by zero and 1 + 2**-52 gives
        # 2 bits.  Inside it, the Shannon bits; at its edges the formula,
        # whose cancelled differences (in k and in 1 - sum p**alpha) turn a
        # few ulp(1) = 2**-52 of rounding into a few times 2**-26 bits,
        # beside a true distance of about 1.1e-9
        p = [0.3, 0.7]
        tol = 4 * 2.0**-26 if alpha in BAND_EDGES else 0.0
        assert abs(entropy(p, EntropyMeasure(alpha)) - entropy(p, SHANNON)) <= tol

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0])
    def test_fair_pair_scores_exactly_one(self, alpha):
        measure = EntropyMeasure(alpha)
        assert entropy_sum([0.5, 0.5], measure, 1) == pytest.approx(1.0, abs=1e-12)

    # above MAX_ALPHA, k times a three-pair total overflows (from 6e307 on)
    @pytest.mark.parametrize(
        "alpha", [0.0, -0.5, -1.0, math.nan, math.inf, math.nextafter(MAX_ALPHA, math.inf), 7e307]
    )
    def test_rejects_alpha_that_is_not_positive_and_finite(self, alpha):
        message = r"^alpha must be positive and finite, at most 1e\+300, got "
        with pytest.raises(ValueError, match=message):
            EntropyMeasure(alpha)


#: (pairs, quadratic total): a pure state's one certain sector and two fair
#: ones, the maximally mixed state, no pairs, and a set of seven.
TOTALS = {
    "pure": ([(1.0, 0.0), (0.5, 0.5), (0.5, 0.5)], 2.0),
    "mixed": ([(0.5, 0.5)] * 3, 3.0),
    "empty": ([], 0.0),
    "seven": ([(1.0, 0.0)] + [(0.5, 0.5)] * 6, 6.0),
}


class TestTotalUncertainty:
    @pytest.mark.parametrize("pairs, total", TOTALS.values(), ids=list(TOTALS))
    def test_totals(self, pairs, total):
        assert total_uncertainty(pairs, QUADRATIC) == total

    def test_rejects_a_non_binary_pair(self):
        pairs = [(0.5, 0.5), (0.2, 0.3, 0.5)]
        with pytest.raises(ValueError, match="expected binary pairs, got length 3"):
            total_uncertainty(pairs, QUADRATIC)


class TestValidation:
    @pytest.mark.parametrize(
        "probs, start",
        [
            ([-0.1, 1.1], "entries outside"),
            ([0.5, 0.6], "sum"),
            ([1.0], "must be a flat sequence"),
            ([math.nan, 0.5], "entries must be finite"),
            ([math.inf, 0.5], "entries must be finite"),
            ([-math.inf, 0.5], "entries must be finite"),
        ],
        ids=["negative", "sum", "singleton", "nan", "inf", "minus-inf"],
    )
    def test_rejects(self, probs, start):
        with pytest.raises(ValueError, match="^distribution " + start):
            entropy(probs, QUADRATIC)

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
            values = entropy_sum(np.stack([grid, 1.0 - grid], axis=-1), EntropyMeasure(alpha), 1)
            assert max(values) == pytest.approx(1.0, abs=1e-12)
            assert np.argmax(values) == 50

    @pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0, 3.0])
    def test_pair_entropy_concave_for_alpha_ge_one(self, alpha):
        def pair(p):
            return entropy_sum(np.stack([p, 1.0 - p], axis=-1), EntropyMeasure(alpha), 1)

        grid = np.linspace(0.0, 1.0, 51)
        i, j = np.triu_indices(grid.size)
        a, b = grid[i], grid[j]
        assert np.all(pair((a + b) / 2.0) >= (pair(a) + pair(b)) / 2.0 - 1e-12)


class TestPairEntropyDiagnostics:
    def test_quadratic_accepts_out_of_range(self):
        # the formula extends smoothly; used for unphysical pair qubits
        value = entropy_sum([1.1, -0.1], QUADRATIC, 1)
        assert value == pytest.approx(2.0 * (1.0 - 1.21 - 0.01), abs=1e-12)

    def test_shannon_limit_matches_stdlib(self):
        p = 0.8535533905932737
        expected = -(p * math.log2(p) + (1 - p) * math.log2(1 - p))
        assert entropy_sum([p, 1.0 - p], SHANNON, 1) == pytest.approx(expected, abs=1e-15)


#: The kernel's layouts, each a (shape, axis) with six entries along the
#: axis: one 6-vector and stacks of them, which ``entropy_sum`` reduces
#: over the last axis.
KERNEL_LAYOUTS = {"1-D": ((6,), -1), "2-D": ((5, 6), -1), "3-D": ((4, 5, 6), -1)}
#: The term kernel's layouts in the scan: one 6-vector, the (6, states)
#: baselines and the (maps, 6, states) images.
SCAN_LAYOUTS = {"1-D": ((6,), -1), "axis-0": ((6, 5), 0), "axis-1": ((4, 6, 5), 1)}
#: Every degree of the power table, the Shannon branch and a general power.
KERNEL_ALPHAS = pytest.mark.parametrize("alpha", [0.5, 2.0, 1.0, 1.5, 2.5, 3.0, 5.0])


def kernel_input(shape, axis, alpha):
    """Entries in [0, 1] with an exact 0 and an exact 1 in every
    distribution, and a negative entry at an integer degree."""
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
        p, _ = kernel_input(*KERNEL_LAYOUTS[layout], alpha)
        measure = EntropyMeasure(alpha)
        got = entropy_sum(p, measure, 3)
        lanes = p.reshape(-1, 6)
        expected = [math_entropy_sum(lane.tolist(), alpha, measure.k, 3) for lane in lanes]
        np.testing.assert_allclose(np.ravel(got), expected, rtol=0.0, atol=1e-12)

    @KERNEL_ALPHAS
    @pytest.mark.parametrize("layout", sorted(SCAN_LAYOUTS))
    def test_buffers_give_the_allocating_bits(self, alpha, layout):
        # the scan's path, terms into its work buffer and power sums into
        # its deviation buffer, against its baselines' allocating path:
        # stale NaN in the buffers must not reach the sums
        p, axis = kernel_input(*SCAN_LAYOUTS[layout], alpha)
        measure = EntropyMeasure(alpha)
        expected = np.add.reduce(_entropy_terms(p, measure), axis=axis)
        work = np.full(p.shape, np.nan)
        out = np.full(np.shape(expected), np.nan)
        assert _entropy_terms(p, measure, work) is work
        assert np.add.reduce(work, axis=axis, out=out) is out
        assert out.tobytes() == np.asarray(expected).tobytes()

    def test_shannon_terms_have_the_masked_log_bits(self):
        # p log2 p of every entry, then 0 where p <= 0, against p log2 p
        # only where not p <= 0 into zeros: signed zeros, subnormals, 1,
        # negatives, inf and NaN of either sign, into a fresh and a stale
        # buffer; pytest turns a leaked RuntimeWarning into an error
        grid = power_grid()
        specials = [-0.0, math.inf, -math.inf, math.nan, -math.nan, -1.0, 2.0]
        p = np.concatenate([grid, -grid, specials])
        keep = ~(p <= 0.0)  # NaN is kept: it has no order
        masked = np.zeros_like(p)
        np.log2(p, out=masked, where=keep)
        np.multiply(masked, p, out=masked, where=keep)
        work = np.full_like(p, np.nan)
        fresh = _entropy_terms(p, SHANNON)
        assert _entropy_terms(p, SHANNON, work) is work
        assert fresh.tobytes() == work.tobytes() == masked.tobytes()

    def test_a_minus_inf_entry_scores_zero_without_warning(self):
        # p log2 p is NaN at -inf, as at every p <= 0, and is zeroed with no
        # invalid-multiply warning; pytest turns a leaked one into an error
        terms = _entropy_terms(np.array([-math.inf, 0.0, 1.0]), SHANNON)
        assert terms.tobytes() == np.zeros(3).tobytes()
        assert entropy_sum([-math.inf, 1.0], SHANNON, 1) == 0.0

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0, 1.0 + 2.0**-27, 1.5, 2.0, 3.0, 10.0])
    def test_sum_scale_turns_a_power_sum_gap_into_the_entropy_gap(self, alpha):
        measure = EntropyMeasure(alpha)
        if measure.shannon:
            assert measure.sum_scale == measure.k == 1.0
        else:
            assert measure.sum_scale == measure.k / abs(alpha - 1.0)
        p, q = np.array([0.1, 0.9, 0.5, 0.5, 0.3, 0.7]), np.array([0.5, 0.5, 0.8, 0.2, 1.0, 0.0])
        sums = [float(np.add.reduce(_entropy_terms(x, measure))) for x in (p, q)]
        gap = abs(entropy_sum(q, measure, 3) - entropy_sum(p, measure, 3))
        assert measure.sum_scale * abs(sums[1] - sums[0]) == pytest.approx(gap, rel=1e-14)

    @pytest.mark.parametrize("alpha", [1.5, 2.5, 0.25])
    def test_fractional_power_of_negative_entry_raises(self, alpha):
        with pytest.raises(ValueError, match="no real power"):
            entropy_sum([1.1, -0.1], EntropyMeasure(alpha), 1)

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
            by_pair = sum(pair_entropy(pair[0], measure) for pair in pairs)
            by_total = total_uncertainty(pairs, measure)
            by_state = total_uncertainty_state(state, measure)
            by_p6 = float(total_uncertainty_p6(state.as_array, measure.alpha))
            for value in (by_pair, by_total, by_state, by_p6):
                assert value == pytest.approx(by_entropy, abs=1e-12)
            assert by_state == pytest.approx(by_total, abs=1e-12)


TABLE_ALPHAS = pytest.mark.parametrize("alpha", sorted(_LADDER))
#: Each step of the ladder, (degree, the degree below it): its power is
#: the power below it times p.
LADDER_STEPS = [(1.5, 0.5), (2.5, 1.5), (3.0, 2.0)]
#: Grids for the walk: the scan's, a skipped rung, two roots and no
#: climb, and Shannon and off-ladder degrees around the rungs.
WALK_GRIDS = (
    *LADDER_GRIDS, (2.5, 0.5), (3.0, 2.5), (1.0, 1.7, 2.0, 1.0 + 2.0**-52, 0.5, 4.0, 3.0)
)


def power_grid():
    """A seeded grid over [0, 1]: 0, 1, the subnormal and normal extremes,
    uniform draws and log-uniform draws down to the smallest subnormal."""
    rng = np.random.default_rng(20261020)
    edges = [0.0, 1.0, 5e-324, 1e-310, 2.0**-1022, math.nextafter(1.0, 0.0), 0.5]
    return np.concatenate([edges, rng.uniform(size=3000), 2.0 ** rng.uniform(-1074, 0, 1000)])


def float_steps(got, expected):
    """How many adjacent doubles lie between nonnegative ``got`` and
    ``expected``: 1 is one ulp."""
    return np.abs(got.view(np.int64) - np.asarray(expected).view(np.int64))


class TestPowerTable:
    """``_power``: the power ladder, square roots and multiplies at the
    degrees of the scan's default grid but 1, ``np.power`` elsewhere."""

    @pytest.mark.parametrize("alpha, below", LADDER_STEPS)
    def test_each_step_is_the_rung_below_times_p(self, alpha, below):
        p = power_grid()
        expected = (_power(p, below) * p).tobytes()
        assert _power(p, alpha).tobytes() == expected
        out = np.full_like(p, np.nan)
        assert _power(p, alpha, out=out) is out
        assert out.tobytes() == expected

    @pytest.mark.parametrize("alphas", WALK_GRIDS, ids=str)
    def test_the_walk_yields_every_index_once_with_its_terms(self, monkeypatch, alphas):
        # one buffer, as the scan holds; a spy on the table's roots counts
        # the passes: each root is raised at most once, and every other
        # rung of its root is climbed from the one yielded before it
        p = power_grid()
        grid = [EntropyMeasure(alpha) for alpha in alphas]
        expected = [_entropy_terms(p, measure).tobytes() for measure in grid]
        raised = []

        def spy(root):
            def counted(p, out=None):
                raised.append(root)
                return root(p, out=out)

            return counted

        spies = {root: spy(root) for root, _ in _LADDER.values()}
        ladder = {alpha: (spies[root], height) for alpha, (root, height) in _LADDER.items()}
        monkeypatch.setattr(measures, "_LADDER", ladder)
        work = np.empty_like(p)
        seen = []
        for j, terms in _ladder_walk(p, grid, work):
            assert terms is work
            assert terms.tobytes() == expected[j], alphas[j]
            seen.append(j)
        assert sorted(seen) == list(range(len(alphas)))
        assert len(raised) == len(set(raised))

    def test_cube_within_one_ulp_of_the_exact_cube(self):
        p = power_grid()
        exact = [float(Fraction(x) ** 3) for x in p.tolist()]  # correctly rounded
        assert float_steps(_power(p, 3.0), exact).max() <= 1

    @pytest.mark.parametrize("alpha, ulps", [(1.5, 1), (2.5, 2)])
    def test_sqrt_products_near_math_pow(self, alpha, ulps):
        p = power_grid()
        assert float_steps(_power(p, alpha), [math.pow(x, alpha) for x in p]).max() <= ulps

    @pytest.mark.parametrize("alpha", [0.5, 2.0, 0.25, 1.0, 1.25, 4.0, 7.5])
    def test_np_power_bits_at_every_other_degree(self, alpha):
        # np.sqrt and np.square are the correctly rounded powers
        p = power_grid()
        assert _power(p, alpha).tobytes() == np.power(p, alpha).tobytes()

    @TABLE_ALPHAS
    def test_inf_and_nan_propagate_as_np_power(self, alpha):
        p = np.array([math.inf, math.nan, 0.5])
        np.testing.assert_array_equal(_power(p, alpha), np.power(p, alpha))

    def test_cube_keeps_the_sign(self):
        # as pow keeps it: (-x)**3 = -(x**3), bit for bit
        p = np.array([0.5, math.inf, 1.0, 0.3])
        assert _power(-p, 3.0).tobytes() == (-_power(p, 3.0)).tobytes()
        measure = EntropyMeasure(3.0)
        expected = math_entropy_sum([-0.5, 1.5], 3.0, measure.k, 1)
        assert entropy_sum([-0.5, 1.5], measure, 1) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize(
        "alpha, negative", [(0.5, True), (1.5, False), (2.0, False), (2.5, True), (3.0, True)]
    )
    def test_signed_zero(self, alpha, negative):
        # sqrt(-0) = -0 and (-0)(-0) = +0; np.power gives +0 at 0.5 and 2.5,
        # which no sum of terms can tell apart
        assert np.signbit(_power(np.array([-0.0]), alpha)[0]) == negative

    @TABLE_ALPHAS
    def test_out_is_written_and_returned(self, alpha):
        p = power_grid()
        out = np.full_like(p, np.nan)
        assert _power(p, alpha, out=out) is out
        assert out.tobytes() == _power(p, alpha).tobytes()

    @TABLE_ALPHAS
    def test_every_power_of_the_package_is_the_tables(self, monkeypatch, alpha):
        rng = np.random.default_rng(5)
        p = rng.uniform(size=(4, 6))
        measure = EntropyMeasure(alpha)
        sums = np.add.reduce(_power(p, alpha), axis=-1)
        expected = measure.k * (3 - sums) / (alpha - 1.0)
        assert entropy_sum(p, measure, 3).tobytes() == expected.tobytes()

        vec = rng.uniform(-1.0, 1.0, size=6)
        norm = float(np.add.reduce(_power(np.abs(vec), alpha)) ** (1.0 / alpha))
        assert alpha_norm(vec, alpha).hex() == norm.hex()

        # the search raises the probes' baseline and every trial through the
        # table; the identity parameters image every probe exactly, so both
        # raise the probes' |p6| entries
        calls = []

        def spy(p, degree, out=None):
            calls.append((p.tobytes(), degree))
            return _power(p, degree, out=out)

        monkeypatch.setattr(transforms, "_power", spy)
        means = _probe_means(rng)
        identity = np.concatenate([np.zeros(3), np.eye(3).ravel()])
        assert _norm_objective(means, alpha)(identity[None])[0] == 0.0
        half = (1.0 + means.T) / 2.0
        sides = np.abs(np.concatenate([half, 1.0 - half], axis=-1))
        assert calls == [(sides.tobytes(), alpha)] * 2
