"""Tests for counting, post-selection, and the one-bit positivity criterion."""

import math

import numpy as np
import pytest

from onebit.highdim import (
    HERMITIAN_TOL,
    POSTSELECT_EPS,
    GptStateN,
    HermitianOperator,
    _pair_minors,
    _random_bases,
    conjugate_into_basis,
    counting_consistency,
    degrees_of_freedom,
    eigen_positivity_oracle,
    gpt_from_density,
    gpt_invariant_violations,
    info_positivity_check,
    minor_condition,
    pair_uncertainty,
    postselect,
    random_basis,
    random_density,
    random_with_min_eigenvalue,
)
from onebit.qubit import is_pure


class TestCounting:
    def test_qubit_with_three_measurements(self):
        assert degrees_of_freedom(2, 3) == 3

    def test_qutrit_with_three_measurements(self):
        assert degrees_of_freedom(3, 3) == 8

    def test_classical_bit(self):
        assert degrees_of_freedom(2, 1) == 1

    def test_quadratic_scaling_identity(self):
        for n in range(2, 101):
            assert degrees_of_freedom(n, 3) == n * n - 1

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            degrees_of_freedom(1, 3)

    def test_rejects_zero_measurements(self):
        with pytest.raises(ValueError, match="measurement count must be >= 1, got 0"):
            degrees_of_freedom(3, 0)

    def test_consistency_default_ranges(self):
        assert counting_consistency(50, range(2, 10), range(1, 5)) == [(3, 2)]

    def test_consistency_single_dimension_is_underdetermined(self):
        # one equation in two unknowns: spurious matches, documented
        matches = counting_consistency(2, range(2, 10), range(1, 5))
        assert (3, 2) in matches
        assert (7, 3) in matches

    def test_three_measurement_quadratic_case_matches_everywhere(self):
        assert counting_consistency(100, [3], [2]) == [(3, 2)]

    def test_rejects_empty_ranges(self):
        with pytest.raises(ValueError):
            counting_consistency(10, [], [1, 2])


class TestHermitianOperator:
    def test_accepts_indefinite_unit_trace(self):
        op = HermitianOperator(np.diag([1.2, -0.2]))
        assert op.n == 2

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            HermitianOperator(np.array([[0.5, 0.1], [0.3, 0.5]]))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            HermitianOperator(np.diag([0.5, 0.4]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_entries(self, bad):
        # NaN compares False against every tolerance, so it must be caught first
        with pytest.raises(ValueError, match="finite"):
            HermitianOperator(np.array([[bad, 0.0], [0.0, bad]]))


class TestGptFromDensity:
    def test_maximally_mixed(self):
        n = 4
        state = gpt_from_density(HermitianOperator(np.eye(n) / n))
        np.testing.assert_allclose(state.z_probs, 1.0 / n, atol=1e-15)
        i, j = np.triu_indices(n, 1)
        for px, py in zip(state.px[i, j], state.py[i, j]):
            assert px == pytest.approx(1.0 / n, abs=1e-15)
            assert py == pytest.approx(1.0 / n, abs=1e-15)

    def test_plus_state(self):
        plus = HermitianOperator(np.full((2, 2), 0.5))
        state = gpt_from_density(plus)
        np.testing.assert_allclose(state.z_probs, [0.5, 0.5], atol=1e-15)
        assert (state.px[0, 1], state.py[0, 1]) == pytest.approx((1.0, 0.5), abs=1e-15)

    def test_indefinite_density_flags_violations(self):
        state = gpt_from_density(HermitianOperator(np.diag([1.2, -0.2])))
        assert state.z_probs[1] == pytest.approx(-0.2, abs=1e-15)
        messages = gpt_invariant_violations(state)
        assert any("z_probs" in msg for msg in messages)

    def test_positive_density_satisfies_invariants(self):
        rng = np.random.default_rng(42)
        for n in (2, 3, 5):
            for _ in range(20):
                state = gpt_from_density(random_density(rng, n))
                assert gpt_invariant_violations(state) == []

    def test_respects_given_basis(self):
        rng = np.random.default_rng(42)
        rho = random_density(rng, 3)
        basis = random_basis(rng, 3)
        direct = gpt_from_density(conjugate_into_basis(rho, basis))
        via_basis = gpt_from_density(rho, basis)
        np.testing.assert_allclose(direct.z_probs, via_basis.z_probs, atol=1e-12)

    def test_rejects_non_orthonormal_basis(self):
        rho = HermitianOperator(np.eye(2) / 2)
        with pytest.raises(ValueError, match="orthonormal"):
            gpt_from_density(rho, np.array([[1.0, 1.0], [0.0, 0.0]]))

    def test_component_count(self):
        for n in (2, 3, 4, 6):
            state = gpt_from_density(HermitianOperator(np.eye(n) / n))
            i, j = np.triu_indices(state.n, 1)
            n_params = (state.n - 1) + state.px[i, j].size + state.py[i, j].size
            assert n_params == n * n - 1


def dict_read_off(rho, basis=None):
    """Loop reference for the (n, n) layout: z and a dict
    {(i, j): (p_xij, p_yij)} over i < j, one pair at a time."""
    m = rho.matrix if basis is None else conjugate_into_basis(rho, basis).matrix
    n = m.shape[0]
    z = np.real(np.diag(m)).copy()
    pairs = {}
    for i in range(n):
        for j in range(i + 1, n):
            half = 0.5 * (m[i, i].real + m[j, j].real)
            pairs[(i, j)] = (half + m[i, j].real, half + m[i, j].imag)
    return z, pairs


def dict_violations(z, pairs, tol=HERMITIAN_TOL):
    msgs = []
    if np.any(z < -tol) or np.any(z > 1.0 + tol):
        msgs.append(f"z_probs outside [0, 1]: {z.tolist()}")
    total = float(z.sum())
    if abs(total - 1.0) > tol:
        msgs.append(f"z_probs sum {total:.6g} differs from 1")
    for (i, j), (px, py) in sorted(pairs.items()):
        cap = float(z[i] + z[j])
        for name, value in (("x", px), ("y", py)):
            if value < -tol or value > cap + tol:
                msgs.append(
                    f"p_{name}{i}{j} = {value:.6g} outside [0, p_{i} + p_{j} = {cap:.6g}]"
                )
    return msgs


def dict_postselect(z, pairs, i, j):
    p_i, p_j = float(z[i]), float(z[j])
    s = p_i + p_j
    if s <= POSTSELECT_EPS:
        return None
    px, py = pairs[(min(i, j), max(i, j))]
    if i > j:
        py = s - py
    return (px / s, 1.0 - px / s, py / s, 1.0 - py / s, p_i / s, p_j / s)


def layout_ensemble():
    """Positive, indefinite and boundary operators, n = 2..8, each in the
    computational basis and in two sampled bases."""
    rng = np.random.default_rng(42)
    for n in range(2, 9):
        operators = [random_density(rng, n), random_density(rng, n)]
        operators += [random_with_min_eigenvalue(rng, n, s) for s in (-0.3, -0.05, -1e-8, 0.0)]
        operators.append(HermitianOperator(np.diag([1.0] + [0.0] * (n - 1))))
        for rho in operators:
            for basis in (None, random_basis(rng, n), random_basis(rng, n)):
                yield rho, basis


class TestArrayLayout:
    def test_read_off_matches_dict_loop_bitwise(self):
        for rho, basis in layout_ensemble():
            state = gpt_from_density(rho, basis)
            z, pairs = dict_read_off(rho, basis)
            assert np.array_equal(state.z_probs, z)
            for (i, j), (px, py) in pairs.items():
                assert state.px[i, j] == px and state.py[i, j] == py

    def test_violation_messages_match_dict_loop(self):
        pair_messages = 0
        for rho, basis in layout_ensemble():
            z, pairs = dict_read_off(rho, basis)
            expected = dict_violations(z, pairs)
            assert gpt_invariant_violations(gpt_from_density(rho, basis)) == expected
            pair_messages += sum(msg.startswith("p_") for msg in expected)
        assert pair_messages > 0

    def test_postselect_matches_dict_loop_bitwise(self):
        rejected = 0
        for rho, basis in layout_ensemble():
            state = gpt_from_density(rho, basis)
            z, pairs = dict_read_off(rho, basis)
            for i in range(rho.n):
                for j in range(rho.n):
                    if i == j:
                        continue
                    expected = dict_postselect(z, pairs, i, j)
                    if expected is None:
                        rejected += 1
                        with pytest.raises(ValueError, match="untestable"):
                            postselect(state, i, j)
                    else:
                        assert postselect(state, i, j).probs == expected
        assert rejected > 0


class TestGptStateN:
    @staticmethod
    def fields(n=2):
        half = np.full((n, n), 0.5)
        return {"z_probs": np.full(n, 1.0 / n), "px": half, "py": half.copy()}

    @pytest.mark.parametrize("name", ["z_probs", "px", "py"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_entries(self, name, bad):
        # a NaN compares False against every range test, so it would pass
        # gpt_invariant_violations as consistent
        fields = self.fields()
        fields[name] = np.full_like(fields[name], bad)
        with pytest.raises(ValueError, match=f"{name} entries must be finite"):
            GptStateN(n=2, **fields)

    @pytest.mark.parametrize("name", ["z_probs", "px", "py"])
    def test_rejects_wrong_shapes(self, name):
        fields = self.fields()
        fields[name] = self.fields(3)[name]
        with pytest.raises(ValueError, match=f"{name} must have shape"):
            GptStateN(n=2, **fields)

    @pytest.mark.parametrize(
        "factor, ok", [(0.5, True), (2.0, False)], ids=["half-tol", "twice-tol"]
    )
    @pytest.mark.parametrize(
        "name, values, message",
        [
            ("z_probs", lambda e: [0.5 + e / 2, 0.5 + e / 2], "z_probs sum"),
            ("z_probs", lambda e: [-e, 1.0 + e], "z_probs outside"),
            ("px", lambda e: [[0.5, 1.0 + e], [0.5, 0.5]], "p_x01"),
            ("py", lambda e: [[0.5, -e], [0.5, 0.5]], "p_y01"),
        ],
        ids=["z-sum", "z-range", "px-above-cap", "py-below-zero"],
    )
    def test_invariant_tolerance_boundary(self, factor, ok, name, values, message):
        # a violation of half HERMITIAN_TOL is consistent, one of twice it is reported
        fields = self.fields()
        fields[name] = values(factor * HERMITIAN_TOL)
        violations = gpt_invariant_violations(GptStateN(n=2, **fields))
        if ok:
            assert violations == []
        else:
            assert len(violations) == 1 and violations[0].startswith(message)

    def test_fields_are_read_only_copies(self):
        fields = self.fields()
        state = GptStateN(n=2, **fields)
        fields["px"][0, 1] = 0.25
        assert state.px[0, 1] == 0.5
        with pytest.raises(ValueError):
            state.py[0, 1] = 0.25


class TestPostselect:
    def test_uniform_qubit_gives_maximally_mixed(self):
        state = gpt_from_density(HermitianOperator(np.eye(2) / 2))
        qubit = postselect(state, 0, 1)
        assert qubit.probs == pytest.approx((0.5,) * 6, abs=1e-15)

    def test_pure_block_gives_pure_qubit(self):
        rho = HermitianOperator(np.diag([1.0, 0.0, 0.0]))
        qubit = postselect(gpt_from_density(rho), 0, 1)
        assert is_pure(qubit)
        assert qubit.probs[4:] == (1.0, 0.0)

    def test_zero_weight_branch_rejected(self):
        rho = HermitianOperator(np.diag([1.0, 0.0, 0.0]))
        with pytest.raises(ValueError, match="untestable"):
            postselect(gpt_from_density(rho), 1, 2)

    def test_rejects_equal_indices(self):
        state = gpt_from_density(HermitianOperator(np.eye(3) / 3))
        with pytest.raises(ValueError, match="distinct"):
            postselect(state, 1, 1)

    def test_matches_normalized_block(self):
        # the post-selected qubit's mean values equal those read from the
        # renormalized 2x2 block with the matching pseudo-spin convention
        rng = np.random.default_rng(42)
        sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        sigma_y = np.array([[0.0, 1.0j], [-1.0j, 0.0]])
        sigma_z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            rho = random_density(rng, n)
            i, j = sorted(rng.choice(n, size=2, replace=False).tolist())
            block = rho.matrix[np.ix_([i, j], [i, j])]
            block = block / np.trace(block).real
            qubit = postselect(gpt_from_density(rho), i, j)
            for axis, sigma in enumerate((sigma_x, sigma_y, sigma_z)):
                expected = float(np.trace(block @ sigma).real)
                assert qubit.mean_values[axis] == pytest.approx(expected, abs=1e-10)

    def test_reversed_orientation_flips_pair_spins(self):
        rng = np.random.default_rng(42)
        rho = random_density(rng, 3)
        state = gpt_from_density(rho)
        forward = postselect(state, 0, 2)
        backward = postselect(state, 2, 0)
        mf, mb = forward.mean_values, backward.mean_values
        assert mb[0] == pytest.approx(mf[0], abs=1e-12)
        assert mb[1] == pytest.approx(-mf[1], abs=1e-12)
        assert mb[2] == pytest.approx(-mf[2], abs=1e-12)


class TestPairUncertainty:
    def test_pure_plus_state(self):
        plus = HermitianOperator(np.full((2, 2), 0.5))
        assert pair_uncertainty(gpt_from_density(plus), 0, 1) == pytest.approx(
            2.0, abs=1e-12
        )

    def test_maximally_mixed(self):
        mixed = gpt_from_density(HermitianOperator(np.eye(2) / 2))
        assert pair_uncertainty(mixed, 0, 1) == pytest.approx(3.0, abs=1e-12)

    def test_indefinite_operator_scores_below_two(self):
        rho = HermitianOperator(np.array([[0.5, 0.6], [0.6, 0.5]]))
        value = pair_uncertainty(gpt_from_density(rho), 0, 1)
        assert value == pytest.approx(1.56, abs=1e-12)
        assert value < 2.0


class TestMinorCondition:
    def test_maximally_mixed(self):
        assert minor_condition(HermitianOperator(np.eye(2) / 2), 0, 1) == pytest.approx(
            0.25, abs=1e-15
        )

    def test_pure_plus(self):
        plus = HermitianOperator(np.full((2, 2), 0.5))
        assert minor_condition(plus, 0, 1) == pytest.approx(0.0, abs=1e-15)

    def test_indefinite_example(self):
        rho = HermitianOperator(np.array([[0.5, 0.6], [0.6, 0.5]]))
        assert minor_condition(rho, 0, 1) == pytest.approx(-0.11, abs=1e-15)

    def test_slack_identity_with_pair_uncertainty(self):
        # H_total - 2 = 4 (rho_ii rho_jj - |rho_ij|^2) / (rho_ii + rho_jj)^2
        rng = np.random.default_rng(42)
        checked = 0
        while checked < 500:
            n = int(rng.integers(2, 7))
            kind = checked % 3
            if kind == 0:
                rho = random_density(rng, n)
            elif kind == 1:
                rho = random_with_min_eigenvalue(rng, n, -float(rng.uniform(0.05, 0.4)))
            else:
                rho = random_with_min_eigenvalue(rng, n, float(rng.uniform(-1e-6, 1e-6)))
            rho = conjugate_into_basis(rho, random_basis(rng, n))
            i, j = sorted(rng.choice(n, size=2, replace=False).tolist())
            s = rho.matrix[i, i].real + rho.matrix[j, j].real
            if s < 1e-3:
                continue
            slack = pair_uncertainty(gpt_from_density(rho), i, j) - 2.0
            expected = 4.0 * minor_condition(rho, i, j) / (s * s)
            assert slack == pytest.approx(expected, abs=1e-10)
            checked += 1


class TestEigenOracle:
    def test_maximally_mixed_positive(self):
        assert eigen_positivity_oracle(HermitianOperator(np.eye(3) / 3)).positive

    def test_diagonal_negative(self):
        verdict = eigen_positivity_oracle(HermitianOperator(np.diag([1.2, -0.2])))
        assert not verdict.positive
        assert verdict.witness.eigenvalue == pytest.approx(-0.2, abs=1e-12)

    def test_random_psd_positive(self):
        rng = np.random.default_rng(42)
        for n in (2, 4, 6):
            for _ in range(20):
                assert eigen_positivity_oracle(random_density(rng, n)).positive


class TestInfoPositivityCheck:
    def test_maximally_mixed_all_strategies(self):
        rho = HermitianOperator(np.eye(4) / 4)
        for strategy in ("fixed-basis", "sampled", "eigen-directed"):
            assert info_positivity_check(rho, strategy, n_bases=4, seed=1).positive

    def test_diagonal_negativity_caught_in_fixed_basis(self):
        rho = HermitianOperator(np.diag([1.1, -0.1]))
        verdict = info_positivity_check(rho, "fixed-basis")
        assert not verdict.positive
        assert verdict.witness.pair == (0, 1)
        assert verdict.witness.minor == pytest.approx(-0.11, abs=1e-12)

    def test_hidden_negativity_escapes_fixed_basis(self):
        # conjugating diag(0.6, 0.6, -0.2) into the Fourier basis hides the
        # negative direction from the computational diagonal
        n = 3
        fourier = np.exp(
            2.0j * math.pi * np.outer(np.arange(n), np.arange(n)) / n
        ) / math.sqrt(n)
        rho = conjugate_into_basis(
            HermitianOperator(np.diag([0.6, 0.6, -0.2])), fourier
        )
        assert info_positivity_check(rho, "fixed-basis").positive
        verdict = info_positivity_check(rho, "eigen-directed", seed=5)
        assert not verdict.positive
        assert verdict.witness.minor < 0.0
        assert not eigen_positivity_oracle(rho).positive

    def test_negative_witness_carries_negative_minor(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            rho = random_with_min_eigenvalue(rng, n, -float(rng.uniform(0.01, 0.3)))
            verdict = info_positivity_check(rho, "eigen-directed", n_bases=2, seed=9)
            assert not verdict.positive
            assert verdict.witness.minor < 0.0
            assert verdict.witness.pair is not None

    def test_basis_covariance_of_positive_operators(self):
        # for positive rho the pair bound holds in every sampled basis
        rng = np.random.default_rng(42)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            rho = random_density(rng, n)
            for _ in range(5):
                state = gpt_from_density(rho, random_basis(rng, n))
                for i in range(n):
                    for j in range(i + 1, n):
                        if state.z_probs[i] + state.z_probs[j] < 1e-9:
                            continue
                        assert pair_uncertainty(state, i, j) >= 2.0 - 1e-9

    def test_agrees_with_oracle_on_mixed_ensemble(self):
        rng = np.random.default_rng(42)
        for trial in range(200):
            n = int(rng.integers(2, 7))
            kind = trial % 3
            if kind == 0:
                rho = random_density(rng, n)
            elif kind == 1:
                rho = random_with_min_eigenvalue(rng, n, -float(rng.uniform(0.01, 0.5)))
            else:
                rho = random_with_min_eigenvalue(rng, n, float(rng.uniform(-1e-6, 1e-6)))
            verdict = info_positivity_check(rho, "eigen-directed", n_bases=2, seed=trial)
            oracle = eigen_positivity_oracle(rho)
            assert verdict.positive == oracle.positive

    def test_witness_pair_total_has_the_bits_of_a_fresh_read_off(self):
        # the witness reads its pair off the checked view; the reference
        # conjugates rho into the witness basis again, one basis at a time
        rng = np.random.default_rng(7)
        labels = set()
        for trial in range(120):
            n = int(rng.choice([2, 3, 5, 8, 16, 64]))
            rho = random_with_min_eigenvalue(rng, n, -float(rng.uniform(1e-4, 0.3)))
            strategy = ("fixed-basis", "sampled", "eigen-directed")[trial % 3]
            verdict = info_positivity_check(rho, strategy, n_bases=3, seed=trial)
            if verdict.positive:
                continue
            w = verdict.witness
            labels.add(w.basis.split("[")[0])
            state = gpt_from_density(rho, w.basis_matrix)
            try:
                expected = pair_uncertainty(state, *w.pair)
            except ValueError:
                expected = None
            if expected is None:
                assert w.pair_total is None
            else:
                assert w.pair_total.hex() == expected.hex()
        assert labels == {"computational", "sampled", "eigenbasis"}

    def test_rejects_unknown_strategy(self):
        rho = HermitianOperator(np.eye(2) / 2)
        with pytest.raises(ValueError, match="strategy"):
            info_positivity_check(rho, "exhaustive")

    def test_tied_pairs_report_the_first_in_row_major_order(self):
        # minors (0, 2) and (1, 2) are both 0.7 * -0.4
        rho = HermitianOperator(np.diag([0.7, 0.7, -0.4]))
        verdict = info_positivity_check(rho, "fixed-basis")
        assert (verdict.witness.basis, verdict.witness.pair) == ("computational", (0, 2))

    @pytest.mark.parametrize("seed", range(20))
    def test_tied_views_report_the_earliest(self, seed):
        # the eigenbasis view ties with the computational one, and no basis
        # can go below lambda_min * lambda_max = 0.7 * -0.4
        rho = HermitianOperator(np.diag([0.7, 0.7, -0.4]))
        verdict = info_positivity_check(rho, "eigen-directed", seed=seed)
        assert (verdict.witness.basis, verdict.witness.pair) == ("computational", (0, 2))


def cholesky_succeeds(m):
    try:
        np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        return False
    return True


class TestCholeskyOracle:
    """An oracle with no eigensolver: rho + t I has a Cholesky factor
    exactly when lambda_min > -t, up to rounding (Higham, ch. 10), where
    t = tol * max diag is the eigenvalue oracle's threshold."""

    def test_agrees_with_criterion_on_criterion_4_operators(self):
        # criterion 4's operators: same generators, kinds, seeds and views
        rng = np.random.default_rng(42)
        compared = excluded = 0
        for n in range(2, 7):
            eye = np.eye(n)
            for idx in range(500):
                kind = idx % 3
                if kind == 0:
                    rho = random_density(rng, n)
                elif kind == 1:
                    rho = random_with_min_eigenvalue(rng, n, -float(rng.uniform(0.01, 0.5)))
                else:
                    rho = random_with_min_eigenvalue(rng, n, float(rng.uniform(-1e-6, 1e-6)))
                seed = compared + excluded
                m = rho.matrix
                t = 1e-9 * float(np.max(np.real(np.diag(m))))
                # |lambda_min| <= 10 t, located without an eigensolver: rounding
                # could decide the factorization there, so it is not compared
                if not cholesky_succeeds(m - 10.0 * t * eye) and cholesky_succeeds(
                    m + 10.0 * t * eye
                ):
                    excluded += 1
                    continue
                verdict = info_positivity_check(rho, "eigen-directed", n_bases=3, seed=seed)
                assert verdict.positive == cholesky_succeeds(m + t * eye), (n, idx)
                compared += 1
        print(f"cholesky oracle: {compared} compared, {excluded} excluded (|lambda_min| <= 10 t)")
        assert compared + excluded == 2500
        assert excluded < 50


class TestPairMinors:
    def test_matches_minor_condition_bitwise(self):
        rng = np.random.default_rng(42)
        for n in range(2, 9):
            for smallest in (-0.3, -1e-8, 0.0):
                rho = random_with_min_eigenvalue(rng, n, smallest)
                rho = conjugate_into_basis(rho, random_basis(rng, n))
                minors = _pair_minors(rho.matrix)
                for i in range(n):
                    for j in range(i + 1, n):
                        assert minors[i, j] == minor_condition(rho, i, j)


class TestGenerators:
    def test_min_eigenvalue_placement(self):
        rng = np.random.default_rng(42)
        for n in (2, 4, 6):
            for target in (-0.3, -1e-6, 0.0, 1e-6):
                rho = random_with_min_eigenvalue(rng, n, target)
                smallest = float(np.linalg.eigvalsh(rho.matrix)[0])
                assert smallest == pytest.approx(target, abs=1e-12)

    def test_batched_bases_match_sequential_draws_bitwise(self):
        def loop_basis(rng, n):
            z = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / np.sqrt(2.0)
            q, r = np.linalg.qr(z)
            d = np.diag(r)
            return q * (d / np.abs(d)).conj()

        for n in (1, 2, 3, 6, 17):
            batch = _random_bases(np.random.default_rng(n), 5, n)
            rng = np.random.default_rng(n)
            assert np.array_equal(batch, [loop_basis(rng, n) for _ in range(5)])

    def test_random_basis_is_unitary(self):
        rng = np.random.default_rng(42)
        for n in (2, 5):
            b = random_basis(rng, n)
            np.testing.assert_allclose(b.conj().T @ b, np.eye(n), atol=1e-12)

    def test_structural_validation_of_gpt_state(self):
        with pytest.raises(ValueError, match="px must have shape"):
            GptStateN(
                n=3, z_probs=np.array([0.3, 0.3, 0.4]), px=np.empty((0, 0)), py=np.empty((0, 0))
            )
