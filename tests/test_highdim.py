"""Tests for counting, post-selection, and the one-bit positivity criterion."""

import math
import re
from itertools import product

import numpy as np
import pytest

from onebit import highdim
from onebit.highdim import (
    HERMITIAN_TOL,
    MAX_ENTRY,
    POSTSELECT_EPS,
    STRATEGIES,
    GptStateN,
    HermitianOperator,
    _check_views,
    _conjugate,
    _pair_minors,
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

from math_reference import HALF_OR_TWICE, cholesky_succeeds


class TestCounting:
    @pytest.mark.parametrize(
        "n, m, count", [(2, 3, 3), (3, 3, 8), (2, 1, 1)], ids=["qubit", "qutrit", "classical-bit"]
    )
    def test_examples(self, n, m, count):
        assert degrees_of_freedom(n, m) == count

    def test_quadratic_scaling_identity(self):
        for n in range(2, 101):
            assert degrees_of_freedom(n, 3) == n * n - 1

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: degrees_of_freedom(1, 3), "dimension must be >= 2, got 1"),
            (lambda: degrees_of_freedom(3, 0), "measurement count must be >= 1, got 0"),
            (lambda: counting_consistency(1, [3], [2]), "n_max must be >= 2, got 1"),
        ],
        ids=["dimension", "measurement-count", "n-max"],
    )
    def test_rejects(self, call, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()

    def test_consistency_default_ranges(self):
        assert counting_consistency(50, range(2, 10), range(1, 5)) == [(3, 2)]

    def test_consistency_single_dimension_is_underdetermined(self):
        # one equation in two unknowns: spurious matches, documented
        matches = counting_consistency(2, range(2, 10), range(1, 5))
        assert (3, 2) in matches
        assert (7, 3) in matches

    def test_three_measurement_quadratic_case_matches_everywhere(self):
        assert counting_consistency(100, [3], [2]) == [(3, 2)]

    @pytest.mark.parametrize("n_max", [3, 4, 50])
    def test_consistency_with_m_1_adds_the_classical_count(self, n_max):
        # m = 1 gives K(N) = N - 1 = N**1 - 1; N = 2 and 3 already force
        # m = 2**r - 1 = 3**(r - 1), solved by r = 1 and r = 2 alone
        assert counting_consistency(n_max, range(1, 10), range(1, 5)) == [(1, 1), (3, 2)]

    def test_rejects_empty_ranges(self):
        with pytest.raises(ValueError):
            counting_consistency(10, [], [1, 2])


class TestHermitianOperator:
    def test_accepts_indefinite_unit_trace(self):
        op = HermitianOperator(np.diag([1.2, -0.2]))
        assert op.n == 2

    # NaN compares False against every tolerance, so it must be caught first
    @pytest.mark.parametrize(
        "matrix, start",
        [
            ([[0.5, 0.1], [0.3, 0.5]], r"matrix is not Hermitian \(gap 0\.2\)"),
            (np.diag([0.5, 0.4]), "trace 0.9 differs from 1"),
            (np.diag([math.nan] * 2), "operator entries must be finite .* got nan"),
            (np.diag([math.inf] * 2), "operator entries must be finite .* got inf"),
            ([[0.5, 0.5]], r"operator must be square, got shape \(1, 2\)$"),
        ],
        ids=["non-hermitian", "trace", "nan", "inf", "not-square"],
    )
    def test_rejects(self, matrix, start):
        with pytest.raises(ValueError, match="^" + start):
            HermitianOperator(np.array(matrix))

    @pytest.mark.parametrize("part", [1.0, 1j])
    @pytest.mark.parametrize("big", [1e101, 1e300])
    def test_rejects_entries_above_the_cap(self, big, part):
        # 1e300 made the pair minors -inf, with overflow warnings, in the check
        entry = big * part
        m = np.array([[0.5, entry], [np.conj(entry), 0.5]])
        with pytest.raises(ValueError, match=r"finite and at most 1e\+100 in magnitude, got 1e\+"):
            HermitianOperator(m)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_entries_at_the_cap_give_a_finite_witness(self, strategy):
        entry = MAX_ENTRY * (1.0 - 1.0j)
        rho = HermitianOperator(np.array([[0.5, entry], [np.conj(entry), 0.5]]))
        verdict = info_positivity_check(rho, strategy)
        assert -math.inf < verdict.witness.minor < 0.0


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
        # in basis b, z_k = <b_k|rho|b_k>
        rng = np.random.default_rng(42)
        rho = random_density(rng, 3)
        basis = random_basis(rng, 3)
        state = gpt_from_density(conjugate_into_basis(rho, basis))
        expected = [np.vdot(b, rho.matrix @ b).real for b in basis.T]
        np.testing.assert_allclose(state.z_probs, expected, atol=1e-12)

    @pytest.mark.parametrize(
        "basis, start",
        [
            ([[1.0, 1.0], [0.0, 0.0]], r"basis columns are not orthonormal \(gap 1\)$"),
            # no RuntimeWarning (an error under pytest) from the gap's product
            (np.diag([math.inf, 1.0]), r"basis columns are not orthonormal \(gap nan\)$"),
            (np.diag([1e200, 1.0]), r"basis columns are not orthonormal \(gap inf\)$"),
            (np.diag([1e200j, 1.0]), r"basis columns are not orthonormal \(gap inf\)$"),
            (np.eye(3), r"basis must be 2x2, got shape \(3, 3\)$"),
        ],
        ids=["gap", "inf", "1e200", "1e200j", "shape"],
    )
    def test_rejects_a_bad_basis(self, basis, start):
        rho = HermitianOperator(np.eye(2) / 2)
        with pytest.raises(ValueError, match="^" + start):
            conjugate_into_basis(rho, np.array(basis))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("where", ["everywhere", "one entry"])
    def test_rejects_a_non_finite_basis(self, bad, where):
        # a NaN gap fails the orthonormality test, not a later finiteness check
        basis = np.full((2, 2), bad) if where == "everywhere" else np.eye(2)
        basis[0, 0] = bad
        rho = HermitianOperator(np.eye(2) / 2)
        with pytest.raises(ValueError, match="^basis columns are not orthonormal"):
            conjugate_into_basis(rho, basis)

    def test_component_count(self):
        for n in (2, 3, 4, 6):
            state = gpt_from_density(HermitianOperator(np.eye(n) / n))
            i, j = np.triu_indices(state.n, 1)
            n_params = (state.n - 1) + state.px[i, j].size + state.py[i, j].size
            assert n_params == n * n - 1


def read_off(rho, basis=None):
    """``gpt_from_density`` in ``basis`` (computational when None)."""
    return gpt_from_density(rho if basis is None else conjugate_into_basis(rho, basis))


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
            state = read_off(rho, basis)
            z, pairs = dict_read_off(rho, basis)
            assert np.array_equal(state.z_probs, z)
            for (i, j), (px, py) in pairs.items():
                assert state.px[i, j] == px and state.py[i, j] == py

    def test_violation_messages_match_dict_loop(self):
        pair_messages = 0
        for rho, basis in layout_ensemble():
            z, pairs = dict_read_off(rho, basis)
            expected = dict_violations(z, pairs)
            assert gpt_invariant_violations(read_off(rho, basis)) == expected
            pair_messages += sum(msg.startswith("p_") for msg in expected)
        assert pair_messages > 0

    def test_postselect_matches_dict_loop_bitwise(self):
        rejected = 0
        for rho, basis in layout_ensemble():
            state = read_off(rho, basis)
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

    @HALF_OR_TWICE
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

    @pytest.mark.parametrize(
        "read", [lambda rho, i, j: postselect(gpt_from_density(rho), i, j), minor_condition],
        ids=["postselect", "minor_condition"],
    )
    @pytest.mark.parametrize(
        "i, j, start",
        [(1, 1, "an outcome pair needs two distinct outcomes")]
        + [(i, j, f"outcome indices ({i}, {j}) out of range for n=3")
           for i, j in [(0, 3), (3, 0), (-1, 0)]],
    )
    def test_rejects_a_bad_outcome_pair(self, read, i, j, start):
        # every outcome has weight 1/3, so a wrapped -1 would read a pair
        with pytest.raises(ValueError, match="^" + re.escape(start) + "$"):
            read(HermitianOperator(np.eye(3) / 3), i, j)

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


class TestMinorCondition:
    @pytest.mark.parametrize(
        "matrix, total, minor",
        [
            (np.eye(2) / 2, 3.0, 0.25),
            (np.full((2, 2), 0.5), 2.0, 0.0),
            # indefinite: the pair scores below 2
            ([[0.5, 0.6], [0.6, 0.5]], 1.56, -0.11),
        ],
        ids=["mixed", "plus", "indefinite"],
    )
    def test_pair_uncertainty_and_minor(self, matrix, total, minor):
        rho = HermitianOperator(np.array(matrix))
        assert pair_uncertainty(gpt_from_density(rho), 0, 1) == pytest.approx(total, abs=1e-12)
        assert minor_condition(rho, 0, 1) == pytest.approx(minor, abs=1e-15)

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

    @pytest.mark.parametrize("tol", [0.0, -1e-9, math.nan, math.inf])
    def test_rejects_tol_that_is_not_positive_and_finite(self, tol):
        # an infinite tol would accept this indefinite operator
        rho = HermitianOperator(np.array([[0.5, 0.6], [0.6, 0.5]]))
        with pytest.raises(ValueError, match="^tol must be positive and finite"):
            eigen_positivity_oracle(rho, tol=tol)


class TestInfoPositivityCheck:
    @pytest.mark.parametrize("n", [1, 4])
    def test_maximally_mixed_all_strategies(self, n):
        # at n = 1 there is no pair: every minor is masked
        rho = HermitianOperator(np.eye(n) / n)
        for strategy in STRATEGIES:
            verdict = info_positivity_check(rho, strategy, n_bases=4, seed=1)
            assert (verdict.positive, verdict.witness) == (True, None)
        oracle = eigen_positivity_oracle(rho)
        assert (oracle.positive, oracle.witness) == (True, None)

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
                state = read_off(rho, random_basis(rng, n))
                for i in range(n):
                    for j in range(i + 1, n):
                        if state.z_probs[i] + state.z_probs[j] < 1e-9:
                            continue
                        assert pair_uncertainty(state, i, j) >= 2.0 - 1e-9

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
            state = read_off(rho, w.basis_matrix)
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

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("tol", [0.0, -1e-9, math.nan, math.inf])
    def test_rejects_tol_that_is_not_positive_and_finite(self, strategy, tol):
        # a NaN tol read this indefinite operator as positive, and so did inf
        rho = HermitianOperator(np.array([[0.5, 0.6], [0.6, 0.5]]))
        with pytest.raises(ValueError, match="^tol must be positive and finite"):
            info_positivity_check(rho, strategy, tol=tol)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_rejects_a_negative_basis_count(self, strategy):
        rho = HermitianOperator(np.eye(2) / 2)
        with pytest.raises(ValueError, match="^n_bases must be >= 0, got -1$"):
            info_positivity_check(rho, strategy, n_bases=-1)

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

    def test_eigen_directed_checks_two_views_and_draws_nothing(self, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("eigen-directed drew a Haar frame")

        rho = random_with_min_eigenvalue(np.random.default_rng(3), 5, -0.1)
        monkeypatch.setattr(np.random, "default_rng", no_draws)
        monkeypatch.setattr(highdim, "_haar_q", no_draws)
        bases, views = _check_views(rho, 0, True, 0)
        assert bases.shape == (1, 5, 5) and views.shape == (2, 5, 5)
        verdict = info_positivity_check(rho, "eigen-directed", n_bases=8, seed=4)
        assert verdict.witness.basis == "eigenbasis"

    @pytest.mark.parametrize("n", [2, 3, 5, 16])
    def test_eigen_directed_witness_does_not_depend_on_n_bases_or_seed(self, n):
        # at n = 2 every frame ties up to rounding, so a drawn frame would
        # win some of these
        rng = np.random.default_rng(n)
        for _ in range(4 if n == 2 else 1):
            for smallest in (-0.2, -1e-4, 0.0):
                rho = random_with_min_eigenvalue(rng, n, smallest)
                bits = {
                    witness_bits(info_positivity_check(rho, "eigen-directed", n_bases, seed))
                    for n_bases, seed in product((0, 3, 8), (0, 1, 7))
                }
                assert len(bits) == 1, (n, smallest)

    def test_an_eigh_failure_is_a_runtime_error(self, monkeypatch, capfd):
        # and is not cached: a second check and the oracle decompose again
        calls = []

        def failing(m):
            calls.append(m)
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        original = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", failing)
        rho = random_density(np.random.default_rng(1), 8)
        for call in (
            lambda: info_positivity_check(rho, "eigen-directed", n_bases=8),
            lambda: info_positivity_check(rho, "eigen-directed", n_bases=8),
            lambda: eigen_positivity_oracle(rho),
        ):
            with pytest.raises(RuntimeError) as got:
                call()
            assert str(got.value) == "eigendecomposition failed: Eigenvalues did not converge"
        assert len(calls) == 3
        assert capfd.readouterr().err == ""
        monkeypatch.setattr(np.linalg, "eigh", original)
        assert eigen_positivity_oracle(rho).positive

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("n_bases", [0, 1, 3, 8, 9])
    @pytest.mark.parametrize("n", [2, 5, 31, 32, 64])
    def test_a_witness_names_its_view_of_the_stack(self, n, n_bases, strategy):
        # by the label rule: computational, then sampled[k], then eigenbasis
        rng = np.random.default_rng(n * 100 + n_bases)
        rho = random_with_min_eigenvalue(rng, n, -float(rng.uniform(1e-3, 0.3)))
        seed = int(rng.integers(1000))
        n_sampled = n_bases if strategy == "sampled" else 0
        eigen = strategy == "eigen-directed"
        bases, views = _check_views(rho, n_sampled, eigen, seed)
        w = info_positivity_check(rho, strategy, n_bases, seed).witness
        if w is None:  # no frame checked sees the negative direction
            assert not eigen
            return
        v = {"computational": 0, "eigenbasis": 1}.get(w.basis)
        if v is None:
            v = int(w.basis.removeprefix("sampled[").removesuffix("]")) + 1
        assert w.minor == _pair_minors(views[v])[w.pair]
        if v == 0:
            assert w.basis_matrix is None
        else:
            assert np.array_equal(w.basis_matrix, bases[v - 1])


class TestSharedEigensystem:
    """The check and the oracle read one eigendecomposition per operator,
    ``HermitianOperator.eigensystem``, computed on first use."""

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_check_and_oracle_make_one_eigh_call(self, monkeypatch, strategy):
        calls = []
        original = np.linalg.eigh

        def counted(m):
            calls.append(m)
            return original(m)

        rho = random_with_min_eigenvalue(np.random.default_rng(5), 16, -0.05)
        monkeypatch.setattr(np.linalg, "eigh", counted)
        for _ in range(2):
            info_positivity_check(rho, strategy, n_bases=3, seed=1)
            eigen_positivity_oracle(rho)
        assert len(calls) == 1
        assert calls[0] is rho.matrix

    def test_cached_arrays_reject_writes(self):
        rho = random_with_min_eigenvalue(np.random.default_rng(6), 4, -0.1)
        values, vectors = rho.eigensystem
        assert rho.eigensystem[0] is values and rho.eigensystem[1] is vectors
        for array, index in ((values, 0), (vectors, (0, 0))):
            with pytest.raises(ValueError, match="read-only"):
                array[index] = 0.0
        # the oracle's witness vector is a copy, free to change
        witness = eigen_positivity_oracle(rho).witness
        witness.vector[0] = 0.0
        assert vectors[0, 0] != 0.0

    def test_shared_and_fresh_decompositions_give_the_same_bits(self):
        # the detection table's ensemble plus n = 2: the oracle decomposes a
        # shared operator first and the check reads its arrays, against one
        # fresh copy of the operator for each side
        for n, smallest in [*DETECTION_TABLE, (2, -1e-1), (2, -1e-2)]:
            rng = np.random.default_rng(2009)
            for k in range(40):
                m = random_with_min_eigenvalue(rng, n, smallest).matrix
                shared = HermitianOperator(m)
                oracle = eigen_positivity_oracle(shared)
                check = info_positivity_check(shared, "eigen-directed", seed=k)
                fresh_check = info_positivity_check(HermitianOperator(m), "eigen-directed", seed=k)
                fresh_oracle = eigen_positivity_oracle(HermitianOperator(m))
                assert witness_bits(check) == witness_bits(fresh_check), (n, smallest, k)
                got, want = oracle.witness, fresh_oracle.witness
                assert got.eigenvalue.hex() == want.eigenvalue.hex(), (n, smallest, k)
                assert got.vector.tobytes() == want.vector.tobytes(), (n, smallest, k)


class TestEigenbasisBound:
    """The premise of 'eigen-directed': by Cauchy interlacing the
    eigenvalues mu_1 <= mu_2 of a pair block in any frame satisfy
    lambda_1 <= mu_1 and lambda_2 <= mu_2 <= lambda_n, so its minor
    mu_1 mu_2 is at least the smallest product lambda_i lambda_j (i < j),
    the smallest pair minor of the eigenbasis: lambda_min * lambda_max when
    lambda_min < 0 (Horn and Johnson, Matrix Analysis, Thm 4.3.17)."""

    @pytest.mark.parametrize("n", range(2, 17))
    def test_no_haar_frame_has_a_pair_minor_below_the_eigenbasis_floor(self, n):
        rng = np.random.default_rng(n)
        i, j = np.triu_indices(n, 1)
        for smallest in (-0.3, -0.01, -1e-8, 0.0, 0.01):
            rho = random_with_min_eigenvalue(rng, n, smallest)
            lam = np.linalg.eigvalsh(rho.matrix)
            floor = float(np.min(np.multiply.outer(lam, lam)[i, j]))
            if smallest < 0.0:
                assert floor == lam[0] * lam[-1]
            scale = float(np.max(np.abs(lam))) ** 2
            bases = np.array([random_basis(rng, n) for _ in range(16)])
            minors = _pair_minors(_conjugate(bases, rho.matrix))[:, i, j]
            assert float(np.min(minors)) >= floor - 1e-12 * scale, smallest
            eigen_view = _check_views(rho, 0, True, 0)[1][1]
            eigen_floor = float(np.min(_pair_minors(eigen_view)[i, j]))
            assert eigen_floor == pytest.approx(floor, abs=1e-12 * scale)


#: Operators detected, of 40 per cell, by fixed-basis and by sampled with 8
#: Haar bases: (n, lambda_min) -> (fixed-basis, sampled).  Measured by
#: TestDetectionTable, not assumed; eigen-directed detects all 40 in every cell.
DETECTION_TABLE = {
    (4, -1e-1): (25, 39),
    (4, -1e-2): (2, 2),
    (8, -1e-1): (9, 39),
    (8, -1e-2): (0, 0),
    (16, -1e-1): (6, 34),
    (16, -1e-2): (0, 0),
    (64, -1e-1): (10, 38),
    (64, -1e-2): (0, 0),
}


class TestDetectionTable:
    """How often each strategy sees a negative eigenvalue: 40 seeded
    ``random_with_min_eigenvalue`` operators per (n, lambda_min) cell.
    Random pair planes in high dimension rarely see a small negative
    direction, so ``sampled`` is one-sided evidence: a negative minor
    proves non-positivity, and no negative minor proves nothing."""

    def test_counts_per_strategy(self):
        measured = {}
        for n, smallest in DETECTION_TABLE:
            rng = np.random.default_rng(2009)
            counts = dict.fromkeys(STRATEGIES, 0)
            for k in range(40):
                rho = random_with_min_eigenvalue(rng, n, smallest)
                for strategy in STRATEGIES:
                    verdict = info_positivity_check(rho, strategy, n_bases=8, seed=k)
                    counts[strategy] += not verdict.positive
            assert counts["eigen-directed"] == 40, (n, smallest)
            measured[n, smallest] = (counts["fixed-basis"], counts["sampled"])
        assert measured == DETECTION_TABLE


def witness_bits(verdict):
    w = verdict.witness
    if w is None:
        return verdict.positive
    return (
        verdict.positive,
        w.basis,
        w.pair,
        w.minor.hex(),
        None if w.pair_total is None else w.pair_total.hex(),
        None if w.basis_matrix is None else w.basis_matrix.tobytes(),
    )


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

    @pytest.mark.parametrize(
        "n, smallest, message",
        [
            (2, 0.5, "smallest eigenvalue 0.5 cannot be the minimum of a unit-trace "
                     "spectrum in dimension 2"),
            # below 1/n, but above the smallest of this draw's other eigenvalues
            (10, 0.0999, "requested minimum 0.0999 is not below the bulk spectrum"),
        ],
        ids=["above-one-over-n", "above-the-bulk"],
    )
    def test_rejects(self, n, smallest, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            random_with_min_eigenvalue(np.random.default_rng(0), n, smallest)

    def test_batched_bases_match_sequential_draws_bitwise(self):
        # the check's sampled basis stack, and random_basis's draws, against
        # one basis at a time with the phase fix written out
        def loop_basis(rng, n):
            z = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / np.sqrt(2.0)
            q, r = np.linalg.qr(z)
            d = np.diag(r)
            return q * (d / np.abs(d))

        for n in (1, 2, 3, 6, 17):
            batch = _check_views(HermitianOperator(np.eye(n) / n), 5, False, n)[0]
            rng = np.random.default_rng(np.random.SeedSequence(n))
            assert np.array_equal(batch, [loop_basis(rng, n) for _ in range(5)])
            rng, loop_rng = np.random.default_rng(n), np.random.default_rng(n)
            singles = [random_basis(rng, n) for _ in range(3)]
            assert np.array_equal(singles, [loop_basis(loop_rng, n) for _ in range(3)])

    def test_random_basis_is_unitary(self):
        rng = np.random.default_rng(42)
        for n in (2, 5):
            b = random_basis(rng, n)
            np.testing.assert_allclose(b.conj().T @ b, np.eye(n), atol=1e-12)
