"""Criterion 1 in dimension N: over a complete set of N + 1 mutually
unbiased bases the quadratic sum sum_b sum_i p_bi**2 is invariant under
every unitary (it is Tr rho**2 + 1), but the cubic sum is invariant only at
N = 2, where 1 - p**3 - q**3 = 3 p q ties it to the quadratic one.  The
bases for odd prime N are the computational basis and the Wootters-Fields
bases w**(a k**2 + j k) / sqrt N, w = exp(2 pi i / N)."""

import numpy as np
import pytest

from onebit.highdim import random_basis

#: Pauli eigenbases: the complete set at N = 2, the criterion 1 control.
QUBIT_MUBS = np.array(
    [
        np.eye(2),
        np.array([[1, 1], [1, -1]]) / np.sqrt(2),
        np.array([[1, 1], [1j, -1j]]) / np.sqrt(2),
    ],
    dtype=complex,
)


def wootters_fields(n):
    """The N + 1 bases of odd prime dimension ``n`` as an (N + 1, N, N)
    stack whose columns are the basis vectors: basis a + 1 has entry
    (k, j) = w**(a k**2 + j k) / sqrt N."""
    k = np.arange(n)[:, None]
    j = np.arange(n)[None, :]
    phases = [(a * k * k + j * k) % n for a in range(n)]
    return np.array([np.eye(n)] + [np.exp(2j * np.pi * p / n) / np.sqrt(n) for p in phases])


def mub_power_sum(bases, psi, power):
    """sum over bases b and outcomes i of |<b_i|psi>|**(2 power)."""
    p = np.abs(np.einsum("bki,k->bi", bases.conj(), psi)) ** 2
    return float(np.sum(p**power))


def largest_deviation(bases, power, draws=100):
    """Largest |S(U psi) - S(psi)| over seeded Haar pure states psi and
    Haar unitaries U, S the power sum."""
    n = bases.shape[1]
    rng = np.random.default_rng(2009)
    worst = 0.0
    for _ in range(draws):
        psi = random_basis(rng, n)[:, 0]
        u = random_basis(rng, n)
        change = mub_power_sum(bases, u @ psi, power) - mub_power_sum(bases, psi, power)
        worst = max(worst, abs(change))
    return worst


@pytest.mark.parametrize("n", [3, 5, 7])
def test_bases_are_orthonormal_and_mutually_unbiased(n):
    bases = wootters_fields(n)
    overlaps = np.abs(np.einsum("bki,ckj->bcij", bases.conj(), bases)) ** 2
    same = np.eye(n + 1, dtype=bool)[:, :, None, None]
    expected = np.where(same, np.eye(n), 1.0 / n)
    # measured: at most 8.9e-16
    assert np.max(np.abs(overlaps - expected)) <= 1e-14


@pytest.mark.parametrize("n", [3, 5, 7])
def test_the_quadratic_sum_is_invariant(n):
    # sum_b sum_i p_bi**2 = Tr rho**2 + 1 = 2 on pure states; measured: the
    # largest change over 100 draws is at most 3.8e-15
    bases = wootters_fields(n)
    psi = random_basis(np.random.default_rng(1), n)[:, 0]
    assert mub_power_sum(bases, psi, 2) == pytest.approx(2.0, abs=1e-14)
    assert largest_deviation(bases, 2) <= 2e-14


@pytest.mark.parametrize("n", [3, 5, 7])
def test_the_cubic_sum_is_not_invariant(n):
    # measured over 100 draws: 0.177, 0.236 and 0.126 at N = 3, 5 and 7
    assert largest_deviation(wootters_fields(n), 3) >= 0.1


def test_the_cubic_sum_is_invariant_for_one_qubit():
    # the criterion 1 coincidence: sum p**3 = 1 - 3 p q on each binary pair;
    # measured: 4.2e-15 and 4.7e-15
    assert largest_deviation(QUBIT_MUBS, 2) <= 2e-14
    assert largest_deviation(QUBIT_MUBS, 3) <= 2e-14
