"""N-dimensional states as probability vectors, degree-of-freedom
counting, post-selection onto pair qubits, and the one-bit positivity
criterion for Hermitian unit-trace operators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measures import QUADRATIC
from .qubit import QubitState, total_uncertainty_state

#: Tolerance on hermiticity, unit trace, and basis orthonormality.
HERMITIAN_TOL = 1e-9
#: Below this pair weight a post-selection branch is untestable.
POSTSELECT_EPS = 1e-12

_INT64_MAX = 2**63 - 1

STRATEGIES = ("fixed-basis", "sampled", "eigen-directed")


def degrees_of_freedom(n: int, m: int = 3) -> int:
    """Number of independent probabilities specifying an N-level state when
    every post-selected pair takes m independent measurements:
    N - 1 + N (N - 1) (m - 1) / 2.  Exact integer arithmetic."""
    if n < 2:
        raise ValueError(f"dimension must be >= 2, got {n}")
    if m < 1:
        raise ValueError(f"measurement count must be >= 1, got {m}")
    return (n - 1) + n * (n - 1) * (m - 1) // 2


def hierarchy_k(n: int, r: int) -> int:
    """N**r - 1, the degree-of-freedom count of the r-th theory in the
    multiplicative hierarchy.  Results beyond the signed 64-bit range are
    rejected rather than silently widened."""
    if n < 2:
        raise ValueError(f"dimension must be >= 2, got {n}")
    if r < 1:
        raise ValueError(f"hierarchy level must be >= 1, got {r}")
    # n >= 2**(bits - 1), so past this bound n**r >= 2**64 without computing it
    if r * (int(n).bit_length() - 1) >= 64:
        raise OverflowError(f"{n}**{r} - 1 exceeds the 64-bit integer range")
    value = n**r - 1
    if value > _INT64_MAX:
        raise OverflowError(f"{n}**{r} - 1 exceeds the 64-bit integer range")
    return value


def counting_consistency(n_max: int, m_values, r_values) -> list[tuple[int, int]]:
    """All (m, r) pairs for which the pairwise counting formula equals
    N**r - 1 for every N in 2..n_max.

    With n_max >= 3 the answer is exactly [(3, 2)]; with n_max == 2 a
    single equation cannot pin both unknowns and spurious pairs appear.
    """
    m_values = list(m_values)
    r_values = list(r_values)
    if n_max < 2:
        raise ValueError(f"n_max must be >= 2, got {n_max}")
    if not m_values or not r_values:
        raise ValueError("m and r ranges must be nonempty")
    matches = []
    for m in m_values:
        for r in r_values:
            if all(
                degrees_of_freedom(n, m) == n**r - 1 for n in range(2, n_max + 1)
            ):
                matches.append((m, r))
    return matches


@dataclass(frozen=True)
class HermitianOperator:
    """N x N Hermitian matrix with unit trace.

    Finite entries, hermiticity and trace are enforced at construction;
    positivity is deliberately not, since deciding it is what the
    information criterion and the eigenvalue oracle are for.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"operator must be square, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise ValueError("operator entries must be finite")
        gap = float(np.max(np.abs(m - m.conj().T)))
        if gap > HERMITIAN_TOL:
            raise ValueError(f"matrix is not Hermitian (gap {gap:.3g})")
        trace = complex(np.trace(m))
        if abs(trace - 1.0) > HERMITIAN_TOL:
            raise ValueError(f"trace {trace.real:.6g} differs from 1")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class GptStateN:
    """N-level state as N**2 - 1 probabilities: the N outcomes of the
    reference Z measurement plus, for each outcome pair (i, j) with i < j,
    the unnormalized interference probabilities (p_xij, p_yij)."""

    n: int
    z_probs: np.ndarray
    pair_probs: dict[tuple[int, int], tuple[float, float]]

    def __post_init__(self):
        z = np.array(self.z_probs, dtype=float)
        if z.shape != (self.n,):
            raise ValueError(f"z_probs must have length {self.n}, got {z.shape}")
        z.setflags(write=False)
        object.__setattr__(self, "z_probs", z)
        expected = {(i, j) for i in range(self.n) for j in range(i + 1, self.n)}
        if set(self.pair_probs) != expected:
            raise ValueError("pair_probs must hold exactly the pairs i < j")


def gpt_invariant_violations(state: GptStateN, tol: float = HERMITIAN_TOL) -> list[str]:
    """Human-readable list of violated state invariants (empty when the
    state is consistent): Z outcomes in [0, 1] summing to 1, and each pair
    probability within [0, p_i + p_j]."""
    msgs = []
    z = state.z_probs
    if np.any(z < -tol) or np.any(z > 1.0 + tol):
        msgs.append(f"z_probs outside [0, 1]: {z.tolist()}")
    total = float(z.sum())
    if abs(total - 1.0) > tol:
        msgs.append(f"z_probs sum {total:.6g} differs from 1")
    for (i, j), (px, py) in sorted(state.pair_probs.items()):
        cap = float(z[i] + z[j])
        for name, value in (("x", px), ("y", py)):
            if value < -tol or value > cap + tol:
                msgs.append(
                    f"p_{name}{i}{j} = {value:.6g} outside [0, p_{i} + p_{j} = {cap:.6g}]"
                )
    return msgs


def _check_basis(basis, n: int, tol: float) -> np.ndarray:
    b = np.asarray(basis, dtype=complex)
    if b.shape != (n, n):
        raise ValueError(f"basis must be {n}x{n}, got shape {b.shape}")
    gap = float(np.max(np.abs(b.conj().T @ b - np.eye(n))))
    if gap > tol:
        raise ValueError(f"basis columns are not orthonormal (gap {gap:.3g})")
    return b


def conjugate_into_basis(rho: HermitianOperator, basis) -> HermitianOperator:
    """The same operator expressed in the given orthonormal basis
    (columns are the basis vectors)."""
    b = _check_basis(basis, rho.n, HERMITIAN_TOL)
    return HermitianOperator(b.conj().T @ rho.matrix @ b)


def gpt_from_density(
    rho: HermitianOperator, basis=None, tol: float = HERMITIAN_TOL
) -> GptStateN:
    """Read off the Z / X_ij / Y_ij outcome probabilities of an operator
    in an orthonormal basis (default computational).

    z_k = <k|rho|k>, and for each pair the pseudo-spin probabilities are
    p_xij = (rho_ii + rho_jj)/2 + Re rho_ij and
    p_yij = (rho_ii + rho_jj)/2 + Im rho_ij.  For positive rho the result
    satisfies every state invariant; for indefinite rho the violations are
    exactly what :func:`gpt_invariant_violations` flags.
    """
    m = rho.matrix
    if basis is not None:
        b = _check_basis(basis, rho.n, tol)
        m = b.conj().T @ m @ b
    n = rho.n
    z = np.real(np.diag(m)).copy()
    pairs = {}
    for i in range(n):
        for j in range(i + 1, n):
            half = 0.5 * (m[i, i].real + m[j, j].real)
            pairs[(i, j)] = (half + m[i, j].real, half + m[i, j].imag)
    return GptStateN(n=n, z_probs=z, pair_probs=pairs)


def postselect(state: GptStateN, i: int, j: int, eps: float = POSTSELECT_EPS) -> QubitState:
    """Pair qubit prepared by conditioning on outcomes i or j.

    The surviving probabilities renormalize by s = p_i + p_j and are
    otherwise unchanged; sectors come out as (p_x/s, 1 - p_x/s),
    (p_y/s, 1 - p_y/s), (p_i/s, p_j/s).  Branches with s <= eps are
    untestable and rejected.  The result is built without physicality
    checks: detecting unphysical pair qubits is the criterion's job.
    """
    if i == j:
        raise ValueError("post-selection needs two distinct outcomes")
    if not (0 <= i < state.n and 0 <= j < state.n):
        raise ValueError(f"outcome indices ({i}, {j}) out of range for n={state.n}")
    p_i = float(state.z_probs[i])
    p_j = float(state.z_probs[j])
    s = p_i + p_j
    if s <= eps:
        raise ValueError(
            f"post-selection on outcomes ({i}, {j}) has probability {s:.3g}; "
            "branch untestable"
        )
    px, py = state.pair_probs[(min(i, j), max(i, j))]
    if i > j:
        # reversed orientation flips the pair pseudo-spins' sign conventions
        py = s - py
    return QubitState((px / s, 1.0 - px / s, py / s, 1.0 - py / s, p_i / s, p_j / s))


def pair_uncertainty(state: GptStateN, i: int, j: int) -> float:
    """Total quadratic uncertainty (alpha = 2, k = 2) of the post-selected
    pair qubit.  At least 2 exactly when the pair minor is nonnegative;
    values below 2 witness an unphysical pair."""
    return total_uncertainty_state(postselect(state, i, j), QUADRATIC)


def minor_condition(rho: HermitianOperator, i: int, j: int) -> float:
    """rho_ii rho_jj - |rho_ij|**2.  Nonnegative for every pair in every
    basis exactly when the operator is positive."""
    m = rho.matrix
    return float(m[i, i].real * m[j, j].real - abs(m[i, j]) ** 2)


@dataclass(frozen=True)
class PositivityWitness:
    """Where a positivity check failed: the basis (label and matrix), the
    violating outcome pair with its minor and pair uncertainty, or the
    oracle's minimal eigenpair."""

    basis: str
    pair: tuple[int, int] | None = None
    minor: float | None = None
    pair_total: float | None = None
    eigenvalue: float | None = None
    basis_matrix: np.ndarray | None = None
    vector: np.ndarray | None = None


@dataclass(frozen=True)
class PositivityVerdict:
    positive: bool
    witness: PositivityWitness | None
    strategy: str


def random_basis(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-random orthonormal basis (columns), via QR of a complex
    Gaussian matrix with the phase fix."""
    z = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d)).conj()


def eigen_positivity_oracle(rho: HermitianOperator, tol: float = 1e-9) -> PositivityVerdict:
    """Ground truth for positivity: smallest eigenvalue of the operator,
    accepted down to -tol relative to the largest diagonal entry."""
    try:
        values, vectors = np.linalg.eigh(rho.matrix)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"eigendecomposition failed: {exc}") from exc
    threshold = tol * float(np.max(np.real(np.diag(rho.matrix))))
    smallest = float(values[0])
    if smallest >= -threshold:
        return PositivityVerdict(True, None, "eigen-oracle")
    witness = PositivityWitness(
        basis="eigenbasis", eigenvalue=smallest, vector=vectors[:, 0].copy()
    )
    return PositivityVerdict(False, witness, "eigen-oracle")


def info_positivity_check(
    rho: HermitianOperator,
    strategy: str = "eigen-directed",
    n_bases: int = 8,
    seed: int = 0,
    tol: float = 1e-9,
) -> PositivityVerdict:
    """One-bit criterion for positivity: every post-selected pair qubit
    must carry total quadratic uncertainty >= 2, equivalently every pair
    minor rho_ii rho_jj - |rho_ij|**2 must be nonnegative, in every
    checked Z basis.

    'fixed-basis' checks the computational basis only, a necessary
    condition that misses negativity hidden off the diagonal; 'sampled'
    adds ``n_bases`` Haar-random bases; 'eigen-directed' additionally
    checks the eigenbasis, where any intolerable negative eigenvalue pairs
    against the largest one with a negative minor, making the verdict
    coincide with :func:`eigen_positivity_oracle` at the shared tolerance.

    The violation threshold is tol times the largest diagonal entry of the
    input times the largest diagonal entry seen across the checked bases:
    the exact minor-scale image of the oracle's eigenvalue tolerance, so
    criterion and oracle are calibrated against each other.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"strategy must be one of {STRATEGIES}, got {strategy!r}")
    n = rho.n
    views: list[tuple[str, np.ndarray | None, np.ndarray]] = [
        ("computational", None, rho.matrix)
    ]
    if strategy in ("sampled", "eigen-directed"):
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        for idx in range(n_bases):
            basis = random_basis(rng, n)
            views.append((f"sampled[{idx}]", basis, basis.conj().T @ rho.matrix @ basis))
    if strategy == "eigen-directed":
        try:
            _, vectors = np.linalg.eigh(rho.matrix)
        except np.linalg.LinAlgError as exc:
            raise RuntimeError(f"eigendecomposition failed: {exc}") from exc
        views.append(("eigenbasis", vectors, vectors.conj().T @ rho.matrix @ vectors))

    scale = max(float(np.max(np.real(np.diag(m)))) for _, _, m in views)
    threshold = tol * float(np.max(np.real(np.diag(rho.matrix)))) * scale

    worst: tuple[float, str, np.ndarray | None, tuple[int, int]] | None = None
    for label, basis, m in views:
        diag = np.real(np.diag(m))
        for i in range(n):
            for j in range(i + 1, n):
                minor = float(diag[i] * diag[j] - abs(m[i, j]) ** 2)
                if minor < -threshold and (worst is None or minor < worst[0]):
                    worst = (minor, label, basis, (i, j))
    if worst is None:
        return PositivityVerdict(True, None, strategy)

    minor, label, basis, (i, j) = worst
    gpt = gpt_from_density(rho, basis)
    try:
        pair_total = pair_uncertainty(gpt, i, j)
    except ValueError:
        pair_total = None
    witness = PositivityWitness(
        basis=label,
        pair=(i, j),
        minor=minor,
        pair_total=pair_total,
        basis_matrix=None if basis is None else np.array(basis),
    )
    return PositivityVerdict(False, witness, strategy)


def random_density(rng: np.random.Generator, n: int) -> HermitianOperator:
    """Random positive unit-trace operator G G^dagger / Tr(G G^dagger)."""
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    m = g @ g.conj().T
    return HermitianOperator(m / np.trace(m).real)


def random_with_min_eigenvalue(
    rng: np.random.Generator, n: int, smallest: float
) -> HermitianOperator:
    """Unit-trace Hermitian operator with its smallest eigenvalue placed
    exactly at ``smallest`` (Haar-random eigenbasis).

    Covers indefinite operators (smallest < 0) and near-boundary cases
    (|smallest| tiny) with controlled spectra.
    """
    if smallest >= 1.0 / n:
        raise ValueError(
            f"smallest eigenvalue {smallest} cannot be the minimum of a "
            f"unit-trace spectrum in dimension {n}"
        )
    rest = rng.uniform(1.0, 2.0, size=n - 1)
    rest = rest / rest.sum() * (1.0 - smallest)
    if float(rest.min()) < smallest:
        raise ValueError(
            f"requested minimum {smallest} is not below the bulk spectrum"
        )
    values = np.concatenate([[smallest], rest])
    basis = random_basis(rng, n)
    return HermitianOperator((basis * values) @ basis.conj().T)
