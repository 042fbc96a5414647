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
    return [
        (m, r) for m in m_values for r in r_values
        if all(degrees_of_freedom(n, m) == n**r - 1 for n in range(2, n_max + 1))
    ]


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
    reference Z measurement plus, for each outcome pair i < j, the
    unnormalized interference probabilities p_xij = px[i, j] and
    p_yij = py[i, j]; only the upper triangle of the (n, n) arrays is read."""

    n: int
    z_probs: np.ndarray
    px: np.ndarray
    py: np.ndarray

    def __post_init__(self):
        for name, shape in (("z_probs", (self.n,)), ("px", (self.n,) * 2), ("py", (self.n,) * 2)):
            a = np.array(getattr(self, name), dtype=float)
            if a.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {a.shape}")
            if not np.isfinite(a).all():
                raise ValueError(f"{name} entries must be finite")
            a.setflags(write=False)
            object.__setattr__(self, name, a)


def gpt_invariant_violations(state: GptStateN) -> list[str]:
    """Human-readable list of violated state invariants (empty when the
    state is consistent): Z outcomes in [0, 1] summing to 1, then each pair
    probability within [0, p_i + p_j], pairs row-major and x before y; each
    bound holds within ``HERMITIAN_TOL``."""
    msgs = []
    z = state.z_probs
    if np.any(z < -HERMITIAN_TOL) or np.any(z > 1.0 + HERMITIAN_TOL):
        msgs.append(f"z_probs outside [0, 1]: {z.tolist()}")
    total = float(z.sum())
    if abs(total - 1.0) > HERMITIAN_TOL:
        msgs.append(f"z_probs sum {total:.6g} differs from 1")
    i, j = np.triu_indices(state.n, 1)
    cap = z[i] + z[j]
    values = np.stack([state.px[i, j], state.py[i, j]], axis=1)
    outside = (values < -HERMITIAN_TOL) | (values > cap[:, None] + HERMITIAN_TOL)
    for k, axis in zip(*np.nonzero(outside)):
        msgs.append(
            f"p_{'xy'[axis]}{i[k]}{j[k]} = {values[k, axis]:.6g} "
            f"outside [0, p_{i[k]} + p_{j[k]} = {cap[k]:.6g}]"
        )
    return msgs


def _check_basis(basis, n: int) -> np.ndarray:
    b = np.asarray(basis, dtype=complex)
    if b.shape != (n, n):
        raise ValueError(f"basis must be {n}x{n}, got shape {b.shape}")
    gap = float(np.max(np.abs(b.conj().T @ b - np.eye(n))))
    if gap > HERMITIAN_TOL:
        raise ValueError(f"basis columns are not orthonormal (gap {gap:.3g})")
    return b


def _conjugate(b: np.ndarray, m: np.ndarray) -> np.ndarray:
    """b^dagger m b: ``m`` in the basis of the columns of ``b``, batched
    over leading axes of ``b``."""
    return np.swapaxes(b.conj(), -1, -2) @ m @ b


def conjugate_into_basis(rho: HermitianOperator, basis) -> HermitianOperator:
    """The same operator expressed in the given orthonormal basis
    (columns are the basis vectors)."""
    return HermitianOperator(_conjugate(_check_basis(basis, rho.n), rho.matrix))


def gpt_from_density(rho: HermitianOperator, basis=None) -> GptStateN:
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
        m = _conjugate(_check_basis(basis, rho.n), m)
    return _read_off(m)


def _read_off(m: np.ndarray) -> GptStateN:
    """The outcome probabilities of :func:`gpt_from_density`, read off an
    operator matrix already expressed in the measured basis."""
    d = np.real(np.diag(m))
    half = 0.5 * (d[:, None] + d[None, :])
    return GptStateN(n=m.shape[0], z_probs=d, px=half + m.real, py=half + m.imag)


def postselect(state: GptStateN, i: int, j: int) -> QubitState:
    """Pair qubit prepared by conditioning on outcomes i or j.

    The surviving probabilities renormalize by s = p_i + p_j and are
    otherwise unchanged; sectors come out as (p_x/s, 1 - p_x/s),
    (p_y/s, 1 - p_y/s), (p_i/s, p_j/s).  Branches with
    s <= POSTSELECT_EPS are untestable and rejected.  The result is built
    without physicality checks: detecting unphysical pair qubits is the
    criterion's job.
    """
    if i == j:
        raise ValueError("post-selection needs two distinct outcomes")
    if not (0 <= i < state.n and 0 <= j < state.n):
        raise ValueError(f"outcome indices ({i}, {j}) out of range for n={state.n}")
    p_i = float(state.z_probs[i])
    p_j = float(state.z_probs[j])
    s = p_i + p_j
    if s <= POSTSELECT_EPS:
        raise ValueError(
            f"post-selection on outcomes ({i}, {j}) has probability {s:.3g}; "
            "branch untestable"
        )
    a, b = min(i, j), max(i, j)
    px, py = state.px[a, b], state.py[a, b]
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
    re, im = m[i, j].real, m[i, j].imag
    return float(m[i, i].real * m[j, j].real - (re * re + im * im))


def _pair_minors(m: np.ndarray) -> np.ndarray:
    """Entry (..., i, j) is m_ii m_jj - |m_ij|**2, for matrices stacked
    along leading axes; the products of :func:`minor_condition`, so the
    two agree bit for bit."""
    d = np.real(np.diagonal(m, axis1=-2, axis2=-1))
    re, im = m.real, m.imag
    return d[..., :, None] * d[..., None, :] - (re * re + im * im)


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


def _random_bases(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    """``count`` Haar-random orthonormal bases (columns), shape
    (count, n, n), via one stacked QR of complex Gaussian matrices with the
    phase fix.  Draws the same normals, in the same order, as ``count``
    calls of :func:`random_basis`, and returns the same matrices."""
    z = rng.normal(size=(count, 2, n, n))
    q, r = np.linalg.qr((z[:, 0] + 1j * z[:, 1]) / np.sqrt(2.0))
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d)).conj()[..., None, :]


def random_basis(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-random orthonormal basis (columns), via QR of a complex
    Gaussian matrix with the phase fix."""
    return _random_bases(rng, 1, n)[0]


def _eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors of a Hermitian matrix; a
    failed decomposition raises RuntimeError."""
    try:
        return np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"eigendecomposition failed: {exc}") from exc


def eigen_positivity_oracle(rho: HermitianOperator, tol: float = 1e-9) -> PositivityVerdict:
    """Ground truth for positivity: smallest eigenvalue of the operator,
    accepted down to -tol relative to the largest diagonal entry."""
    values, vectors = _eigh(rho.matrix)
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

    The views are one (V, n, n) stack: computational, sampled[0..n_bases-1],
    eigenbasis.  The witness is the smallest minor over every view and pair
    i < j; ties go to the earliest view, then the first pair in row-major order.
    Its pair qubit is read off that view of the stack, not conjugated again.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"strategy must be one of {STRATEGIES}, got {strategy!r}")
    n = rho.n
    n_sampled = 0 if strategy == "fixed-basis" else n_bases
    bases = _random_bases(np.random.default_rng(np.random.SeedSequence(seed)), n_sampled, n)
    if strategy == "eigen-directed":
        bases = np.concatenate([bases, _eigh(rho.matrix)[1][None]])
    views = np.concatenate([rho.matrix[None], _conjugate(bases, rho.matrix)])

    diag = np.real(np.diagonal(views, axis1=1, axis2=2))
    threshold = tol * float(np.max(diag[0])) * float(np.max(diag))

    minors = _pair_minors(views)
    lower_i, lower_j = np.tril_indices(n)
    minors[:, lower_i, lower_j] = np.inf
    # np.argmin takes the first minimum in (view, i, j) order: the tie rule
    v, i, j = (int(k) for k in np.unravel_index(int(np.argmin(minors)), minors.shape))
    minor = float(minors[v, i, j])
    if not minor < -threshold:
        return PositivityVerdict(True, None, strategy)

    basis = None if v == 0 else bases[v - 1]
    label = (
        "computational" if v == 0 else "eigenbasis" if v > n_sampled else f"sampled[{v - 1}]"
    )
    try:
        pair_total = pair_uncertainty(_read_off(views[v]), i, j)
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
