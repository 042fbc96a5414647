"""N-dimensional states as probability vectors, degree-of-freedom
counting, post-selection onto pair qubits, and the one-bit positivity
criterion for Hermitian unit-trace operators.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .measures import QUADRATIC, _check_positive_finite
from .qubit import QubitState, _haar_q, _orthonormality_gap, total_uncertainty_state

#: Tolerance on hermiticity, unit trace, and basis orthonormality.
HERMITIAN_TOL = 1e-9
#: Below this pair weight a post-selection branch is untestable.
POSTSELECT_EPS = 1e-12

#: Largest magnitude of an operator entry's real or imaginary part, so that
#: no product the check forms overflows.  An entry's modulus is then below
#: 2e100, and a view entry, at most the Frobenius norm, below
#: 64 x 2e100 = 1.28e102 at the CLI's dimension cap: every pair minor is
#: below 1e205, and a post-selected pair probability, at most twice that
#: over a weight above ``POSTSELECT_EPS`` = 1e-12, squares to below 1e230.
#: An entry of 1e160 would make the minors -inf.
MAX_ENTRY = 1e100

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

    With n_max >= 3 the answer holds at most two pairs, each only when
    the ranges contain it: (1, 1), the classical count N - 1, and (3, 2),
    the quantum count N**2 - 1.  (N = 2 and N = 3 force m = 2**r - 1 =
    3**(r - 1), which only r = 1 and r = 2 solve.)  With n_max == 2 a
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

    Entries (real and imaginary parts each finite and at most
    ``MAX_ENTRY`` in magnitude), hermiticity and trace are enforced at
    construction; positivity is deliberately not, since deciding it is
    what the information criterion and the eigenvalue oracle are for.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"operator must be square, got shape {m.shape}")
        largest = float(np.max(np.abs(m.view(float)), initial=0.0))
        if not largest <= MAX_ENTRY:  # a NaN fails too
            raise ValueError(
                f"operator entries must be finite and at most {MAX_ENTRY:g} in magnitude, "
                f"got {largest:g}"
            )
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

    @cached_property
    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only eigenvalues (ascending) and eigenvectors (columns) of
        the matrix, from the package's one ``np.linalg.eigh`` call, kept for
        the operator's lifetime.  A failed decomposition raises RuntimeError
        and is not kept: the next read tries again."""
        try:
            values, vectors = np.linalg.eigh(self.matrix)
        except np.linalg.LinAlgError as exc:
            raise RuntimeError(f"eigendecomposition failed: {exc}") from exc
        values.setflags(write=False)
        vectors.setflags(write=False)
        return values, vectors


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
    gap = _orthonormality_gap(b)
    if not gap <= HERMITIAN_TOL:  # a NaN gap fails too
        raise ValueError(f"basis columns are not orthonormal (gap {gap:.3g})")
    return b


def _conjugate(b: np.ndarray, m: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """b^dagger m b: ``m`` in the basis of the columns of ``b``, batched
    over leading axes of ``b``; written into ``out`` when given."""
    return np.matmul(np.swapaxes(b.conj(), -1, -2) @ m, b, out=out)


def conjugate_into_basis(rho: HermitianOperator, basis) -> HermitianOperator:
    """The same operator expressed in the given orthonormal basis
    (columns are the basis vectors)."""
    return HermitianOperator(_conjugate(_check_basis(basis, rho.n), rho.matrix))


def gpt_from_density(rho: HermitianOperator) -> GptStateN:
    """Read off the Z / X_ij / Y_ij outcome probabilities of an operator
    in the computational basis; for another orthonormal basis, read off
    ``conjugate_into_basis(rho, basis)``.

    z_k = <k|rho|k>, and for each pair the pseudo-spin probabilities are
    p_xij = (rho_ii + rho_jj)/2 + Re rho_ij and
    p_yij = (rho_ii + rho_jj)/2 + Im rho_ij.  For positive rho the result
    satisfies every state invariant; for indefinite rho the violations are
    exactly what :func:`gpt_invariant_violations` flags.
    """
    return _read_off(rho.matrix)


def _read_off(m: np.ndarray) -> GptStateN:
    """The outcome probabilities of :func:`gpt_from_density`, read off an
    operator matrix already expressed in the measured basis."""
    d = np.real(np.diag(m))
    half = 0.5 * (d[:, None] + d[None, :])
    return GptStateN(n=m.shape[0], z_probs=d, px=half + m.real, py=half + m.imag)


def _check_pair(n: int, i: int, j: int) -> None:
    """Raise ValueError unless i and j are two distinct outcomes of n.
    Scalar comparisons, no numpy: callers check an operator's every pair
    one call at a time."""
    if i == j:
        raise ValueError("an outcome pair needs two distinct outcomes")
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"outcome indices ({i}, {j}) out of range for n={n}")


def postselect(state: GptStateN, i: int, j: int) -> QubitState:
    """Pair qubit prepared by conditioning on outcomes i or j.

    The surviving probabilities renormalize by s = p_i + p_j and are
    otherwise unchanged; sectors come out as (p_x/s, 1 - p_x/s),
    (p_y/s, 1 - p_y/s), (p_i/s, p_j/s).  Branches with
    s <= POSTSELECT_EPS are untestable and rejected.  The result is built
    without physicality checks: detecting unphysical pair qubits is the
    criterion's job.
    """
    _check_pair(state.n, i, j)
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
    basis exactly when the operator is positive.  Raises ValueError unless
    i and j are two distinct outcomes, as :func:`postselect` does.

    It keeps its own scalar products, the ones of :func:`_pair_minors`,
    since that kernel on one 2x2 block gives the same bits about 8x slower
    (ROADMAP, "Measured and not pursued")."""
    _check_pair(rho.n, i, j)
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
    (count, n, n): the QRs of the complex Gaussian matrices
    (z[:, 0] + i z[:, 1]) / sqrt(2), normals ``z`` of shape (count, 2, n, n)
    from one draw, with the phase fix (``qubit._haar_q``)."""
    z = rng.normal(size=(count, 2, n, n))
    return _haar_q((z[:, 0] + 1j * z[:, 1]) / np.sqrt(2.0))


def random_basis(rng: np.random.Generator, n: int) -> np.ndarray:
    """One Haar-random orthonormal basis (columns), as :func:`_random_bases`
    draws it."""
    return _random_bases(rng, 1, n)[0]


def eigen_positivity_oracle(rho: HermitianOperator, tol: float = 1e-9) -> PositivityVerdict:
    """Ground truth for positivity: smallest eigenvalue of the operator,
    accepted down to -tol relative to the largest diagonal entry.  Reads
    the operator's one eigendecomposition, which the 'eigen-directed'
    check shares.  Raises ValueError unless ``tol`` is positive and
    finite."""
    _check_positive_finite("tol", tol)
    values, vectors = rho.eigensystem
    threshold = tol * float(np.max(np.real(np.diag(rho.matrix))))
    smallest = float(values[0])
    if smallest >= -threshold:
        return PositivityVerdict(True, None, "eigen-oracle")
    witness = PositivityWitness(
        basis="eigenbasis", eigenvalue=smallest, vector=vectors[:, 0].copy()
    )
    return PositivityVerdict(False, witness, "eigen-oracle")


def _check_views(rho: HermitianOperator, n_sampled: int, eigen: bool, seed: int):
    """The check's frames and views of the operator ``rho``.

    The frames are one (F, n, n) basis stack: the eigenbasis of
    ``rho.eigensystem`` when ``eigen``, else ``n_sampled`` Haar bases whose
    normals are one draw from ``seed``.  The views are one (F + 1, n, n)
    stack: the matrix itself, then the matrix in frame f as view f + 1.
    """
    m, n = rho.matrix, rho.n
    if eigen:
        bases = rho.eigensystem[1][None]
    else:
        bases = _random_bases(np.random.default_rng(np.random.SeedSequence(seed)), n_sampled, n)
    views = np.empty((len(bases) + 1, n, n), complex)
    views[0] = m
    _conjugate(bases, m, out=views[1:])
    return bases, views


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
    adds ``n_bases`` Haar-random bases drawn from ``seed``;
    'eigen-directed' checks the eigenbasis instead, where any intolerable
    negative eigenvalue pairs against the largest one with a negative
    minor, making the verdict coincide with :func:`eigen_positivity_oracle`
    at the shared tolerance; both read ``rho.eigensystem``, so the
    operator is decomposed once.  By Cauchy interlacing, when lambda_min < 0 a
    pair minor in any frame is at least lambda_min * lambda_max, the
    eigenbasis pair's minor (and when lambda_min >= 0 none is negative),
    so no further frame can change that verdict: ``n_bases`` and ``seed``
    affect 'sampled' alone.

    The violation threshold is tol times the largest diagonal entry of the
    input times the largest diagonal entry seen across the checked bases:
    the exact minor-scale image of the oracle's eigenvalue tolerance, so
    criterion and oracle are calibrated against each other.

    The views are one (V, n, n) stack: computational, then
    sampled[0..n_bases-1] or the eigenbasis.  The witness is the smallest
    minor over every view and pair i < j; ties go to the earliest view,
    then the first pair in row-major order.  Its pair qubit is read off
    that view of the stack, not conjugated again.  At n = 1 there is no
    pair: the operator is positive with no witness.  Raises ValueError when
    ``n_bases`` is negative or ``tol`` is not positive and finite.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"strategy must be one of {STRATEGIES}, got {strategy!r}")
    if n_bases < 0:
        raise ValueError(f"n_bases must be >= 0, got {n_bases}")
    _check_positive_finite("tol", tol)
    n = rho.n
    n_sampled = n_bases if strategy == "sampled" else 0
    bases, views = _check_views(rho, n_sampled, strategy == "eigen-directed", seed)

    diag = np.real(np.diagonal(views, axis1=1, axis2=2))
    threshold = tol * float(np.max(diag[0])) * float(np.max(diag))

    minors = _pair_minors(views)
    np.copyto(minors, np.inf, where=np.tri(n, dtype=bool))  # only pairs i < j compete
    # np.argmin takes the first minimum in (view, i, j) order: the tie rule
    v, pair = divmod(int(np.argmin(minors)), n * n)
    i, j = divmod(pair, n)
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
