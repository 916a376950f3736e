"""Finite truncations of the semi-infinite ladder operators.

The semi-infinite matrices are

    S0 = diag(1/4, 5/4, 9/4, ...),
    S+ = subdiagonal sqrt((2k-1) 2k) / (2 sqrt(2)),   S- = S+^T,
    H  = S0 + gamma (S+ - S-),

together with the tilted su(1,1) triple T0, T+, T- (linear combinations of
the S's).  Everything here returns the leading M x M block.  Truncation
corrupts the last row/column, so algebraic identities are exact only on
leading interior blocks; eigen-data of the low modes converges geometrically
in M at rate |eta|.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, TruncationError
from .params import ModelParams, mode_energy

__all__ = [
    "TruncatedOperator",
    "BiorthogonalSystem",
    "ladder_couplings",
    "build_generators",
    "build_hamiltonian",
    "build_t_operators",
    "ground_vectors",
    "build_biorthogonal",
    "dense_biorthogonal",
    "dense_spectrum",
]


@dataclass(frozen=True)
class TruncatedOperator:
    """Leading M x M block of a labelled semi-infinite operator."""

    dim: int
    entries: np.ndarray
    label: str

    def __post_init__(self):
        if self.entries.shape != (self.dim, self.dim):
            raise ValueError(
                f"entries shape {self.entries.shape} does not match dim {self.dim}"
            )


@dataclass(frozen=True)
class BiorthogonalSystem:
    """Paired right/left eigenvectors sharing eigenvalues.

    Columns of ``right_vectors``/``left_vectors`` are psi_n / psi-tilde_n,
    normalized so that left^T right = identity (bilinear pairing, no
    conjugation).  Ladder-built systems are real with the analytic
    eigenvalues; dense-built systems of a truncation may carry complex
    conjugate eigenvalue pairs in the upper spectrum.
    """

    dim: int
    count: int
    eigenvalues: np.ndarray
    right_vectors: np.ndarray
    left_vectors: np.ndarray

    @property
    def is_real(self) -> bool:
        return not np.iscomplexobj(self.eigenvalues)

    def gram_defect(self) -> float:
        """Max deviation of left^T right from the identity."""
        g = self.left_vectors.T @ self.right_vectors
        return float(np.abs(g - np.eye(self.count)).max())


def ladder_couplings(m: int) -> np.ndarray:
    """Subdiagonal couplings s_k = sqrt((2k-1) 2k) / (2 sqrt(2)), k = 1..m-1."""
    k = np.arange(1, m, dtype=float)
    return np.sqrt((2 * k - 1) * (2 * k)) / (2.0 * np.sqrt(2.0))


def build_generators(M: int):
    """Truncated (S0, S+, S-) as TruncatedOperators.

    The su(1,1) commutators [S-,S0]=S-, [S0,S+]=S+, [S-,S+]=S0 hold exactly
    on the leading (M-1) x (M-1) block; the last diagonal entry of [S-,S+]
    carries the cut coupling.
    """
    if M < 2:
        raise ValueError(f"truncation order must be >= 2, got {M}")
    s = ladder_couplings(M)
    S0 = np.diag((4 * np.arange(1, M + 1) - 3) / 4.0)
    Sp = np.diag(s, -1)
    Sm = Sp.T.copy()
    return (
        TruncatedOperator(M, S0, "S0"),
        TruncatedOperator(M, Sp, "Splus"),
        TruncatedOperator(M, Sm, "Sminus"),
    )


def build_hamiltonian(params: ModelParams, M: int) -> TruncatedOperator:
    """Truncated H = S0 + gamma (S+ - S-): real tridiagonal, non-symmetric."""
    S0, Sp, Sm = build_generators(M)
    H = S0.entries + params.gamma * (Sp.entries - Sm.entries)
    return TruncatedOperator(M, H, "H")


def build_t_operators(params: ModelParams, M: int):
    """Truncated (T0, T+, T-), the tilted su(1,1) combinations of the S's.

    T0 equals H / Lambda identically.  At gamma = 0 the coefficients
    collapse and T = S.
    """
    S0, Sp, Sm = build_generators(M)
    g, lam = params.gamma, params.lambda_scale
    T0 = (S0.entries + g * (Sp.entries - Sm.entries)) / lam
    Tm = (g / lam) * S0.entries - (1 - lam) / (2 * lam) * Sp.entries \
        + (1 + lam) / (2 * lam) * Sm.entries
    Tp = -(g / lam) * S0.entries + (1 + lam) / (2 * lam) * Sp.entries \
        - (1 - lam) / (2 * lam) * Sm.entries
    return (
        TruncatedOperator(M, T0, "T0"),
        TruncatedOperator(M, Tp, "Tplus"),
        TruncatedOperator(M, Tm, "Tminus"),
    )


def ground_vectors(params: ModelParams, M: int):
    """Closed-form lowest right/left eigenvectors of the truncated H.

    Component k of the right seed is (-eta)^(k-1) sqrt((2k-3)!! / (2k-2)!!)
    with first component 1; the left seed uses (+eta).  Both satisfy the
    eigen-equation at Lambda/4 up to a geometric tail O(|eta|^M).
    """
    if M < 1:
        raise ValueError(f"M must be >= 1, got {M}")
    right = np.empty(M)
    left = np.empty(M)
    right[0] = left[0] = 1.0
    for k in range(1, M):
        ratio = np.sqrt((2 * k - 1) / (2.0 * k))
        right[k] = right[k - 1] * (-params.eta) * ratio
        left[k] = left[k - 1] * (+params.eta) * ratio
    return right, left


def build_biorthogonal(
    params: ModelParams, M: int, n: int, tol: float = 1e-10
) -> BiorthogonalSystem:
    """Biorthogonal eigensystem of the low modes by seed plus ladder action.

    Right vectors are generated by repeated application of T+ to the ground
    seed, left vectors by T-^T to the left seed, then rescaled so that
    <left_j, right_j> = 1 with right vectors at unit Euclidean norm.
    Eigenvalues are the analytic Lambda (4n-3)/4.

    Requires n <= M/2 to keep truncation tails below tol; raises
    TruncationError (with the achieved residual) if the eigen-residuals or
    the Gram defect still exceed tol.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > M // 2:
        raise ValueError(f"n={n} exceeds M/2={M // 2}; enlarge the truncation")
    H = build_hamiltonian(params, M).entries
    _, Tp, Tm = build_t_operators(params, M)
    r, l = ground_vectors(params, M)
    right = np.empty((M, n))
    left = np.empty((M, n))
    right[:, 0], left[:, 0] = r, l
    for j in range(1, n):
        right[:, j] = Tp.entries @ right[:, j - 1]
        left[:, j] = Tm.entries.T @ left[:, j - 1]
    for j in range(n):
        right[:, j] /= np.linalg.norm(right[:, j])
        left[:, j] /= left[:, j] @ right[:, j]
    lam = np.array([mode_energy(params, k) for k in range(1, n + 1)])
    sys = BiorthogonalSystem(M, n, lam, right, left)

    worst = sys.gram_defect()
    for j in range(n):
        res_r = np.linalg.norm(H @ right[:, j] - lam[j] * right[:, j])
        res_l = np.linalg.norm(H.T @ left[:, j] - lam[j] * left[:, j])
        worst = max(worst, res_r, res_l / np.linalg.norm(left[:, j]))
    if worst > tol:
        raise TruncationError(
            f"ladder construction reached residual {worst:.3e} > tol {tol:.3e} "
            f"(M={M}, n={n}); enlarge M",
            achieved=worst,
        )
    return sys


def dense_biorthogonal(params: ModelParams, m: int) -> BiorthogonalSystem:
    """Exact biorthogonal eigensystem of the full m x m truncation.

    All m eigenpairs of the truncated H, ordered by real part.  The low
    modes are real and converge to the analytic ladder; the upper part of a
    truncated spectrum comes in complex conjugate pairs for gamma != 0.
    Left vectors are rows of the inverse eigenvector matrix, so the bilinear
    pairing left^T right is the identity to round-off by construction.
    """
    import scipy.linalg   # deferred: it takes longer to import than all of nhfermi

    H = build_hamiltonian(params, m).entries
    w, vr = scipy.linalg.eig(H)
    order = np.lexsort((w.imag, w.real))   # a conjugate pair: negative imag first
    w, vr = w[order], vr[:, order]
    vl = scipy.linalg.inv(vr).T
    if np.abs(w.imag).max() <= 1e-9 * max(1.0, np.abs(w.real).max()):
        w, vr = w.real.copy(), vr.real.copy()
        vl = scipy.linalg.inv(vr).T  # realified columns need a fresh pairing
    return BiorthogonalSystem(m, m, w, vr, vl)


# Fixed point shared with metric.py: the Python int v stands for v * 2**-_B.
_B = 200
_ONE = 1 << _B


def _fixed(x: float) -> int:
    """A float in fixed point, rounded down (exact for multiples of 2**-_B)."""
    num, den = float(x).as_integer_ratio()
    return (num << _B) // den


def _charpoly_newton(gamma: float, M: int, lam: float, iters: int = 50) -> float:
    """Newton refinement of a real eigenvalue of the M-truncated ladder.

    Newton on det(H - lam) through the three-term recurrence, in fixed point
    with the exact model coefficients diag_k = (4k-3)/4 and sub*super =
    -gamma^2 (2k-1) 2k / 8: the eigenvalues of these strongly non-normal
    truncations carry condition numbers beyond 1e7, so both double-precision
    solves and refinement against rounded matrix entries stall near 1e-8
    absolute error.  After each step of the recurrence the four running
    values share one power-of-two rescale that puts the largest near 2**_B;
    Newton stops once a step falls below 2**-100 relative.
    """
    num, den = float(gamma).as_integer_ratio()
    g2 = num * num << _B
    op = [-(g2 * (2 * k - 1) * k // (4 * den * den)) for k in range(1, M)]
    shifted = [(4 * k - 3) << (_B - 2) for k in range(1, M + 1)]   # diag_k
    lam = _fixed(lam)
    for _ in range(iters):
        a = shifted[0] - lam
        p_prev, p = _ONE, a
        dp_prev, dp = 0, -_ONE
        for k in range(1, M):
            a = shifted[k] - lam
            pn = (a * p - op[k - 1] * p_prev) >> _B
            dpn = (a * dp - op[k - 1] * dp_prev - (p << _B)) >> _B
            bits = max(abs(pn).bit_length(), abs(p).bit_length(),
                       abs(dpn).bit_length(), abs(dp).bit_length())
            if bits == 0:
                return lam / _ONE
            shift = bits - _B
            if shift > 0:
                p_prev, p, dp_prev, dp = p >> shift, pn >> shift, dp >> shift, dpn >> shift
            else:
                p_prev, p, dp_prev, dp = p << -shift, pn << -shift, dp << -shift, dpn << -shift
        if dp == 0:
            break
        step = (p << _B) // dp
        lam -= step
        if abs(step) <= max(_ONE, abs(lam)) >> 100:
            break
    return lam / _ONE


def dense_spectrum(H: TruncatedOperator, n: int) -> np.ndarray:
    """The n smallest real eigenvalues of a truncated ladder Hamiltonian.

    A dense nonsymmetric solve supplies seeds; each real eigenvalue is then
    polished by Newton iteration on the characteristic polynomial of the
    ideal truncation (the coupling is recovered exactly from the first
    subdiagonal entry, whose ladder factor is 1/2).  Complex pairs in the
    upper spectrum are discarded; asking for more real eigenvalues than the
    truncation carries raises NumericalError.
    """
    A = H.entries
    M = A.shape[0]
    if np.abs(A - np.diag(np.diag(A))
              - np.diag(np.diag(A, 1), 1) - np.diag(np.diag(A, -1), -1)).max() != 0.0:
        raise ValueError("dense_spectrum expects a tridiagonal operator")
    gamma = 2.0 * A[1, 0]
    s = ladder_couplings(M)
    family = np.diag((4 * np.arange(1, M + 1) - 3) / 4.0) \
        + gamma * (np.diag(s, -1) - np.diag(s, 1))
    if np.abs(A - family).max() > 1e-12 * max(1.0, np.abs(A).max()):
        raise ValueError("dense_spectrum expects a truncation of the ladder family")
    import scipy.linalg   # deferred: it takes longer to import than all of nhfermi

    w = scipy.linalg.eigvals(A)
    scale = max(1.0, np.abs(w).max())
    real = np.sort(w[np.abs(w.imag) <= 1e-8 * scale].real)
    if len(real) < n:
        raise NumericalError(
            f"only {len(real)} real eigenvalues in the M={M} truncation, need {n}"
        )
    return np.array([_charpoly_newton(gamma, M, lam) for lam in real[:n]])
