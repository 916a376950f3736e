"""Metric operator and Hermitization of the truncated ladder Hamiltonian.

The positive operator D^2 = exp(2 alpha (S+ + S-)) intertwines the
non-symmetric H with its transpose, D^2 H = H^T D^2, and the conjugations
exp(-alpha K) S_x exp(alpha K) with K = S+ + S- reproduce the tilted
T-operators.

Numerical strategy.  The exponential of the semi-infinite K admits an exact
triangular (Gauss) factorization

    exp(theta K) = exp(t S+) . c^(-2 S0) . exp(t S-),
    t = sqrt(2) tan(theta / sqrt(2)),  c = cos(theta / sqrt(2)),

whose triangular structure makes the leading M x M block of the infinite
operator exactly computable: no truncation error enters, and every factor
has single-sign entries (for theta > 0), so the block is obtained to
eps-relative accuracy.  At the working sizes the matrix scale reaches 1e30
while interior entries sit near 1e12, so residual checks are scale-relative
throughout.

The conjugations exp(-alpha K) X exp(alpha K) cancel intermediate terms
far above their O(M) results (frame entries reach 2e28 at gamma = 1,
M = 60).  They run in fixed point, Python ints scaled by 2^200, with X
(S0, S+, S- or H) a padded tridiagonal integer matrix given by its
diagonals.  At theta = alpha the Gauss constants are algebraic,
t = 2 gamma / (1 + Lambda) and c^2 = (Lambda + 1) / (2 Lambda), so the
frame (rows < M of exp(alpha K)) needs integer square roots and products
alone.  L(-t) = P L(t) P with P = diag((-1)^i) gives exp(-alpha K) =
P exp(alpha K) P, so one cached frame serves both directions.  The sum over
intermediate states stops at 4M.  The worst interior error of the four
conjugations (leading half, against T and Lambda S0) measured <= 1.4e-14
for gamma <= 1.25 at M = 60, 1.4e-13 for gamma <= 1.2 at M = 40 and 5e-15
for gamma <= 1.0 at M = 20, and <= 3.6e-15 for 0 < |gamma| <= 1e-3 at
M <= 40.  Nearer the metric bound it grows, and nothing raises: 6.9e-11 at
gamma = 1.3 and 8.7e-3 at gamma = 1.42 for M = 60, 1.6e-8 at gamma = 1.2
for M = 20.  At M = 60 a sum to 5M measured converged up to gamma = 1.427.

Integer products.  The left product E X is three shifted column products,
since X is tridiagonal.  The dense products (E X) E^T and the frame's
L W L^T are exact integer matmuls on float64 BLAS (_imatmul; error-free
splitting as in Ozaki, Ogita, Oishi and Rump, Numer. Algorithms 59 (2012)
95-118): every entry is cut into 16-bit two's-complement limbs, one gemm
per block of rows forms all limb-pair products, and the anti-diagonals of
equal weight are summed, carried in int64 and rebuilt into Python ints.
Each limb product is below 2^32 and an anti-diagonal adds at most
min(la, lb) limb pairs over the inner dimension k, so every partial sum is
an integer below min(la, lb) k 2^32 < 2^53 (checked; NumericalError
otherwise).  Floats hold such integers exactly, so the result is the exact
product whatever order BLAS sums in and however many threads it uses: the
same integers as Python-int object matmuls.  The four outputs at
gamma = 0.6, M = 60 take about 0.2 s instead of 1.4 s with object matmuls,
and 1.0 s instead of 6.8 s at gamma = 1.0, M = 100 (2-core x86-64, BLAS on
one thread).
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .operators import _B, _ONE, TruncatedOperator, _fixed, build_generators, ladder_couplings
from .params import METRIC_GAMMA_BOUND, ModelParams

__all__ = [
    "MetricOperator",
    "ladder_sum_exp",
    "build_metric",
    "conjugate_generator",
    "physical_inner",
    "hermitized_hamiltonian",
]


@dataclass(frozen=True)
class MetricOperator:
    """Metric D^2 (symmetric positive definite) with its principal root D."""

    dim: int
    d2: np.ndarray
    d: np.ndarray
    alpha: float


def _lower_series(t: float, M: int) -> np.ndarray:
    """exp(t S+) exactly: entry (j+d, j) = t^d/d! * prod s_{j..j+d-1}."""
    s = ladder_couplings(M)
    E = np.eye(M)
    for j in range(M):
        acc = 1.0
        for d in range(1, M - j):
            acc *= t * s[j + d - 1] / d
            E[j + d, j] = acc
    return E


def ladder_sum_exp(theta: float, M: int) -> np.ndarray:
    """Leading M x M block of exp(theta (S+ + S-)) of the semi-infinite K.

    Computed through the exact triangular factorization; valid for
    |theta| < pi / sqrt(2).  For theta >= pi/2 the semi-infinite operator
    ceases to have finite matrix entries, so build_metric restricts the
    coupling further.
    """
    if abs(theta) >= math.pi / math.sqrt(2.0):
        raise ValueError(
            f"ladder-sum exponential is undefined at theta={theta:.4f} "
            f"(requires |theta| < pi/sqrt(2))"
        )
    if theta == 0.0:
        return np.eye(M)
    c = math.cos(theta / math.sqrt(2.0))
    t = math.sqrt(2.0) * math.tan(theta / math.sqrt(2.0))
    L = _lower_series(t, M)
    weights = c ** (-2.0 * (4.0 * np.arange(1, M + 1) - 3.0) / 4.0)
    return (L * weights) @ L.T


def build_metric(params: ModelParams, M: int) -> MetricOperator:
    """Metric D^2 = exp(2 alpha K) and its principal root D = exp(alpha K).

    Both are leading blocks of the semi-infinite exponentials (exact Gauss
    factorization, positive definite by construction).  gamma = 0 yields the
    identity exactly.  Raises ValueError when |gamma| is so large that the
    metric entries diverge (2 alpha >= pi/2).
    """
    if M < 2:
        raise ValueError(f"truncation order must be >= 2, got {M}")
    if abs(params.gamma) >= METRIC_GAMMA_BOUND:
        raise ValueError(
            f"metric diverges for |gamma| >= {METRIC_GAMMA_BOUND:.6f} "
            f"(got gamma={params.gamma})"
        )
    d2 = ladder_sum_exp(2.0 * params.alpha, M)
    d = ladder_sum_exp(params.alpha, M)
    return MetricOperator(dim=M, d2=d2, d=d, alpha=params.alpha)


# The conjugations sum over intermediate states k < _PAD * M.
_PAD = 4


def _fixed_ladder(n: int):
    """Diagonal of S0 (exact) and subdiagonal of S+ (couplings within one
    unit) of the n x n truncation in fixed point; S- = S+^T."""
    s0 = np.array([(4 * k + 1) << (_B - 2) for k in range(n)], dtype=object)
    sp = np.array([math.isqrt((2 * k - 1) * k << 2 * _B) >> 1 for k in range(1, n)],
                  dtype=object)
    return s0, sp


def _check_exact(la: int, lb: int, k: int, shape: tuple) -> None:
    """Raise unless every partial sum of the limb products stays below 2^53.

    Each limb product is below 2^32 and an anti-diagonal adds min(la, lb)
    limb pairs of k products each, so min(la, lb) k 2^32 < 2^53 makes every
    float64 partial sum an exact integer, in any order BLAS adds them.
    """
    if min(la, lb) * k << 32 >= 1 << 53:
        raise NumericalError(
            f"exact limb product out of range: {shape[0]}x{k} @ {k}x{shape[1]} "
            f"with {la} and {lb} 16-bit limbs exceeds 2^53"
        )


def _limbs(A: np.ndarray, n: int) -> np.ndarray:
    """n 16-bit limbs of each Python int of A in float64, shape A.shape + (n,):
    two's complement, so unsigned low limbs and a signed top limb."""
    buf = b"".join(x.to_bytes(2 * n, "little", signed=True) for x in A.flat)
    f = np.frombuffer(buf, "<u2").astype(float).reshape(*A.shape, n)
    f[..., -1] = np.frombuffer(buf, "<i2")[n - 1::n].reshape(A.shape)
    return f


def _imatmul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Exact product of two object matrices of Python ints on float64 BLAS.

    With 16-bit limbs A = sum_r A_r 2^(16r) and B = sum_s B_s 2^(16s),
    A B = sum_{r,s} (A_r B_s) 2^(16(r+s)).  Only B's float limbs are held
    whole: they are made a few rows at a time, and A's limbs and the limb
    products one block of 4 rows of A at a time (_limb_rows), which keeps
    the transient memory near the size of B's limbs.
    """
    (n_a, k), n_b = A.shape, B.shape[1]
    if B.shape[0] != k:
        raise ValueError(f"shapes {A.shape} and {B.shape} do not align")
    la, lb = ((max(map(int.bit_length, X.flat), default=0) + 16) // 16 for X in (A, B))
    _check_exact(la, lb, k, (n_a, n_b))
    bf = np.empty((k, n_b, lb))
    for p in range(0, k, 4):
        bf[p:p + 4] = _limbs(B[p:p + 4], lb)
    out = []
    for r in range(0, n_a, 4):
        out += _limb_rows(A[r:r + 4], la, bf)
    return np.array(out, dtype=object).reshape(n_a, n_b)


def _limb_rows(A: np.ndarray, la: int, bf: np.ndarray) -> list:
    """The entries of A B in row-major order, B given by its limbs bf.

    One gemm forms every limb product A_r B_s; the anti-diagonals r + s are
    summed (exactly, see _check_exact), carried in int64 and rebuilt into ints.
    """
    rows, k = A.shape
    n_b, lb = bf.shape[1:]
    af = _limbs(A, la).transpose(0, 2, 1).reshape(rows * la, k)
    g = (af @ bf.reshape(k, n_b * lb)).reshape(rows, la, n_b, lb)
    # |A B| < k 2^(16(la+lb)-2): with these limbs the top one holds the sign
    n_out = la + lb + (k.bit_length() + 15) // 16
    d = np.zeros((rows, n_b, n_out))
    for i in range(la):
        d[..., i:i + lb] += g[:, i]
    d = d.astype(np.int64)
    while (c := d[..., :-1] >> 16).any():     # carry until the low limbs fit
        d[..., :-1] &= 0xFFFF
        d[..., 1:] += c
    buf = d.astype("<u2").tobytes()
    step = 2 * n_out
    return [int.from_bytes(buf[i:i + step], "little", signed=True)
            for i in range(0, len(buf), step)]


@functools.lru_cache(maxsize=4)
def _frame(gamma: float, M: int) -> np.ndarray:
    """Rows < M, columns < _PAD * M of exp(alpha K) in fixed point, gamma >= 0.

    Gauss factors at theta = alpha: exp(alpha K) = L W L^T with
    L = exp(t S+), W = c^(-2 S0), t = 2 gamma / (1 + Lambda) and
    c^2 = (Lambda + 1) / (2 Lambda).  L is lower triangular, so rows < M
    need only its columns < M.
    """
    pad = _PAD * M
    g = _fixed(gamma)
    lam = math.isqrt(_ONE * _ONE + 2 * g * g)
    t = 2 * g * _ONE // (_ONE + lam)
    q = 2 * lam * _ONE // (_ONE + lam)                      # c^-2
    q4 = math.isqrt(math.isqrt(q << _B) << _B)              # q^(1/4)
    w = [q4 * q**l >> _B * l for l in range(M)]             # c^(-2 S0)
    s = _fixed_ladder(pad)[1]
    L = np.zeros((pad, M), dtype=object)
    for j in range(M):
        acc = L[j, j] = _ONE
        for k in range(j + 1, pad):
            acc = acc * t * s[k - 1] // ((k - j) << 2 * _B)
            L[k, j] = acc
    # (L[:M] W >> B) L^T, formed transposed so the row-blocked operand is L
    return np.right_shift(_imatmul(L, (L[:M] * w >> _B).T), _B).T


def _conjugate(gamma: float, M: int, X: dict) -> np.ndarray:
    """Leading M x M block of exp(-alpha K) X exp(alpha K), X the padded
    fixed-point tridiagonal matrix with diagonals X[o], o in {-1, 0, 1}:
    X[k + o, k] = X[o][min(k, k + o)] (absent diagonals are zero).

    exp(-|alpha| K) = P exp(|alpha| K) P with P = diag((-1)^i) covers either
    sign of alpha; each P enters as exact negations of rows or columns, before
    the shift that follows it.
    """
    N = _PAD * M
    E = _frame(abs(gamma), M)
    flip_left = gamma > 0
    if flip_left:                   # (P E P X) >> B = (P (E (P X))) >> B
        sign = (-1) ** np.arange(N)
        X = {o: v * sign[max(o, 0):N + min(o, 0)] for o, v in X.items()}
    A = np.zeros((M, N), dtype=object)
    for o, v in X.items():          # E X: one shifted column product per diagonal
        lo, hi = max(-o, 0), N - max(o, 0)
        A[:, lo:hi] += E[:, lo + o:hi + o] * v
    if flip_left:
        A[1::2] *= -1
    np.right_shift(A, _B, out=A)
    if not flip_left:               # (A P E^T P) >> B = ((A P) E^T P) >> B
        A[:, 1::2] *= -1
    Y = _imatmul(A, E.T)
    if not flip_left:
        Y[:, 1::2] *= -1
    np.right_shift(Y, _B, out=Y)
    return (Y / _ONE).astype(float)


def conjugate_generator(params: ModelParams, M: int, which: str) -> TruncatedOperator:
    """exp(-alpha K) X exp(alpha K) for X in {S0, Splus, Sminus}.

    Leading M x M block of the semi-infinite conjugation through the
    fixed-point kernel (module docstring).  Its leading half reproduces
    T0 / T+ / T- of build_t_operators over the measured range stated there;
    rows near the cut are tail-dominated.
    """
    if which not in ("S0", "Splus", "Sminus"):
        raise ValueError(f"which must be one of S0/Splus/Sminus, got {which!r}")
    if M < 2:
        raise ValueError(f"truncation order must be >= 2, got {M}")
    if params.gamma == 0.0:
        S0, Sp, Sm = build_generators(M)
        return {"S0": S0, "Splus": Sp, "Sminus": Sm}[which]
    s0, sp = _fixed_ladder(_PAD * M)
    X = {"S0": {0: s0}, "Splus": {1: sp}, "Sminus": {-1: sp}}[which]
    return TruncatedOperator(M, _conjugate(params.gamma, M, X), "other")


def physical_inner(metric: MetricOperator, u: np.ndarray, v: np.ndarray) -> float:
    """Metric-induced inner product <D^2 u, v>."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != (metric.dim,) or v.shape != (metric.dim,):
        raise ValueError(
            f"vectors must have shape ({metric.dim},), got {u.shape} and {v.shape}"
        )
    return float(v @ (metric.d2 @ u))


def hermitized_hamiltonian(params: ModelParams, M: int) -> np.ndarray:
    """D H D^{-1} = exp(alpha K) H exp(-alpha K), symmetric on the interior.

    Same kernel and measured range as conjugate_generator (inverting the
    finite block of D in floats is hopeless: condition numbers beyond 1e20).
    The interior reduces to the diagonal Lambda S0, so its low eigenvalues
    agree with the truncated spectrum up to truncation tails.
    """
    if M < 2:
        raise ValueError(f"truncation order must be >= 2, got {M}")
    if params.gamma == 0.0:
        return np.diag((4 * np.arange(1, M + 1) - 3) / 4.0)
    s0, sp = _fixed_ladder(_PAD * M)
    g = _fixed(params.gamma)
    # exp(alpha K) H exp(-alpha K) is the kernel at -gamma, since alpha is odd
    return _conjugate(-params.gamma, M, {0: s0, 1: sp * g >> _B, -1: -sp * g >> _B})
