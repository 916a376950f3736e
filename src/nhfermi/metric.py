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
M = 60).  They run in fixed point, integers scaled by 2^200, with X
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

Integer products.  The fixed-point values stay in 16-bit two's-complement
limbs (uint16 arrays: low limbs unsigned, the top one signed) from the
frame to the result.  Python ints enter only as L, L W and the diagonals of
X, and leave only as the M x M result; the frame is cached as the limbs of
E^T.  The left product E X is, column by column, a Toeplitz matrix of one X
entry's limbs times the limbs of a column of E, a batched float64 gemm.
The dense products (E X) E^T and L (L W)^T run as full-k gemms of every
limb pair over blocks of rows (error-free splitting as in Ozaki, Ogita,
Oishi and Rump, Numer. Algorithms 59 (2012) 95-118), and the anti-diagonals
of equal weight are summed.  Each limb product is below 2^32 and an
anti-diagonal adds at most min(la, lb) limb pairs over the inner dimension
k (k = 3 diagonals for E X), so every partial sum is an integer below
min(la, lb) k 2^32 < 2^53 (checked before every product; NumericalError
otherwise).  Floats hold such integers exactly, so the result is the exact
product whatever order BLAS sums in and however many threads it uses.  Each
product is carried once, lowest limb first, one limb at a time in int64;
the P flips are exact negations before that carry, and >> B drops whole
limbs and shifts the rest.  So the outputs are the same integers, bit for
bit, as Python-int object matmuls.  The four outputs, frame built cold,
take 0.14-0.17 s at gamma = 0.6, M = 60 and 0.65-0.83 s at gamma = 1.0,
M = 100 (medians of three sets of runs; 2-core Intel Xeon x86-64 shared
with other jobs, OpenBLAS 0.3.31 on one thread).
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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
# Rows of the left operand per block of an exact product, float64 entries
# of one gemm's output, and frame columns per block of the left product E X:
# they only bound the memory in flight.
_ROWS = 15
_GEMM = 1 << 17
_COLS = 48


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


# -- limbs: x = sum_r x_r 2^(16 r), two's complement, so the low limbs are
# unsigned and the top one signed (held as its uint16 bit pattern); the limb
# axis of every array is axis 1, lowest limb first.

def _nlimbs(X: np.ndarray) -> int:
    """Limbs enough for every Python int of X, sign bit included."""
    return (max(map(int.bit_length, X.flat), default=0) + 16) // 16


def _limbs(X: np.ndarray, n: int) -> np.ndarray:
    """n limbs of each Python int of X as uint16, shape X.shape + (n,)."""
    buf = b"".join(x.to_bytes(2 * n, "little", signed=True) for x in X.flat)
    return np.frombuffer(buf, "<u2").reshape(*X.shape, n)


def _floats(a: np.ndarray) -> np.ndarray:
    """The limbs a as a C-ordered float64 array, the top limb signed."""
    f = a.astype(float, order="C")
    f[:, -1] = a[:, -1].view(np.int16)
    return f


def _ints(a: np.ndarray) -> np.ndarray:
    """The Python ints of the limbs a (rows, n, cols), as a rows x cols matrix."""
    rows, n, cols = a.shape
    buf = a.transpose(0, 2, 1).astype("<u2", order="C").tobytes()
    step = 2 * n
    return np.array([int.from_bytes(buf[i:i + step], "little", signed=True)
                     for i in range(0, len(buf), step)], dtype=object).reshape(rows, cols)


def _carry(d: np.ndarray, out: np.ndarray) -> None:
    """Limb sums d (exact integers in float64) into the limbs out, in one
    pass from the lowest limb; out must have room for the top carry."""
    c = 0
    for s in range(d.shape[1]):
        v = d[:, s].astype(np.int64)
        v += c
        out[:, s] = v                   # the low 16 bits
        c = v >> 16


def _shift(a: np.ndarray) -> np.ndarray:
    """floor(x / 2^_B) of the limbs a: drop whole limbs, then shift by the
    rest across neighbouring limbs (the top one arithmetically)."""
    q, r = divmod(_B, 16)
    if a.shape[1] < q + 2:          # too short to shift: extend the sign first
        sign = (a[:, -1:].view(np.int16) >> 15).view(np.uint16)
        a = np.concatenate([a] + [sign] * (q + 2 - a.shape[1]), axis=1)
    low = a[:, q:-1] >> r | a[:, q + 1:] << 16 - r
    top = (a[:, -1:].view(np.int16) >> r).view(np.uint16)
    return np.concatenate([low, top], axis=1)


def _trim(a: np.ndarray) -> np.ndarray:
    """a without the top limbs that only repeat the sign of the limb below."""
    n = a.shape[1]
    while n > 1 and np.array_equal(a[:, n - 1], (a[:, n - 2] >> 15) * 0xFFFF):
        n -= 1
    return np.ascontiguousarray(a[:, :n])


def _limb_product(a: np.ndarray, bf: np.ndarray) -> np.ndarray:
    """Limbs of the exact product a b: a (n_a, la, k) limbs, b given by its
    float limbs bf (k, lb, n_b); the result has shape (n_a, n, n_b).

    With a = sum_r a_r 2^(16r) and b = sum_s b_s 2^(16s), a b = sum_{r,s}
    (a_r b_s) 2^(16(r+s)).  For each block of _ROWS rows of a, full-k gemms
    form the limb products a_r b_s, a few limbs s of b at a time; the
    anti-diagonals r + s are summed, exactly (see _check_exact), and the
    block is carried once.
    """
    (n_a, la, k), (_, lb, n_b) = a.shape, bf.shape
    _check_exact(la, lb, k, (n_a, n_b))
    # |a b| < k 2^(16(la+lb)-2): with these limbs the top one holds the sign
    out = np.empty((n_a, la + lb + (k.bit_length() + 15) // 16, n_b), np.uint16)
    step = max(1, _GEMM // (_ROWS * la * n_b))
    for r in range(0, n_a, _ROWS):
        af = _floats(a[r:r + _ROWS])
        rows = af.shape[0]
        af = af.reshape(rows * la, k)
        d = np.zeros((rows,) + out.shape[1:])
        for s in range(0, lb, step):
            w = min(step, lb - s)
            g = (af @ bf[:, s:s + w].reshape(k, w * n_b)).reshape(rows, la, w, n_b)
            for u in range(w):
                d[:, s + u:s + u + la] += g[:, :, u]
        _carry(d, out[r:r + rows])
    return out


def _imatmul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Limbs of the exact product of two object matrices of Python ints."""
    (n_a, k), n_b = A.shape, B.shape[1]
    if B.shape[0] != k:
        raise ValueError(f"shapes {A.shape} and {B.shape} do not align")
    la, lb = _nlimbs(A), _nlimbs(B)
    _check_exact(la, lb, k, (n_a, n_b))
    return _limb_product(_limbs(A, la).transpose(0, 2, 1),
                         _floats(_limbs(B, lb).transpose(0, 2, 1)))


def _left_product(ef: np.ndarray, X: dict, flip_rows: bool) -> np.ndarray:
    """Limbs of (E X) >> B, or of (P E X) >> B with flip_rows, laid out as
    (column, limb, row); E by the float limbs ef (N, le, M) of E^T, X the
    tridiagonal matrix by its diagonals (see _conjugate).

    Column c of E X is sum_o E[:, c + o] X[o][c + min(o, 0)]: per column,
    a Toeplitz matrix of one X entry's limbs times the limbs of E's column,
    a batched gemm over the columns of each block of _COLS.
    """
    N, le, M = ef.shape
    lx = max(map(_nlimbs, X.values()))
    _check_exact(le, lx, len(X), (M, N))
    n = le + lx + (len(X).bit_length() + 15) // 16
    # window u of a row of xp, reversed, is row u of that entry's Toeplitz
    # matrix: entry (u, i) = limb u - i of the X entry
    xp = {o: np.pad(_floats(_limbs(v, lx)), ((0, 0), (le - 1, n - lx)))
          for o, v in X.items()}
    out = np.empty((N, n, M), np.uint16)
    for c0 in range(0, N, _COLS):
        c1 = min(c0 + _COLS, N)
        d = np.zeros((c1 - c0, n, M))
        for o, x in xp.items():
            lo, hi = max(c0, -o), min(c1, N - o)
            t = sliding_window_view(x[lo + min(o, 0):hi + min(o, 0)], le, axis=1)
            d[lo - c0:hi - c0] += np.ascontiguousarray(t[..., ::-1]) @ ef[lo + o:hi + o]
        if flip_rows:
            d[..., 1::2] *= -1
        _carry(d, out[c0:c1])
    return _trim(_shift(out))


@functools.lru_cache(maxsize=1)
def _frame(gamma: float, M: int) -> np.ndarray:
    """Limbs of E^T, E the rows < M and columns < _PAD * M of exp(alpha K) in
    fixed point, gamma >= 0; shape (_PAD * M, limbs, M), read-only.

    Gauss factors at theta = alpha: exp(alpha K) = L W L^T with
    L = exp(t S+), W = c^(-2 S0), t = 2 gamma / (1 + Lambda) and
    c^2 = (Lambda + 1) / (2 Lambda).  L is lower triangular, so rows < M
    need only its columns < M.  Only the latest frame is kept.
    """
    pad = _PAD * M
    g = _fixed(gamma)
    lam = math.isqrt(_ONE * _ONE + 2 * g * g)
    t = 2 * g * _ONE // (_ONE + lam)
    q = 2 * lam * _ONE // (_ONE + lam)                      # c^-2
    q4 = math.isqrt(math.isqrt(q << _B) << _B)              # q^(1/4)
    w = [q4 * q**l >> _B * l for l in range(M)]             # c^(-2 S0)
    ts = _fixed_ladder(pad)[1] * t
    L = np.zeros((pad, M), dtype=object)
    L[0, 0] = _ONE
    for k in range(1, pad):
        # L[k, j] = L[k-1, j] t s[k-1] // ((k - j) 2^2B), floored in two steps
        j = min(k, M)
        L[k, :j] = (L[k - 1, :j] * ts[k - 1] >> 2 * _B) // np.arange(k, k - j, -1)
        if k < M:
            L[k, k] = _ONE
    # E^T = (L (L[:M] W >> B)^T) >> B
    et = _trim(_shift(_imatmul(L, (L[:M] * w >> _B).T)))
    et.flags.writeable = False
    return et


def _conjugate(gamma: float, M: int, X: dict) -> np.ndarray:
    """Leading M x M block of exp(-alpha K) X exp(alpha K), X the padded
    fixed-point tridiagonal matrix with diagonals X[o], o in {-1, 0, 1}:
    X[k + o, k] = X[o][min(k, k + o)] (absent diagonals are zero).

    exp(-|alpha| K) = P exp(|alpha| K) P with P = diag((-1)^i) covers either
    sign of alpha; each P enters as exact negations before the shift that
    follows it.  The fixed-point values stay in limbs from the frame to the
    last carry; Python ints enter only as X and leave only as the result.
    """
    N = _PAD * M
    ef = _floats(_frame(abs(gamma), M))
    flip_left = gamma > 0
    if flip_left:                   # (P E P X) >> B = (P (E (P X))) >> B
        sign = (-1) ** np.arange(N)
        X = {o: v * sign[max(o, 0):N + min(o, 0)] for o, v in X.items()}
    A = _left_product(ef, X, flip_left)
    if not flip_left:               # (A P E^T P) >> B: flip E^T's checkerboard
        ef[0::2, :, 1::2] *= -1
        ef[1::2, :, 0::2] *= -1
    Y = _shift(_limb_product(A.transpose(2, 1, 0), ef))
    return (_ints(Y) / _ONE).astype(float)


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
