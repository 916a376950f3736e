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
M = 60).  They run in fixed point, Python ints scaled by 2^200 in numpy
object arrays, with X (S0, S+, S- or H) a padded integer matrix.  At
theta = alpha the Gauss constants are algebraic, t = 2 gamma / (1 + Lambda)
and c^2 = (Lambda + 1) / (2 Lambda), so the frame (rows < M of
exp(alpha K)) needs integer square roots and products alone.  L(-t) =
P L(t) P with P = diag((-1)^i) gives exp(-alpha K) = P exp(alpha K) P, so
one cached frame serves both directions.  The sum over intermediate states
stops at 4M.  The worst interior error of the four conjugations (leading
half, against T and Lambda S0) measured <= 1.4e-14 for gamma <= 1.25 at
M = 60, 1.4e-13 for gamma <= 1.2 at M = 40 and 5e-15 for gamma <= 1.0 at
M = 20.  Nearer the metric bound it grows, and nothing raises: 6.9e-11 at
gamma = 1.3 and 8.7e-3 at gamma = 1.42 for M = 60, 1.6e-8 at gamma = 1.2
for M = 20.  At M = 60 a sum to 5M measured converged up to gamma = 1.427.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

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
    """S0 (exact) and S+ (couplings within one unit) of the n x n truncation
    in fixed point; S- = S+^T."""
    S0 = np.diag([(4 * k + 1) << (_B - 2) for k in range(n)])
    Sp = np.diag([math.isqrt((2 * k - 1) * k << 2 * _B) >> 1 for k in range(1, n)], -1)
    return S0, Sp


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
    s = np.diagonal(_fixed_ladder(pad)[1], -1)
    L = np.zeros((pad, M), dtype=object)
    for j in range(M):
        acc = L[j, j] = _ONE
        for k in range(j + 1, pad):
            acc = acc * t * s[k - 1] // ((k - j) << 2 * _B)
            L[k, j] = acc
    return (L[:M] * w >> _B) @ L.T >> _B


def _conjugate(gamma: float, M: int, X: np.ndarray) -> np.ndarray:
    """Leading M x M block of exp(-alpha K) X exp(alpha K), X padded fixed
    point; exp(-|alpha| K) = P exp(|alpha| K) P covers either sign of alpha."""
    E = _frame(abs(gamma), M)
    F = E * (-1) ** np.add.outer(np.arange(M), np.arange(_PAD * M))
    left, right = (F, E) if gamma > 0 else (E, F)
    Y = (left @ X >> _B) @ right.T >> _B
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
    S0, Sp = _fixed_ladder(_PAD * M)
    X = {"S0": S0, "Splus": Sp, "Sminus": Sp.T}[which]
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
    S0, Sp = _fixed_ladder(_PAD * M)
    H = S0 + ((Sp - Sp.T) * _fixed(params.gamma) >> _B)
    # exp(alpha K) H exp(-alpha K) is the kernel at -gamma, since alpha is odd
    return _conjugate(-params.gamma, M, H)
