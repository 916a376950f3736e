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

The conjugation check exp(-alpha K) X exp(alpha K) cancels intermediate
terms ~1e16 down to O(10) results, beyond float64; it runs in mpmath
arithmetic with the truncation padded to twice the requested size.
"""

import functools
import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from .operators import TruncatedOperator, build_generators, ladder_couplings
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


@functools.lru_cache(maxsize=4)
def _conjugation_frames(gamma: float, M: int, pad: int, dps: int):
    """mpmath rows/cols of exp(-alpha K), exp(+alpha K) at padded size."""
    with mp.workdps(dps):
        alpha = mp.atan(mp.sqrt(2) * mp.mpf(gamma)) / mp.sqrt(2)
        half = alpha / mp.sqrt(2)
        c = mp.cos(half)
        t = mp.sqrt(2) * mp.tan(half)
        s = [mp.sqrt((2 * k - 1) * 2 * k) / (2 * mp.sqrt(2)) for k in range(1, pad)]
        weights = [c ** (-2 * (mp.mpf(4 * (l + 1) - 3) / 4)) for l in range(pad)]

        def lower(tt):
            # columns l < M suffice: inner sums below never pass l >= M
            L = [[mp.mpf(0)] * M for _ in range(pad)]
            for j in range(M):
                L[j][j] = mp.mpf(1)
                acc = mp.mpf(1)
                for d in range(1, pad - j):
                    acc = acc * tt * s[j + d - 1] / d
                    L[j + d][j] = acc
            return L

        Lm = lower(-t)
        Lp = lower(+t)
        em_rows = [
            [
                mp.fsum(Lm[i][l] * weights[l] * Lm[k][l] for l in range(min(i, k) + 1))
                for k in range(pad)
            ]
            for i in range(M)
        ]
        ep_cols = [
            [
                mp.fsum(Lp[k][l] * weights[l] * Lp[j][l] for l in range(min(k, j) + 1))
                for j in range(M)
            ]
            for k in range(pad)
        ]
    return em_rows, ep_cols


def _apply_banded(which: str, gamma, E, pad: int, M: int, dps: int):
    """(X @ E)[k][j] for X in {S0, S+, S-, H} acting on a pad x M frame."""
    with mp.workdps(dps):
        s = [mp.sqrt((2 * k - 1) * 2 * k) / (2 * mp.sqrt(2)) for k in range(1, pad)]
        diag = [mp.mpf(4 * (k + 1) - 3) / 4 for k in range(pad)]
        zero = [mp.mpf(0)] * M
        if which == "S0":
            return [[diag[k] * E[k][j] for j in range(M)] for k in range(pad)]
        if which == "Splus":
            return [zero] + [[s[k - 1] * E[k - 1][j] for j in range(M)]
                             for k in range(1, pad)]
        if which == "Sminus":
            return [[s[k] * E[k + 1][j] for j in range(M)]
                    for k in range(pad - 1)] + [zero]
        g = mp.mpf(gamma)
        out = []
        for k in range(pad):
            row = []
            for j in range(M):
                v = diag[k] * E[k][j]
                if k >= 1:
                    v += g * s[k - 1] * E[k - 1][j]
                if k + 1 < pad:
                    v -= g * s[k] * E[k + 1][j]
                row.append(v)
            out.append(row)
        return out


def _conjugate(params: ModelParams, M: int, which: str, reverse: bool,
               pad: int | None, dps: int) -> np.ndarray:
    """exp(∓alpha K) X exp(±alpha K) in mpmath (reverse flips the signs)."""
    if pad is None:
        pad = 2 * M
    em_rows, ep_cols = _conjugation_frames(params.gamma, M, pad, dps)
    # both exponentials are symmetric: ep_cols doubles as exp(+aK) rows,
    # em_rows doubles as exp(-aK) columns
    if not reverse:
        left_rows = em_rows                                  # M x pad
        right_cols = ep_cols                                 # pad x M
    else:
        left_rows = [[ep_cols[k][i] for k in range(pad)] for i in range(M)]
        right_cols = [[em_rows[j][k] for j in range(M)] for k in range(pad)]
    y = _apply_banded(which, params.gamma, right_cols, pad, M, dps)
    out = np.empty((M, M))
    with mp.workdps(dps):
        for i in range(M):
            row = left_rows[i]
            for j in range(M):
                out[i, j] = float(mp.fsum(row[k] * y[k][j] for k in range(pad)))
    return out


def conjugate_generator(
    params: ModelParams,
    M: int,
    which: str,
    pad: int | None = None,
    dps: int = 30,
) -> TruncatedOperator:
    """exp(-alpha K) X exp(alpha K) for X in {S0, Splus, Sminus}.

    Evaluated in mpmath arithmetic on a truncation padded to 2M (the triple
    product cancels intermediate terms far above the result scale).  The
    leading half of the result is fully converged and reproduces
    T0 / T+ / T- of build_t_operators; rows near the cut remain
    tail-dominated unless pad is raised to ~4M.
    """
    if which not in ("S0", "Splus", "Sminus"):
        raise ValueError(f"which must be one of S0/Splus/Sminus, got {which!r}")
    if M < 2:
        raise ValueError(f"truncation order must be >= 2, got {M}")
    if params.gamma == 0.0:
        S0, Sp, Sm = build_generators(M)
        return {"S0": S0, "Splus": Sp, "Sminus": Sm}[which]
    return TruncatedOperator(M, _conjugate(params, M, which, False, pad, dps), "other")


def physical_inner(metric: MetricOperator, u: np.ndarray, v: np.ndarray) -> float:
    """Metric-induced inner product <D^2 u, v>."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != (metric.dim,) or v.shape != (metric.dim,):
        raise ValueError(
            f"vectors must have shape ({metric.dim},), got {u.shape} and {v.shape}"
        )
    return float(v @ (metric.d2 @ u))


def hermitized_hamiltonian(params: ModelParams, M: int,
                           pad: int | None = None, dps: int = 30) -> np.ndarray:
    """D H D^{-1} = exp(alpha K) H exp(-alpha K), symmetric on the interior.

    Leading block of the semi-infinite conjugation (mpmath, padded); the
    interior reduces to the diagonal Lambda S0, so its low eigenvalues agree
    with the truncated spectrum up to truncation tails.  Inverting the
    finite block of D directly is hopeless in floating point (condition
    numbers beyond 1e20), hence the same high-precision route as the
    generator conjugations, with the same reliable-interior contract.
    """
    if M < 2:
        raise ValueError(f"truncation order must be >= 2, got {M}")
    if params.gamma == 0.0:
        return np.diag((4 * np.arange(1, M + 1) - 3) / 4.0)
    return _conjugate(params, M, "H", True, pad, dps)
