"""Grand-canonical thermodynamics of the ladder spectrum.

Mode k carries energy lambda_k = Lambda (4k-3)/4 and occupation 0 or 1, so

    log Z = sum_k log(1 + exp(-beta lambda_k - zeta)),   zeta = -beta mu,

which collapses to sum_k log(1 + exp(-beta Lambda k - zeta')) with
zeta' = zeta - (3/4) Lambda beta.  Exact quantities come from adaptively
truncated Fermi sums with a certified geometric tail bound; the
high-temperature approximation applies the Euler-Maclaurin correction to
the mode sum, leaving a dilogarithm integral plus two boundary terms:

    log Z ~ -Li2(-exp(-zeta')) / (beta Lambda)
            - log(1 + exp(-zeta')) / 2
            + (beta Lambda / 12) sigma(-zeta'),

with sigma the logistic function.  E and N are the analytic derivatives
-d log Z/d beta (at fixed zeta) and -d log Z/d zeta of that three-term
form, and the entropy always comes from S = beta (E - mu N) + log Z.

All Fermi factors are evaluated through exp(-|x|) branches so that beta up
to 1e3 and |zeta'| up to 1e4 stay finite.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .params import ModelParams

__all__ = ["ThermoPoint", "dilog", "exact_log_z", "exact_expectations",
           "em_log_z", "em_expectations"]

_PI2_6 = math.pi * math.pi / 6.0

# sum_{k<=K} log(1+e^{-beta*Lambda*k-zeta'}) is evaluated in blocks this long
_CHUNK = 1 << 16
# Exact sums refuse cutoffs past this many modes (about 15 s of summing)
_MAX_EXACT_MODES = 1 << 26


@dataclass(frozen=True)
class ThermoPoint:
    """Equilibrium state at (beta, mu) with its derived quantities."""

    beta: float
    mu: float
    zeta: float
    zeta_prime: float
    log_z: float
    energy: float
    number: float
    entropy: float
    method: str
    gamma: float
    n_modes: int | None = None


def dilog(x: float) -> float:
    """Real dilogarithm Li2(x) for x <= 1.

    Power series on |x| <= 1/2; the reflection x -> 1-x, the Landen map
    x -> x/(x-1) and the inversion x -> 1/x move every other real argument
    into the series disk.
    """
    x = float(x)
    if x > 1.0:
        raise ValueError(f"real dilogarithm needs x <= 1, got {x}")
    if x == 1.0:
        return _PI2_6
    if x == 0.0:
        return 0.0
    if x < -1.0:
        # inversion: Li2(x) = -pi^2/6 - log^2(-x)/2 - Li2(1/x)
        return -_PI2_6 - 0.5 * math.log(-x) ** 2 - dilog(1.0 / x)
    if x < -0.5:
        # Landen: Li2(x) = -Li2(x/(x-1)) - log^2(1-x)/2
        return -dilog(x / (x - 1.0)) - 0.5 * math.log1p(-x) ** 2
    if x > 0.5:
        # reflection: Li2(x) = pi^2/6 - log(x) log(1-x) - Li2(1-x)
        return _PI2_6 - math.log(x) * math.log1p(-x) - dilog(1.0 - x)
    total, term, k = 0.0, x, 1
    while True:
        contrib = term / (k * k)
        total += contrib
        if abs(contrib) < 1e-17 * max(1.0, abs(total)):
            return total
        term *= x
        k += 1


def _dilog_neg_exp(y: float) -> float:
    """Li2(-e^y), stable for any real y (|y| may reach 1e4)."""
    if y <= 0.0:
        return dilog(-math.exp(y))
    return -_PI2_6 - 0.5 * y * y - dilog(-math.exp(-y))


def _validate_beta(beta: float) -> float:
    beta = float(beta)
    if not (beta > 0.0) or not math.isfinite(beta):
        raise ValueError(f"beta must be positive and finite, got {beta}")
    return beta


def _mode_cutoff(bl: float, zp: float, tail_tol: float) -> int:
    """Smallest K with a certified tail bound below tail_tol.

    The tail of every Fermi sum past mode K is bounded by the geometric
    estimate e^{-(bl (K+1) + zp)} * max(1, lam_{K+1}) / (1 - e^{-bl})^2,
    which covers log Z, N and the lambda-weighted E sum alike.  Raises
    ValueError when K would exceed _MAX_EXACT_MODES.
    """
    one_minus = -math.expm1(-bl)  # 1 - e^{-bl}
    log_tol = math.log(tail_tol) + 2.0 * math.log(one_minus)
    estimate = (-zp - log_tol) / bl
    K = max(1, int(min(estimate, _MAX_EXACT_MODES)) + 1)
    for _ in range(64):
        if K > _MAX_EXACT_MODES:
            raise ValueError(
                f"exact sum needs K >= {max(K, estimate):.4g} modes at "
                f"beta*Lambda={bl:.4g}, more than {_MAX_EXACT_MODES}; "
                f"use the Euler-Maclaurin method (--method em)")
        bound = -(bl * (K + 1) + zp) + math.log(max(1.0, bl * (K + 1))) - 2.0 * math.log(one_minus)
        if bound < math.log(tail_tol):
            return K
        K = int(K * 1.5) + 8
    raise ValueError(f"tail bound did not certify (bl={bl}, zeta'={zp})")


def exact_log_z(params: ModelParams, beta: float, zeta: float,
                tail_tol: float = 1e-12) -> float:
    """log Z by direct mode summation with a certified tail below tail_tol."""
    beta = _validate_beta(beta)
    bl = beta * params.lambda_scale
    zp = zeta - 0.75 * bl
    K = _mode_cutoff(bl, zp, tail_tol)
    parts = []
    for start in range(1, K + 1, _CHUNK):
        k = np.arange(start, min(start + _CHUNK, K + 1), dtype=float)
        parts.append(math.fsum(np.logaddexp(0.0, -(bl * k + zp))))
    return math.fsum(parts)


def exact_expectations(params: ModelParams, beta: float, mu: float,
                       tail_tol: float = 1e-12) -> ThermoPoint:
    """Exact (log Z, E, N, S) from per-mode Fermi factors.

    N = sum f_k, E = sum lambda_k f_k with f_k = 1/(e^{beta lambda_k + zeta} + 1),
    and S = beta (E - mu N) + log Z.
    """
    beta = _validate_beta(beta)
    mu = float(mu)
    zeta = -beta * mu
    bl = beta * params.lambda_scale
    zp = zeta - 0.75 * bl
    K = _mode_cutoff(bl, zp, tail_tol)
    lz_parts, n_parts, e_parts = [], [], []
    for start in range(1, K + 1, _CHUNK):
        k = np.arange(start, min(start + _CHUNK, K + 1), dtype=float)
        lam = params.lambda_scale * (4.0 * k - 3.0) / 4.0
        x = beta * lam + zeta
        f = expit(-x)
        lz_parts.append(math.fsum(np.logaddexp(0.0, -x)))
        n_parts.append(math.fsum(f))
        e_parts.append(math.fsum(lam * f))
    log_z = math.fsum(lz_parts)
    number = math.fsum(n_parts)
    energy = math.fsum(e_parts)
    entropy = beta * (energy - mu * number) + log_z
    return ThermoPoint(beta=beta, mu=mu, zeta=zeta, zeta_prime=zp,
                       log_z=log_z, energy=energy, number=number,
                       entropy=entropy, method="exact", gamma=params.gamma,
                       n_modes=K)


def _em_terms(zp: float):
    """Euler-Maclaurin building blocks at zeta'."""
    li = _dilog_neg_exp(-zp)          # Li2(-e^{-zeta'})
    softplus = np.logaddexp(0.0, -zp)  # log(1 + e^{-zeta'})
    sig = float(expit(-zp))            # 1/(1 + e^{zeta'})
    return li, float(softplus), sig


def em_log_z(params: ModelParams, beta: float, zeta: float) -> float:
    """Three-term Euler-Maclaurin approximation of log Z.

    Asymptotic in beta*Lambda; accurate at high temperature, degrading as
    beta grows.  No tail estimate is attached.
    """
    beta = _validate_beta(beta)
    bl = beta * params.lambda_scale
    zp = zeta - 0.75 * bl
    li, softplus, sig = _em_terms(zp)
    return -li / bl - 0.5 * softplus + (bl / 12.0) * sig


def em_expectations(params: ModelParams, beta: float, mu: float) -> ThermoPoint:
    """E and N by analytic differentiation of the three-term em_log_z.

    The chain rule runs through zeta'(beta, zeta) with d zeta'/d beta =
    -(3/4) Lambda at fixed zeta and d zeta'/d zeta = 1, using
    d Li2(-e^{-u})/du = log(1 + e^{-u}):

        N = softplus(-zeta')/(beta Lambda) - sigma(-zeta')/2
            + (beta Lambda / 12) sigma(-zeta') sigma(zeta'),
        E = -Li2(-e^{-zeta'})/(beta^2 Lambda) - (Lambda/12) sigma(-zeta')
            - (3/4) Lambda N.
    """
    beta = _validate_beta(beta)
    mu = float(mu)
    zeta = -beta * mu
    lam = params.lambda_scale
    bl = beta * lam
    zp = zeta - 0.75 * bl
    li, softplus, sig = _em_terms(zp)
    sig_rev = float(expit(zp))  # 1 - sigma(-zeta')
    log_z = -li / bl - 0.5 * softplus + (bl / 12.0) * sig
    number = softplus / bl - 0.5 * sig + (bl / 12.0) * sig * sig_rev
    energy = -li / (beta * beta * lam) - (lam / 12.0) * sig - 0.75 * lam * number
    entropy = beta * (energy - mu * number) + log_z
    return ThermoPoint(beta=beta, mu=mu, zeta=zeta, zeta_prime=zp,
                       log_z=log_z, energy=energy, number=number,
                       entropy=entropy, method="euler_maclaurin", gamma=params.gamma,
                       n_modes=None)
