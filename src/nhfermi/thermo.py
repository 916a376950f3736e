"""Grand-canonical thermodynamics of the ladder spectrum.

Mode k carries energy lambda_k = Lambda (4k-3)/4 and occupation 0 or 1, so
with zeta = -beta mu, zeta' = zeta - (3/4) beta Lambda and
u_k = beta Lambda k + zeta',

    log Z = sum_k log(1 + e^{-u_k}),   N = sum_k sigma(-u_k),
    E = Lambda sum_k k sigma(-u_k) - (3/4) Lambda N,

with sigma the logistic function; the entropy always comes from
S = beta (E - mu N) + log Z.

Exact values come from one engine, ``_fermi_sums``, whose cost per point
does not grow with 1/beta or with mu:

* Window.  The modes within D of the Fermi level k* = -zeta'/(beta Lambda),
  and the first D modes, are summed directly: D = 8 when beta Lambda < 1,
  and D = ceil(40/(beta Lambda)) otherwise, where the terms already fall by
  e^{-beta Lambda} per mode and the Euler-Maclaurin (EM) formula gains
  nothing.
* Above the window, the tail is the EM formula at order p,

      sum_{i>=1} f(i) = int_0^inf f - f(0)/2
                        - sum_{j<=p} B_2j/(2j)! f^(2j-1)(0) + R_p,

  with the integrals in closed form (the dilogarithm and softplus) and the
  derivatives of sigma(-u) as polynomials in sigma:
  P_0 = sigma, P_{n+1} = -sigma (1 - sigma) P_n'.
* Below the window, the particle-hole reflection
  log(1 + e^{-u}) = -u + log(1 + e^u), sigma(-u) = 1 - sigma(u) turns the
  filled modes into arithmetic sums plus a finite sum of decaying terms,
  which is the difference of two EM tails.  A deep Fermi sea costs the same
  as an empty one.
* Certificate.  |R_p| <= |B_2p|/(2p)! int |f^(2p)| (DLMF 2.10(i)), and for
  u > 0 every derivative obeys |d^m sigma(-u)/du^m| <= Li_{-m}(e^{-u})
  = x A_m(x)/(1-x)^{m+1} at x = e^{-u}, with A_m the Eulerian polynomial.
  The bounds are evaluated in log space, so beta Lambda = 1e-150 neither
  underflows nor overflows.  Each tail takes the smallest p <= 14 whose
  bounds fit a quarter of ``tail_tol`` times each sum.  ``tail_tol`` is
  relative: it bounds the remainder of each of the three sums (log Z, N and
  sum k sigma) relative to that sum.  If no p fits, D doubles; past a cap
  ``TruncationError`` reports the bound reached.

The high-temperature approximation is the paper's EM formula at p = 1 applied
to the whole mode sum, leaving a dilogarithm integral plus two boundary
terms:

    log Z ~ -Li2(-exp(-zeta')) / (beta Lambda)
            - log(1 + exp(-zeta')) / 2
            + (beta Lambda / 12) sigma(-zeta').

E and N are the analytic derivatives -d log Z/d beta (at fixed zeta) and
-d log Z/d zeta of that three-term form; no bound is attached.

Every exponential takes a non-positive argument, so Fermi factors stay
finite for any finite (beta, mu); a sum that overflows a float (E near
beta Lambda = 1e-160 and below) raises ValueError.
"""

import functools
import math
import sys
from dataclasses import dataclass

from .errors import TruncationError
from .params import ModelParams

__all__ = ["TAIL_TOL", "ThermoPoint", "dilog", "exact_log_z", "exact_expectations",
           "em_expectations"]

_PI2_6 = math.pi * math.pi / 6.0

# Default bound on each exact Fermi sum's remainder, relative to the sum.
# The entropy beta (E - mu N) + log Z cancels, so a looser default would
# show in its last digits.
TAIL_TOL = 1e-15

# B_2j/(2j)! for j = 1..14, the Euler-Maclaurin coefficients
_EM_COEFFS = (
    0.08333333333333333, -0.001388888888888889, 3.306878306878307e-05,
    -8.267195767195768e-07, 2.08767569878681e-08, -5.284190138687493e-10,
    1.3382536530684679e-11, -3.3896802963225827e-13, 8.586062056277845e-15,
    -2.174868698558062e-16, 5.5090028283602295e-18, -1.3954464685812522e-19,
    3.534707039629467e-21, -8.953517427037546e-23,
)
# The window half width D stops doubling here
_MAX_HALF_WIDTH = 1024
# Fermi levels past this mode are not resolved by float mode energies
_MAX_FERMI_MODE = 2.0 ** 50


@dataclass(frozen=True)
class ThermoPoint:
    """Equilibrium state at (beta, mu) with its derived quantities.

    For the exact method, n_modes counts the modes summed directly and
    tail_bound is the largest certified remainder of the three Fermi sums,
    relative to its sum; both are None for the Euler-Maclaurin method.
    """

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
    tail_bound: float | None = None


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


def _softplus_neg(u: float) -> float:
    """log(1 + e^{-u})."""
    if u >= 0.0:
        return math.log1p(math.exp(-u))
    return -u + math.log1p(math.exp(u))


def _sigma_neg(u: float) -> float:
    """sigma(-u) = 1/(1 + e^u)."""
    if u >= 0.0:
        e = math.exp(-u)
        return e / (1.0 + e)
    return 1.0 / (1.0 + math.exp(u))


def _validate_beta(beta: float) -> float:
    beta = float(beta)
    if not (beta > 0.0) or not math.isfinite(beta):
        raise ValueError(f"beta must be positive and finite, got {beta}")
    return beta


# -- the exact Fermi-sum engine ----------------------------------------------

@functools.cache
def _sigma_poly(n: int) -> tuple:
    """Integer coefficients, lowest power first, of P_n with
    d^n sigma(-u)/du^n = P_n(sigma(-u)): P_0 = s, P_{n+1} = -s (1-s) P_n'."""
    if n == 0:
        return (0, 1)
    deriv = [i * c for i, c in enumerate(_sigma_poly(n - 1))][1:]
    out = [0] * (len(deriv) + 2)
    for i, d in enumerate(deriv):
        out[i + 1] -= d
        out[i + 2] += d
    return tuple(out)


@functools.cache
def _eulerian(m: int) -> tuple:
    """Coefficients of the Eulerian polynomial A_m, lowest power first, so
    that Li_{-m}(x) = x A_m(x) / (1-x)^{m+1}."""
    if m == 0:
        return (1,)
    prev = _eulerian(m - 1) + (0,)
    return tuple((k + 1) * prev[k] + (m - k) * (prev[k - 1] if k else 0)
                 for k in range(m))


def _horner(coeffs: tuple, x: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _em_integrals(bl: float, u0: float) -> tuple:
    """Order-0 Euler-Maclaurin values of the three tail sums over i >= 1 at
    u = bl i + u0 (see _em_corrections): the integrals over [0, inf) minus
    half the i = 0 term, which is zero for the i-weighted sum."""
    li = _dilog_neg_exp(-u0)
    sp = _softplus_neg(u0)
    return (-li / bl - 0.5 * sp, sp / bl - 0.5 * _sigma_neg(u0), -li / bl / bl)


def _em_corrections(bl: float, u0: float, budgets: tuple, n_weight: float):
    """Euler-Maclaurin corrections and remainder bounds of the sums over
    i >= 1 of log(1 + e^{-u}), sigma(-u) and i sigma(-u) at u = bl i + u0,
    for u0 > 0.

    The order p is the smallest <= 14 whose bounds (B_L, B_N, B_1) meet
    ``budgets`` for the three sums, the third charged B_1 + n_weight B_N
    because its caller adds n_weight times the second sum.  Returns the
    correction terms of each sum, as lists, and the bounds at that p (at
    p = 14 when none fits).
    """
    s = _sigma_neg(u0)
    x = math.exp(-u0)
    log_a = math.log(bl)
    log_1mx = math.log(-math.expm1(-u0))

    def log_li(m):   # log Li_{-m}(e^{-u0})
        return -u0 + math.log(_horner(_eulerian(m), x)) - (m + 1) * log_1mx

    corr = ([], [], [])
    a_odd, a_even = bl, 1.0      # bl^{2j-1}, bl^{2j-2}
    for j, c in enumerate(_EM_COEFFS, start=1):
        p_even = _horner(_sigma_poly(2 * j - 2), s)
        corr[0].append(c * a_odd * p_even)
        corr[1].append(-c * a_odd * _horner(_sigma_poly(2 * j - 1), s))
        corr[2].append(-c * (2 * j - 1) * a_even * p_even)
        log_c = math.log(abs(c)) + (2 * j - 1) * log_a
        li_even = log_li(2 * j - 2)
        bounds = tuple(math.exp(min(v, 709.0)) for v in (
            log_c + li_even,
            log_c + log_li(2 * j - 1),
            log_c - log_a + math.log(2 * j + 1) + li_even))
        if (bounds[0] <= budgets[0] and bounds[1] <= budgets[1]
                and bounds[2] + n_weight * bounds[1] <= budgets[2]):
            break
        a_odd *= bl * bl
        a_even *= bl * bl
    return corr, bounds


@dataclass(frozen=True)
class _FermiSums:
    log_z: float      # sum_k log(1 + e^{-u_k})
    number: float     # sum_k sigma(-u_k)
    moment: float     # sum_k k sigma(-u_k)
    n_direct: int     # modes summed directly
    bound: float      # largest remainder bound relative to its sum (or to
                      # the smallest normal float when the sum underflows)


def _fermi_sums(bl: float, zp: float, tail_tol: float = TAIL_TOL) -> _FermiSums:
    """The three Fermi sums over k >= 1 at u_k = bl k + zp, each with a
    remainder certified below tail_tol relative to the sum (module
    docstring).  Raises ValueError when a sum overflows a float or the
    Fermi level lies past mode 2^50, and TruncationError when the window
    cap is reached before the bound fits."""
    if not tail_tol > 0.0:
        raise ValueError(f"tail_tol must be positive, got {tail_tol}")
    if not math.isfinite(zp):
        raise ValueError(f"zeta' must be finite, got {zp}")
    k_star = max(-zp / bl, 0.0)
    if not k_star <= _MAX_FERMI_MODE:
        raise ValueError(f"the Fermi level lies at mode {k_star:.4g}, past "
                         f"2^50, where float mode energies no longer resolve single modes")
    half = 8 if bl < 1.0 else math.ceil(40.0 / bl)
    while True:
        sums = _window_sums(bl, zp, k_star, half, tail_tol)
        if sums.bound <= tail_tol:
            return sums
        if half >= _MAX_HALF_WIDTH:
            raise TruncationError(
                f"Fermi-sum remainder bound {sums.bound:.3g} above tail_tol "
                f"{tail_tol:g} at beta*Lambda={bl:.4g}, zeta'={zp:.4g}",
                achieved=sums.bound)
        half *= 2


def _window_sums(bl, zp, k_star, half, tail_tol) -> _FermiSums:
    """_fermi_sums with the window half width fixed at ``half``."""
    lo = max(1, math.floor(k_star - half))
    hi = math.ceil(max(k_star, 1.0) + half)
    parts = ([], [], [])             # pieces of log Z, N and sum k sigma
    for k in range(lo, hi + 1):
        u = bl * k + zp
        f = _sigma_neg(u)
        parts[0].append(_softplus_neg(u))
        parts[1].append(f)
        parts[2].append(k * f)
    # Each tail (u0, sign, n_sign, n_weight) adds sign T_L to log Z,
    # n_sign T_N to N and sign T_1 + n_weight T_N to sum k sigma, where T_*
    # are the sums over i >= 1 at u = bl i + u0.
    tails = [(bl * hi + zp, 1.0, 1.0, float(hi))]
    if lo > 1:
        # modes 1..J, reflected: index j = lo - k, v = -u_k = bl j + v0
        J = lo - 1
        parts[0].append(-J * (bl * (J + 1) / 2.0 + zp))
        parts[1].append(float(J))
        parts[2].append(J * (J + 1) / 2.0)
        tails.append((-(bl * lo + zp), 1.0, -1.0, -float(lo)))
        tails.append((-(bl + zp), -1.0, 1.0, 1.0))

    bases = [_em_integrals(bl, t[0]) for t in tails]
    for (_, sign, n_sign, n_weight), (b_l, b_n, b_1) in zip(tails, bases):
        parts[0].append(sign * b_l)
        parts[1].append(n_sign * b_n)
        parts[2].extend((sign * b_1, n_weight * b_n))
    tiny = sys.float_info.min
    budgets = tuple(0.25 * tail_tol * max(abs(math.fsum(p)), tiny) for p in parts)

    bound = [0.0, 0.0, 0.0]
    for u0, sign, n_sign, n_weight in tails:
        (c_l, c_n, c_1), (b_l, b_n, b_1) = _em_corrections(bl, u0, budgets, abs(n_weight))
        parts[0].extend(sign * c for c in c_l)
        parts[1].extend(n_sign * c for c in c_n)
        parts[2].extend(sign * c for c in c_1)
        parts[2].extend(n_weight * c for c in c_n)
        bound[0] += b_l
        bound[1] += b_n
        bound[2] += b_1 + abs(n_weight) * b_n
    totals = [math.fsum(p) for p in parts]
    if not all(math.isfinite(t) for t in totals):
        raise ValueError(f"Fermi sums overflow a float at beta*Lambda={bl:.4g}")
    rel = max(b / max(abs(t), tiny) for b, t in zip(bound, totals))
    return _FermiSums(log_z=totals[0], number=totals[1], moment=totals[2],
                      n_direct=hi - lo + 1, bound=rel)


def exact_log_z(params: ModelParams, beta: float, zeta: float,
                tail_tol: float = TAIL_TOL) -> float:
    """log Z from the certified Fermi-sum engine, remainder below tail_tol
    relative to log Z."""
    bl = _validate_beta(beta) * params.lambda_scale
    return _fermi_sums(bl, zeta - 0.75 * bl, tail_tol).log_z


def exact_expectations(params: ModelParams, beta: float, mu: float,
                       tail_tol: float = TAIL_TOL) -> ThermoPoint:
    """Exact (log Z, E, N, S) from the certified Fermi-sum engine.

    N = sum f_k, E = sum lambda_k f_k with f_k = 1/(e^{beta lambda_k + zeta} + 1),
    and S = beta (E - mu N) + log Z.  Raises ValueError when a value
    overflows a float.
    """
    beta = _validate_beta(beta)
    mu = float(mu)
    zeta = -beta * mu
    lam = params.lambda_scale
    bl = beta * lam
    zp = zeta - 0.75 * bl
    sums = _fermi_sums(bl, zp, tail_tol)
    energy = lam * (sums.moment - 0.75 * sums.number)
    entropy = beta * (energy - mu * sums.number) + sums.log_z
    if not (math.isfinite(energy) and math.isfinite(entropy)):
        raise ValueError(f"thermodynamic values overflow a float at beta={beta!r}")
    return ThermoPoint(beta=beta, mu=mu, zeta=zeta, zeta_prime=zp,
                       log_z=sums.log_z, energy=energy, number=sums.number,
                       entropy=entropy, method="exact", gamma=params.gamma,
                       n_modes=sums.n_direct, tail_bound=sums.bound)


def em_expectations(params: ModelParams, beta: float, mu: float) -> ThermoPoint:
    """The paper's three-term Euler-Maclaurin approximation of log Z, with
    E and N by its analytic differentiation.

    Asymptotic in beta*Lambda: accurate at high temperature, degrading as
    beta grows; no remainder bound is attached.  The chain rule runs through
    zeta'(beta, zeta) with d zeta'/d beta = -(3/4) Lambda at fixed zeta and
    d zeta'/d zeta = 1, using d Li2(-e^{-u})/du = log(1 + e^{-u}):

        N = softplus(-zeta')/(beta Lambda) - sigma(-zeta')/2
            + (beta Lambda / 12) sigma(-zeta') sigma(zeta'),
        E = -Li2(-e^{-zeta'})/(beta^2 Lambda) - (Lambda/12) sigma(-zeta')
            - (3/4) Lambda N.

    Raises ValueError when a value overflows a float (at mu = 0, E does
    below beta of about 5e-155).
    """
    beta = _validate_beta(beta)
    mu = float(mu)
    zeta = -beta * mu
    lam = params.lambda_scale
    bl = beta * lam
    zp = zeta - 0.75 * bl
    li = _dilog_neg_exp(-zp)     # Li2(-e^{-zeta'})
    softplus = _softplus_neg(zp)  # log(1 + e^{-zeta'})
    sig = _sigma_neg(zp)          # sigma(-zeta')
    sig_rev = _sigma_neg(-zp)     # sigma(zeta') = 1 - sigma(-zeta')
    log_z = -li / bl - 0.5 * softplus + (bl / 12.0) * sig
    number = softplus / bl - 0.5 * sig + (bl / 12.0) * sig * sig_rev
    energy = -li / bl / beta - (lam / 12.0) * sig - 0.75 * lam * number
    entropy = beta * (energy - mu * number) + log_z
    if not all(math.isfinite(v) for v in (log_z, number, energy, entropy)):
        raise ValueError(f"thermodynamic values overflow a float at beta={beta!r}")
    return ThermoPoint(beta=beta, mu=mu, zeta=zeta, zeta_prime=zp,
                       log_z=log_z, energy=energy, number=number,
                       entropy=entropy, method="euler_maclaurin", gamma=params.gamma)
