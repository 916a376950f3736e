"""Property tests of the dilogarithm, the exact Fermi-sum engine and the
gamma -> 0 limit of the metric conjugations.

Examples are derandomized and bounded, so every run checks the same inputs.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from nhfermi import (
    build_generators,
    build_metric,
    build_t_operators,
    conjugate_generator,
    dilog,
    exact_expectations,
    hermitized_hamiltonian,
    make_params,
)
from nhfermi.thermo import TAIL_TOL, _fermi_sums

PI2_6 = math.pi**2 / 6
EPS = 2.0**-52

fixed = settings(derandomize=True, database=None, deadline=None, max_examples=60)
log_bl = st.floats(min_value=-4.0, max_value=math.log10(7.0))
mu_units = st.floats(min_value=-50.0, max_value=50.0)


@fixed
@given(st.floats(min_value=1e-6, max_value=1.0 - 1e-6))
def test_dilog_reflection(x):
    lhs = dilog(x) + dilog(1.0 - x)
    assert math.isclose(lhs, PI2_6 - math.log(x) * math.log1p(-x), abs_tol=1e-13)


@fixed
@given(st.floats(min_value=-50.0, max_value=0.99))
def test_dilog_landen(x):
    lhs = dilog(x) + dilog(x / (x - 1.0))
    rhs = -0.5 * math.log1p(-x) ** 2
    assert math.isclose(lhs, rhs, abs_tol=1e-13 * max(1.0, abs(rhs)))


@fixed
@given(st.floats(min_value=-1e6, max_value=-1e-6))
def test_dilog_inversion(x):
    lhs = dilog(x) + dilog(1.0 / x)
    rhs = -PI2_6 - 0.5 * math.log(-x) ** 2
    assert math.isclose(lhs, rhs, abs_tol=1e-13 * abs(rhs))


@fixed
@given(st.sampled_from((0.0, 0.6, 1.4)), log_bl, mu_units,
       st.floats(min_value=1e-3, max_value=10.0))
def test_number_increasing_in_mu(gamma, lb, m, dm):
    p = make_params(gamma)
    beta = 10.0**lb / p.lambda_scale
    lower = exact_expectations(p, beta, m * p.lambda_scale).number
    upper = exact_expectations(p, beta, (m + dm) * p.lambda_scale).number
    assert lower < upper


def _brute_sums(bl, zp):
    """Sum over k of log(1+e^{-u}), sigma(-u) and k sigma(-u), u = bl k + zp,
    term by term up to u > 40 and with exact (fsum) summation."""
    k = np.arange(1, math.ceil((max(0.0, -zp) + 40.0) / bl) + 41, dtype=float)
    u = bl * k + zp
    e = np.exp(-np.abs(u))
    f = np.where(u > 0, e, 1.0) / (1.0 + e)
    return (math.fsum(np.maximum(-u, 0.0) + np.log1p(e)), math.fsum(f), math.fsum(k * f))


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(log_bl, mu_units, st.sampled_from((1e-6, 1e-9, 1e-12, TAIL_TOL)))
def test_engine_error_within_certificate(lb, m, tol):
    # the certificate bounds the truncation remainder; float rounding adds a
    # few ulps of each sum on top
    bl = 10.0**lb
    zp = -bl * m - 0.75 * bl
    sums = _fermi_sums(bl, zp, tol)
    assert sums.bound <= tol
    for got, ref in zip((sums.log_z, sums.number, sums.moment), _brute_sums(bl, zp)):
        assert abs(got - ref) <= (sums.bound + 16 * EPS) * ref


GENERATORS = ("S0", "Splus", "Sminus")


@fixed
@given(st.integers(min_value=2, max_value=120))
def test_gamma_zero_metric_and_conjugations_exact(M):
    p = make_params(0.0)
    S = [x.entries for x in build_generators(M)]
    for s, t in zip(S, build_t_operators(p, M)):
        assert np.array_equal(t.entries, s)
    assert np.array_equal(build_metric(p, M).d2, np.eye(M))
    n = M // 2
    for which, s in zip(GENERATORS, S):
        assert np.array_equal(conjugate_generator(p, M, which).entries, s[:n, :n])
    assert np.array_equal(hermitized_hamiltonian(p, M), p.lambda_scale * S[0][:n, :n])


@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(st.floats(min_value=-1e-3, max_value=1e-3).filter(lambda g: g != 0.0),
       st.integers(min_value=2, max_value=40))
def test_small_gamma_conjugations_match_t(gamma, M):
    # the fixed-point kernel runs for any gamma != 0; near 0 its leading half
    # meets T and Lambda S0 to rounding (3.6e-15 measured)
    p = make_params(gamma)
    n = M // 2
    for which, t in zip(GENERATORS, build_t_operators(p, M)):
        C = conjugate_generator(p, M, which).entries
        assert np.abs(C - t.entries[:n, :n]).max() <= 1e-12, which
    target = p.lambda_scale * build_generators(M)[0].entries
    assert np.abs(hermitized_hamiltonian(p, M) - target[:n, :n]).max() <= 1e-12
