import math
import time

import numpy as np
import pytest

from nhfermi import (
    TruncationError,
    dilog,
    em_expectations,
    exact_expectations,
    exact_log_z,
    make_params,
    mode_energy,
)

P35 = make_params(0.6)
P0 = make_params(0.0)


def brute_log_z(params, beta, zeta, terms):
    k = np.arange(1, terms + 1, dtype=float)
    x = beta * params.lambda_scale * (4 * k - 3) / 4.0 + zeta
    return float(np.logaddexp(0.0, -x).sum())


def brute_fermi_sums(params, beta, mu, terms):
    k = np.arange(1, terms + 1, dtype=float)
    lam = params.lambda_scale * (4 * k - 3) / 4.0
    f = 1.0 / (np.exp(np.clip(beta * lam - beta * mu, -700, 700)) + 1.0)
    return float(f.sum()), float((lam * f).sum())


class TestDilog:
    def test_zero(self):
        assert dilog(0.0) == 0.0

    def test_one(self):
        assert dilog(1.0) == pytest.approx(math.pi**2 / 6, rel=1e-15)

    def test_minus_one_brute_series(self):
        # alternating series summed directly; frozen reference -pi^2/12
        k = np.arange(1, 10**6 + 1, dtype=float)
        brute = float(np.sum((-1.0) ** k / k**2))
        assert dilog(-1.0) == pytest.approx(brute, abs=1e-12)
        assert dilog(-1.0) == pytest.approx(-0.82246703342411322, abs=1e-14)

    @pytest.mark.parametrize("x,ref", [
        (-0.3, -0.2800743337595829),
        (0.7, 0.88937762428603874),
        (-5.0, -2.7492791260608083),
        (-20.0, -6.0827514839094906),
    ])
    def test_reference_points(self, x, ref):
        # frozen from a 30-digit evaluation of the defining series
        assert dilog(x) == pytest.approx(ref, abs=1e-13)

    def test_series_region_against_brute_force(self):
        for x in (-0.49, -0.2, 0.1, 0.45):
            k = np.arange(1, 2000, dtype=float)
            brute = float(np.sum(x**k / k**2))
            assert dilog(x) == pytest.approx(brute, abs=1e-14)

    def test_monotone_decreasing_on_negatives(self):
        xs = [-0.1, -0.5, -1.0, -2.0, -5.0, -20.0]
        vals = [dilog(x) for x in xs]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_domain_error(self):
        with pytest.raises(ValueError):
            dilog(1.0001)


class TestExactLogZ:
    def test_brute_force_10k_terms(self):
        val = exact_log_z(P0, 1.0, 0.0)
        assert val == pytest.approx(brute_log_z(P0, 1.0, 0.0, 10**4), abs=1e-12)
        assert val == pytest.approx(0.98856546793927579, abs=1e-12)

    def test_cold_limit_first_mode_dominates(self):
        val = exact_log_z(P0, 50.0, 0.0)
        # two-term partial sum: log(1+e^-12.5) + log(1+e^-62.5)
        two = math.log1p(math.exp(-12.5)) + math.log1p(math.exp(-62.5))
        assert val == pytest.approx(two, rel=1e-10)
        assert val == pytest.approx(3.7266462281239903e-6, rel=1e-9)

    def test_empty_limit(self):
        assert exact_log_z(P35, 1.0, 5000.0) < 1e-100

    def test_tail_tol_certified(self):
        loose = exact_log_z(P35, 0.05, 0.0, tail_tol=1e-6)
        tight = exact_log_z(P35, 0.05, 0.0, tail_tol=1e-13)
        assert abs(loose - tight) < 1e-6

    def test_beta_domain(self):
        with pytest.raises(ValueError):
            exact_log_z(P35, 0.0, 0.0)
        with pytest.raises(ValueError):
            exact_log_z(P35, -1.0, 0.0)


class TestExactExpectations:
    def test_freeze_out(self):
        tp = exact_expectations(P0, 50.0, 0.0)
        assert tp.number < 1e-4
        assert tp.energy < 1e-4

    def test_single_mode_saturation(self):
        # lambda_1 = 1/4 < mu = 1 < lambda_2 = 5/4 at gamma = 0
        tp = exact_expectations(P0, 50.0, 1.0)
        assert tp.number == pytest.approx(1.0, abs=1e-5)
        assert tp.energy == pytest.approx(0.25, abs=1e-5)

    def test_against_brute_force_sum(self):
        tp = exact_expectations(P35, 0.2, 0.0)
        n_b, e_b = brute_fermi_sums(P35, 0.2, 0.0, 10**5)
        assert tp.number == pytest.approx(n_b, abs=1e-9)
        assert tp.energy == pytest.approx(e_b, abs=1e-9)
        # frozen 30-digit references
        assert tp.number == pytest.approx(2.7669156136322281, abs=1e-10)
        assert tp.energy == pytest.approx(15.68630767829787, abs=1e-9)

    def test_energy_matches_beta_derivative(self):
        beta, mu = 0.2, 0.3
        tp = exact_expectations(P35, beta, mu)
        h = 1e-5
        fd = -(exact_log_z(P35, beta + h, tp.zeta)
               - exact_log_z(P35, beta - h, tp.zeta)) / (2 * h)
        assert fd == pytest.approx(tp.energy, rel=1e-5)

    def test_number_matches_zeta_derivative(self):
        beta, mu = 0.2, 0.3
        tp = exact_expectations(P35, beta, mu)
        h = 1e-5
        fd = -(exact_log_z(P35, beta, tp.zeta + h)
               - exact_log_z(P35, beta, tp.zeta - h)) / (2 * h)
        assert fd == pytest.approx(tp.number, rel=1e-5)

    def test_entropy_identity_and_per_mode_form(self):
        tp = exact_expectations(P35, 0.1, 0.5)
        ident = tp.beta * (tp.energy - tp.mu * tp.number) + tp.log_z
        assert tp.entropy == pytest.approx(ident, abs=1e-12)
        # its own cutoff: past it beta lambda_k - beta mu exceeds 45
        bl = tp.beta * P35.lambda_scale
        n_modes = math.ceil((max(0.0, tp.beta * tp.mu) + 45.0) / bl) + 50
        k = np.arange(1, n_modes + 1, dtype=float)
        x = tp.beta * P35.lambda_scale * (4 * k - 3) / 4.0 + tp.zeta
        f = 1.0 / (1.0 + np.exp(np.clip(x, -700, 700)))
        with np.errstate(divide="ignore", invalid="ignore"):
            s = -(np.where(f > 0, f * np.log(f), 0.0)
                  + np.where(f < 1, (1 - f) * np.log1p(-f), 0.0))
        assert math.fsum(s) == pytest.approx(tp.entropy, abs=1e-9)

    def test_number_increasing_in_mu(self):
        ns = [exact_expectations(P35, 0.5, mu).number for mu in (-1.0, 0.0, 1.0, 2.0)]
        assert all(a < b for a, b in zip(ns, ns[1:]))

    def test_number_decreasing_in_beta_below_first_mode(self):
        mu = 0.0  # below lambda_1
        ns = [exact_expectations(P35, b, mu).number for b in (0.1, 0.5, 1.0, 2.0)]
        assert all(a > b for a, b in zip(ns, ns[1:]))

    def test_quantities_nonnegative(self):
        for beta, mu in ((0.01, -3.0), (0.5, 0.7), (5.0, -0.2)):
            tp = exact_expectations(P35, beta, mu)
            assert tp.number >= 0 and tp.energy >= 0 and tp.entropy >= -1e-12


class TestEulerMaclaurin:
    def test_log_z_close_at_high_temperature(self):
        ex = exact_log_z(P35, 0.01, 0.0)
        assert em_expectations(P35, 0.01, 0.0).log_z == pytest.approx(ex, rel=1e-4)

    def test_degrades_with_beta(self):
        d_hot = abs(em_expectations(P35, 0.01, 0.0).log_z - exact_log_z(P35, 0.01, 0.0)) \
            / exact_log_z(P35, 0.01, 0.0)
        d_cold = abs(em_expectations(P35, 0.2, 0.0).log_z - exact_log_z(P35, 0.2, 0.0)) \
            / exact_log_z(P35, 0.2, 0.0)
        assert d_cold > d_hot

    def test_empty_limit(self):
        # zeta = 200 at beta = 0.5
        assert abs(em_expectations(P35, 0.5, -400.0).log_z) < 1e-60

    def test_expectations_match_exact_at_high_temperature(self):
        ex = exact_expectations(P35, 0.01, 0.0)
        em = em_expectations(P35, 0.01, 0.0)
        assert em.number == pytest.approx(ex.number, rel=1e-3)
        assert em.energy == pytest.approx(ex.energy, rel=1e-3)

    def test_deep_negative_mu_regime(self):
        # very low beta, strongly negative mu: the sparse corner of the
        # (N, E) plane
        beta, mu = 0.001, -5000.0
        ex = exact_expectations(P35, beta, mu)
        em = em_expectations(P35, beta, mu)
        assert ex.number < 10
        assert em.number == pytest.approx(ex.number, rel=1e-3)
        assert em.energy == pytest.approx(ex.energy, rel=1e-3)

    def test_self_consistent_derivatives(self):
        # the analytic E/N of the approximation equal finite differences of
        # its own log Z at fixed zeta, reached through mu = -zeta/beta
        def log_z(beta, zeta):
            return em_expectations(P35, beta, -zeta / beta).log_z

        beta, mu = 0.03, 0.4
        em = em_expectations(P35, beta, mu)
        h = 1e-6 * beta
        e_fd = -(log_z(beta + h, em.zeta) - log_z(beta - h, em.zeta)) / (2 * h)
        assert e_fd == pytest.approx(em.energy, rel=1e-6)
        h = 1e-6
        n_fd = -(log_z(beta, em.zeta + h) - log_z(beta, em.zeta - h)) / (2 * h)
        assert n_fd == pytest.approx(em.number, rel=1e-6)

    def test_gap_shrinks_with_beta_lambda(self):
        gaps = []
        for beta in (0.2, 0.08, 0.04, 0.02, 0.01, 0.001):
            ex = exact_expectations(P35, beta, 0.0)
            em = em_expectations(P35, beta, 0.0)
            gaps.append(abs(em.number - ex.number) / ex.number)
        assert all(a >= b for a, b in zip(gaps, gaps[1:]))

    def test_beta_domain(self):
        with pytest.raises(ValueError):
            em_expectations(P35, 0.0, 0.0)
        with pytest.raises(ValueError):
            em_expectations(P35, -0.1, 0.0)


class TestOverflowPolicy:
    def test_extreme_beta(self):
        tp = exact_expectations(P35, 1000.0, 0.0)
        assert math.isfinite(tp.log_z) and math.isfinite(tp.entropy)

    def test_extreme_zeta_prime(self):
        # |zeta'| ~ 1e4 on both sides
        lo = exact_expectations(P35, 1.0, -1e4)
        assert math.isfinite(lo.number) and lo.number < 1e-100
        hi = exact_expectations(P35, 1.0, 1e4)
        assert math.isfinite(hi.number) and math.isfinite(hi.energy)
        em = em_expectations(P35, 1.0, 1e4)
        assert math.isfinite(em.number) and math.isfinite(em.energy)

    def test_mode_count_reported(self):
        # only the window around the Fermi level is summed directly
        tp = exact_expectations(P35, 0.001, 0.0)
        assert tp.n_modes is not None and tp.n_modes <= 17
        assert tp.tail_bound is not None and tp.tail_bound <= 1e-15
        assert em_expectations(P35, 0.001, 0.0).tail_bound is None


def brute_sums(params, beta, mu):
    """(log Z, N, E) summed mode by mode up to where beta lambda_k - beta mu
    exceeds 40, with numpy's pairwise summation."""
    bl = beta * params.lambda_scale
    k = np.arange(1, math.ceil((max(0.0, beta * mu) + 40.0) / bl) + 41, dtype=float)
    lam = params.lambda_scale * (4.0 * k - 3.0) / 4.0
    x = beta * lam - beta * mu
    e = np.exp(-np.abs(x))
    f = np.where(x > 0, e, 1.0) / (1.0 + e)
    return (float(np.sum(np.maximum(-x, 0.0) + np.log1p(e))),
            float(np.sum(f)), float(np.sum(lam * f)))


class TestFermiEngine:
    def test_grid_against_brute_force(self):
        # (log Z, N, E/Lambda) depend on (beta Lambda, mu/Lambda) alone, so
        # one brute-force sum serves the three gammas
        params = [make_params(g) for g in (0.0, 0.6, 1.4)]
        worst = 0.0
        for bl in np.geomspace(1e-4, 7.0, 25):
            for m in np.linspace(-50.0, 50.0, 21):
                ref = brute_sums(P0, bl, m)
                for p in params:
                    tp = exact_expectations(p, bl / p.lambda_scale, m * p.lambda_scale)
                    assert tp.tail_bound <= 1e-15
                    got = (tp.log_z, tp.number, tp.energy / p.lambda_scale)
                    worst = max(worst, *(abs(a - b) / b for a, b in zip(got, ref)))
        assert worst <= 1e-13

    @pytest.mark.parametrize("bl", [1e-9, 1e-100, 1e-150])
    def test_tiny_beta_is_fast_and_hot(self, bl):
        exact_log_z(P0, bl, 0.0)
        elapsed = min(_timed(exact_expectations, P0, bl, 0.0) for _ in range(5))
        assert elapsed < 1e-3
        # beta Lambda log Z = pi^2/12 + (beta Lambda/4) log 2 + O((beta Lambda)^2)
        # and beta Lambda N = log 2 + beta Lambda/8 + O((beta Lambda)^2) at mu = 0
        tp = exact_expectations(P0, bl, 0.0)
        assert bl * tp.log_z == pytest.approx(math.pi**2 / 12 + bl * math.log(2) / 4,
                                              abs=1e-12)
        assert bl * tp.number == pytest.approx(math.log(2) + bl / 8, abs=1e-12)

    def test_overflow_is_value_error(self):
        with pytest.raises(ValueError, match="overflow"):
            exact_expectations(P35, 1e-300, 0.0)

    def test_deep_fermi_sea(self):
        # a Fermi sea deeper by one Lambda holds exactly one more particle
        mu = 1e8
        exact_expectations(P0, 1.0, mu)
        assert min(_timed(exact_expectations, P0, 1.0, mu) for _ in range(5)) < 5e-3
        deep = exact_expectations(P0, 1.0, mu).number
        _, n_50, _ = brute_sums(P0, 1.0, 50.0)
        assert deep == pytest.approx((mu - 50.0) + n_50, rel=1e-12)

    def test_unreachable_tolerance_raises(self):
        with pytest.raises(TruncationError) as info:
            exact_log_z(P35, 1e-3, 0.0, tail_tol=1e-300)
        assert info.value.achieved > 1e-300
        with pytest.raises(ValueError):
            exact_log_z(P35, 1e-3, 0.0, tail_tol=0.0)


def _timed(fn, *args):
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start
