import mpmath as mp
import numpy as np
import pytest
import scipy.linalg

from nhfermi import (
    TruncationError,
    build_biorthogonal,
    build_generators,
    build_hamiltonian,
    build_t_operators,
    dense_biorthogonal,
    dense_spectrum,
    ground_vectors,
    make_params,
    mode_energy,
)
from nhfermi.operators import _charpoly_newton

P35 = make_params(0.6)


def commutator(a, b):
    return a @ b - b @ a


class TestGenerators:
    def test_entries(self):
        S0, Sp, Sm = build_generators(3)
        assert np.allclose(np.diag(S0.entries), [0.25, 1.25, 2.25])
        assert Sp.entries[1, 0] == pytest.approx(0.5)  # sqrt(1*2)/(2 sqrt 2)
        assert np.array_equal(Sm.entries, Sp.entries.T)

    def test_commutators_exact_on_interior(self):
        S0, Sp, Sm = (x.entries for x in build_generators(5))
        n = 4
        assert np.abs((commutator(Sm, S0) - Sm)[:n, :n]).max() < 1e-14
        assert np.abs((commutator(S0, Sp) - Sp)[:n, :n]).max() < 1e-14
        assert np.abs((commutator(Sm, Sp) - S0)[:n, :n]).max() < 1e-14

    def test_commutator_defect_confined_to_edge(self):
        S0, Sp, Sm = (x.entries for x in build_generators(5))
        defect = commutator(Sm, Sp) - S0
        assert abs(defect[4, 4]) > 1.0  # cut coupling lands on the last entry

    def test_too_small(self):
        with pytest.raises(ValueError):
            build_generators(1)


class TestHamiltonian:
    def test_gamma_zero_diagonal(self):
        H = build_hamiltonian(make_params(0.0), 6).entries
        assert np.array_equal(H, np.diag((4 * np.arange(1, 7) - 3) / 4.0))

    def test_off_diagonal_pair(self):
        H = build_hamiltonian(P35, 2).entries
        assert H[0, 1] == pytest.approx(-0.3)  # -gamma/2
        assert H[1, 0] == pytest.approx(+0.3)

    def test_exact_combination(self):
        S0, Sp, Sm = (x.entries for x in build_generators(12))
        H = build_hamiltonian(P35, 12).entries
        assert np.array_equal(H, S0 + 0.6 * (Sp - Sm))


class TestTOperators:
    def test_gamma_zero_collapse(self):
        p0 = make_params(0.0)
        S0, Sp, Sm = (x.entries for x in build_generators(8))
        T0, Tp, Tm = (x.entries for x in build_t_operators(p0, 8))
        assert np.array_equal(T0, S0)
        assert np.array_equal(Tp, Sp)
        assert np.array_equal(Tm, Sm)

    def test_t0_is_scaled_hamiltonian(self):
        T0 = build_t_operators(P35, 30)[0].entries
        H = build_hamiltonian(P35, 30).entries
        assert np.abs(T0 - H / P35.lambda_scale).max() < 1e-15

    def test_su11_commutators_interior(self):
        T0, Tp, Tm = (x.entries for x in build_t_operators(P35, 14))
        n = 12
        assert np.abs((commutator(Tm, T0) - Tm)[:n, :n]).max() < 1e-13
        assert np.abs((commutator(T0, Tp) - Tp)[:n, :n]).max() < 1e-13
        assert np.abs((commutator(Tm, Tp) - T0)[:n, :n]).max() < 1e-13

    def test_not_mutually_adjoint(self):
        T0, Tp, Tm = (x.entries for x in build_t_operators(P35, 14))
        assert np.abs(T0 - T0.T).max() > 0.1
        assert np.abs(Tm - Tp.T).max() > 0.1

    def test_lowering_matrix_eta_pattern(self):
        # T- = (gamma/Lambda) * (1/4) [diag 4k-3; sub sqrt((2k-1)2k) eta;
        #                              super sqrt((2k-1)2k)/eta]
        _, _, Tm = build_t_operators(P35, 6)
        scale = P35.gamma / P35.lambda_scale
        k = np.arange(1, 6)
        coup = np.sqrt((2 * k - 1) * 2 * k)
        expected = scale / 4 * (np.diag(4 * np.arange(1, 7) - 3)
                                + np.diag(coup * P35.eta, -1)
                                + np.diag(coup / P35.eta, +1))
        assert np.abs(Tm.entries - expected).max() < 1e-14


class TestGroundVectors:
    def test_gamma_zero_unit_vector(self):
        r, l = ground_vectors(make_params(0.0), 10)
        e1 = np.eye(10)[0]
        assert np.array_equal(r, e1)
        assert np.array_equal(l, e1)

    def test_leading_components(self):
        # frozen from the closed forms: -eta/sqrt(2), sqrt(3/8) eta^2
        r, l = ground_vectors(P35, 10)
        assert r[0] == 1.0
        assert r[1] == pytest.approx(-0.25957308738366678, abs=1e-15)
        assert r[2] == pytest.approx(0.082521089821750073, abs=1e-15)
        assert np.allclose(l, np.abs(r))

    def test_eigen_residual_tiny(self):
        M = 60
        H = build_hamiltonian(P35, M).entries
        lam1 = mode_energy(P35, 1)
        r, l = ground_vectors(P35, M)
        assert np.linalg.norm(H @ r - lam1 * r) / np.linalg.norm(r) < 1e-12
        assert np.linalg.norm(H.T @ l - lam1 * l) / np.linalg.norm(l) < 1e-12


class TestBiorthogonal:
    def test_gamma_zero_unit_vectors(self):
        sys = build_biorthogonal(make_params(0.0), 8, 3)
        assert np.allclose(sys.right_vectors, np.eye(8)[:, :3])
        assert np.allclose(sys.eigenvalues, [0.25, 1.25, 2.25])

    def test_eigenvalues_against_dense_solver(self):
        sys = build_biorthogonal(P35, 60, 5)
        dense = dense_spectrum(build_hamiltonian(P35, 60), 5)
        assert np.abs((sys.eigenvalues - dense) / dense).max() < 1e-10

    def test_cross_orthogonality(self):
        sys = build_biorthogonal(P35, 60, 5)
        assert abs(sys.left_vectors[:, 1] @ sys.right_vectors[:, 2]) < 1e-10

    def test_gram_identity(self):
        sys = build_biorthogonal(P35, 60, 5)
        assert sys.gram_defect() < 1e-10

    def test_n_too_large_rejected(self):
        with pytest.raises(ValueError):
            build_biorthogonal(P35, 10, 6)

    def test_truncation_error_raised(self):
        # M=12, n=6 satisfies n <= M/2 but the tails exceed a 1e-14 demand
        with pytest.raises(TruncationError) as err:
            build_biorthogonal(P35, 12, 6, tol=1e-14)
        assert err.value.achieved is not None and err.value.achieved > 1e-14

    def test_ladder_action_raises_eigenvalue(self):
        _, Tp, _ = build_t_operators(P35, 60)
        H = build_hamiltonian(P35, 60).entries
        sys = build_biorthogonal(P35, 60, 4)
        for j in range(4):
            v = Tp.entries @ sys.right_vectors[:, j]
            lam_up = sys.eigenvalues[j] + P35.lambda_scale
            assert np.linalg.norm(H @ v - lam_up * v) / np.linalg.norm(v) < 1e-10


class TestDenseSpectrum:
    def test_gamma_zero(self):
        ev = dense_spectrum(build_hamiltonian(make_params(0.0), 10), 4)
        assert np.allclose(ev, [0.25, 1.25, 2.25, 3.25], atol=1e-14)

    def test_lowest_eigenvalue(self):
        ev = dense_spectrum(build_hamiltonian(P35, 100), 1)
        assert ev[0] == pytest.approx(0.32787192621510003, rel=1e-10)

    def test_ladder_gaps(self):
        ev = dense_spectrum(build_hamiltonian(P35, 100), 10)
        assert np.abs(np.diff(ev) - P35.lambda_scale).max() < 1e-8

    @pytest.mark.parametrize("gamma", [0.2, 0.6, 1.5])
    def test_matches_analytic_ladder(self, gamma):
        p = make_params(gamma)
        ev = dense_spectrum(build_hamiltonian(p, 100), 8)
        an = np.array([mode_energy(p, k) for k in range(1, 9)])
        assert np.abs((ev - an) / an).max() < 1e-8

    def test_geometric_convergence_in_m(self):
        # truncation error of the lowest eigenvalue shrinks with M
        errs = []
        for M in (20, 30, 40):
            ev = dense_spectrum(build_hamiltonian(make_params(1.2), M), 1)
            errs.append(abs(ev[0] - mode_energy(make_params(1.2), 1)))
        assert errs[0] > errs[1] > errs[2] or errs[2] < 1e-14

    def test_non_tridiagonal_rejected(self):
        from nhfermi import TruncatedOperator
        bad = TruncatedOperator(4, np.ones((4, 4)), "other")
        with pytest.raises(ValueError):
            dense_spectrum(bad, 2)


def _charpoly_newton_mpmath(gamma, M, lam, dps=40, iters=50):
    """Oracle for the fixed-point Newton polish: the same recurrence and
    step in mpmath at 40 digits, with each step divided by the largest of
    the four running values."""
    with mp.workdps(dps):
        g2 = mp.mpf(float(gamma)) ** 2
        d = [mp.mpf(4 * k - 3) / 4 for k in range(1, M + 1)]
        op = [-g2 * (2 * k - 1) * (2 * k) / 8 for k in range(1, M)]
        lam = mp.mpf(float(lam))
        tol = mp.mpf(10) ** (-(dps - 8))
        for _ in range(iters):
            p_prev, p = mp.mpf(1), d[0] - lam
            dp_prev, dp = mp.mpf(0), mp.mpf(-1)
            for k in range(1, M):
                pn = (d[k] - lam) * p - op[k - 1] * p_prev
                dpn = -p + (d[k] - lam) * dp - op[k - 1] * dp_prev
                scale = max(abs(pn), abs(p), abs(dpn), abs(dp))
                if scale == 0:
                    return float(lam)
                p_prev, p = p / scale, pn / scale
                dp_prev, dp = dp / scale, dpn / scale
            if dp == 0:
                break
            step = p / dp
            lam = lam - step
            if abs(step) <= tol * max(mp.mpf(1), abs(lam)):
                break
        return float(lam)


class TestCharpolyNewton:
    @pytest.mark.parametrize("gamma", np.linspace(0.05, 1.5, 12).tolist())
    def test_bit_equal_to_mpmath(self, gamma):
        M = 100
        A = build_hamiltonian(make_params(gamma), M).entries
        w = scipy.linalg.eigvals(A)
        seeds = np.sort(w[np.abs(w.imag) <= 1e-8 * np.abs(w).max()].real)[:8]
        g = 2.0 * A[1, 0]
        for lam in seeds:
            assert _charpoly_newton(g, M, lam) == _charpoly_newton_mpmath(g, M, lam)

    def test_gamma_zero_exact(self):
        assert _charpoly_newton(0.0, 10, 2.3) == 2.25


class TestDenseBiorthogonal:
    def test_full_frame_biorthonormal(self):
        bio = dense_biorthogonal(P35, 6)
        assert bio.count == bio.dim == 6
        assert bio.gram_defect() < 1e-12

    def test_low_eigenvalues_real_and_near_ladder(self):
        bio = dense_biorthogonal(P35, 12)
        lam = bio.eigenvalues
        assert abs(lam[0].imag) < 1e-12
        assert lam[0].real == pytest.approx(mode_energy(P35, 1), abs=1e-8)

    def test_upper_spectrum_conjugate_pairs(self):
        # truncation sends the upper modes into complex conjugate pairs
        bio = dense_biorthogonal(P35, 6)
        lam = np.asarray(bio.eigenvalues)
        complex_ones = lam[np.abs(lam.imag) > 1e-9]
        assert len(complex_ones) > 0
        assert len(complex_ones) % 2 == 0
        paired = np.sort_complex(complex_ones)
        assert np.allclose(np.sort_complex(complex_ones.conj()), paired)

    @pytest.mark.parametrize("gamma", [0.3, 0.6, 1.0, 1.5])
    def test_conjugate_pairs_negative_imaginary_first(self, gamma):
        lam = dense_biorthogonal(make_params(gamma), 12).eigenvalues
        assert np.all(np.diff(lam.real) >= 0)
        pairs = np.flatnonzero(lam.imag != 0)
        assert len(pairs) > 0 and len(pairs) % 2 == 0
        first, second = lam[pairs[::2]], lam[pairs[1::2]]
        assert np.all(first.imag < 0)
        assert np.array_equal(second, first.conj())

    def test_diagonalizes_hamiltonian(self):
        bio = dense_biorthogonal(P35, 6)
        H = build_hamiltonian(P35, 6).entries
        rec = bio.right_vectors @ np.diag(bio.eigenvalues) @ bio.left_vectors.T
        assert np.abs(rec - H).max() < 1e-12
