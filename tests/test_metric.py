import numpy as np
import pytest
import scipy.linalg

from nhfermi import (
    METRIC_GAMMA_BOUND,
    build_biorthogonal,
    build_generators,
    build_hamiltonian,
    build_metric,
    build_t_operators,
    conjugate_generator,
    dense_spectrum,
    ground_vectors,
    hermitized_hamiltonian,
    ladder_sum_exp,
    make_params,
    physical_inner,
)

P35 = make_params(0.6)


def interior_rel(R, *scales):
    """Max-norm of the leading half block, relative to the product scale."""
    s = sum(np.abs(a) @ np.abs(b) for a, b in scales)
    n = R.shape[0] // 2
    return np.abs(R[:n, :n]).max() / s[:n, :n].max()


class TestLadderSumExp:
    def test_identity_at_zero(self):
        assert np.array_equal(ladder_sum_exp(0.0, 10), np.eye(10))

    def test_matches_padded_truncated_exponential(self):
        # interior entries of the semi-infinite exponential are the limit of
        # truncated exponentials; compare against expm at tripled size
        theta = 2 * P35.alpha
        A = ladder_sum_exp(theta, 16)
        S0, Sp, Sm = (x.entries for x in build_generators(48))
        B = scipy.linalg.expm(theta * (Sp + Sm))
        n = 8
        scale = np.abs(B[:n, :n]).max()
        assert np.abs(A[:n, :n] - B[:n, :n]).max() / scale < 1e-12

    def test_symmetric_positive(self):
        A = ladder_sum_exp(2 * P35.alpha, 20)
        assert np.abs(A - A.T).max() <= 1e-12 * np.abs(A).max()
        assert np.linalg.eigvalsh((A + A.T) / 2).min() > 0

    def test_domain_guard(self):
        with pytest.raises(ValueError):
            ladder_sum_exp(np.pi / np.sqrt(2) + 0.01, 10)


class TestBuildMetric:
    def test_gamma_zero_identity(self):
        met = build_metric(make_params(0.0), 30)
        assert np.array_equal(met.d2, np.eye(30))
        assert np.array_equal(met.d, np.eye(30))

    def test_root_squares_to_metric_on_deep_interior(self):
        # block products only converge to the semi-infinite product well away
        # from the cut: the M/2 block still carries ~1e-6 tail, M/3 is clean
        met = build_metric(P35, 60)
        R = met.d @ met.d - met.d2
        s = np.abs(met.d) @ np.abs(met.d)
        n = 20
        assert np.abs(R[:n, :n]).max() / s[:n, :n].max() < 1e-12

    def test_hermitization_residual(self):
        met = build_metric(P35, 60)
        H = build_hamiltonian(P35, 60).entries
        R = met.d2 @ H - H.T @ met.d2
        assert interior_rel(R, (met.d2, H), (H.T, met.d2)) < 1e-8

    def test_t_adjointness_residual(self):
        met = build_metric(P35, 60)
        _, Tp, Tm = (x.entries for x in build_t_operators(P35, 60))
        R = met.d2 @ Tp - Tm.T @ met.d2
        assert interior_rel(R, (met.d2, Tp), (Tm.T, met.d2)) < 1e-8

    def test_left_seed_is_metric_image_of_right(self):
        # D2 psi-hat = psi-breve: the matrix-vector product loses the cut
        # tail sum_{k>M} D2[i,k] r[k], which grows toward the edge; the
        # leading quarter of the components is tail-free at 1e-8
        met = build_metric(P35, 60)
        r, l = ground_vectors(P35, 60)
        img = met.d2 @ r
        img = img / img[0]  # both seeds have first component 1
        assert np.abs((img - l)[:15]).max() < 1e-8

    def test_gamma_bound_enforced(self):
        with pytest.raises(ValueError):
            build_metric(make_params(1.5), 20)
        assert METRIC_GAMMA_BOUND < 1.5

    def test_metric_self_adjointness_of_t0(self):
        # <D2 T0 u, v> == <D2 u, T0 v> for interior-supported vectors
        met = build_metric(P35, 60)
        T0 = build_t_operators(P35, 60)[0].entries
        rng = np.random.default_rng(7)
        for _ in range(5):
            u = np.zeros(60)
            v = np.zeros(60)
            u[:20] = rng.standard_normal(20)
            v[:20] = rng.standard_normal(20)
            a = physical_inner(met, T0 @ u, v)
            b = physical_inner(met, u, T0 @ v)
            assert abs(a - b) / max(1.0, abs(a)) < 1e-8


class TestConjugateGenerator:
    def test_gamma_zero_returns_generator(self):
        S0 = build_generators(12)[0]
        C = conjugate_generator(make_params(0.0), 12, "S0")
        assert np.array_equal(C.entries, S0.entries)

    @pytest.mark.parametrize("which,pick", [("S0", 0), ("Splus", 1), ("Sminus", 2)])
    def test_matches_t_operator_on_interior(self, which, pick):
        # gamma = 1.2 lies past the point where a 2M intermediate sum fails
        M, n = 40, 20
        for p in (P35, make_params(1.2)):
            C = conjugate_generator(p, M, which)
            T = build_t_operators(p, M)[pick].entries
            assert np.abs(C.entries[:n, :n] - T[:n, :n]).max() < 1e-10, p.gamma

    def test_bad_generator_name(self):
        with pytest.raises(ValueError):
            conjugate_generator(P35, 10, "H")


class TestPhysicalInner:
    def test_gamma_zero_euclidean(self):
        met = build_metric(make_params(0.0), 10)
        u = np.arange(10.0)
        v = np.ones(10)
        assert physical_inner(met, u, v) == pytest.approx(u @ v)

    def test_positive_on_ground_vector(self):
        met = build_metric(P35, 60)
        r, _ = ground_vectors(P35, 60)
        assert physical_inner(met, r, r) > 0

    def test_eigenvectors_metric_orthogonal(self):
        met = build_metric(P35, 60)
        sys = build_biorthogonal(P35, 60, 3)
        v1 = sys.right_vectors[:, 0]
        v2 = sys.right_vectors[:, 1]
        norm = physical_inner(met, v1, v1)
        assert abs(physical_inner(met, v1, v2)) / norm < 1e-8

    def test_dimension_mismatch(self):
        met = build_metric(P35, 10)
        with pytest.raises(ValueError):
            physical_inner(met, np.ones(10), np.ones(9))


class TestHermitized:
    def test_interior_symmetry(self):
        M, n = 40, 20
        B = hermitized_hamiltonian(P35, M)
        scale = np.abs(B[:n, :n]).max()
        assert np.abs((B - B.T)[:n, :n]).max() / scale < 1e-10

    def test_interior_is_diagonal_ladder(self):
        # the conjugation lands on Lambda * S0, also at gamma = 1.2
        M, n = 40, 20
        for p in (P35, make_params(1.2)):
            B = hermitized_hamiltonian(p, M)
            D = p.lambda_scale * (4 * np.arange(1, M + 1) - 3) / 4.0
            assert np.abs((B - np.diag(D))[:n, :n]).max() < 1e-10, p.gamma

    def test_gamma_zero(self):
        B = hermitized_hamiltonian(make_params(0.0), 8)
        assert np.allclose(np.diag(B), (4 * np.arange(1, 9) - 3) / 4.0)

    def test_low_spectrum_matches_truncation(self):
        # rows near the cut are tail-dominated, so take the reliable
        # interior block; its symmetric eigenvalues meet the dense solve
        M, n = 40, 20
        B = hermitized_hamiltonian(P35, M)[:n, :n]
        wB = np.sort(np.linalg.eigvalsh((B + B.T) / 2))[:5]
        low = dense_spectrum(build_hamiltonian(P35, M), 5)
        assert np.abs(wB - low).max() / low.max() < 1e-8
