import functools
import gc
import math
import random
import weakref

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
from nhfermi.errors import NumericalError
from nhfermi import metric
from nhfermi.metric import _PAD, _check_exact, _imatmul, _ints, _shift
from nhfermi.operators import _B, _ONE, _fixed

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


# -- the dense object-matmul conjugation kernel, kept as the exact oracle ----

def _dense_ladder(n):
    S0 = np.diag([(4 * k + 1) << (_B - 2) for k in range(n)])
    Sp = np.diag([math.isqrt((2 * k - 1) * k << 2 * _B) >> 1 for k in range(1, n)], -1)
    return S0, Sp


@functools.lru_cache(maxsize=1)
def _dense_frame(gamma, M):
    pad = _PAD * M
    g = _fixed(gamma)
    lam = math.isqrt(_ONE * _ONE + 2 * g * g)
    t = 2 * g * _ONE // (_ONE + lam)
    q = 2 * lam * _ONE // (_ONE + lam)
    q4 = math.isqrt(math.isqrt(q << _B) << _B)
    w = [q4 * q**l >> _B * l for l in range(M)]
    s = np.diagonal(_dense_ladder(pad)[1], -1)
    L = np.zeros((pad, M), dtype=object)
    for j in range(M):
        acc = L[j, j] = _ONE
        for k in range(j + 1, pad):
            acc = acc * t * s[k - 1] // ((k - j) << 2 * _B)
            L[k, j] = acc
    return (L[:M] * w >> _B) @ L.T >> _B


def _dense_conjugate(gamma, M, X):
    E = _dense_frame(abs(gamma), M)
    F = E * (-1) ** np.add.outer(np.arange(M), np.arange(_PAD * M))
    left, right = (F, E) if gamma > 0 else (E, F)
    Y = (left @ X >> _B) @ right.T >> _B
    return (Y / _ONE).astype(float)


@pytest.mark.parametrize("gamma,M", [(0.05, 60), (0.6, 60), (1.0, 60), (1.42, 60),
                                     (-0.7, 30), (1.2, 20), (0.6, 8), (0.5, 2),
                                     (1e-3, 40), (0.6, 3), (-0.6, 3)])
def test_conjugations_bit_identical_to_dense_kernel(gamma, M):
    p = make_params(gamma)
    S0, Sp = _dense_ladder(_PAD * M)
    for which, X in (("S0", S0), ("Splus", Sp), ("Sminus", Sp.T)):
        C = conjugate_generator(p, M, which).entries
        assert np.array_equal(C, _dense_conjugate(gamma, M, X)), which
    H = S0 + ((Sp - Sp.T) * _fixed(gamma) >> _B)
    assert np.array_equal(hermitized_hamiltonian(p, M), _dense_conjugate(-gamma, M, H))


def test_one_frame_cached():
    # a frame is ~0.5 MB at M = 60; a dead gamma must not keep one alive
    frames = []
    for gamma in (0.11, 0.22, -0.33, 0.44, 0.55):
        conjugate_generator(make_params(gamma), 20, "S0")
        frames.append(weakref.ref(metric._frame(abs(gamma), 20)))
    gc.collect()
    assert [f() is not None for f in frames] == [False] * 4 + [True]
    assert not frames[-1]().flags.writeable


class TestImatmul:
    @staticmethod
    def _random(rng, shape, max_bits=600):
        return np.array([rng.choice((-1, 1)) * rng.getrandbits(rng.randint(0, max_bits))
                         for _ in range(math.prod(shape))], dtype=object).reshape(shape)

    @pytest.mark.parametrize("n_a,k,n_b", [(7, 13, 5), (1, 40, 9), (11, 40, 1),
                                           (1, 1, 1), (6, 400, 3), (9, 2, 10)])
    def test_random_signed_ints(self, n_a, k, n_b):
        rng = random.Random(n_a * 1000 + k * 10 + n_b)
        A, B = self._random(rng, (n_a, k)), self._random(rng, (k, n_b))
        assert np.array_equal(_ints(_imatmul(A, B)), A @ B)
        assert np.array_equal(_ints(_shift(_imatmul(A, B))), A @ B >> _B)

    def test_zero_rows_and_negative_blocks(self):
        rng = random.Random(5)
        A, B = self._random(rng, (10, 30)), self._random(rng, (30, 8))
        A[2] = 0
        A[5:9, :12] = -abs(A[5:9, :12]) - 1
        B[:, 3] = -(1 << 599)
        B[10:20, 4:] = -abs(B[10:20, 4:])
        assert np.array_equal(_ints(_imatmul(A, B)), A @ B)
        Z = np.zeros((4, 30), dtype=object)
        assert np.array_equal(_ints(_imatmul(Z, B)), Z @ B)

    def test_carries_across_every_limb(self):
        # -1 is all ones in two's complement and 2^600 - 1 fills 38 limbs,
        # so every limb sum carries into the next, up to the sign
        big = (1 << 600) - 1
        A = np.array([[-1, big, -1], [big, big, big], [-1, -1, -1]], dtype=object)
        B = np.array([[big, -1], [-1, -1], [big, big]], dtype=object)
        one = np.array([[1]], dtype=object)     # one limb each: shifts to the sign
        for X, Y in ((A, B), (-A, B), (A, -B), (-one, one), (one, one)):
            assert np.array_equal(_ints(_imatmul(X, Y)), X @ Y)
            assert np.array_equal(_ints(_shift(_imatmul(X, Y))), X @ Y >> _B)

    def test_results_are_python_ints(self):
        A = np.array([[1 << 300, -3]], dtype=object)
        B = np.array([[5], [7]], dtype=object)
        (c,), = _ints(_imatmul(A, B))
        assert type(c) is int and c == (5 << 300) - 21

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            _imatmul(np.zeros((2, 3), dtype=object), np.zeros((4, 2), dtype=object))

    def test_exactness_guard(self):
        # min(la, lb) k 2^32 must stay below 2^53; checked on the shape alone
        _check_exact(17, 30, (1 << 21) // 17, (60, 60))
        with pytest.raises(NumericalError, match=r"60x123362 @ 123362x60"):
            _check_exact(17, 30, (1 << 21) // 17 + 1, (60, 60))
        with pytest.raises(NumericalError):
            _check_exact(1, 1, 1 << 21, (1, 1))
        # _imatmul checks before it makes any limbs: one 32767-bit entry per
        # operand gives 2048 limbs each, and 2048 * 1024 = 2^21
        A = np.zeros((1, 1024), dtype=object)
        B = np.zeros((1024, 1), dtype=object)
        A[0, 0] = B[0, 0] = (1 << 32767) - 1
        with pytest.raises(NumericalError, match=r"1x1024 @ 1024x1 with 2048 and 2048"):
            _imatmul(A, B)
