import math

import numpy as np
import pytest
import scipy.sparse as sp

from nhfermi import (
    annihilation_op,
    anticommutator,
    build_fock,
    build_hamiltonian,
    build_pseudo_fermions,
    build_t_operators_fock,
    creation_op,
    dense_biorthogonal,
    diagonal_form_residual,
    joint_spectrum,
    make_params,
    mode_energy,
    number_op,
    one_particle_metric,
    physical_inner_fock,
    second_quantize,
    t_operators_combination,
)
from nhfermi.fock import (
    MAX_MODES,
    _compound_matrix,
    _max_abs as max_abs,
    ladder_couplings,
    sector_indices,
)

P35 = make_params(0.6)


@pytest.fixture(scope="module")
def frame():
    space = build_fock(6)
    bio = dense_biorthogonal(P35, 6)
    pf = build_pseudo_fermions(space, bio)
    return space, bio, pf


class TestSpace:
    def test_dimension(self):
        assert build_fock(1).dimension == 2
        assert build_fock(6).dimension == 64

    def test_sector_sizes(self):
        space = build_fock(6)
        sizes = [len(space.sector(k)) for k in range(7)]
        assert sizes == [1, 6, 15, 20, 15, 6, 1]
        assert len(sector_indices(10, 2)) == 45

    def test_mode_cap(self):
        with pytest.raises(ValueError):
            build_fock(0)
        with pytest.raises(ValueError):
            build_fock(15)


class TestLadderOperators:
    def test_single_mode_action(self):
        space = build_fock(1)
        c1d = creation_op(space, 1).matrix.toarray()
        assert c1d[1, 0] == 1.0  # |0> -> |1>
        assert np.all(c1d[:, 1] == 0.0)  # |1> -> 0

    def test_creation_anticommute(self):
        space = build_fock(2)
        c1d = creation_op(space, 1).matrix
        c2d = creation_op(space, 2).matrix
        vac = np.zeros(4)
        vac[0] = 1.0
        assert np.array_equal(c2d @ (c1d @ vac), -(c1d @ (c2d @ vac)))

    def test_car_exact(self):
        space = build_fock(6)
        I = sp.identity(64)
        c3d = creation_op(space, 3)
        c5 = annihilation_op(space, 5)
        assert max_abs(anticommutator(c3d, c5)) == 0.0
        assert max_abs(anticommutator(c3d, annihilation_op(space, 3)) - I) == 0.0

    def test_annihilation_is_transpose(self):
        space = build_fock(4)
        for j in range(1, 5):
            cd = creation_op(space, j).matrix
            c = annihilation_op(space, j).matrix
            assert max_abs(cd.T - c) == 0.0

    def test_mode_out_of_range(self):
        space = build_fock(3)
        with pytest.raises(ValueError):
            creation_op(space, 4)

    def test_cached_objects_read_only(self):
        space = build_fock(4)
        C = creation_op(space, 2).matrix
        for arr in (C.data, C.indices, C.indptr, space.sector(2)):
            with pytest.raises(ValueError):
                arr[0] = arr[0]


class TestSecondQuantize:
    def test_identity_gives_number_op(self):
        space = build_fock(5)
        N = second_quantize(space, np.eye(5)).matrix
        assert max_abs(N - number_op(space).matrix) == 0.0

    def test_smaller_identity_counts_first_modes(self):
        space = build_fock(4)
        N2 = second_quantize(space, np.eye(2)).matrix
        idx = np.arange(space.dimension)
        expected = (idx & 1) + ((idx >> 1) & 1)
        assert np.array_equal(N2.diagonal(), expected.astype(float))
        assert N2.nnz == np.count_nonzero(expected)

    def test_restriction_to_single_particle_sector(self):
        space = build_fock(6)
        A = build_hamiltonian(P35, 6).entries
        Hf = second_quantize(space, A).matrix
        a1 = space.sector(1)
        assert np.array_equal(Hf[np.ix_(a1, a1)].toarray(), A)

    def test_vacuum_annihilated(self):
        space = build_fock(6)
        Hf = second_quantize(space, build_hamiltonian(P35, 6).entries).matrix
        vac = np.zeros(64)
        vac[0] = 1.0
        assert np.abs(Hf @ vac).max() == 0.0
        assert np.abs(Hf.T @ vac).max() == 0.0

    def test_commutes_with_number_and_preserves_sectors(self):
        space = build_fock(5)
        Hf = second_quantize(space, build_hamiltonian(P35, 5).entries).matrix
        N = number_op(space).matrix
        assert max_abs(Hf @ N - N @ Hf) == 0.0
        for k in range(6):
            idx = space.sector(k)
            other = np.setdiff1d(np.arange(space.dimension), idx)
            block = Hf[np.ix_(other, idx)]
            assert max_abs(block) == 0.0

    def test_rejects_oversized_matrix(self):
        space = build_fock(3)
        with pytest.raises(ValueError):
            second_quantize(space, np.eye(4))


class TestPseudoFermions:
    def test_gamma_zero_reduces_to_fermions(self):
        space = build_fock(4)
        bio = dense_biorthogonal(make_params(0.0), 4)
        pf = build_pseudo_fermions(space, bio)
        for i in range(4):
            assert max_abs(pf.d_dag[i].matrix - creation_op(space, i + 1).matrix) < 1e-13
            assert max_abs(pf.d[i].matrix - annihilation_op(space, i + 1).matrix) < 1e-13

    def test_anticommutation_relations(self, frame):
        space, bio, pf = frame
        I = sp.identity(space.dimension)
        worst = 0.0
        for i in range(6):
            for j in range(6):
                A = anticommutator(pf.d_dag[i], pf.d[j])
                if i == j:
                    A = A - I
                worst = max(worst, max_abs(A))
                worst = max(worst, max_abs(anticommutator(pf.d_dag[i], pf.d_dag[j])))
                worst = max(worst, max_abs(anticommutator(pf.d[i], pf.d[j])))
        assert worst < 1e-10

    @pytest.mark.parametrize("gamma, m", [(0.0, 4), (0.6, 6), (1.3, 7)])
    def test_match_sums_of_ladder_operators(self, gamma, m):
        space = build_fock(m)
        bio = dense_biorthogonal(make_params(gamma), m)
        pf = build_pseudo_fermions(space, bio)
        for i in range(m):
            up = sum(bio.right_vectors[k, i] * creation_op(space, k + 1).matrix for k in range(m))
            dn = sum(bio.left_vectors[k, i] * annihilation_op(space, k + 1).matrix for k in range(m))
            for got, ref in ((pf.d_dag[i].matrix, sp.csr_matrix(up)), (pf.d[i].matrix, sp.csr_matrix(dn))):
                assert got.dtype == ref.dtype
                assert np.array_equal(got.indptr, ref.indptr)
                assert np.array_equal(got.indices, ref.indices)
                assert np.array_equal(got.data, ref.data)

    def test_not_true_fermions(self, frame):
        space, bio, pf = frame
        assert max_abs(pf.d_dag[0].matrix - pf.d[0].matrix.T) > 0.01

    def test_wrong_frame_rejected(self, frame):
        space, bio, pf = frame
        small = dense_biorthogonal(P35, 4)
        with pytest.raises(ValueError):
            build_pseudo_fermions(space, small)


class TestDiagonalForm:
    def test_gamma_zero_exact(self):
        space = build_fock(4)
        bio = dense_biorthogonal(make_params(0.0), 4)
        pf = build_pseudo_fermions(space, bio)
        assert diagonal_form_residual(space, make_params(0.0), pf) < 1e-14

    def test_residual_roundoff(self, frame):
        space, bio, pf = frame
        assert diagonal_form_residual(space, P35, pf) < 1e-10

    def test_two_particle_eigenvector(self, frame):
        # (d1# d3#)|vac> carries eigenvalue lambda_1 + lambda_3
        space, bio, pf = frame
        vac = np.zeros(space.dimension, dtype=complex)
        vac[0] = 1.0
        v = pf.d_dag[0].matrix @ (pf.d_dag[2].matrix @ vac)
        Hf = second_quantize(space, build_hamiltonian(P35, 6).entries).matrix
        lam = bio.eigenvalues[0] + bio.eigenvalues[2]
        res = np.linalg.norm(Hf @ v - lam * v) / np.linalg.norm(v)
        assert res < 1e-9


class TestTOperatorsFock:
    def test_gamma_zero_equals_s_ops(self):
        p0 = make_params(0.0)
        space = build_fock(4)
        pf = build_pseudo_fermions(space, dense_biorthogonal(p0, 4))
        T0, Tm, Tp = build_t_operators_fock(space, p0, pf)
        s = ladder_couplings(4)
        S0m = second_quantize(space, np.diag((4 * np.arange(1, 5) - 3) / 4.0)).matrix
        Spm = second_quantize(space, np.diag(s, -1)).matrix
        assert max_abs(T0.matrix - S0m) < 1e-13
        assert max_abs(Tp.matrix - Spm) < 1e-13
        assert max_abs(Tm.matrix - Spm.T) < 1e-13

    def test_t0_matches_combination(self, frame):
        space, bio, pf = frame
        T0b, _, _ = build_t_operators_fock(space, P35, pf)
        T0c, _, _ = t_operators_combination(space, P35)
        assert max_abs(T0b.matrix - T0c.matrix) < 1e-9

    def test_raising_reaches_next_eigenvector(self, frame):
        space, bio, pf = frame
        _, _, Tp = build_t_operators_fock(space, P35, pf)
        psi1 = np.zeros(space.dimension, dtype=complex)
        for k in range(6):
            psi1[1 << k] = bio.right_vectors[k, 0]
        v = Tp.matrix @ psi1
        Hf = second_quantize(space, build_hamiltonian(P35, 6).entries).matrix
        res = np.linalg.norm(Hf @ v - bio.eigenvalues[1] * v) / np.linalg.norm(v)
        assert res < 1e-9

    def test_commutators_on_edge_free_states(self, frame):
        # [T-, T+] = sum_k (4k-3)/4 d#_k d_k minus the cut coupling on the
        # last pseudo-mode; on states with no mode-6 occupation the ladder
        # algebra is exact
        space, bio, pf = frame
        _, Tm, Tp = build_t_operators_fock(space, P35, pf)
        comm = (Tm.matrix @ Tp.matrix - Tp.matrix @ Tm.matrix)
        T0_pattern = sum((4 * (k + 1) - 3) / 4.0 * (pf.d_dag[k].matrix @ pf.d[k].matrix)
                         for k in range(6))
        vac = np.zeros(space.dimension, dtype=complex)
        vac[0] = 1.0
        for occ in ((0,), (1,), (0, 1), (0, 2), (1, 3), (0, 1, 2)):
            v = vac
            for k in reversed(occ):
                v = pf.d_dag[k].matrix @ v
            lhs = comm @ v
            rhs = T0_pattern @ v
            assert np.abs(lhs - rhs).max() < 1e-10


class TestPhysicalInnerFock:
    def test_gamma_zero_euclidean(self):
        space = build_fock(4)
        W = np.eye(4)
        rng = np.random.default_rng(3)
        idx = space.sector(2)
        phi = np.zeros(space.dimension)
        psi = np.zeros(space.dimension)
        phi[idx] = rng.standard_normal(len(idx))
        psi[idx] = rng.standard_normal(len(idx))
        assert physical_inner_fock(space, W, phi, psi, 2) == pytest.approx(phi @ psi)

    def test_eigen_wedges_orthogonal(self, frame):
        space, bio, pf = frame
        W = one_particle_metric(bio)
        vac = np.zeros(space.dimension, dtype=complex)
        vac[0] = 1.0
        w12 = pf.d_dag[0].matrix @ (pf.d_dag[1].matrix @ vac)
        w13 = pf.d_dag[0].matrix @ (pf.d_dag[2].matrix @ vac)
        assert abs(physical_inner_fock(space, W, w12, w13, 2)) < 1e-9

    def test_eigen_wedge_positive_norm(self, frame):
        space, bio, pf = frame
        W = one_particle_metric(bio)
        vac = np.zeros(space.dimension, dtype=complex)
        vac[0] = 1.0
        w12 = pf.d_dag[0].matrix @ (pf.d_dag[1].matrix @ vac)
        val = physical_inner_fock(space, W, w12, w12, 2)
        assert val.real > 0 and abs(val.imag) < 1e-12

    def test_mixed_sector_rejected(self):
        space = build_fock(4)
        v = np.zeros(space.dimension)
        v[space.sector(2)[0]] = 1.0
        v[space.sector(1)[0]] = 0.5
        with pytest.raises(ValueError):
            physical_inner_fock(space, np.eye(4), v, v, 2)

    def test_vacuum_sector(self):
        space = build_fock(3)
        v = np.zeros(space.dimension)
        v[0] = 2.0
        assert physical_inner_fock(space, np.eye(3), v, v, 0) == pytest.approx(4.0)


def _compound_reference(W, m, k):
    """Per-entry compound lift: det(W[I, J]) over ascending mode tuples."""
    tuples = [[t for t in range(m) if (int(b) >> t) & 1] for b in sector_indices(m, k)]
    if k == 0:
        return np.ones((1, 1))
    out = np.empty((len(tuples), len(tuples)), dtype=W.dtype)
    for a, I in enumerate(tuples):
        for b, J in enumerate(tuples):
            sub = W[np.ix_(I, J)]
            if k == 1:
                out[a, b] = sub[0, 0]
            elif k == 2:
                out[a, b] = sub[0, 0] * sub[1, 1] - sub[0, 1] * sub[1, 0]
            else:
                out[a, b] = np.linalg.det(sub)
    return out


class TestCompoundLift:
    @pytest.mark.parametrize("m", [2, 3, 5, 8])
    @pytest.mark.parametrize("source", ["metric", "random"])
    def test_matches_per_entry_determinants(self, m, source):
        if source == "metric":
            W = one_particle_metric(dense_biorthogonal(make_params(0.9), m))
        else:
            W = np.random.default_rng(m).standard_normal((m, m))
        for k in range(min(m, 4) + 1):
            lift, ref = _compound_matrix(W, m, k), _compound_reference(W, m, k)
            assert lift.shape == ref.shape
            if k <= 2:
                assert np.array_equal(lift, ref)
            else:
                assert np.abs(lift - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_row_blocks_cover_the_sector(self, monkeypatch):
        import nhfermi.fock as fock_module

        W = np.random.default_rng(7).standard_normal((7, 7))
        whole = _compound_matrix(W, 7, 3)
        monkeypatch.setattr(fock_module, "_LIFT_BLOCK", 4 * 9)   # 4 rows per block
        assert np.array_equal(_compound_matrix(W, 7, 3), whole)


class TestAnticommutator:
    def test_matches_two_products(self):
        m = 8
        space = build_fock(m)
        pf = build_pseudo_fermions(space, dense_biorthogonal(make_params(1.1), m))
        ops = pf.d_dag + pf.d + [creation_op(space, 3), annihilation_op(space, 5)]
        for A in ops[::3]:
            for B in ops:
                ref = A.matrix @ B.matrix + B.matrix @ A.matrix
                out = anticommutator(A, B)
                assert sp.isspmatrix_csr(out)
                assert not (out.data == 0).any()
                assert max_abs(out - ref) <= 1e-14


class TestOneParticleMetric:
    def test_maps_right_to_left(self, frame):
        space, bio, pf = frame
        W = one_particle_metric(bio)
        assert np.abs(W - W.T).max() == 0.0
        assert np.abs(W @ bio.right_vectors - bio.left_vectors).max() < 1e-12

    def test_gamma_zero_identity(self):
        bio = dense_biorthogonal(make_params(0.0), 5)
        assert np.abs(one_particle_metric(bio) - np.eye(5)).max() < 1e-13


class TestJointSpectrum:
    def test_gamma_zero_energy_set(self):
        pts = joint_spectrum(make_params(0.0), 3, 3)
        got = sorted(round(p.energy, 10) for p in pts)
        want = sorted([0.0, 0.25, 1.25, 2.25, 1.5, 2.5, 3.5, 3.75])
        assert got == pytest.approx(want)

    def test_vacuum_only(self):
        pts = joint_spectrum(P35, 5, 0)
        assert len(pts) == 1
        assert pts[0].energy == 0.0 and pts[0].number == 0

    def test_filled_lowest_three(self):
        pts = joint_spectrum(P35, 3, 3)
        full = [p for p in pts if p.number == 3]
        assert len(full) == 1
        assert full[0].energy == pytest.approx(4.9180788932265005, abs=1e-12)

    def test_minimum_energy_filling(self):
        lam = P35.lambda_scale
        for p in joint_spectrum(P35, 6, 4):
            n = p.number
            lower = lam * n * (2 * n - 1) / 4.0
            assert p.energy >= lower - 1e-12
            if p.occupation == (1 << n) - 1:
                assert p.energy == pytest.approx(lower, abs=1e-12)

    def test_counts(self):
        pts = joint_spectrum(P35, 10, 2)
        assert len(pts) == 1 + 10 + 45

    def test_mode_cap(self):
        with pytest.raises(ValueError):
            joint_spectrum(P35, MAX_MODES + 1, 1)
        with pytest.raises(ValueError):
            joint_spectrum(P35, 5, 6)

    def test_sector_energy_minima_match_hull(self):
        # cross-validation hook used by the boundary construction
        pts = joint_spectrum(P35, 6, 6)
        lam = P35.lambda_scale
        for n in range(7):
            best = min(p.energy for p in pts if p.number == n)
            assert best == pytest.approx(lam * n * (2 * n - 1) / 4.0, abs=1e-12)
