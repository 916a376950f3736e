"""Finite-mode fermionic Fock space and the pseudo-fermion frame.

Basis states of the 2^m dimensional space are occupation bitmasks: bit k
(0-indexed) holds the occupancy of mode k+1, and the ordered product state
with modes j1 < ... < jk occupied carries amplitude +1 on its bitmask.
Creation into mode j flips sign once per occupied mode of lower index,
which realizes the wedge-product ordering and keeps all operators real and
sparse.

The pseudo-fermion pair (d-dag, d) is built from the exact biorthogonal
eigensystem of the m x m truncated Hamiltonian, so the canonical
anticommutation relations and the diagonal form of H are identities of
finite-dimensional linear algebra, exact to round-off.  For gamma != 0 the
upper part of a truncated spectrum consists of complex conjugate pairs;
the corresponding d-operators are complex while every physical total
(H, particle-number sums) stays real.
"""

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .operators import BiorthogonalSystem, build_hamiltonian, build_t_operators, ladder_couplings
from .params import ModelParams, mode_energy

__all__ = [
    "FockSpace",
    "FockOperator",
    "PseudoFermionSet",
    "JointSpectrumPoint",
    "build_fock",
    "creation_op",
    "annihilation_op",
    "number_op",
    "second_quantize",
    "anticommutator",
    "build_pseudo_fermions",
    "diagonal_form_residual",
    "build_t_operators_fock",
    "t_operators_combination",
    "one_particle_metric",
    "sector_indices",
    "physical_inner_fock",
    "joint_spectrum",
]

MAX_MODES = 14


@dataclass(frozen=True)
class FockSpace:
    """m-mode fermionic Fock space on occupation bitmasks."""

    modes: int
    dimension: int

    def sector(self, k: int) -> np.ndarray:
        """Basis indices of the k-particle sector (ascending bitmasks)."""
        return sector_indices(self.modes, k)


@dataclass
class FockOperator:
    """Sparse operator on a FockSpace."""

    space: FockSpace
    matrix: sp.csr_matrix
    label: str = "other"


@dataclass
class PseudoFermionSet:
    """Pseudo-fermion pairs (d_dag_i, d_i) built from a biorthogonal frame.

    {d_dag_i, d_j} = delta_ij exactly; d_dag_i is not the adjoint of d_i
    unless gamma = 0.
    """

    count: int
    d_dag: list
    d: list
    source: BiorthogonalSystem


@dataclass(frozen=True)
class JointSpectrumPoint:
    """One joint (energy, particle number) eigenvalue with its occupation."""

    energy: float
    number: int
    occupation: int


def build_fock(m: int) -> FockSpace:
    if not 1 <= m <= MAX_MODES:
        raise ValueError(f"mode count must be in 1..{MAX_MODES}, got {m}")
    return FockSpace(modes=m, dimension=1 << m)


@functools.lru_cache(maxsize=None)
def sector_indices(m: int, k: int) -> np.ndarray:
    if not 0 <= k <= m:
        raise ValueError(f"sector {k} out of range for {m} modes")
    idx = np.arange(1 << m, dtype=np.int64)
    out = idx[np.bitwise_count(idx) == k]
    out.flags.writeable = False   # shared by every caller through the cache
    return out


def _popcount(x: np.ndarray) -> np.ndarray:
    return np.bitwise_count(x).astype(np.int64)


@functools.lru_cache(maxsize=None)
def _creation_matrix(m: int, j: int) -> sp.csr_matrix:
    dim = 1 << m
    mask = np.int64(1 << (j - 1))
    idx = np.arange(dim, dtype=np.int64)
    src = idx[(idx & mask) == 0]
    dst = src | mask
    signs = 1.0 - 2.0 * (_popcount(src & (mask - 1)) & 1)
    C = sp.csr_matrix((signs, (dst, src)), shape=(dim, dim))
    for a in (C.data, C.indices, C.indptr):
        a.flags.writeable = False   # shared by every caller through the cache
    return C


@functools.lru_cache(maxsize=None)
def _mode_pattern(m: int, dagger: bool) -> sp.csr_matrix:
    """sum_j j c_j^dag (dagger) or sum_j j c_j: an entry's magnitude names
    its mode, its sign is the antisymmetry sign, and no two modes share an
    entry."""
    P = sum(j * _creation_matrix(m, j) for j in range(1, m + 1))
    P = sp.csr_matrix(P if dagger else P.T)
    for a in (P.data, P.indices, P.indptr):
        a.flags.writeable = False   # shared by every caller through the cache
    return P


def _mode_combination(coeffs: np.ndarray, dagger: bool) -> sp.csr_matrix:
    """sum_j coeffs[j-1] c_j^dag (or c_j) as one gather over the mode pattern."""
    P = _mode_pattern(len(coeffs), dagger)
    out = sp.csr_matrix((coeffs[np.abs(P.data).astype(np.int64) - 1] * np.sign(P.data),
                         P.indices, P.indptr), shape=P.shape, copy=True)
    out.eliminate_zeros()
    return out


def creation_op(space: FockSpace, j: int) -> FockOperator:
    """c_j^dag: occupies mode j with the antisymmetry sign."""
    if not 1 <= j <= space.modes:
        raise ValueError(f"mode index {j} out of range 1..{space.modes}")
    return FockOperator(space, _creation_matrix(space.modes, j), f"c{j}_dag")


def annihilation_op(space: FockSpace, j: int) -> FockOperator:
    """c_j, the transpose of c_j^dag."""
    if not 1 <= j <= space.modes:
        raise ValueError(f"mode index {j} out of range 1..{space.modes}")
    return FockOperator(space, _creation_matrix(space.modes, j).T.tocsr(), f"c{j}")


def number_op(space: FockSpace) -> FockOperator:
    """Total particle number: diagonal popcount."""
    counts = _popcount(np.arange(space.dimension, dtype=np.int64)).astype(float)
    return FockOperator(space, sp.diags(counts, format="csr"), "N")


def second_quantize(space: FockSpace, A: np.ndarray) -> FockOperator:
    """sum_ij A_ij c_i^dag c_j for an n x n coefficient matrix, n <= modes.

    Commutes with the particle number and preserves every sector.
    """
    A = np.asarray(A)
    n = A.shape[0]
    if A.ndim != 2 or A.shape[1] != n:
        raise ValueError(f"coefficient matrix must be square, got {A.shape}")
    if n > space.modes:
        raise ValueError(f"coefficient matrix order {n} exceeds {space.modes} modes")
    dtype = complex if np.iscomplexobj(A) else float
    total = sp.csr_matrix((space.dimension, space.dimension), dtype=dtype)
    for i in range(n):
        ci_dag = _creation_matrix(space.modes, i + 1)
        for j in range(n):
            if A[i, j] == 0:
                continue
            cj = _creation_matrix(space.modes, j + 1).T
            total = total + A[i, j] * (ci_dag @ cj)
    return FockOperator(space, total.tocsr(), "quadratic")


def anticommutator(A: FockOperator, B: FockOperator) -> sp.csr_matrix:
    """AB + BA in Fock space as the one product [A B] [B; A]."""
    out = sp.hstack([A.matrix, B.matrix], format="csr") \
        @ sp.vstack([B.matrix, A.matrix], format="csr")
    out.eliminate_zeros()
    return out


def _max_abs(M) -> float:
    M = sp.coo_matrix(M)
    return float(np.abs(M.data).max()) if M.nnz else 0.0


def build_pseudo_fermions(space: FockSpace, biorth: BiorthogonalSystem) -> PseudoFermionSet:
    """Pseudo-fermions d_dag_i = sum_k x_k^(i) c_k^dag, d_i = sum_k y_k^(i) c_k.

    ``biorth`` must be the exact biorthogonal eigensystem of the truncated
    m x m Hamiltonian with count = dim = modes (dense_biorthogonal), not a
    ladder construction carrying truncation tails.
    """
    m = space.modes
    if biorth.dim != m or biorth.count != m:
        raise ValueError(
            f"need a full m x m eigensystem with dim = count = {m}, "
            f"got dim={biorth.dim}, count={biorth.count}"
        )
    defect = biorth.gram_defect()
    if defect > 1e-10:
        raise ValueError(f"biorthogonality defect {defect:.3e} exceeds 1e-10")
    d_dag = [FockOperator(space, _mode_combination(biorth.right_vectors[:, i], True),
                          f"d{i + 1}_ddag") for i in range(m)]
    d = [FockOperator(space, _mode_combination(biorth.left_vectors[:, i], False),
                      f"d{i + 1}") for i in range(m)]
    return PseudoFermionSet(count=m, d_dag=d_dag, d=d, source=biorth)


def diagonal_form_residual(space: FockSpace, params: ModelParams, pf: PseudoFermionSet) -> float:
    """Max-norm of H_fock - sum_k lambda_k^(m) d_dag_k d_k.

    The coefficients are the eigenvalues of the m x m truncation carried by
    the pseudo-fermion frame; the identity is exact in finite dimension, so
    the return value is pure round-off.
    """
    m = space.modes
    Hf = second_quantize(space, build_hamiltonian(params, m).entries).matrix
    lam = pf.source.eigenvalues
    D = sum(lam[k] * (pf.d_dag[k].matrix @ pf.d[k].matrix) for k in range(m))
    return _max_abs(Hf - D)


def build_t_operators_fock(space: FockSpace, params: ModelParams, pf: PseudoFermionSet):
    """(T0, T-, T+) as pseudo-fermion bilinears.

    T- and T+ carry the ladder-pattern couplings sqrt((2k-1) 2k / 8); T0
    carries the frame's own eigenvalues over Lambda, which reduces to the
    pattern (4k-3)/4 as the truncation grows and makes T0 coincide with
    H / Lambda exactly at finite m.
    """
    m = space.modes
    s = ladder_couplings(m)
    lam = pf.source.eigenvalues
    T0 = sum((lam[k] / params.lambda_scale) * (pf.d_dag[k].matrix @ pf.d[k].matrix)
             for k in range(m))
    Tm = sum(s[k] * (pf.d_dag[k].matrix @ pf.d[k + 1].matrix) for k in range(m - 1))
    Tp = sum(s[k] * (pf.d_dag[k + 1].matrix @ pf.d[k].matrix) for k in range(m - 1))
    return (
        FockOperator(space, sp.csr_matrix(T0), "T0"),
        FockOperator(space, sp.csr_matrix(Tm), "Tminus"),
        FockOperator(space, sp.csr_matrix(Tp), "Tplus"),
    )


def t_operators_combination(space: FockSpace, params: ModelParams):
    """(T0, T-, T+) by second-quantizing the tilted combination matrices."""
    T0, Tp, Tm = build_t_operators(params, space.modes)
    return (
        second_quantize(space, T0.entries),
        second_quantize(space, Tm.entries),
        second_quantize(space, Tp.entries),
    )


def one_particle_metric(biorth: BiorthogonalSystem) -> np.ndarray:
    """Real symmetric W mapping right to left eigenvectors, W psi_i = psi-tilde_i.

    W = L L^T over the left-vector columns; complex conjugate pairs combine
    to a real matrix.  Positive definite when the spectrum is real; a
    truncated frame with complex pairs yields an indefinite (still
    invertible) W, which the sector Gram identities do not need.
    """
    L = biorth.left_vectors
    W = L @ L.T
    if np.iscomplexobj(W):
        if np.abs(W.imag).max() > 1e-10 * max(1.0, np.abs(W.real).max()):
            raise ValueError("left-vector frame does not combine to a real metric")
        W = W.real
    return (W + W.T) / 2.0


# Elements per row block of the k >= 3 compound gather (8 MB of floats).
_LIFT_BLOCK = 1 << 20


def _compound_matrix(W: np.ndarray, m: int, k: int) -> np.ndarray:
    """k-th antisymmetric (compound) lift: entries det(W[I, J]) over sectors.

    One gather of W over the sector's ascending mode tuples; closed forms
    for k <= 2, batched determinants one row block at a time for k >= 3 so
    that memory stays near size * k^2 rather than size^2 * k^2.
    """
    if k == 0:
        return np.ones((1, 1), dtype=W.dtype)
    bits = sector_indices(m, k)
    I = np.nonzero((bits[:, None] >> np.arange(m)) & 1)[1].reshape(-1, k)
    if k == 1:
        return W[np.ix_(I[:, 0], I[:, 0])]
    if k == 2:
        i, j = I[:, 0], I[:, 1]
        return W[np.ix_(i, i)] * W[np.ix_(j, j)] - W[np.ix_(i, j)] * W[np.ix_(j, i)]
    size = len(I)
    out = np.empty((size, size), dtype=W.dtype)
    rows = max(1, _LIFT_BLOCK // (size * k * k))
    cols = I[None, :, None, :]
    for a in range(0, size, rows):
        out[a:a + rows] = np.linalg.det(W[I[a:a + rows, None, :, None], cols])
    return out


def physical_inner_fock(space: FockSpace, metric_one_particle: np.ndarray,
                        phi: np.ndarray, psi: np.ndarray, sector: int):
    """Inner product <D Phi, Psi> on sector k via the compound lift of the
    one-particle metric.

    The map D acts multiplicatively on wedge products, so its sector-k
    matrix is the k-th compound of the one-particle W.  The pairing is
    bilinear (real vectors give the Euclidean pairing of D Phi with Psi);
    mixed-sector input raises ValueError.
    """
    m = space.modes
    W = np.asarray(metric_one_particle)
    if W.shape != (m, m):
        raise ValueError(f"one-particle metric must be {m} x {m}, got {W.shape}")
    phi = np.asarray(phi)
    psi = np.asarray(psi)
    if phi.shape != (space.dimension,) or psi.shape != (space.dimension,):
        raise ValueError("phi and psi must be full Fock vectors")
    idx = sector_indices(m, sector)
    for vec, name in ((phi, "phi"), (psi, "psi")):
        outside = np.delete(vec, idx)
        if outside.size and np.abs(outside).max() > 1e-12 * max(1.0, np.abs(vec).max()):
            raise ValueError(f"{name} has support outside sector {sector}")
    lift = _compound_matrix(W, m, sector)
    val = psi[idx] @ (lift @ phi[idx])
    if not (np.iscomplexobj(phi) or np.iscomplexobj(psi)):
        return float(val)
    return complex(val)


def joint_spectrum(params: ModelParams, m_modes: int, n_max: int):
    """All joint (energy, number) points with occupation popcount <= n_max.

    Energies use the analytic mode energies Lambda (4k-3)/4.  The minimum
    energy at fixed number n is Lambda n(2n-1)/4, attained by filling the
    lowest n modes.
    """
    if not 1 <= m_modes <= MAX_MODES:
        raise ValueError(f"m_modes must be in 1..{MAX_MODES}, got {m_modes}")
    if not 0 <= n_max <= m_modes:
        raise ValueError(f"n_max must be in 0..{m_modes}, got {n_max}")
    energies = np.array([mode_energy(params, k) for k in range(1, m_modes + 1)])
    points = []
    for occ in range(1 << m_modes):
        n = int(occ).bit_count()
        if n > n_max:
            continue
        e = float(sum(energies[k] for k in range(m_modes) if (occ >> k) & 1))
        points.append(JointSpectrumPoint(energy=e, number=n, occupation=occ))
    return points
