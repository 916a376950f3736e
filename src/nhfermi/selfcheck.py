"""Acceptance battery: every check the package must pass, as callable
functions shared by the CLI (selfcheck, metric-check, fock-check) and the
pytest suite.

Each criterion returns a CriterionResult holding its list of Checks, one
(name, value, bound) triple per measured quantity; a check passes when
value <= bound, and the criterion passes when every check does.  Boolean
conditions enter as violation counts with bound 0.  One criterion (5b) is
flagged ``expected_failure``: the ladder-pattern bilinears and the truncated
linear combinations of T+/T- cannot agree on a finite mode set, because the
combination matrices have nonzero trace -(gamma/Lambda) m(2m-1)/4 while any
similarity image of the strictly off-diagonal ladder pattern is traceless.
The check is still executed and reported honestly.
"""

import hashlib
import math
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import fock as fk
from . import metric as mt
from . import operators as op
from . import figure as fg
from . import thermo as th
from .fock import _max_abs
from .params import make_params, mode_energy

__all__ = ["Check", "CriterionResult", "run_criterion", "run_all", "CRITERIA"]

# Golden output of the default figure: any change to these bytes must be
# justified by the largest relative change per CSV column.
FIGURE_CSV_BYTES = 377_734
FIGURE_CSV_SHA256 = "587ea480cea8f6e55bcabfb3a17c5e64205a43388374f1612bcf196af3b27e12"


@dataclass(frozen=True)
class Check:
    """One measured quantity against its bound; passes when value <= bound."""

    name: str
    value: float
    bound: float

    @property
    def passed(self) -> bool:
        return bool(self.value <= self.bound)   # NaN fails

    def __str__(self) -> str:
        return f"{self.name}: {self.value:.4g} (<= {self.bound:g})"


@dataclass(frozen=True)
class CriterionResult:
    cid: str
    name: str
    checks: tuple
    expected_failure: bool = False

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def detail(self) -> str:
        return "; ".join(str(c) for c in self.checks)


def _result(cid, name, checks, expected_failure=False):
    return CriterionResult(cid=cid, name=name,
                           checks=tuple(Check(*c) for c in checks),
                           expected_failure=expected_failure)


# -- 1 ---------------------------------------------------------------------

def criterion_1():
    """Truncated spectrum matches the analytic ladder at M = 100."""
    worst_eig, worst_gap = 0.0, 0.0
    for gamma in (0.2, 0.6, 1.5):
        p = make_params(gamma)
        H = op.build_hamiltonian(p, 100)
        ev = op.dense_spectrum(H, 8)
        an = np.array([mode_energy(p, k) for k in range(1, 9)])
        worst_eig = max(worst_eig, float(np.abs((ev - an) / an).max()))
        gaps = np.diff(ev)
        worst_gap = max(worst_gap, float(np.abs(gaps - p.lambda_scale).max()
                                         / p.lambda_scale))
    return _result("1", "spectrum vs analytic ladder (M=100)", [
        ("eigenvalues (relative)", worst_eig, 1e-8),
        ("gaps vs Lambda (relative)", worst_gap, 1e-8),
    ])


# -- 2 ---------------------------------------------------------------------

def criterion_2():
    """Seed vectors and ladder biorthogonality at gamma = 3/5, M = 60."""
    p = make_params(0.6)
    M = 60
    H = op.build_hamiltonian(p, M).entries
    lam1 = mode_energy(p, 1)
    r, l = op.ground_vectors(p, M)
    res_r = np.linalg.norm(H @ r - lam1 * r) / np.linalg.norm(r)
    res_l = np.linalg.norm(H.T @ l - lam1 * l) / np.linalg.norm(l)
    sys = op.build_biorthogonal(p, M, 5)
    return _result("2", "seed vectors + biorthogonal Gram (M=60)", [
        ("right seed residual", res_r, 1e-10),
        ("left seed residual", res_l, 1e-10),
        ("Gram defect", sys.gram_defect(), 1e-8),
    ])


# -- 3 ---------------------------------------------------------------------

def _relative_residual(R, *scales):
    scale = sum(np.abs(a) @ np.abs(b) for a, b in scales)
    n = R.shape[0] // 2
    return float(np.abs(R[:n, :n]).max() / scale[:n, :n].max())


def criterion_3(gamma=0.6, M=60, tol=1e-8):
    """Metric identities at (gamma, M) on the leading half block (products
    scale-relative, conjugations absolute); gamma = 0 collapses the metric
    to the exact identity."""
    p = make_params(gamma)
    n = M // 2
    met = mt.build_metric(p, M)
    H = op.build_hamiltonian(p, M).entries
    T0, Tp, Tm = (t.entries for t in op.build_t_operators(p, M))
    checks = [
        ("D2 H - H^T D2 (interior, relative)",
         _relative_residual(met.d2 @ H - H.T @ met.d2, (met.d2, H), (H.T, met.d2)), tol),
        ("D2 T+ - T-^T D2 (interior, relative)",
         _relative_residual(met.d2 @ Tp - Tm.T @ met.d2, (met.d2, Tp), (Tm.T, met.d2)), tol),
    ]
    for which, T in (("S0", T0), ("Splus", Tp), ("Sminus", Tm)):
        C = mt.conjugate_generator(p, M, which).entries
        checks.append((f"conjugated {which} vs T (interior, max)",
                       float(np.abs(C[:n, :n] - T[:n, :n]).max()), tol))
    ident = float(np.abs(mt.build_metric(make_params(0.0), M).d2 - np.eye(M)).max())
    checks.append(("gamma=0 metric vs identity", ident, 0.0))
    return _result("3", "metric: Hermitization, T-adjointness, conjugations", checks)


# -- 4 ---------------------------------------------------------------------

def _fock_frame(gamma=0.6, m=6):
    p = make_params(gamma)
    space = fk.build_fock(m)
    bio = op.dense_biorthogonal(p, m)
    pf = fk.build_pseudo_fermions(space, bio)
    return p, space, bio, pf


def criterion_4(gamma=0.6, m=6, tol=1e-10):
    """Fock algebra at (gamma, m): canonical and pseudo-fermion
    anticommutators, diagonal form, single-particle restriction."""
    p, space, bio, pf = _fock_frame(gamma, m)
    I = sp.identity(space.dimension)
    car, pf_car = 0.0, 0.0
    for i in range(m):
        ci_d = fk.creation_op(space, i + 1)
        for j in range(m):
            delta = I if i == j else 0
            car = max(car,
                      _max_abs(fk.anticommutator(ci_d, fk.annihilation_op(space, j + 1)) - delta),
                      _max_abs(fk.anticommutator(ci_d, fk.creation_op(space, j + 1))))
            pf_car = max(pf_car, _max_abs(fk.anticommutator(pf.d_dag[i], pf.d[j]) - delta))
    H = op.build_hamiltonian(p, m).entries
    Hf = fk.second_quantize(space, H).matrix
    a1 = space.sector(1)
    a1_gap = float(np.abs(Hf[np.ix_(a1, a1)].toarray().real - H).max())
    return _result("4", f"Fock algebra + diagonal form (m={m})", [
        ("canonical anticommutators", car, 1e-13),
        ("pseudo-fermion anticommutators", pf_car, tol),
        ("diagonal-form residual", fk.diagonal_form_residual(space, p, pf), tol),
        ("A1 restriction vs H", a1_gap, 0.0),
    ])


# -- 5 ---------------------------------------------------------------------

def _a1_matrix(space, X):
    a1 = space.sector(1)
    return X.matrix[np.ix_(a1, a1)].toarray()


def criterion_5a():
    """T0 bilinear vs combination on A1; ladder raising to the second
    eigenvector (m = 6, gamma = 3/5)."""
    p, space, bio, pf = _fock_frame()
    T0b, Tmb, Tpb = fk.build_t_operators_fock(space, p, pf)
    T0c, Tmc, Tpc = fk.t_operators_combination(space, p)
    t0_gap = float(np.abs(_a1_matrix(space, T0b) - _a1_matrix(space, T0c)).max())
    psi1 = np.zeros(space.dimension, dtype=complex)
    for k in range(space.modes):
        psi1[1 << k] = bio.right_vectors[k, 0]
    v = Tpb.matrix @ psi1
    Hf = fk.second_quantize(space, op.build_hamiltonian(p, space.modes).entries).matrix
    raising = float(np.linalg.norm(Hf @ v - bio.eigenvalues[1] * v) / np.linalg.norm(v))
    return _result("5a", "T0 bilinear = combination; T+ raising (m=6)", [
        ("T0 gap on A1", t0_gap, 1e-9),
        ("T+ raising residual", raising, 1e-9),
    ])


def criterion_5b():
    """T+/T- bilinear vs combination on A1 at 1e-9 (m = 6, gamma = 3/5).

    Unattainable on a finite mode set: trace(T+-combination) =
    -(gamma/Lambda) m(2m-1)/4 != 0 = trace of any similarity image of the
    off-diagonal ladder pattern.  Executed and reported, expected to fail.
    """
    p, space, bio, pf = _fock_frame()
    _, Tmb, Tpb = fk.build_t_operators_fock(space, p, pf)
    _, Tmc, Tpc = fk.t_operators_combination(space, p)
    gap = max(
        float(np.abs(_a1_matrix(space, Tpb) - _a1_matrix(space, Tpc)).max()),
        float(np.abs(_a1_matrix(space, Tmb) - _a1_matrix(space, Tmc)).max()),
    )
    trace = -p.gamma / p.lambda_scale * 6 * 11 / 4
    return _result("5b", "T+/T- bilinear vs combination (m=6)", [
        (f"T+/T- gap on A1 (unattainable: combination trace {trace:.3f} "
         f"vs traceless pattern)", gap, 1e-9),
    ], expected_failure=True)


# -- 6 ---------------------------------------------------------------------

def criterion_6():
    """Sector-2 Gram of eigen-wedges under the lifted metric is the
    identity (m = 6, gamma = 3/5)."""
    p, space, bio, pf = _fock_frame()
    m = space.modes
    W = fk.one_particle_metric(bio)
    vac = np.zeros(space.dimension, dtype=complex)
    vac[0] = 1.0
    wedges = []
    for i in range(m):
        for j in range(i + 1, m):
            wedges.append(pf.d_dag[i].matrix @ (pf.d_dag[j].matrix @ vac))
    n = len(wedges)
    G = np.empty((n, n), dtype=complex)
    for a in range(n):
        for b in range(n):
            G[a, b] = fk.physical_inner_fock(space, W, wedges[a], wedges[b], 2)
    diag = np.diag(G)
    return _result("6", "physical inner product Gram on A2 (m=6)", [
        ("off-diagonal", float(np.abs(G - np.diag(diag)).max()), 1e-9),
        ("non-positive diagonal entries", int(np.count_nonzero(~(diag.real > 0))), 0),
        ("diagonal imaginary part", float(np.abs(diag.imag).max()), 1e-9),
    ])


# -- 7 ---------------------------------------------------------------------

def _per_mode_entropy(p, beta, mu):
    """Independent oracle: S = -sum_k [f ln f + (1-f) ln(1-f)], summed
    directly up to where beta lambda_k - beta mu exceeds 45."""
    bl = beta * p.lambda_scale
    n_modes = math.ceil((max(0.0, beta * mu) + 45.0) / bl) + 50
    k = np.arange(1, n_modes + 1, dtype=float)
    x = bl * (4 * k - 3) / 4.0 - beta * mu
    # f = 1/(1+e^x); stable via softplus: -[f ln f + (1-f) ln(1-f)]
    #   = log(1+e^{-x}) + x f
    f = 1.0 / (1.0 + np.exp(np.clip(x, -700, 700)))
    return math.fsum(np.logaddexp(0.0, -x) + x * f)


def criterion_7():
    """Entropy identities and finite-difference gradients of log Z for 20
    random (beta, mu) at gamma = 3/5."""
    p = make_params(0.6)
    rng = np.random.default_rng(20250808)
    worst_ident, worst_modes, worst_grad = 0.0, 0.0, 0.0
    for _ in range(20):
        beta = float(np.exp(rng.uniform(np.log(1e-3), 0.0)))
        mu = float(rng.uniform(-2 * p.lambda_scale, 2 * p.lambda_scale))
        tp = th.exact_expectations(p, beta, mu)
        ident = abs(tp.entropy - (beta * (tp.energy - mu * tp.number) + tp.log_z))
        modes = abs(_per_mode_entropy(p, beta, mu) - tp.entropy)
        h_b = 1e-5 * beta
        e_fd = -(th.exact_log_z(p, beta + h_b, tp.zeta)
                 - th.exact_log_z(p, beta - h_b, tp.zeta)) / (2 * h_b)
        h_z = 1e-5 * max(1.0, abs(tp.zeta))
        n_fd = -(th.exact_log_z(p, beta, tp.zeta + h_z)
                 - th.exact_log_z(p, beta, tp.zeta - h_z)) / (2 * h_z)
        worst_ident = max(worst_ident, ident)
        worst_modes = max(worst_modes, modes)
        worst_grad = max(worst_grad,
                         abs(e_fd - tp.energy) / max(1e-30, abs(tp.energy)),
                         abs(n_fd - tp.number) / max(1e-30, abs(tp.number)))
    return _result("7", "entropy identities + log Z gradients (20 points)", [
        ("entropy identity", worst_ident, 1e-9),
        ("per-mode entropy", worst_modes, 1e-9),
        ("log Z gradients (relative)", worst_grad, 1e-5),
    ])


# -- 8 ---------------------------------------------------------------------

def criterion_8():
    """Euler-Maclaurin accuracy and its monotone improvement at high T."""
    p = make_params(0.6)
    gaps_n, gaps_e = {}, {}
    betas = (0.2, 0.08, 0.04, 0.02, 0.01, 0.001)
    for beta in betas:
        ex = th.exact_expectations(p, beta, 0.0)
        em = th.em_expectations(p, beta, 0.0)
        gaps_n[beta] = abs(em.number - ex.number) / ex.number
        gaps_e[beta] = abs(em.energy - ex.energy) / ex.energy
    seq = [gaps_n[b] for b in betas]
    rises = sum(not a >= b for a, b in zip(seq, seq[1:]))
    return _result("8", "Euler-Maclaurin vs exact sums", [
        ("E gap at beta=0.01 (relative)", gaps_e[0.01], 1e-3),
        ("N gap at beta=0.01 (relative)", gaps_n[0.01], 1e-3),
        ("E gap at beta=0.001 (relative)", gaps_e[0.001], 1e-4),
        ("N gap at beta=0.001 (relative)", gaps_n[0.001], 1e-4),
        ("steps where the N gap grows as beta falls", rises, 0),
    ])


# -- 9 ---------------------------------------------------------------------

def criterion_9():
    """Figure regeneration: curve counts, containment, golden bytes."""
    config = fg.default_figure_config()
    records = fg.figure_records(config)
    n_curve_pts = config["mu_sweep"]["count"]
    expected = (len(config["beta_list"]) + len(config["mu_list"])) * n_curve_pts
    p = make_params(config["gamma"])
    report = fg.containment_check(records, fg.hull_boundary(p, config["n_max"]))
    blob = fg.records_to_csv(records).encode("utf-8")
    return _result("9", "figure curves, containment, golden bytes", [
        (f"record count off {expected}", abs(len(records) - expected), 0),
        ("points below the hull", len(report.violations), 0),
        (f"CSV size off {FIGURE_CSV_BYTES} bytes", abs(len(blob) - FIGURE_CSV_BYTES), 0),
        ("CSV sha256 differs from the pinned one",
         int(hashlib.sha256(blob).hexdigest() != FIGURE_CSV_SHA256), 0),
    ])


# -- 10 --------------------------------------------------------------------

def criterion_10():
    """gamma = 0 collapses every construction to its symmetric counterpart."""
    p = make_params(0.0)
    M, m = 40, 4
    S0, Sp, Sm = (x.entries for x in op.build_generators(M))
    T0, Tp, Tm = (x.entries for x in op.build_t_operators(p, M))
    t_eq_s = max(np.abs(T0 - S0).max(), np.abs(Tp - Sp).max(), np.abs(Tm - Sm).max())
    d2_eq = float(np.abs(mt.build_metric(p, M).d2 - np.eye(M)).max())
    r, l = op.ground_vectors(p, M)
    e1 = np.zeros(M)
    e1[0] = 1.0
    seeds = max(np.abs(r - e1).max(), np.abs(l - e1).max())
    _, space, bio, pf = _fock_frame(0.0, m)
    d_eq_c = 0.0
    for i in range(m):
        d_eq_c = max(d_eq_c, _max_abs(pf.d_dag[i].matrix
                                      - fk.creation_op(space, i + 1).matrix))
        d_eq_c = max(d_eq_c, _max_abs(pf.d[i].matrix
                                      - fk.annihilation_op(space, i + 1).matrix))
    return _result("10", "gamma = 0 degenerate collapse", [
        ("T vs S", t_eq_s, 0.0),
        ("D2 vs identity", d2_eq, 0.0),
        ("seed vectors vs e1", seeds, 0.0),
        ("d vs c (round-off)", d_eq_c, 1e-12),
        ("diagonal-form residual (round-off)", fk.diagonal_form_residual(space, p, pf), 1e-12),
    ])


CRITERIA = {
    "1": criterion_1,
    "2": criterion_2,
    "3": criterion_3,
    "4": criterion_4,
    "5a": criterion_5a,
    "5b": criterion_5b,
    "6": criterion_6,
    "7": criterion_7,
    "8": criterion_8,
    "9": criterion_9,
    "10": criterion_10,
}


def run_criterion(cid: str) -> CriterionResult:
    return CRITERIA[cid]()


def run_all():
    """Run every criterion in order, yielding (CriterionResult, wall seconds)."""
    for fn in CRITERIA.values():
        t0 = time.perf_counter()
        result = fn()
        yield result, time.perf_counter() - t0
