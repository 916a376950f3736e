"""The four benchmark workloads: seeded inputs, one op each, output checks.

An op calls the library through module attributes (``th.exact_expectations``
and so on), so the tracer in ``tracing.py`` sees every call by patching those
attributes.  Every op returns its list of ``Check``s; an op that raises is
recorded as failed by the runner.

Inputs come in rounds.  A round is the smallest group of ops whose cost mix
does not depend on the seed: each round takes one jittered draw per stratum of
the parameter that sets the cost (beta in ``thermo-points``, gamma in
``metric-check`` and ``fock-check``), so a run made of whole rounds does the
same kind of work for every seed.
"""

import gzip
import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from nhfermi import figure as fg
from nhfermi import fock as fk
from nhfermi import metric as mt
from nhfermi import operators as op
from nhfermi import thermo as th
from nhfermi.params import make_params, mode_energy

REFERENCE_CSV = Path(__file__).resolve().parent / "reference" / "figure-default.csv.gz"
REFERENCE_SHA256 = "fc508d1720b52388400898444dbe5b549dd89b7c4fe24ec3ad15277b5c2c75b0"
REFERENCE_BYTES = 377_704
REFERENCE_RECORDS = 2814

# Misses of a check flagged known_defect count as failed ops but leave the run
# correct; NOTES.md lists them.  metric-check at M = 60 misses its 1e-8
# interior tolerance from gamma ~ 0.699 on; a miss below this gamma is a
# regression.
METRIC_CLIFF_GAMMA = 0.69
# The gamma strata of metric-check.  The upper two meet where the misses
# start, so each round has exactly one op past the cliff for every seed.
METRIC_GAMMA_EDGES = (0.05, 0.375, 0.699, 1.0)


@dataclass(frozen=True)
class Check:
    """One output check of an op: ``residual <= tol`` passes."""

    name: str
    residual: float
    tol: float
    known_defect: bool = False

    @property
    def ok(self) -> bool:
        return bool(self.residual <= self.tol)   # NaN fails

    @property
    def ratio(self) -> float:
        if self.residual == 0.0:
            return 0.0
        if self.tol == 0.0 or not math.isfinite(self.residual):
            return math.inf
        return self.residual / self.tol


def _stratified(rng, lo, hi, strata):
    """One uniform draw inside each of ``strata`` equal slices of [lo, hi],
    in random order."""
    width = (hi - lo) / strata
    cells = rng.permutation(strata)
    return lo + width * (cells + rng.random(strata))


def _stratified_edges(rng, edges):
    """One uniform draw inside each slice [edges[i], edges[i + 1]), in random
    order."""
    lo, hi = np.asarray(edges[:-1]), np.asarray(edges[1:])
    cells = rng.permutation(len(lo))
    return lo[cells] + (hi - lo)[cells] * rng.random(len(lo))


def _max_abs(M) -> float:
    M = sp.coo_matrix(M)
    return float(np.abs(M.data).max()) if M.nnz else 0.0


# -- figure-default ----------------------------------------------------------

class FigureDefault:
    """The default figure exactly as ``nhfermi figure`` builds it."""

    name = "figure-default"
    round_size = 1
    nominal_round_s = 5.3
    layers = ("thermo",)
    checks_per_op = 3

    def __init__(self):
        blob = gzip.decompress(REFERENCE_CSV.read_bytes())
        if len(blob) != REFERENCE_BYTES or hashlib.sha256(blob).hexdigest() != REFERENCE_SHA256:
            raise RuntimeError(f"reference figure {REFERENCE_CSV} is damaged")
        self.ref_text = blob.decode("ascii")
        self.ref_rows = self._parse(self.ref_text)

    @staticmethod
    def _parse(text):
        lines = text.splitlines()
        rows = [line.split(",") for line in lines[1:]]
        methods = [r[0] for r in rows]
        values = np.array([[float(x) for x in r[1:]] for r in rows])
        return lines[0], methods, values

    def round_inputs(self, seed, r):
        return [None]   # the default figure has no free inputs

    def run_op(self, _inp, counters):
        config = fg.default_figure_config()
        records = fg.figure_records(config)
        text = fg.records_to_csv(records)
        boundary = fg.hull_boundary(make_params(config["gamma"]), config["n_max"])
        report = fg.containment_check([r for r in records if r.method == "exact"], boundary)

        same_bytes = text == self.ref_text
        counters["figure.bytes_match"] += int(same_bytes)
        shape_ok, value_resid = True, 0.0
        if not same_bytes:
            header, methods, values = self._parse(text)
            ref_header, ref_methods, ref_values = self.ref_rows
            shape_ok = (len(records) == REFERENCE_RECORDS and header == ref_header
                        and methods == ref_methods and values.shape == ref_values.shape)
            value_resid = math.inf
            if shape_ok:
                # relative to the reference, with a floor so zeta' ~ 1e-17 compares absolutely
                scale = np.maximum(np.abs(ref_values), 1e-3)
                value_resid = float((np.abs(values - ref_values) / scale).max())
        return [
            Check("records and columns", 0.0 if shape_ok else math.inf, 0.0),
            Check("values vs reference (relative)", value_resid, 1e-12),
            Check("containment margin below zero", max(0.0, -min(report.margins)), 1e-9),
        ]


# -- thermo-points -----------------------------------------------------------

class ThermoPoints:
    """Independent grand-canonical points at seeded (gamma, beta, mu)."""

    name = "thermo-points"
    round_size = 64
    nominal_round_s = 1.8
    layers = ("thermo",)
    checks_per_op = 4

    def round_inputs(self, seed, r):
        rng = np.random.default_rng([seed, r, 1])
        # a Latin hypercube: beta sets the cost, gamma and mu shift it
        log_beta = _stratified(rng, -4.0, 0.0, self.round_size)
        gammas = _stratified(rng, 0.0, 1.5, self.round_size)
        mu_units = _stratified(rng, -20.0, 20.0, self.round_size)
        return [(float(g), float(10.0 ** lb),
                 float(u * make_params(float(g)).lambda_scale))
                for g, lb, u in zip(gammas, log_beta, mu_units)]

    def run_op(self, inp, counters):
        gamma, beta, mu = inp
        p = make_params(gamma)
        tp = th.exact_expectations(p, beta, mu)
        em = th.em_expectations(p, beta, mu)
        h_b = 1e-5 * beta
        e_fd = -(th.exact_log_z(p, beta + h_b, tp.zeta)
                 - th.exact_log_z(p, beta - h_b, tp.zeta)) / (2 * h_b)
        h_z = 1e-5 * max(1.0, abs(tp.zeta))
        n_fd = -(th.exact_log_z(p, beta, tp.zeta + h_z)
                 - th.exact_log_z(p, beta, tp.zeta - h_z)) / (2 * h_z)

        terms = (tp.log_z, beta * tp.energy, beta * mu * tp.number)
        ident = abs(tp.entropy - (beta * (tp.energy - mu * tp.number) + tp.log_z))
        em_values = (em.log_z, em.energy, em.number, em.entropy)
        return [
            Check("entropy identity (relative to its terms)",
                  ident / max(1.0, *(abs(t) for t in terms)), 1e-9),
            Check("dE finite difference (relative)",
                  abs(e_fd - tp.energy) / max(1e-30, abs(tp.energy)), 1e-5),
            Check("dN finite difference (relative)",
                  abs(n_fd - tp.number) / max(1e-30, abs(tp.number)), 1e-5),
            Check("EM values finite",
                  0.0 if all(math.isfinite(v) for v in em_values) else math.inf, 0.0),
        ]


# -- metric-check ------------------------------------------------------------

class MetricCheck:
    """What ``nhfermi metric-check`` does, at a seeded gamma with M = 60."""

    name = "metric-check"
    round_size = 3
    nominal_round_s = 21.0
    layers = ("metric",)
    checks_per_op = 6
    M = 60

    def round_inputs(self, seed, r):
        """One op in each of the three gamma strata, in a seeded order."""
        rng = np.random.default_rng([seed, r, 2])
        return [float(g) for g in _stratified_edges(rng, METRIC_GAMMA_EDGES)]

    def run_op(self, gamma, counters):
        p = make_params(gamma)
        M, n = self.M, self.M // 2
        met = mt.build_metric(p, M)
        H = op.build_hamiltonian(p, M).entries
        T0, Tp, Tm = (t.entries for t in op.build_t_operators(p, M))

        def rel(R, *scales):
            s = sum(np.abs(a) @ np.abs(b) for a, b in scales)
            return float(np.abs(R[:n, :n]).max() / s[:n, :n].max())

        cliff = gamma >= METRIC_CLIFF_GAMMA
        checks = [
            Check("D2 H - H^T D2 (interior, relative)",
                  rel(met.d2 @ H - H.T @ met.d2, (met.d2, H), (H.T, met.d2)), 1e-8),
            Check("D2 T+ - T-^T D2 (interior, relative)",
                  rel(met.d2 @ Tp - Tm.T @ met.d2, (met.d2, Tp), (Tm.T, met.d2)), 1e-8),
        ]
        for which, T in (("S0", T0), ("Splus", Tp), ("Sminus", Tm)):
            C = mt.conjugate_generator(p, M, which).entries
            checks.append(Check(f"conjugated {which} vs T (interior)",
                                float(np.abs(C[:n, :n] - T[:n, :n]).max()), 1e-8, cliff))
        Hh = mt.hermitized_hamiltonian(p, M)
        target = p.lambda_scale * np.diag((4 * np.arange(1, n + 1) - 3) / 4.0)
        checks.append(Check("Hermitized H vs Lambda S0 (interior)",
                            float(np.abs(Hh[:n, :n] - target).max()), 1e-8, cliff))
        return checks


# -- fock-check --------------------------------------------------------------

class FockCheck:
    """Pseudo-fermion identities on m = 8, 10, 12 modes at a seeded gamma."""

    name = "fock-check"
    modes = (8, 10, 12)
    round_size = 3
    nominal_round_s = 3.1
    layers = ("fock", "operators")
    checks_per_op = 5

    def round_inputs(self, seed, r):
        """One op per m.  Over each cycle of three rounds every m meets each
        of the three gamma strata once (a Latin square with a seeded shift)."""
        k = len(self.modes)
        cycle, step = divmod(r, k)
        shift = np.random.default_rng([seed, cycle, 3]).permutation(k)
        rng = np.random.default_rng([seed, r, 3])
        lo, width = 0.05, (1.5 - 0.05) / k
        return [(float(lo + width * ((shift[i] + step) % k + rng.random())), m)
                for i, m in enumerate(self.modes)]

    def run_op(self, inp, counters):
        gamma, m = inp
        p = make_params(gamma)
        ev = op.dense_spectrum(op.build_hamiltonian(p, 100), 8)
        an = np.array([mode_energy(p, k) for k in range(1, 9)])
        ladder = max(float(np.abs((ev - an) / an).max()),
                     float(np.abs(np.diff(ev) - p.lambda_scale).max() / p.lambda_scale))

        space = fk.build_fock(m)
        counters["fock.dim_sum"] += space.dimension
        bio = op.dense_biorthogonal(p, m)
        pf = fk.build_pseudo_fermions(space, bio)
        eye = sp.identity(space.dimension, format="csr")
        car = 0.0
        for i in range(m):
            for j in range(m):
                A = fk.anticommutator(pf.d_dag[i], pf.d[j])
                car = max(car, _max_abs(A - eye if i == j else A))
        diag = fk.diagonal_form_residual(space, p, pf)

        W = fk.one_particle_metric(bio)
        vac = np.zeros(space.dimension, dtype=complex)
        vac[0] = 1.0
        wedges = [pf.d_dag[i].matrix @ (pf.d_dag[j].matrix @ vac)
                  for i in range(4) for j in range(i + 1, 4)]
        G = np.array([[fk.physical_inner_fock(space, W, a, b, 2) for b in wedges]
                      for a in wedges])
        gram = float(np.abs(G - np.diag(np.diag(G))).max())
        if not float(np.real(np.diag(G)).min()) > 0.0:
            gram = math.inf

        lowest = {}
        for pt in fk.joint_spectrum(p, m, m):
            lowest[pt.number] = min(lowest.get(pt.number, math.inf), pt.energy)
        hull = max(abs(e - p.lambda_scale * n * (2 * n - 1) / 4.0)
                   / max(1.0, p.lambda_scale * n * (2 * n - 1) / 4.0)
                   for n, e in lowest.items())
        if sorted(lowest) != list(range(m + 1)):
            hull = math.inf
        return [
            Check("spectrum vs analytic ladder (M=100, relative)", ladder, 1e-8),
            Check("pseudo-fermion anticommutators", car, 1e-10),
            Check("diagonal-form residual", diag, 1e-10),
            # spikes past 1e-9 in narrow gamma windows (NOTES.md)
            Check("sector-2 Gram off-diagonal", gram, 1e-9, known_defect=True),
            Check("joint-spectrum minima vs Lambda n(2n-1)/4 (relative)", hull, 1e-12),
        ]


WORKLOADS = {w.name: w for w in (FigureDefault, ThermoPoints, MetricCheck, FockCheck)}
