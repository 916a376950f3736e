"""Curve families over (beta, mu) and the lower boundary of the joint range.

The (N, E) plane picture: grand-canonical averages sweep smooth curves as
mu varies at fixed beta (dashed family) or beta varies at fixed mu (full
family), and every exact point lies on or above the lower convex boundary
through the integer filling points (n, Lambda n(2n-1)/4).
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .params import ModelParams, make_params
from .thermo import em_expectations, exact_expectations

__all__ = [
    "CurveSpec",
    "BoundaryPolyline",
    "ContainmentReport",
    "generate_curve",
    "hull_boundary",
    "containment_check",
    "default_figure_config",
    "figure_records",
    "records_to_csv",
    "records_to_json",
]

CSV_COLUMNS = ("method", "gamma", "beta", "mu", "zeta_prime",
               "log_z", "energy", "number", "entropy")
CONFIG_KEYS = ("gamma", "beta_list", "mu_list", "mu_sweep", "n_max")


@dataclass(frozen=True)
class CurveSpec:
    """One curve: sweep mu at fixed beta, or beta at fixed mu."""

    gamma: float
    mode: str                  # "fixed_beta" | "fixed_mu"
    fixed_value: float
    sweep: tuple
    method: str = "exact"      # "exact" | "euler_maclaurin" | "both"

    def __post_init__(self):
        if self.mode not in ("fixed_beta", "fixed_mu"):
            raise ValueError(f"mode must be fixed_beta or fixed_mu, got {self.mode!r}")
        if self.method not in ("exact", "euler_maclaurin", "both"):
            raise ValueError(f"unknown method {self.method!r}")
        sweep = np.asarray(self.sweep, dtype=float)
        if sweep.size == 0:
            raise ValueError("sweep must be non-empty")
        if not np.all(np.isfinite(sweep)):
            raise ValueError("sweep values must be finite")
        d = np.diff(sweep)
        if sweep.size > 1 and not (np.all(d > 0) or np.all(d < 0)):
            raise ValueError("sweep must be strictly monotone")
        if not np.isfinite(self.fixed_value):
            raise ValueError("fixed_value must be finite")
        if self.mode == "fixed_beta" and self.fixed_value <= 0:
            raise ValueError("fixed beta must be positive")
        if self.mode == "fixed_mu" and np.any(sweep <= 0):
            raise ValueError("beta sweep values must be positive")


@dataclass(frozen=True)
class BoundaryPolyline:
    """Lower boundary vertices (n, Lambda n(2n-1)/4), n = 0..n_max."""

    vertices: tuple

    @property
    def numbers(self) -> np.ndarray:
        return np.array([v[0] for v in self.vertices], dtype=float)

    @property
    def energies(self) -> np.ndarray:
        return np.array([v[1] for v in self.vertices], dtype=float)


@dataclass
class ContainmentReport:
    ok: bool
    margins: list
    violations: list = field(default_factory=list)


def generate_curve(spec: CurveSpec):
    """One ThermoPoint per sweep value per method, in sweep order."""
    params = make_params(spec.gamma)
    methods = ("exact", "euler_maclaurin") if spec.method == "both" else (spec.method,)
    out = []
    for value in spec.sweep:
        beta, mu = ((spec.fixed_value, value) if spec.mode == "fixed_beta"
                    else (value, spec.fixed_value))
        for method in methods:
            out.append(exact_expectations(params, beta, mu)
                       if method == "exact" else em_expectations(params, beta, mu))
    return out


def hull_boundary(params: ModelParams, n_max: int) -> BoundaryPolyline:
    """Vertices (n, Lambda n(2n-1)/4) for n = 0..n_max.

    These are the minimum energies per particle-number sector (lowest-mode
    filling), and the polyline through them is convex.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    lam = params.lambda_scale
    verts = tuple((n, lam * n * (2 * n - 1) / 4.0) for n in range(n_max + 1))
    return BoundaryPolyline(vertices=verts)


def containment_check(points, boundary: BoundaryPolyline,
                      tol: float = 1e-9) -> ContainmentReport:
    """Per-point margin E - hull(N) against the lower boundary.

    Every exact grand-canonical point is a convex average of joint-spectrum
    points, so margins below -tol are reported as violations.
    """
    xs, ys = boundary.numbers, boundary.energies
    margins, violations = [], []
    for p in points:
        if not (xs[0] <= p.number <= xs[-1]):
            raise ValueError(
                f"boundary covers N in [{xs[0]}, {xs[-1]}], point has N={p.number}"
            )
        hull_e = float(np.interp(p.number, xs, ys))
        margin = p.energy - hull_e
        margins.append(margin)
        if margin < -tol:
            violations.append((p.beta, p.mu, margin))
    return ContainmentReport(ok=not violations, margins=margins,
                             violations=violations)


def default_figure_config() -> dict:
    """Figure configuration: gamma = 3/5, the seven beta values with a dense
    mu sweep across (-15 Lambda, 15 Lambda), seven fixed mu values swept in
    beta, and the very-low-beta curve over mu in (-6000, -4500)."""
    gamma = 0.6
    lam = make_params(gamma).lambda_scale
    return {
        "gamma": gamma,
        "beta_list": [0.001, 0.01, 0.02, 0.03, 0.04, 0.08, 0.2],
        "mu_list": [lam * x for x in (-14.75, -9.75, -4.75, 0.25, 5.25, 10.25, 15.25)],
        "mu_sweep": {"min": -15.0 * lam, "max": 15.0 * lam, "count": 201},
        "low_beta_mu_sweep": {"beta": 0.001, "min": -6000.0, "max": -4500.0, "count": 201},
        "n_max": 600,
        "method": "exact",
    }


def _linspace(lo: float, hi: float, count: int) -> np.ndarray:
    if count < 2 or hi <= lo:
        raise ValueError(f"bad sweep range ({lo}, {hi}, {count})")
    return np.linspace(lo, hi, count)


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _check_config(config) -> None:
    """Raise ValueError naming the first key of a figure config with the
    wrong shape."""
    if not isinstance(config, dict):
        raise ValueError(f"figure config must be an object, got {type(config).__name__}")
    for key in CONFIG_KEYS:
        if key not in config:
            raise ValueError(f"figure config lacks {key!r}")
    if not _is_number(config["gamma"]):
        raise ValueError("figure config 'gamma' must be a number")
    if not isinstance(config["n_max"], int) or isinstance(config["n_max"], bool):
        raise ValueError("figure config 'n_max' must be an integer")
    for key in ("beta_list", "mu_list"):
        values = config[key]
        if not (isinstance(values, list) and all(_is_number(v) for v in values)):
            raise ValueError(f"figure config {key!r} must be a list of numbers")
    if not config["beta_list"]:
        raise ValueError("figure config 'beta_list' must not be empty")
    for key, fields in (("mu_sweep", ("min", "max", "count")),
                        ("low_beta_mu_sweep", ("beta", "min", "max", "count"))):
        sweep = config.get(key)
        if key == "low_beta_mu_sweep" and sweep is None:
            continue
        if not (isinstance(sweep, dict) and all(_is_number(sweep.get(f)) for f in fields)):
            raise ValueError(f"figure config {key!r} must be an object with "
                             f"numeric {', '.join(fields)}")


def figure_records(config: dict):
    """All curve points of a figure configuration, in deterministic order.

    Fixed-beta (dashed) curves iterate beta_list with the dense mu sweep;
    the beta matching low_beta_mu_sweep uses that special mu range instead.
    Fixed-mu (full) curves iterate mu_list over a geometric beta grid
    spanning beta_list with the mu-sweep point count.  Raises ValueError if
    the config is not a dict, lacks one of CONFIG_KEYS, or has a key of the
    wrong shape: beta_list a non-empty list of numbers, mu_list a list of
    numbers, mu_sweep (and low_beta_mu_sweep when present) an object with
    numeric min, max and count (and beta).
    """
    _check_config(config)
    gamma = float(config["gamma"])
    beta_list = [float(b) for b in config["beta_list"]]
    mu_list = [float(m) for m in config["mu_list"]]
    ms = config["mu_sweep"]
    mu_grid = _linspace(float(ms["min"]), float(ms["max"]), int(ms["count"]))
    method = config.get("method", "exact")
    low = config.get("low_beta_mu_sweep")

    records = []
    for beta in beta_list:
        if low is not None and beta == float(low["beta"]):
            grid = _linspace(float(low["min"]), float(low["max"]), int(low["count"]))
        else:
            grid = mu_grid
        spec = CurveSpec(gamma=gamma, mode="fixed_beta", fixed_value=beta,
                         sweep=tuple(grid), method=method)
        records.extend(generate_curve(spec))
    lo, hi = min(beta_list), max(beta_list)
    beta_grid = np.array([lo]) if lo == hi else np.geomspace(lo, hi, int(ms["count"]))
    for mu in mu_list:
        spec = CurveSpec(gamma=gamma, mode="fixed_mu", fixed_value=mu,
                         sweep=tuple(beta_grid), method=method)
        records.extend(generate_curve(spec))
    return records


def _fmt(x: float) -> str:
    return repr(float(x))


def records_to_csv(records) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for r in records:
        lines.append(",".join([
            r.method, _fmt(r.gamma), _fmt(r.beta), _fmt(r.mu), _fmt(r.zeta_prime),
            _fmt(r.log_z), _fmt(r.energy), _fmt(r.number), _fmt(r.entropy),
        ]))
    return "\n".join(lines) + "\n"


def records_to_json(records) -> str:
    payload = [{c: getattr(r, c) for c in CSV_COLUMNS} for r in records]
    return json.dumps(payload, indent=1) + "\n"
