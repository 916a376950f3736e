"""Command-line front end.

Subcommands: spectrum, metric-check, fock-check, thermo, figure, selfcheck.
"""

import argparse
import json
import math
import sys

from . import operators as op
from . import figure as fg
from . import thermo as th
from .errors import NumericalError, TruncationError
from .params import make_params, mode_energy
from .selfcheck import criterion_3, criterion_4, run_all


def _cmd_spectrum(args) -> int:
    p = make_params(args.gamma)
    H = op.build_hamiltonian(p, args.truncation)
    ev = op.dense_spectrum(H, args.count)
    print(f"gamma={args.gamma} M={args.truncation} Lambda={p.lambda_scale!r}")
    print(f"{'n':>3} {'eigenvalue':>24} {'analytic':>24} {'rel err':>10}")
    for n, lam in enumerate(ev, start=1):
        an = mode_energy(p, n)
        print(f"{n:>3} {float(lam)!r:>24} {an!r:>24} {abs(lam - an) / an:>10.2e}")
    return 0


def _print_checks(checks, indent="") -> None:
    for c in checks:
        print(f"{indent}{'PASS' if c.passed else 'FAIL'}  {c}")


def _report(result) -> int:
    _print_checks(result.checks)
    return 0 if result.passed else 1


def _cmd_metric_check(args) -> int:
    return _report(criterion_3(args.gamma, args.truncation, args.tol))


def _cmd_fock_check(args) -> int:
    return _report(criterion_4(args.gamma, args.modes, args.tol))


def _cmd_thermo(args) -> int:
    p = make_params(args.gamma)
    points = []
    if args.method in ("exact", "both"):
        points.append(th.exact_expectations(p, args.beta, args.mu,
                                            tail_tol=args.tail_tol))
    if args.method in ("em", "both"):
        points.append(th.em_expectations(p, args.beta, args.mu))
    for tp in points:
        print(f"method={tp.method} beta={tp.beta!r} mu={tp.mu!r} "
              f"zeta'={tp.zeta_prime!r}")
        print(f"  log Z   = {tp.log_z!r}")
        print(f"  energy  = {tp.energy!r}")
        print(f"  number  = {tp.number!r}")
        print(f"  entropy = {tp.entropy!r}")
        if tp.tail_bound is not None:
            print(f"  modes summed directly: {tp.n_modes}, "
                  f"relative tail bound: {tp.tail_bound:.3g}")
    return 0


def _cmd_figure(args) -> int:
    if args.config:
        with open(args.config, encoding="utf-8") as f:
            config = json.load(f)
    else:
        config = fg.default_figure_config()
    records = fg.figure_records(config)
    boundary = fg.hull_boundary(make_params(config["gamma"]), config["n_max"])
    exact_pts = [r for r in records if r.method == "exact"]
    if exact_pts:
        report = fg.containment_check(exact_pts, boundary)
        print(f"containment: min margin {min(report.margins):.3e}, "
              f"violations {len(report.violations)}")
        if report.violations:
            for beta, mu, margin in report.violations:
                print(f"FAIL  point below the hull: beta={beta!r} mu={mu!r} "
                      f"margin {margin:.3e}")
            print(f"{args.out} not written")
            return 1
    payload = (fg.records_to_csv(records) if args.format == "csv"
               else fg.records_to_json(records))
    with open(args.out, "w", encoding="utf-8", newline="") as f:
        f.write(payload)
    print(f"wrote {len(records)} records to {args.out}")
    return 0


def _json_number(x):
    """A check value or bound as a JSON number; non-finite ones become null."""
    x = x.item() if hasattr(x, "item") else x
    return x if not isinstance(x, float) or math.isfinite(x) else None


def _criterion_json(r, wall_s) -> dict:
    return {"cid": r.cid, "name": r.name, "passed": r.passed,
            "expected_failure": r.expected_failure, "wall_s": wall_s,
            "checks": [{"name": c.name, "value": _json_number(c.value),
                        "bound": _json_number(c.bound), "passed": c.passed}
                       for c in r.checks]}


def _cmd_selfcheck(args) -> int:
    failed, criteria = False, []
    for r, wall_s in run_all():
        failed |= (not r.passed and not r.expected_failure)
        if args.json:
            criteria.append(_criterion_json(r, wall_s))
            continue
        tag = "PASS" if r.passed else ("FAIL (expected)" if r.expected_failure else "FAIL")
        print(f"criterion {r.cid:>3} {tag:>16}  {r.name}")
        _print_checks(r.checks, indent="    ")
    if args.json:
        print(json.dumps({"passed": not failed, "criteria": criteria}, allow_nan=False))
    else:
        print("selfcheck:", "FAIL" if failed else "PASS")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="nhfermi",
                                 description="non-Hermitian fermionic ladder model")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="low eigenvalues of the truncation")
    sp.add_argument("--gamma", type=float, default=0.6)
    sp.add_argument("--truncation", type=int, default=100)
    sp.add_argument("--count", type=int, default=8)
    sp.set_defaults(fn=_cmd_spectrum)

    mc = sub.add_parser("metric-check", help="metric/Hermitization residuals")
    mc.add_argument("--gamma", type=float, default=0.6)
    mc.add_argument("--truncation", type=int, default=60)
    mc.add_argument("--tol", type=float, default=1e-8)
    mc.set_defaults(fn=_cmd_metric_check)

    fc = sub.add_parser("fock-check", help="pseudo-fermion identities")
    fc.add_argument("--gamma", type=float, default=0.6)
    fc.add_argument("--modes", type=int, default=6)
    fc.add_argument("--tol", type=float, default=1e-10)
    fc.set_defaults(fn=_cmd_fock_check)

    tm = sub.add_parser("thermo", help="grand-canonical point")
    tm.add_argument("--gamma", type=float, default=0.6)
    tm.add_argument("--beta", type=float, required=True)
    tm.add_argument("--mu", type=float, required=True)
    tm.add_argument("--method", choices=("exact", "em", "both"), default="exact")
    tm.add_argument("--tail-tol", type=float, default=th.TAIL_TOL,
                    help="remainder bound of each exact sum, relative to the sum")
    tm.set_defaults(fn=_cmd_thermo)

    fig = sub.add_parser("figure", help="emit the curve-family dataset")
    fig.add_argument("--config", default=None, help="JSON config path")
    fig.add_argument("--out", required=True)
    fig.add_argument("--format", choices=("csv", "json"), default="csv")
    fig.set_defaults(fn=_cmd_figure)

    sc = sub.add_parser("selfcheck", help="run the acceptance battery")
    sc.add_argument("--json", action="store_true",
                    help="print one JSON object: each criterion with its wall "
                         "time and checks (non-finite values as null)")
    sc.set_defaults(fn=_cmd_selfcheck)
    return ap


def main(argv=None) -> int:
    """Run one subcommand.  Exit codes: 0 success, 1 a check failed,
    2 bad input, a numerical failure or an unreadable/unwritable file
    (one line on stderr)."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, NumericalError, TruncationError) as exc:
        print(f"nhfermi: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
