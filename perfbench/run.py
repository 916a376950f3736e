"""Closed-loop benchmark of nhfermi.

Run from the root of a checkout:

    python3 perfbench/run.py --workload thermo-points --seed 1 --seconds 30 --trace 0

One process with one thread runs the ops of one workload back to back, each op
starting when the previous one has finished, and checks every op's output.
The run is made of whole rounds (see ``workloads.py``), as many as fill
``--seconds`` at the workload's nominal round time; the count does not depend
on the clock, so a seed always runs and checks the same ops.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs a fixed
number of rounds twice, untraced in a child process and traced in this one,
and reports the per-layer metrics from the spans plus the difference of the
two wall times.  Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exits non-zero, without a result, if the run itself breaks.
"""

import os

# one thread: cap the BLAS pools before numpy is imported here or in a child
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import collections
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPEATS = 5
MAX_LOOP_S = 140.0
MARGIN_CAP = 6.0   # digits; an exact match reads as this many


def _die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _import_library():
    if not (SRC / "nhfermi" / "__init__.py").is_file():
        _die(f"no nhfermi sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import nhfermi
    if Path(nhfermi.__file__).resolve().parent != (SRC / "nhfermi").resolve():
        _die(f"imported nhfermi from {nhfermi.__file__}, not from {SRC}")


class Stream:
    """The seeded op inputs of a workload, round by round."""

    def __init__(self, workload, seed, pregenerate=8):
        self.workload, self.seed, self.rounds = workload, seed, []
        self.round(pregenerate - 1)

    def round(self, r):
        while len(self.rounds) <= r:
            self.rounds.append(self.workload.round_inputs(self.seed, len(self.rounds)))
        return self.rounds[r]


def planned_rounds(workload, seconds):
    """Whole rounds that fill about ``seconds`` at the nominal round time.

    The count depends on the arguments only, not on the clock, so a seed runs
    the same ops, and fails the same ones, in every run.
    """
    return max(1, int(seconds / workload.nominal_round_s))


def run_ops(workload, stream, rounds=None, max_ops=None, tracer=None):
    """Run the first ``rounds`` rounds, or exactly max_ops ops.

    No new round starts after MAX_LOOP_S, so a run on a much slower machine
    still ends in time.  Returns (ops, wall_s, rounds, counters): each op is
    (latency_s, checks or None, error text or None, input), each round is
    (ops run, seconds).
    """
    ops, counters, round_times = [], collections.defaultdict(int), []
    start = time.perf_counter()
    r = 0
    while True:
        t_round, n_before = time.perf_counter(), len(ops)
        for inp in stream.round(r):
            if tracer is not None:
                tracer.op = len(ops)
            t0 = time.perf_counter()
            try:
                checks, error = workload.run_op(inp, counters), None
            except Exception as exc:   # a failed op stays in the run
                checks, error = None, f"{type(exc).__name__}: {exc}"
            ops.append((time.perf_counter() - t0, checks, error, inp))
            if max_ops is not None and len(ops) >= max_ops:
                round_times.append((len(ops) - n_before, time.perf_counter() - t_round))
                return ops, time.perf_counter() - start, round_times, counters
        round_times.append((len(ops) - n_before, time.perf_counter() - t_round))
        r += 1
        if r == rounds or time.perf_counter() - start > MAX_LOOP_S:
            break
    return ops, time.perf_counter() - start, round_times, counters


def _op_margin(checks):
    worst = max(c.ratio for c in checks)
    if worst == 0.0:
        return MARGIN_CAP
    return min(MARGIN_CAP, -math.log10(worst))


def summarize(ops):
    """Failure counts, correctness and accuracy margins of a list of ops."""
    failed, incorrect, margins, notes = 0, 0, [], []
    for i, (_lat, checks, error, inp) in enumerate(ops):
        if checks is None:
            failed += 1
            incorrect += 1
            notes.append(f"op {i} {inp!r} raised {error}")
            continue
        margins.append(_op_margin(checks))
        bad = [c for c in checks if not c.ok]
        if bad:
            failed += 1
            incorrect += any(not c.known_defect for c in bad)
            notes.extend(f"op {i} {inp!r} missed {c.name}: {c.residual:.3e} > {c.tol:g}"
                         + (" (known defect)" if c.known_defect else "") for c in bad)
    return {"failed": failed, "correct": incorrect == 0,
            "margin": statistics.median(margins) if margins else -math.inf,
            "checks_run": sum(len(c) for _l, c, _e, _i in ops if c is not None),
            "notes": notes}


def _percentile(values, q):
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def measure_setup(args):
    """Median wall time from interpreter start to imported library and inputs."""
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            capture_output=True, text=True, timeout=60, check=True)
        samples.append(float(out.stdout.split()[-1]) - t0)
    return statistics.median(samples)


def untraced_wall(args, n_ops):
    """Wall time of the first n_ops ops in a fresh untraced process."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
         "--ops", str(n_ops), "--wall-only"],
        capture_output=True, text=True, timeout=150, check=True)
    return float(out.stdout.split()[-1])


def _blas_threads():
    """Thread count each loaded OpenBLAS reports, by library file."""
    import ctypes
    import numpy
    import scipy
    found = {}
    for pkg in (numpy, scipy):
        libdir = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(libdir.glob("*openblas*.so*")):
            handle = ctypes.CDLL(str(lib))
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                if hasattr(handle, sym):
                    getter = getattr(handle, sym)
                    getter.restype = ctypes.c_int
                    getter.argtypes = []
                    found[lib.name] = getter()
                    break
    return found or {"env OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"]}


def environment():
    import mpmath
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND, "nproc": os.cpu_count(),
        "cpu": cpu, "blas_threads": _blas_threads(),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--ops", type=int, default=None,
                    help="run exactly this many ops instead of filling --seconds")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--wall-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    _import_library()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        _die(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    stream = Stream(workload, args.seed)
    if args.setup_probe:
        print(time.perf_counter())
        return 0

    if args.wall_only:
        _ops, wall, _r, _c = run_ops(workload, stream, max_ops=args.ops)
        print(wall)
        return 0

    env = environment()
    print("environment " + json.dumps(env, sort_keys=True))
    if args.trace == 0:
        setup_s = measure_setup(args)
        ops, wall, round_times, _counters = run_ops(
            workload, stream, rounds=planned_rounds(workload, args.seconds), max_ops=args.ops)
        latencies_ms = [lat * 1e3 for lat, *_ in ops]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": (setup_s, "s"),
            # rounds have the same cost mix; their median rate shrugs off a stall
            "ops_per_s": (statistics.median(n / t for n, t in round_times), "1/s"),
            "op_p50_ms": (statistics.median(latencies_ms), "ms"),
            "op_p90_ms": (_percentile(latencies_ms, 0.9), "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        from tracing import Tracer, layer_metrics
        n_ops = args.ops or planned_rounds(workload, args.seconds / 2) * workload.round_size
        base_wall = untraced_wall(args, n_ops)
        tracer = Tracer()
        with tracer.patch():
            ops, wall, _r, counters = run_ops(workload, stream, max_ops=n_ops, tracer=tracer)
        metrics = layer_metrics(tracer.spans, sum(lat for lat, *_ in ops), workload.layers)
        metrics["figure.bytes_match"] = (counters["figure.bytes_match"], "count")
        metrics["fock.dim_sum"] = (counters["fock.dim_sum"], "count")
        metrics["trace.overhead_s"] = (wall - base_wall, "s")

    s = summarize(ops)
    latencies_ms = [lat * 1e3 for lat, *_ in ops]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(ops)} ops in {wall:.3f} s, {s['checks_run']} checks run")
    print(f"op latency: median {statistics.median(latencies_ms):.3f} ms, "
          f"p90 {_percentile(latencies_ms, 0.9):.3f} ms over {len(ops)} ops")
    print(f"fail_share {s['failed'] / len(ops):.4f} ({s['failed']} of {len(ops)} ops)")
    print(f"margin_digits_p50 {s['margin']:.4f} digits (capped at {MARGIN_CAP:g})")
    for note in s["notes"]:
        print(f"  {note}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print(json.dumps({
        "correct": s["correct"], "attempted": len(ops), "failed": s["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
