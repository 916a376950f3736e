"""Smoke check of the benchmark itself: one op per workload, both modes.

Run from the root of a checkout:

    python3 perfbench/smoke.py

For every workload it runs ``run.py --ops 1`` with tracing off and on, and
checks that the result line names every metric of ``BENCHMARK.json`` with its
unit, that the summary reports fail_share and margin_digits_p50, and that the
op ran all of its output checks.  Takes about a minute and exits 1 on the
first problem.  It is not a pytest module, so the tier-1 suite does not
collect it.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


class SmokeFailure(Exception):
    pass


def require(ok, msg):
    if not ok:
        raise SmokeFailure(msg)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    require(sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS),
            "BENCHMARK.json and workloads.py list different workloads")
    for name, cls in WORKLOADS.items():
        for trace in (0, 1):
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "1",
                 "--seconds", "1", "--trace", str(trace), "--ops", "1"],
                cwd=ROOT, capture_output=True, text=True, timeout=170)
            require(out.returncode == 0,
                    f"{name} trace {trace} exited {out.returncode}:\n{out.stderr}")
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            require(set(result) == {"correct", "attempted", "failed", "metrics"},
                    f"{name}: result keys {sorted(result)}")
            require(result["attempted"] == 1, f"{name}: attempted {result['attempted']}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            require(got == wanted[trace], f"{name} trace {trace}: metrics {got} != {wanted[trace]}")
            require(all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
                    f"{name} trace {trace}: a metric value is not a number")
            text = "\n".join(lines[:-1])
            for label in ("fail_share", "margin_digits_p50"):
                require(re.search(rf"^{label} \S+", text, re.M), f"{name}: no {label} line")
            checks = int(re.search(r"(\d+) checks run", text).group(1))
            require(checks == cls.checks_per_op,
                    f"{name} trace {trace}: {checks} checks ran, expected {cls.checks_per_op}")
            print(f"ok  {name} trace {trace}: correct={result['correct']} "
                  f"failed={result['failed']} checks={checks}")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SmokeFailure as exc:
        print(f"smoke check failed: {exc}", file=sys.stderr)
        sys.exit(1)
