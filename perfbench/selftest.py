"""Self-test of the benchmark at a tiny size.

Run from the root of a permtop checkout:

    python3 perfbench/selftest.py

For every workload it runs `run.py --tiny` untraced and traced and checks
that the result line has exactly its four keys, that every metric
named in BENCHMARK.json is printed with its unit, that failed_frac is 0,
that no traced name is absent, and that the self times of the spans add up
to no more than the traced time. It also checks that the benchmark refuses,
without a result, to run where there are no permtop sources.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN = str(HERE / "run.py")


def _run(args, cwd=None):
    proc = subprocess.run([sys.executable, RUN, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=180)
    return proc.returncode, proc.stdout.strip().splitlines(), proc.stderr


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(HERE))
    from layers import EXPECT, unit_of

    problems = []
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if per_layer != {name: unit_of(name) for name in EXPECT}:
        problems.append("BENCHMARK.json per_layer differs from layers.EXPECT")
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]}, 1: per_layer}
    names = {w["name"] for w in spec["workloads"]}
    for metric, expect in EXPECT.items():
        if (not set(expect["moves"]) <= set(wanted[0])
                or not set(expect["on"]) | set(expect["unchanged"]) <= names):
            problems.append(f"layers.EXPECT[{metric!r}] names an unknown metric or workload")
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            code, lines, err = _run(["--workload", workload, "--seed", "1",
                                     "--seconds", "1", "--trace", str(trace), "--tiny"])
            where = f"{workload} --trace {trace}"
            if code != 0 or len(lines) < 2:
                problems.append(f"{where}: exit {code}\n{err}")
                continue
            info, result = json.loads(lines[-2]), json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
                continue
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != wanted[trace]:
                problems.append(f"{where}: metrics {sorted(got)} != {sorted(wanted[trace])}")
            if not result["correct"] or result["failed"] or info["failed_frac"] != 0:
                problems.append(f"{where}: {result['failed']} of {result['attempted']} failed")
            if trace:
                if info["absent"]:
                    problems.append(f"{where}: absent {info['absent']}")
                if info["span_self_s"] > info["traced_cpu_s"]:
                    problems.append(f"{where}: span self time {info['span_self_s']} exceeds "
                                    f"traced time {info['traced_cpu_s']}")
            print(f"ok {where}: {result['attempted']} tasks", flush=True)
    code, lines, _ = _run(["--workload", "algebra", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=HERE)
    if code == 0 or lines:
        problems.append("run without permtop sources did not fail cleanly")
    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
