"""Benchmark for permtop: one seeded workload per run, closed loop, one client.

Usage, from the root of a source checkout (the one holding src/permtop):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: algebra, oracle, centralizer (see BENCHMARK.json for why
each was chosen, and perfbench/layers.py for which per-layer metric should
move which end-to-end metric on which workload).

A single process and thread runs the workload's fixed, seeded task list
in passes, one task after another, until starting another pass would run
past S seconds. Each task's output is re-checked after its pass, untimed.

Times are CPU time of the workload thread (see spans.clock). --trace 0
prints the end-to-end metrics:
  pass_cpu_s    median over passes of the time from a pass's first task to
                its last verdict
  task_p50_ms   median task time, over the tasks of all passes
  task_tail_ms  the highest percentile of task time with ten tasks of a
                pass beyond it: 100 (n - 10) / n for n tasks a pass
  peak_rss_mb   peak resident memory of this process
  setup_s       median over fresh interpreters of the CPU time from their
                start to the first task: `import permtop` plus input generation
--trace 1 runs untraced passes for half the time, then wraps permtop's
public names (perfbench/spans.py) and runs traced passes; it prints the
per-layer metrics, per traced pass.

Before the result, one line of JSON gives the environment, the pass and
task counts, the tail percentile, failed_frac, the median wall-clock time
of a pass and, when traced, the span table. The last line is the result:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
Exits 2 without a result when src/permtop is not under the working directory.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from time import perf_counter, process_time

from layers import EXPECT, unit_of
from spans import clock

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
SETUP_SAMPLES = 5
TAIL_BEYOND = 10


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("algebra", "oracle", "centralizer"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny inputs, for the self-test")
    ap.add_argument("--setup-only", action="store_true",
                    help="import and generate inputs, print 'ready', exit")
    return ap.parse_args(argv)


def _setup(args):
    import workloads  # imports permtop: only once SRC is on the path

    return workloads.build(args.workload, args.seed, args.tiny)


def _setup_times(args, samples: int) -> list[float]:
    """CPU time of fresh interpreters from their start to the end of this
    run's set-up, as each reports it. One unrecorded warm-up first, so
    bytecode caches are written."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--tiny"] if args.tiny else [])
    out = []
    for i in range(samples + 1):
        child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=120)
        word, _, took = child.stdout.strip().partition(" ")
        if child.returncode != 0 or word != "ready":
            raise RuntimeError(f"set-up child failed with code {child.returncode}")
        if i:
            out.append(float(took))
    return out


@dataclass
class Pass:
    """One pass over the task list: CPU seconds per task and for the whole
    pass, wall seconds for the pass, and the count of failed tasks."""
    times: list[float]
    cpu: float
    wall: float
    failed: int


def _run_pass(tasks, tracer, report: list[str]) -> Pass:
    gc.collect()
    times, outputs = [], []
    wall0, cpu0 = perf_counter(), clock()
    for task in tasks:
        if tracer is not None:
            tracer.task = task.kind
        t0 = clock()
        try:
            out, err = task.run(), None
        except Exception as exc:  # a task that raises counts as failed
            out, err = None, exc
        times.append(clock() - t0)
        outputs.append((out, err))
    cpu, wall = clock() - cpu0, perf_counter() - wall0
    if tracer is not None:
        tracer.on = False
    results = {task.key: out for task, (out, _) in zip(tasks, outputs)
               if task.key is not None}
    failed = 0
    for task, (out, err) in zip(tasks, outputs):
        try:
            ok = err is None and bool(task.check(out, results))
        except Exception as exc:
            ok, err = False, exc
        if not ok:
            failed += 1
            if len(report) < 5:
                report.append(f"{task.kind}: " + ("".join(
                    traceback.format_exception(err)) if err else "check failed"))
    if tracer is not None:
        tracer.on = True
    return Pass(times, cpu, wall, failed)


def _run_passes(tasks, seconds: float, tracer, report: list[str]) -> list[Pass]:
    """Whole passes while the next one, at the mean pass time so far, fits."""
    passes = []
    t0 = perf_counter()
    while True:
        passes.append(_run_pass(tasks, tracer, report))
        elapsed = perf_counter() - t0
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _environment() -> dict:
    import permtop

    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "permtop_version": getattr(permtop, "__version__", None),
        "kernel_backend": getattr(permtop, "kernel_backend", None),
        "git_commit": _git_commit(),
    }


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _end_to_end(passes, setup) -> dict:
    # Percentiles over the task times of all passes. The tail percentile is
    # fixed by the task count n of a pass: 100 (n - 10) / n, which leaves ten
    # tasks of every pass beyond it.
    samples = sorted(t for p in passes for t in p.times)
    n = len(passes[0].times)
    tail_at = max(0, len(passes) * (n - TAIL_BEYOND) - 1)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "pass_cpu_s": _metric(median(p.cpu for p in passes), "s"),
        "task_p50_ms": _metric(median(samples) * 1e3, "ms"),
        "task_tail_ms": _metric(samples[tail_at] * 1e3, "ms"),
        "peak_rss_mb": _metric(rss_mb, "MB"),
        "setup_s": _metric(median(setup), "s"),
    }


def _per_layer(tracer, plain, traced) -> dict:
    counts = tracer.counts

    def ratio(num: str, den: str) -> float:
        return counts[num] / counts[den] if counts[den] else 0.0

    derived = {
        "kernels.word_masks.yield": ratio("kernels.word_masks.masks",
                                          "kernels.word_masks.words"),
        "central.dc_yield": ratio("central.double_centralizer.outputs",
                                  "kernels.commuting_rows.rows"),
        "trace.overhead_frac": (median(p.cpu for p in traced)
                                / median(p.cpu for p in plain) - 1),
        "trace.outside_frac": 1 - tracer.covered() / sum(p.cpu for p in traced),
    }
    out = {}
    for name in EXPECT:
        base, _, leaf = name.rpartition(".")
        if name in derived:
            value = derived[name]
        elif leaf == "calls":
            value = tracer.calls(base) / len(traced)
        elif leaf == "self_s":
            value = tracer.self_time(base) / len(traced)
        else:
            value = counts[name] / len(traced)
        out[name] = _metric(value, unit_of(name))
    return out


def _absent_metrics(tracer) -> list[str]:
    """Per-layer metrics whose spans were not installed: the permtop being
    measured no longer has the public name behind them."""
    needs = {"kernels.word_masks.yield": ["kernels.word_masks"],
             "central.dc_yield": ["central.double_centralizer", "kernels.commuting_rows"]}
    return [name for name in EXPECT if not name.startswith("trace.")
            and not all(s in tracer.installed
                        for s in needs.get(name, [name.rpartition(".")[0]]))]


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "permtop" / "__init__.py").is_file():
        print(f"perfbench: no permtop sources under {SRC}; run from the root of a "
              "permtop checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        _setup(args)
        print("ready", process_time(), flush=True)
        return 0

    setup = [] if args.trace else _setup_times(args, 1 if args.tiny else SETUP_SAMPLES)
    t0 = process_time()
    tasks = _setup(args)
    setup_here = process_time() - t0
    import permtop

    if Path(permtop.__file__).resolve().parent != (SRC / "permtop").resolve():
        print(f"perfbench: imported permtop from {permtop.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    report: list[str] = []
    info = {"workload": args.workload, "seed": args.seed, "env": _environment(),
            "setup_in_process_s": setup_here, "setup_samples_s": setup,
            "tasks_per_pass": len(tasks),
            "tail_percentile": 100 * max(0, len(tasks) - TAIL_BEYOND) / len(tasks)}
    if args.trace:
        from spans import Tracer

        plain = _run_passes(tasks, args.seconds / 2, None, report)
        tracer = Tracer()
        tracer.install()
        tracer.on = True
        traced = _run_passes(tasks, args.seconds / 2, tracer, report)
        tracer.on = False
        passes = plain + traced
        metrics = _per_layer(tracer, plain, traced)
        info.update(passes=len(plain), traced_passes=len(traced),
                    traced_cpu_s=sum(p.cpu for p in traced),
                    span_self_s=tracer.covered(),
                    absent=_absent_metrics(tracer), absent_targets=tracer.absent,
                    spans=tracer.edges(),
                    notes={"kernels.word_masks.yield":
                           "computed: distinct masks / sum over m of (2n)^m words"})
    else:
        passes = _run_passes(tasks, args.seconds, None, report)
        metrics = _end_to_end(passes, setup)
        info.update(passes=len(passes), wall_s=median(p.wall for p in passes),
                    wall_over_cpu=sum(p.wall for p in passes) / sum(p.cpu for p in passes))
    attempted = len(tasks) * len(passes)
    failed = sum(p.failed for p in passes)
    info["failed_frac"] = failed / attempted
    for line in report:
        print(line, file=sys.stderr)
    print(json.dumps(info))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
