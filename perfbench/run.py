"""satqkd benchmark entry point.

    python3 perfbench/run.py --workload sweep_day --seed 1 --seconds 30 --trace 0

Runs one workload (see workloads.py) in this process on one thread, in a
closed loop of passes.  A pass is the whole command set over the
workload's input; passes repeat while another one fits in --seconds (at
least one runs).  Every output is checked after the timed passes.  The
last line of stdout is the result JSON; the line before it records the
run's environment and bookkeeping.

--trace 0 reports the end-to-end metrics of BENCHMARK.json:
  setup_s             import time plus the median of five set-ups (config
                      write and load, input generation, warm-up)
  wall_s              median wall time of a pass
  pair_seconds_per_s  trace pair-seconds simulated or post-processed per
                      wall second, over all passes
  op_p50_s, op_tail_s median op time, and the op time at the highest
                      percentile with at least ten ops beyond it (never
                      below the median when there are few ops)
  peak_rss_mb         peak resident memory of this process

--trace 1 runs untraced passes for a quarter of --seconds (at least one),
then traced passes for --seconds with every public function of orbit,
channel, harness, strategy, finite_key and config wrapped (spans.py), and
reports the per-layer metrics of BENCHMARK.json per traced pass.
trace.overhead_s is the median traced minus the median untraced pass wall
time.  The run exits non-zero without a result when a function the
workload must call recorded no call, or a function it must not call did.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import time  # noqa: E402

_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description="satqkd benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def commit_id() -> str:
    """HEAD of the checkout's git metadata, or 'unknown' outside a git tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def measure(workload, first_index: int, budget: float, keep_traces: bool):
    """Closed loop of passes while another pass fits in `budget` seconds."""
    passes = []
    start = time.perf_counter()
    while True:
        gc.collect()
        passes.append(workload.run_pass(first_index + len(passes), keep_traces))
        elapsed = time.perf_counter() - start
        if elapsed + max(p.wall for p in passes) > budget:
            return passes


def op_stats(passes):
    times = sorted(op.seconds for p in passes for op in p.ops if op.seconds is not None)
    if not times:
        return None, None, 0.0, 0
    n = len(times)
    tail_index = max(n // 2, n - 11)
    tail_pct = 100.0 * tail_index / (n - 1) if n > 1 else 100.0
    return statistics.median(times), times[tail_index], tail_pct, n


def layer_metrics(names, summary, counts, n_passes, derived):
    """Per-layer metric values: ratios as given, sums per traced pass."""
    values = {}
    for name in names:
        if name in derived:
            values[name] = derived[name]
        elif name in counts:
            values[name] = counts[name] / n_passes
        else:
            function, _, field = name.rpartition(".")
            values[name] = summary[function][field] / n_passes
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (ROOT / "src" / "satqkd" / "__init__.py").is_file():
        print(f"perfbench: no satqkd sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import numpy as np

    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _START

    work = ROOT / ".perfbench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    workload = workloads.WORKLOADS[args.workload](work, args.seed)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - t0)

    if args.trace:
        untraced = measure(workload, 0, args.seconds / 4, False)
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = measure(workload, len(untraced), args.seconds, keep_traces=True)
        finally:
            tracer.uninstall()
        passes = untraced + traced
    else:
        passes = measure(workload, 0, args.seconds, False)

    for record in passes:
        workload.check(record)
    ops = [op for p in passes for op in p.ops]
    failed = sum(op.failed for op in ops)
    p50, tail, tail_pct, n_timed = op_stats(passes)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "commit": commit_id(),
        "source_sha256": source_sha256(),
        "config_sha256": workload.config.hash(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "passes": len(passes),
        "pass_walls_s": [p.wall for p in passes],
        "ops": len(ops),
        "ops_timed": n_timed,
        "op_tail_pct": tail_pct,
        "failed_frac": failed / len(ops),
        "setup_runs_s": setup_times,
        "import_s": import_s,
    }

    if args.trace:
        summary = tracer.summary()
        tracer.write(work / "spans.csv")
        untraced_wall = statistics.median(p.wall for p in untraced)
        traced_wall = statistics.median(p.wall for p in traced)
        problems = [f"{name} was never called" for name in workload.expected_calls
                    if summary[name]["calls"] == 0]
        problems += [f"{name} was called {summary[name]['calls']} times"
                     for name in workload.forbidden_calls if summary[name]["calls"]]
        if problems:
            for problem in problems:
                print(f"perfbench: {args.workload} traced run: {problem}", file=sys.stderr)
            return 1
        linked = tracer.counts["harness.linked_seconds"]
        evals = tracer.counts["channel.transmissivity_evals"]
        derived = {
            "trace.overhead_s": traced_wall - untraced_wall,
            "harness.roundtrip_mismatch_cells": workload.roundtrip_mismatch_cells(traced[-1]),
            "channel.evals_per_linked_s": evals / linked if linked else 0.0,
            "harness.run_trace.wall_share": (
                summary["harness.run_trace"]["s"] / sum(p.wall for p in traced)
            ),
        }
        names = [m["name"] for m in bench["per_layer"]]
        values = layer_metrics(names, summary, tracer.counts, len(traced), derived)
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        info.update(
            untraced_wall_s=untraced_wall, traced_wall_s=traced_wall, spans=len(tracer.spans)
        )
    else:
        walls = [p.wall for p in passes]
        values = {
            "setup_s": import_s + statistics.median(setup_times),
            "wall_s": statistics.median(walls),
            "pair_seconds_per_s": sum(op.pair_seconds for op in ops) / sum(walls),
            "op_p50_s": p50,
            "op_tail_s": tail,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}
    (work / "result.json").write_text(json.dumps({"info": info, "result": result}, indent=1))
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
