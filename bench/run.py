"""Benchmark of volterrabound's verify and blow-up paths.

    python3 bench/run.py --workload verify-long --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --seed 1            # every workload, one process each

Run from the repository root; the program is imported from ``src/``.
One run sets the workload up, then runs whole rounds of its operations
in this process, timing each operation and checking its output against
``checks.py``, until the next round would pass ``--seconds``.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones (``op_median_s``, ``setup_s``, ``peak_rss_mb``); with
``--trace 1`` they are the per-layer figures of ``tracing.py``.  Result
and trace files go to ``bench/_run/``.  See bench/README.md.
"""

from __future__ import annotations

import os

# One thread in numpy's BLAS pool; must be set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "_run"
WORKLOAD_NAMES = ("verify-long", "blowup-batch")
SETUP_PROBES = 7
SCALING = ((1001, 5), (4001, 3), (16001, 1))  # (nodes, repeats) of the solve scaling curve
CHILD_TIMEOUT_S = 170.0


def load_program():
    """Import volterrabound from this checkout's ``src/``, never from
    wherever else it may be installed."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import volterrabound

    if Path(volterrabound.__file__).resolve().parent != src / "volterrabound":
        raise ImportError(f"volterrabound resolved to {volterrabound.__file__}, not {src}")


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def fresh_setup_seconds(workload, seed):
    """Wall time from starting a fresh interpreter until the workload's
    first operation is ready: interpreter start, ``import volterrabound``,
    writing and loading the problem files, ``build_problem``."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        ready = time.perf_counter()
        child.stdout.read()
        rc = child.wait(timeout=CHILD_TIMEOUT_S)
    if line.strip() != "ready" or rc != 0:
        raise RuntimeError(f"set-up probe exited {rc} after {line!r}")
    return ready - start


def run_rounds(ops, seconds, tracer=None):
    """Whole rounds of ``ops`` until the next round would end past
    ``seconds``; at least one round.  Returns (op times, failed, problems)."""
    times, failed, problems = [], 0, []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for op in ops:
            if tracer is not None:
                tracer.op = len(times)
            try:
                t0 = time.perf_counter()
                outcome = op.run()
                times.append(time.perf_counter() - t0)
                found = op.check(outcome)
            except Exception:  # a crash is a finding of the run, not an end to it
                traceback.print_exc()
                times.append(math.nan)
                found = ["raised " + traceback.format_exc(limit=1).strip().splitlines()[-1]]
            if found and op.known_fault:
                failed += 1
            else:
                problems += [f"{op.name}: {item}" for item in found]
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds:
            return times, failed, problems


def op_median(times, per_round):
    """Median over the run's rounds of the mean time of one operation in
    the round.  A round holds the same operations every time, so its mean
    does not depend on which of several differently sized problems a
    plain median of all operations would land on."""
    rounds = [times[i:i + per_round] for i in range(0, len(times), per_round)]
    return statistics.median(
        statistics.fmean(v for v in r if not math.isnan(v)) for r in rounds
        if any(not math.isnan(v) for v in r)
    )


def solve_scaling():
    """Untraced ``solve`` time of the README atan problem at several sizes."""
    import problems
    import volterrabound as vb

    spec = vb.problem_from_dict(problems.README_ATAN)
    out = {}
    for nodes, repeats in SCALING:
        grid = vb.Grid(t_end=(nodes - 1) * problems.VERIFY_STEP, h=problems.VERIFY_STEP)
        samples = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            traj = vb.solve(spec, grid)
            samples.append(time.perf_counter() - t0)
            if len(traj.values) != nodes:
                raise RuntimeError(f"scaling solve stopped at {len(traj.values)} of {nodes} nodes")
        out[nodes] = statistics.median(samples)
    return out


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

PER_OP = {
    # metric: unit; the tracer statistic of the same name, per traced operation
    "expr.evaluate.array_calls": "count",
    "expr.evaluate.array_elems": "count",
    "expr.evaluate.array_s": "s",
    "expr.evaluate.scalar_calls": "count",
    "expr.evaluate.scalar_s": "s",
    "expr.evaluate.domain_errors": "count",
    "solver.solve_s": "s",
    "solver.solve.self_s": "s",
    "solver.solve.nodes": "count",
    "solver.write_trajectory_csv_s": "s",
    "comparison.propagate_majorant_s": "s",
    "comparison.propagate_majorant.steps": "count",
    "model.validate_decay_s": "s",
    "certificate.derive_inequality_s": "s",
    "certificate.derive_inequality.calls": "count",
    "certificate.search_exponential_s": "s",
    "certificate.check_weight_s": "s",
    "certificate.verify_solution_bound_s": "s",
    "cli.main_s": "s",
    "ioutil.write_text_atomic_s": "s",
    "ioutil.bytes_written": "B",
}
PER_SETUP = ("model.build_problem_s", "model.load_problem_s")  # summed over one traced set-up


def layer_metrics(tracer, setup_stats, traced_times, untraced_times, per_round, scaling):
    stats, n_ops = tracer.stats, len(traced_times)
    metrics = {name: (stats[name] / n_ops, unit) for name, unit in PER_OP.items()}
    metrics.update({name: (setup_stats[name], "s") for name in PER_SETUP})
    # One array evaluate per step attempt; attempts beyond one per grid
    # step are halvings and refinement sub-steps.
    attempts = stats["solver.solve.array_calls"]
    steps = stats["solver.solve.nodes"] - stats["solver.solve.calls"]
    metrics["solver.solve.attempts"] = (attempts / n_ops, "count")
    metrics["solver.solve.retries"] = ((attempts - steps) / n_ops, "count")
    for nodes, seconds in scaling.items():
        metrics[f"solver.solve_s.n{nodes}"] = (seconds, "s")
    (n1, t1), (n2, t2) = list(scaling.items())[-2:]
    metrics["solver.solve.scaling_exponent"] = (math.log(t2 / t1) / math.log(n2 / n1), "1")
    metrics["certificate.bound_over_majorant"] = (tracer.bound_over_majorant(), "ratio")
    traced = op_median(traced_times, per_round)
    metrics["trace.op_median_s"] = (traced, "s")
    metrics["trace.overhead_s"] = (traced - op_median(untraced_times, per_round), "s")
    return metrics


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def run_workload(args):
    import tracing
    import workloads

    workdir = WORK / args.workload
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            ops = workloads.setup(args.workload, workdir, args.seed)
        finally:
            tracer.uninstall()
        setup_stats, tracer.stats = tracer.stats, defaultdict(float)
        untraced, failed_a, problems_a = run_rounds(ops, args.seconds / 2.0)
        tracer.install()
        try:
            traced, failed_b, problems_b = run_rounds(ops, args.seconds / 2.0, tracer)
        finally:
            tracer.uninstall()
        metrics = layer_metrics(tracer, setup_stats, traced, untraced, len(ops), solve_scaling())
        times, failed, problems = untraced + traced, failed_a + failed_b, problems_a + problems_b
        trace_file = WORK / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps(
            {"setup_stats": setup_stats, "op_stats": tracer.stats, **tracer.span_rows()}
        ))
    else:
        setups = [fresh_setup_seconds(args.workload, args.seed) for _ in range(SETUP_PROBES)]
        ops = workloads.setup(args.workload, workdir, args.seed)
        times, failed, problems = run_rounds(ops, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        metrics = {
            "op_median_s": (op_median(times, len(ops)), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    for item in problems:
        print(f"CHECK FAILED {item}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": len(times),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }, times


def run_all(args):
    """Each workload in its own process, so peak memory is per workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOAD_NAMES:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S + 60)
        lines = child.stdout.splitlines()
        if child.returncode != 0 or not lines:
            print(f"{workload}: exited {child.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            total["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(total))
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        load_program()
    except ImportError as exc:
        print(f"cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        import workloads

        workloads.setup(args.workload, WORK / args.workload, args.seed)
        print("ready", flush=True)
        return 0
    result, times = run_workload(args)
    summary = ", ".join(f"{name} {m['value']:.6g} {m['unit']}" for name, m in result["metrics"].items())
    print(f"{args.workload} seed {args.seed}: {result['attempted']} operations, "
          f"{result['failed']} failed, correct={result['correct']}; {summary}")
    WORK.mkdir(parents=True, exist_ok=True)
    line = json.dumps(result)
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "op_times_s": times}) + "\n"
    )
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
