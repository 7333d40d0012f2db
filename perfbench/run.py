"""netrank benchmark: one workload per process, a closed loop with one client.

Run from the repository root:

    python3 perfbench/run.py --workload dense-exact --seed 1 --seconds 50 --trace 0

Every operation is an in-process call to netrank.cli.main(argv), or to
netrank.is_regular, and every output is checked against the benchmark's own
numpy reference outside the timed region.  The last line of stdout is one
JSON object {"correct", "attempted", "failed", "metrics"}; the line before it
holds the details (environment, sample counts, percentiles, failures).

With --trace 0 the metrics are the end-to-end ones: setup_s (median of five
set-up processes), pass_s (median time of one pass, the sum of its calls),
main_call_s (median time of the workload's main call, its `main` kind) and
peak_rss_mb.  Every other kind of call is reported in the details by the
same statistics but not gated.  With --trace 1 the run alternates untraced
and traced passes and reports per-layer metrics from the traced ones.
"""

from __future__ import annotations

import os

# pinned before numpy is imported here or in any child process: two OpenBLAS
# threads on a two-core machine made the dense solves both slower and noisier
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5


def parse_args(argv=None):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--child", choices=("setup", "reference"), help=argparse.SUPPRESS)
    p.add_argument("--work", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_netrank():
    if not (SRC / "netrank" / "__init__.py").is_file():
        sys.exit(f"error: netrank sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import netrank

    if Path(netrank.__file__).resolve().parent != SRC / "netrank":
        sys.exit(f"error: imported netrank from {netrank.__file__}, not from {SRC}")
    import netrank.cli  # noqa: F401  (the tracer wraps names in every submodule)

    return netrank


def run_child(args) -> None:
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](Path(args.work), args.seed)
    if args.child == "setup":
        workload.generate(import_netrank())
    else:
        workload.references()


def spawn(args, kind: str, work: Path) -> float:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--child", kind, "--work", str(work)]
    start = time.perf_counter()
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def environment(np) -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "machine": platform.machine(),
    }


def summary(values: list[float]) -> dict:
    """Median, quartiles, and the highest percentile with >= 10 samples beyond it."""
    out = {"n": len(values), "median": statistics.median(values) if values else None}
    if len(values) >= 2:
        q = statistics.quantiles(values, n=4)
        out["q1"], out["q3"] = q[0], q[2]
    if len(values) > 10:
        k = len(values) - 10  # the k-th smallest has 10 samples above it
        out["tail"] = {"pct": int(100 * k / len(values)), "value": sorted(values)[k - 1]}
    return out


class Runner:
    def __init__(self, workload, tracer):
        self.workload = workload
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []
        self.passes: list[dict] = []  # {"traced", "ops": [(kind, seconds)]}
        self.output_bytes = 0
        self._op_id = 0

    def one_pass(self, index: int, traced: bool, record: bool) -> float:
        if traced:
            self.tracer.install()
        try:
            ops = []
            for op in self.workload.ops(index):
                if op.output is not None:
                    op.output.unlink(missing_ok=True)
                self._op_id += 1
                seconds, result, error = self.call(op, traced)
                ops.append((op.kind, seconds))
                self.attempted += 1
                if error is None:
                    ok, why = op.check(result)
                else:
                    ok, why = False, error
                if not ok:
                    self.failures.append(f"pass {index} {op.kind}: {why}")
                if not record:
                    continue
                if op.output is not None and op.output.exists():
                    self.output_bytes += op.output.stat().st_size
                elif isinstance(result, tuple):
                    self.output_bytes += len(result[1])
        finally:
            if traced:
                self.tracer.uninstall()
        if record:
            self.passes.append({"traced": traced, "ops": ops})
        return sum(seconds for _, seconds in ops)

    def call(self, op, traced):
        """(seconds, result, error) of one call; only op.run is timed."""
        start = None
        try:
            if op.prepare is not None:
                op.prepare()
            if traced:
                with self.tracer.op(op.kind, self._op_id):
                    start = time.perf_counter()
                    result = op.run()
                    seconds = time.perf_counter() - start
            else:
                start = time.perf_counter()
                result = op.run()
                seconds = time.perf_counter() - start
        except Exception as exc:  # a crash is a failed operation, reported by name
            seconds = 0.0 if start is None else time.perf_counter() - start
            return seconds, None, f"{type(exc).__name__}: {exc}"
        return seconds, result, None


def call_times(passes) -> dict[str, list[float]]:
    """Every call's time, by kind, in the order run."""
    times: dict[str, list[float]] = {}
    for p in passes:
        for kind, seconds in p["ops"]:
            times.setdefault(kind, []).append(seconds)
    return times


def layer_metrics(tracer, runner, pass_times) -> tuple[dict, dict]:
    """Per-layer self times and work counts, per traced pass."""
    from tracer import BUCKET, COUNT, END, LAYER, LAYERS, NAME, START

    spans = tracer.spans
    own = tracer.self_times()
    traced = [p["traced"] for p in runner.passes]
    npass = sum(traced)
    total = {}

    def add(key, value):
        total[key] = total.get(key, 0.0) + value

    exact_by_m = {}
    witnesses = []
    for s, t in zip(spans, own):
        layer, bucket = s[LAYER], s[BUCKET]
        if layer == "op":
            add("cli.self_s", t)
            add("trace.op_s", s[END] - s[START])
            continue
        add(f"{layer}.self_s", t)
        add(f"{layer}.{bucket}_s", t)
        add(f"{layer}.{bucket}_calls", 1)
        count = s[COUNT]
        if count is None:
            continue
        if bucket in ("parse",):
            add("graph_core.parse_mb", count)
        elif s[NAME] == "load_edge_list":
            add("graph_core.edges", count)
        elif s[NAME] == "patch_zero_rows":
            add("graph_core.zero_rows", count)
        elif layer == "chain_builder" and bucket == "build":
            add("chain_builder.dense_mb", count)
        elif s[NAME] == "is_regular":
            witnesses.append(count)
        elif s[NAME] == "eigenvalue_one_space":
            add("eigenrank.exact_gflop", 2.0 / 3.0 * count**3 / 1e9)
            exact_by_m.setdefault(count, []).append(s[END] - s[START])
        elif s[NAME] == "stationary_power":
            iters, m = count
            add("eigenrank.power_iters", iters)
            add("eigenrank.power_gb", 8.0 * m * m * iters / 1e9)
        elif s[NAME] == "invariance_sweep":
            add("experiments.sweep_points", count)

    def per_pass(key):
        return total.get(key, 0.0) / npass

    names = [
        "graph_core.parse_s", "graph_core.parse_mb", "graph_core.edges_s", "graph_core.edges",
        "graph_core.patch_s", "graph_core.zero_rows", "graph_core.self_s",
        "chain_builder.build_s", "chain_builder.dense_mb", "chain_builder.regular_s",
        "chain_builder.self_s",
        "eigenrank.exact_s", "eigenrank.exact_gflop", "eigenrank.power_s",
        "eigenrank.power_iters", "eigenrank.power_gb", "eigenrank.self_s",
        "rank_stats.rank_s", "rank_stats.compare_s", "rank_stats.self_s",
        "experiments.gen_s", "experiments.sweep_s", "experiments.sweep_points",
        "experiments.self_s", "cli.self_s", "trace.op_s",
    ]
    metrics = {k: per_pass(k) for k in names}
    metrics["eigenrank.exact_calls"] = per_pass("eigenrank.exact_calls")
    metrics["rank_stats.calls"] = per_pass("rank_stats.rank_calls") + per_pass(
        "rank_stats.compare_calls") + per_pass("rank_stats.other_calls")
    valid = [w for w in witnesses if w is not None]
    metrics["chain_builder.witness_k"] = statistics.median(valid) if valid else 0
    metrics["cli.output_mb"] = runner.output_bytes / 1e6 / len(runner.passes)
    metrics["eigenrank.ref_err_max"] = runner.workload.stats.ref_err_max
    metrics["eigenrank.residual_l1_max"] = runner.workload.stats.residual_l1_max
    # each traced pass against the untraced pass just before it, so that a
    # drift in machine speed over the run cancels out
    ratios = [pass_times[i] / pass_times[i - 1] for i in range(1, len(pass_times))
              if traced[i] and not traced[i - 1]]
    metrics["trace.overhead_frac"] = statistics.median(ratios) - 1.0
    layer_sum = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
    detail = {
        "traced_passes": npass,
        "untraced_passes": len(traced) - npass,
        "spans": len(spans),
        "accounted_frac": layer_sum / metrics["trace.op_s"],
        "exact_s_by_m": {m: statistics.median(v) for m, v in sorted(exact_by_m.items())},
    }
    return metrics, detail


UNITS = {"s": "s", "mb": "MB", "gflop": "GFLOP", "gb": "GB", "frac": "ratio",
         "max": "ratio"}


def unit_of(name: str) -> str:
    return UNITS.get(name.rsplit("_", 1)[-1], "count")


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child:
        run_child(args)
        return 0
    process_start = time.perf_counter()
    nr = import_netrank()
    import numpy as np

    import_s = time.perf_counter() - process_start
    from tracer import Tracer
    from workloads import WORKLOADS

    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    # set-up: a fresh interpreter imports netrank and writes the inputs
    setup_times = [spawn(args, "setup", work) for _ in range(SETUP_REPEATS)]
    workload = WORKLOADS[args.workload](work, args.seed)
    ref_s = spawn(args, "reference", work)
    workload.load(nr)
    accepted = workload.selfcheck()

    tracer = Tracer() if args.trace else None
    runner = Runner(workload, tracer)
    warmup_s = runner.one_pass(0, traced=False, record=False)
    start = time.perf_counter()
    deadline = start + args.seconds
    index = 1
    pass_walls = []
    while True:
        t0 = time.perf_counter()
        runner.one_pass(index, traced=bool(args.trace) and index % 2 == 0, record=True)
        pass_walls.append(time.perf_counter() - t0)
        index += 1
        if time.perf_counter() + statistics.median(pass_walls) > deadline:
            if not args.trace or len(runner.passes) >= 2:
                break
    measured_s = time.perf_counter() - start

    passes = runner.passes
    pass_times = [sum(seconds for _, seconds in p["ops"]) for p in passes]
    calls = call_times(passes)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(np),
        "main_call": workload.main,
        "import_s": import_s,
        "setup_runs_s": setup_times,
        "reference_s": ref_s,
        "warmup_pass_s": warmup_s,
        "measured_s": measured_s,
        "passes": len(passes),
        "fail_ratio": len(runner.failures) / runner.attempted,
        "failures": runner.failures[:10],
        "selfcheck_accepted_bad_output": accepted,
    }
    if args.trace:
        values, detail["trace"] = layer_metrics(tracer, runner, pass_times)
        trace_file = work / "trace.json"
        from tracer import END, NAME, OP, PARENT, START

        trace_file.write_text(json.dumps([
            {"name": s[NAME], "start": s[START], "end": s[END], "parent": s[PARENT], "op_id": s[OP]}
            for s in tracer.spans]))
        detail["trace_file"] = str(trace_file.relative_to(ROOT))
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "pass_s": statistics.median(pass_times),
            "main_call_s": statistics.median(calls[workload.main]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        detail["pass_s"] = summary(pass_times)
        detail["calls"] = {f"{kind}_s": summary(t) for kind, t in calls.items()}
    metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()}
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not runner.failures and not accepted,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
