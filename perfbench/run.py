#!/usr/bin/env python3
"""The repository benchmark: one seeded command per workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \\
        --trace <0|1>

Run it from the root of a checkout.  It builds perfbench_driver and
isamore_serve from this checkout's sources into .bench_build/perfbench,
runs the workload, checks every output, prints a table of every metric
with its unit and sample count, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are its per-layer metrics, from a separate probing
run.  --workload all runs every workload in turn.  The exit code is 0
when every check passed, 1 when one failed or the build did not succeed,
and 2 on bad usage.  See perfbench/README.md for the workloads.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")
SERVE = os.path.join(BUILD_DIR, "isamore_serve")
sys.path.insert(0, HERE)

import harness  # noqa: E402
import serve  # noqa: E402

WORKLOADS = {
    "fig10_small": harness.SMALL_KERNELS,
    "fig10_au": harness.AU_KERNELS,
    "serve_mixed": harness.SMALL_KERNELS,
}
# A run-mode driver may take this long beyond --seconds: set-up, and a
# first pass that always runs (about 30 s on fig10_au).  Probe mode does a
# fixed amount of work, about a minute on fig10_au.
DRIVER_MARGIN_S = 120
PROBE_TIMEOUT_S = 150


def load_benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    return spec, units


def load_expected():
    with open(os.path.join(HERE, "expected_fig10.json")) as f:
        return json.load(f)["best_speedup"]


def build():
    """Configure (once) and build the driver and the daemon; the build log
    goes to .bench_build/perfbench/build.log."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    with open(log_path, "ab") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=log).returncode != 0:
                with open(log_path, errors="replace") as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write(f"perfbench: build step failed: "
                                 f"{' '.join(step)}\n")
                # A failed configure must not leave a cache that skips
                # configuring next time.
                cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
                if step[1] == "-S" and os.path.exists(cache):
                    os.remove(cache)
                return False
    return True


def run_driver(args, timeout_s, stdin_text=""):
    """Run perfbench_driver; returns its JSON lines by event."""
    proc = subprocess.run([DRIVER, *args], input=stdin_text.encode(),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=timeout_s)
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench_driver {args[0]} exited "
                           f"{proc.returncode}: "
                           f"{proc.stderr.decode(errors='replace')[-2000:]}")
    events = {}
    for line in proc.stdout.decode().splitlines():
        obj = json.loads(line)
        events.setdefault(obj["event"], []).append(obj)
    return events


class Report:
    """Collects the printed rows and the BENCHMARK.json metrics of a run."""

    def __init__(self, units):
        self.units = units
        self.metrics = {}
        self.problems = []
        self.attempted = 0
        self.failed = 0

    def row(self, name, value, unit, note=""):
        print(f"  {name:<28} {value:>14.6g} {unit:<7} {note}")

    def timing(self, name, values, unit):
        """Print a timing as its median, the highest percentile with at
        least ten samples beyond it, and the sample count."""
        p = harness.reportable_percentile(len(values))
        note = f"n={len(values)}"
        if p is not None and p != 50:
            note += f"  p{p:g}={harness.percentile(values, p):.6g}"
        self.row(name, statistics.median(values), unit, note)

    def metric(self, name, value, note=""):
        """A metric of the final JSON line (also printed)."""
        self.metrics[name] = value
        self.row(name, value, self.units[name], note)

    def result(self):
        return {
            "correct": self.failed == 0 and not self.problems,
            "attempted": max(1, self.attempted),
            "failed": self.failed,
            "metrics": {n: {"value": v, "unit": self.units[n]}
                        for n, v in self.metrics.items()},
        }

    def print_checks(self):
        ratio = self.failed / max(1, self.attempted)
        print(f"  {'fail_ratio':<28} {ratio:>14.6g} {'ratio':<7} "
              f"failed={self.failed} attempted={self.attempted}")
        for p in self.problems[:20]:
            print(f"  CHECK FAILED: {p}")


def kernel_rows(docs, expected, t1_ms=None, t4_ms=None):
    """Per-kernel quality table (and times, when given)."""
    print("  per kernel: best_speedup area_at_best_um2 front_size "
          "paper_ratio" + ("  identify_ms_t1 identify_ms_t4" if t1_ms else ""))
    for k, doc in docs.items():
        front = harness.front_of(doc)
        best = max(front)
        times = (f"  {statistics.median(t1_ms[k]):.6g} "
                 f"{statistics.median(t4_ms[k]):.6g}" if t1_ms else "")
        print(f"    rii.{k:<10} {best[0]:.6g} {best[1]:.6g} {len(front)} "
              f"{best[0] / expected[k]:.4f}{times}")


def check_docs(report, ops):
    """Kernel-op checks: no error, not degraded, a Pareto front, and one
    document per kernel at every thread count and pass (seconds line
    removed).  Returns the reference document per kernel."""
    reference = {}
    for op in ops:
        where = f"{op['kernel']} pass {op['pass']} at {op['threads']} threads"
        problems = []
        if "error" in op:
            problems.append(f"{where}: threw {op['error']}")
        else:
            if op["degraded"]:
                problems.append(f"{where}: degraded run")
            problems += [f"{where}: {p}" for p in
                         harness.pareto_problems(harness.front_of(op["doc"]))]
            first = reference.setdefault(op["kernel"], op["doc"])
            if not harness.same_result(first, op["doc"]):
                problems.append(f"{where}: document differs from the first "
                                "run of this kernel")
        report.attempted += 1
        report.failed += bool(problems)
        report.problems += problems
    return reference


def kernel_workload(report, name, seed, seconds, expected):
    kernels = WORKLOADS[name]
    orders = harness.kernel_orders(seed, kernels, harness.MAX_PASSES)
    events = run_driver(
        ["run", "--kernels", ",".join(kernels), "--seconds", str(seconds)],
        seconds + DRIVER_MARGIN_S, "".join(",".join(o) + "\n" for o in orders))
    ops = events.get("op", [])
    docs = check_docs(report, ops)
    passes = sorted({op["pass"] for op in ops})

    def pass_sums(key, threads):
        return [sum(op[key] for op in ops
                    if op["pass"] == p and op["threads"] == threads)
                for p in passes]

    per_kernel = {t: {k: [op["seconds"] * 1e3 for op in ops
                          if op["kernel"] == k and op["threads"] == t]
                      for k in kernels} for t in (1, 4)}

    setup = [e["seconds"] for e in events["setup"]]
    report.metric("setup_s", statistics.median(setup), f"n={len(setup)}")
    report.metric("identify_s_t1", statistics.median(pass_sums("seconds", 1)),
                  f"n={len(passes)} passes")
    # The 4-thread gate is CPU time: hypervisor steal swings the 4-thread
    # wall time far past any bound (README.md), so that is printed only.
    report.metric("identify_cpu_s_t4",
                  statistics.median(pass_sums("cpu_seconds", 4)),
                  f"n={len(passes)} passes, all threads")
    report.timing("identify_s_t4", pass_sums("seconds", 4), "s")
    report.metric("peak_rss_mb", events["end"][0]["peak_rss_kb"] / 1024.0,
                  "driver process VmHWM")
    if len(docs) == len(kernels):
        report.metric("best_speedup_geomean", harness.geomean(
            [harness.best_speedup(d) for d in docs.values()]),
            f"n={len(docs)} kernels")
        kernel_rows(docs, expected, per_kernel[1], per_kernel[4])
    else:
        report.problems.append("some kernel never produced a result")


def serve_run(report, seed, seconds):
    result = serve.run(SERVE, os.path.join(BUILD_DIR, "serve.stderr"),
                       seed, seconds)
    report.attempted += result["attempted"]
    report.failed += result["failed"]
    report.problems += result["problems"]
    for key, kernel_doc in result["reference"].items():
        report.problems += [f"{key}: {p}" for p in harness.pareto_problems(
            harness.front_of(kernel_doc))]
    return result


def serve_workload(report, seed, seconds, expected):
    result = serve_run(report, seed, seconds)
    report.metric("setup_s", result["setup_s"],
                  f"n={serve.SETUP_REPS} daemon start-ups")
    passes = f"n={result['pinned_passes']} pinned daemon passes"
    report.metric("identify_s_t1", statistics.median(result["pass_s"][1]),
                  passes)
    report.metric("identify_cpu_s_t4",
                  statistics.median(result["pass_cpu_s"][4]),
                  passes + ", daemon CPU")
    report.timing("identify_s_t4", result["pass_s"][4], "s")
    report.metric("peak_rss_mb", result["peak_rss_mb"], "daemon VmHWM")
    docs = result["reference"]
    if len(docs) == len(WORKLOADS["serve_mixed"]):
        report.metric("best_speedup_geomean", harness.geomean(
            [harness.best_speedup(d) for d in docs.values()]),
            f"n={len(docs)} kernels")
        kernel_rows(docs, expected)
    else:
        report.problems.append("some kernel never produced a result")
    serve_rows(report, result)


def serve_rows(report, result):
    """The open-loop numbers: latency per class, goodput, server layer."""
    if result["uncached_ms"]:
        report.timing("uncached_p50_ms", result["uncached_ms"], "ms")
        report.row("uncached_p90_ms",
                   harness.percentile(result["uncached_ms"], 90), "ms",
                   f"n={len(result['uncached_ms'])}")
    if result["cached_ms"]:
        report.timing("cached_p50_ms", result["cached_ms"], "ms")
        report.row("cached_p90_ms",
                   harness.percentile(result["cached_ms"], 90), "ms",
                   f"n={len(result['cached_ms'])}")
    report.row("goodput_rps", result["goodput_rps"], "1/s",
               f"ok within {harness.GOODPUT_LIMIT_MS:g} ms over "
               f"{result['open_loop_s']:g} s")
    if result["server.service_ms"]:
        report.timing("server.service_ms_p50", result["server.service_ms"],
                      "ms")
    if result["server.queue_wait_ms"]:
        waits = result["server.queue_wait_ms"]
        report.timing("server.queue_wait_ms_p50", waits, "ms")
        report.row("server.queue_wait_ms_p90", harness.percentile(waits, 90),
                   "ms", f"n={len(waits)}")
    report.row("server.cache_hit_ratio", result["server.cache_hit_ratio"],
               "ratio")
    report.row("server.shed", result["server.shed"], "count")
    report.row("gen.late_ms_max", result["gen.late_ms_max"], "ms")


def layer_metrics(process, rows):
    """Workload-level per-layer metrics from the probe's per-kernel rows."""
    def total(key):
        return sum(r[key] for r in rows)

    out = {name: total(name) for name in (
        "ir.unroll_ms", "ir.simplify_ms", "ir.instructions",
        "profile.interp_ms", "frontend.restructure_ms", "frontend.encode_ms",
        "frontend.eclasses", "egraph.eqsat_ms", "egraph.search_ms",
        "egraph.apply_ms", "egraph.rebuild_ms", "egraph.applications",
        "egraph.peak_nodes", "egraph.extract_ms", "au.sweep_ms",
        "au.pairs_explored", "au.raw_candidates", "cost.evaluate_ms",
        "cost.evaluations", "select.ms", "select.front_size",
        "extract.evals", "pool.tasks", "pool.steals", "corpus.cold_ms",
        "corpus.warm_ms")}
    out["rules.library_ms"] = process["rules.library_ms"]
    out["dsl.intern_live_nodes"] = process["dsl.intern_live_nodes"]
    out["au.patterns"] = total("patterns")
    hits, misses = total("au.memo_hits"), total("au.memo_misses")
    out["au.memo_hit_ratio"] = hits / max(1, hits + misses)
    out["au.kept_ratio"] = out["au.patterns"] / max(1, out["au.raw_candidates"])
    out["cost.positive_ratio"] = (total("cost.positive") /
                                  max(1, out["cost.evaluations"]))
    out["trace.overhead_ratio"] = (total("identify_traced_ms") /
                                   total("identify_ms_t4"))
    out["rii.identify_ms_t1"] = total("identify_ms_t1")
    out["rii.identify_ms_t4"] = total("identify_ms_t4")
    out["rii.phases"] = total("phases")
    out["rii.front_size"] = total("front_size")
    out["rii.paper_ratio_min"] = min(r["paper_ratio"] for r in rows)
    return out


KERNEL_COLUMNS = (
    "identify_ms_t1", "identify_ms_t4", "phases", "raw_candidates",
    "best_speedup", "area_at_best_um2", "front_size", "paper_ratio",
    "ir.instructions", "frontend.eclasses", "egraph.eqsat_ms",
    "egraph.peak_nodes", "au.sweep_ms", "au.pairs_explored",
    "au.raw_candidates", "cost.evaluate_ms", "select.ms", "corpus.cold_ms",
    "corpus.warm_ms")


def traced_workload(report, name, seed, seconds, expected):
    order = harness.kernel_orders(seed, WORKLOADS[name], 1)[0]
    events = run_driver(["probe", "--kernels", ",".join(order)],
                        PROBE_TIMEOUT_S)
    rows = events.get("kernel", [])
    report.attempted += len(order)
    missing = len(order) - len(rows)
    report.failed += missing
    if missing:
        report.problems.append(f"{missing} kernels missing from the probe")
        return
    for r in rows:
        r["paper_ratio"] = r["best_speedup"] / expected[r["kernel"]]
    for metric_name, value in sorted(
            layer_metrics(events["process"][0], rows).items()):
        report.metric(metric_name, value)
    print("  per kernel (rii.<kernel>.<column>):")
    print("    " + " ".join(f"{c:>16}" for c in ("kernel",) + KERNEL_COLUMNS))
    for r in rows:
        print("    " + " ".join(f"{r['kernel']:>16}" if c == "kernel" else
                                f"{r[c]:>16.6g}"
                                for c in ("kernel",) + KERNEL_COLUMNS))
    if name == "serve_mixed":
        serve_rows(report, serve_run(report, seed, seconds))


def run_workload(name, seed, seconds, trace, units, expected):
    report = Report(units)
    print(f"== {name}  seed={seed}  seconds={seconds}  "
          f"{'traced (per-layer)' if trace else 'untraced (end-to-end)'}")
    try:
        if trace:
            traced_workload(report, name, seed, seconds, expected)
        elif name == "serve_mixed":
            serve_workload(report, seed, seconds, expected)
        else:
            kernel_workload(report, name, seed, seconds, expected)
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        report.attempted += 1
        report.failed += 1
        report.problems.append(f"run aborted: {e!r}")
    report.print_checks()
    return report.result()


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    try:
        spec, units = load_benchmark_spec()
        expected = load_expected()
    except (OSError, ValueError, KeyError) as e:
        sys.stderr.write(f"perfbench: cannot read the benchmark spec: {e}\n")
        return 1
    if not build():
        return 1

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(n, args.seed, args.seconds, args.trace, units,
                            expected) for n in names]
    wanted = [m["name"] for m in
              spec["per_layer" if args.trace else "end_to_end"]]
    for n, result in zip(names, results):
        bad = [m for m, v in result["metrics"].items()
               if not math.isfinite(v["value"])]
        for m in bad:
            del result["metrics"][m]
        absent = [m for m in wanted if m not in result["metrics"]]
        if absent or bad:
            result["correct"] = False
            print(f"  {n}: metrics missing {absent}, not finite {bad}")
    if len(results) == 1:
        final = results[0]
    else:
        final = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{n}/{m}": v for n, r in zip(names, results)
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
