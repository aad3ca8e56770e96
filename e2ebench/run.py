#!/usr/bin/env python3
"""End-to-end benchmark of the reconciler.

Builds `e2e_bench` from the repository's sources, generates a workload's
inputs from --seed, measures the workload for about --seconds seconds, checks
every output, and prints one JSON object as the last line of stdout:

  {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

  python3 e2ebench/run.py --workload match-cl-200k --seed 1 --seconds 20 --trace 0
  python3 e2ebench/run.py --workload serve-cl-20k --seed 1 --seconds 20 --trace 1
  python3 e2ebench/run.py --test      # the benchmark's own tests

--trace 0 reports the end-to-end metrics from untraced runs; --trace 1 runs
the traced pipeline and reports the per-layer metrics. See README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

# Workload name -> True for the serve stream, False for batch reconcile.
WORKLOADS = {"match-cl-200k": False, "ingest-er-2m": False, "serve-cl-20k": True}

SETUP_REPS = 2     # set-ups per run; setup_s is their median
MIN_JOBS = 3       # batch workloads: reconcile jobs per run, at least
MIN_COVERAGE = 0.95  # traced run: layer self time over traced wall time
RUN_BUDGET_S = 170   # a run exits within 180 s

END_TO_END = {
    "reconcile_s": "s",
    "peak_rss_mb": "MB",
    "precision": "ratio",
    "recall_new": "ratio",
    "batch_ms_p50": "ms",
    "batch_ms_p90": "ms",
    "deltas_per_s": "1/s",
    "setup_s": "s",
}

PER_LAYER = {
    "graph.read_s": "s",
    "graph.read_mb_per_s": "MB/s",
    "graph.build_s": "s",
    "graph.edges": "count",
    "core.match_s": "s",
    "core.rounds": "count",
    "core.round_s_max": "s",
    "core.emit_s": "s",
    "core.merge_s": "s",
    "core.scan_s": "s",
    "core.select_s": "s",
    "core.emissions": "count",
    "core.candidate_pairs": "count",
    "core.new_links": "count",
    "core.accept_ratio": "ratio",
    "core.match_s_1t": "s",
    "core.parallel_efficiency": "ratio",
    "eval.evaluate_s": "s",
    "eval.validate_s": "s",
    "serve.apply_batch_ms": "ms",
    "serve.deltas_applied": "count",
    "serve.dirty_links": "count",
    "serve.rescored_units": "count",
    "serve.replayed_rounds": "count",
    "serve.skipped_rounds": "count",
    "serve.skip_ratio": "ratio",
    "serve.rerun_s": "s",
    "gen.generate_s": "s",
    "sampling.sample_s": "s",
    "seed.generate_s": "s",
    "serve.initial_match_s": "s",
    "trace.overhead_pct": "%",
}


class BenchError(Exception):
    pass


def quantile(values, percent):
    """The `percent` quantile of `values`, interpolating between samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[percent - 1]


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build(target):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src" / "reconcile").is_dir():
        raise BenchError(f"reconcile sources not found in {ROOT}")
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(out), "-j4", "--target", target],
                   stdout=sys.stderr, check=True)
    return out / target


class Runner:
    """Runs benchmark steps as child processes within the run's time budget."""

    def __init__(self, binary, deadline):
        self.binary = binary
        self.deadline = deadline

    def step(self, *args):
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time")
        proc = subprocess.run([str(self.binary), *map(str, args)],
                              stdout=subprocess.PIPE, text=True, timeout=timeout)
        if proc.returncode != 0:
            raise BenchError(f"{args[0]} exited with {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


class Checks:
    """Counts checked operations and the ones whose output was wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)


def check_jobs(jobs, checks):
    """Each reconcile job is one-to-one, keeps every seed, and has the same
    matching and quality as the first."""
    first = jobs[0]
    for i, job in enumerate(jobs):
        checks.add(job["matching_ok"]
                   and job["digest"] == first["digest"]
                   and job["precision"] == first["precision"]
                   and job["recall_new"] == first["recall_new"],
                   f"reconcile job {i}")


def measure(runner, workload, seed, seconds, data):
    """--trace 0: the end-to-end metrics."""
    checks = Checks()
    setup = runner.step("setup", "--workload", workload, "--seed", seed,
                        "--dir", data, "--reps", SETUP_REPS)
    setup_s = statistics.median(setup["total_s"])
    if WORKLOADS[workload]:
        serve = runner.step("serve", "--dir", data, "--seed", seed,
                            "--seconds", seconds)
        checks.attempted += int(serve["checks"])
        checks.failed += int(serve["failed_checks"])
        checks.add(serve["deltas_applied"] == serve["deltas_in"],
                   "every delta changed the graphs")
        batch_ms = serve["batch_ms"]
        metrics = {
            "reconcile_s": statistics.median(serve["bringup_s"]),
            "peak_rss_mb": serve["peak_rss_mb"],
            "precision": serve["precision"],
            "recall_new": serve["recall_new"],
            "batch_ms_p50": quantile(batch_ms, 50),
            "batch_ms_p90": quantile(batch_ms, 90),
            "deltas_per_s": serve["deltas_applied"] / serve["apply_s"],
            "setup_s": setup_s + statistics.median(serve["initial_s"]),
        }
        print(f"{workload}: {len(batch_ms)} batches of 64 deltas, "
              f"{len(serve['bringup_s'])} bring-ups")
    else:
        jobs = []
        start = time.monotonic()
        while len(jobs) < MIN_JOBS or time.monotonic() - start < seconds:
            jobs.append(runner.step("reconcile", "--dir", data))
        check_jobs(jobs, checks)
        times = [job["total_s"] for job in jobs]
        metrics = {
            "reconcile_s": statistics.median(times),
            "peak_rss_mb": statistics.median(job["peak_rss_mb"] for job in jobs),
            "precision": jobs[0]["precision"],
            "recall_new": jobs[0]["recall_new"],
            "batch_ms_p50": 1e3 * quantile(times, 50),
            "batch_ms_p90": 1e3 * quantile(times, 90),
            "deltas_per_s": jobs[0]["edges"] / statistics.median(times),
            "setup_s": setup_s,
        }
        print(f"{workload}: {len(jobs)} reconcile jobs")
    return checks, metrics, END_TO_END


def phase_metrics(job):
    pairs = job["candidate_pairs"]
    return {
        "core.rounds": job["rounds"],
        "core.round_s_max": job["round_s_max"],
        "core.emit_s": job["emit_s"],
        "core.merge_s": job["merge_s"],
        "core.scan_s": job["scan_s"],
        "core.select_s": job["select_s"],
        "core.emissions": job["emissions"],
        "core.candidate_pairs": pairs,
        "core.new_links": job["new_links"],
        "core.accept_ratio": job["new_links"] / pairs if pairs else 0.0,
    }


def print_layers(title, step):
    wall = step["traced_wall_s"]
    print(f"{title}: traced wall {wall:.3f} s, layer spans cover "
          f"{100 * step['span_coverage']:.1f}%")
    for layer, self_s in sorted(step["layer_self_s"].items(), key=lambda kv: -kv[1]):
        print(f"  {layer:<10} self {self_s:10.4f} s  {100 * self_s / wall:6.2f}%")


def trace(runner, workload, seed, seconds, data):
    """--trace 1: the traced pipeline and the per-layer metrics."""
    checks = Checks()
    setup = runner.step("setup", "--workload", workload, "--seed", seed,
                        "--dir", data, "--trace", 1)
    traced = runner.step("reconcile", "--dir", data, "--trace", 1)
    plain = runner.step("reconcile", "--dir", data)
    single = runner.step("reconcile", "--dir", data, "--threads", 1)
    check_jobs([traced, plain, single], checks)
    steps = {"setup": setup, "reconcile": traced}

    total = traced["total_s"]
    metrics = {
        "graph.read_s": traced["read_s"],
        "graph.read_mb_per_s": traced["bytes_read"] / 1e6 / traced["read_s"],
        "graph.build_s": traced["build_s"],
        "graph.edges": traced["edges"],
        "core.match_s": traced["match_s"],
        **phase_metrics(traced),
        "core.match_s_1t": single["match_s"],
        "core.parallel_efficiency": single["match_s"] / (4 * plain["match_s"]),
        "eval.evaluate_s": traced["evaluate_s"],
        "eval.validate_s": traced["validate_s"],
        "gen.generate_s": setup["generate_s"][0],
        "sampling.sample_s": setup["sample_s"][0],
        "seed.generate_s": setup["seed_s"][0],
        "trace.overhead_pct": 100 * (total - plain["total_s"]) / plain["total_s"],
    }
    serve_metrics = dict.fromkeys(
        ["serve.apply_batch_ms", "serve.deltas_applied", "serve.dirty_links",
         "serve.rescored_units", "serve.replayed_rounds", "serve.skipped_rounds",
         "serve.skip_ratio", "serve.rerun_s", "serve.initial_match_s"], 0.0)
    if WORKLOADS[workload]:
        serve = runner.step("serve", "--dir", data, "--seed", seed,
                            "--seconds", seconds, "--trace", 1)
        checks.attempted += int(serve["checks"])
        checks.failed += int(serve["failed_checks"])
        steps["serve"] = serve
        batches = len(serve["batch_ms"])
        rounds = serve["replayed_rounds"] + serve["skipped_rounds"]
        serve_metrics = {
            "serve.apply_batch_ms": statistics.median(serve["batch_ms"]),
            "serve.deltas_applied": serve["deltas_applied"] / batches,
            "serve.dirty_links": serve["dirty_links"] / batches,
            "serve.rescored_units": serve["rescored_units"] / batches,
            "serve.replayed_rounds": serve["replayed_rounds"] / batches,
            "serve.skipped_rounds": serve["skipped_rounds"] / batches,
            "serve.skip_ratio": serve["skipped_rounds"] / rounds if rounds else 0.0,
            "serve.rerun_s": serve["rerun_s"],
            "serve.initial_match_s": statistics.median(serve["initial_s"]),
        }
    metrics.update(serve_metrics)

    spans = build_dir() / "spans"
    spans.mkdir(exist_ok=True)
    for path in data.glob("spans-*.json"):
        shutil.move(str(path), str(spans / f"{workload}-{path.name}"))
    print(f"spans written to {spans}")
    for name, step in steps.items():
        checks.add(step["span_coverage"] >= MIN_COVERAGE,
                   f"{name} spans cover {step['span_coverage']:.3f} of traced wall time")
        print_layers(f"{workload} {name}", step)
    print(f"{workload}: of reconcile_s {total:.3f} s, graph read+build "
          f"{100 * (traced['read_s'] + traced['build_s']) / total:.1f}%, core "
          f"merge+scan {100 * (traced['merge_s'] + traced['scan_s']) / total:.1f}%, "
          f"trace overhead {metrics['trace.overhead_pct']:+.2f}%")
    return checks, metrics, PER_LAYER


def run_tests():
    binary = build("e2e_test")
    tests = subprocess.run([str(binary)], cwd=binary.parent)
    names = subprocess.run([sys.executable, "-B", str(BENCH_DIR / "test_run.py")])
    return 0 if tests.returncode == 0 and names.returncode == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if args.test:
        return run_tests()
    if args.workload is None:
        parser.error("--workload is required")

    data = build_dir() / "data" / args.workload
    try:
        binary = build("e2e_bench")  # the first run's build is not budgeted
        runner = Runner(binary, time.monotonic() + RUN_BUDGET_S)
        shutil.rmtree(data, ignore_errors=True)
        run = trace if args.trace else measure
        checks, metrics, units = run(runner, args.workload, args.seed,
                                     args.seconds, data)
    except (BenchError, subprocess.SubprocessError, OSError, ValueError, KeyError) as error:
        print(f"run.py: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(data, ignore_errors=True)
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
