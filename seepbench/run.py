#!/usr/bin/env python3
"""The SEEP benchmark: one workload, one seed, one measurement.

    python3 seepbench/run.py --workload wc-steady --seed 1 --seconds 20 \
        --trace 0

Run from the root of a checkout. Builds the repository's src/ libraries and
the benchmark driver in Release under $CARGO_TARGET_DIR (default
.bench_build)/seepbench, runs the workload in a fresh working directory
under the same tree, and prints, as the last line of stdout, one JSON object
with the keys correct, attempted, failed and metrics. With --trace 0 the
metrics are the end-to-end metrics of BENCHMARK.json (timed runs, tracing
off); with --trace 1 they are the per-layer metrics (one traced run, the
audit pass and the layer replays). METRICS.md lists every metric.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("wc-steady", "wc-bigstate-failover", "lrb-scaleout", "wc-tcp")
# Every invocation ends within the 180 s budget, build excluded.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent


def log(message):
    print(f"seepbench: {message}", file=sys.stderr, flush=True)


def build_root():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build(build_dir):
    """Configures (once) and builds the Release benchmark binary."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs,
                  "--target", "seepbench"])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for step in steps:
        remaining = deadline - time.monotonic()
        result = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT, text=True,
                                timeout=max(1, remaining), check=False)
        if result.returncode != 0:
            sys.stderr.write(result.stdout[-4000:])
            return False
    return True


def provenance(binary_build):
    """Where a result came from: sources, compiler, build type, cores."""
    digest = hashlib.sha256()
    for top in ("src", "seepbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    git_sha = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            head = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                                   "HEAD"], capture_output=True, text=True,
                                  check=False, timeout=10)
            if head.returncode == 0:
                git_sha = head.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"git_sha": git_sha, "source_sha256": digest.hexdigest(),
            "compiler": binary_build.get("compiler", "unknown"),
            "build_type": binary_build.get("build_type", "unknown"),
            "nproc": os.cpu_count()}


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, if it is here."""
    definition = ROOT / "BENCHMARK.json"
    if not definition.exists():
        return None
    spec = json.loads(definition.read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not (ROOT / "src" / "CMakeLists.txt").exists():
        log(f"no SEEP sources under {ROOT}; run from a checkout's root")
        return 2
    build_dir = build_root() / "seepbench"
    try:
        if not build(build_dir):
            log("build failed")
            return 2
    except subprocess.TimeoutExpired:
        log("build timed out")
        return 2

    workdir = build_root() / "runs" / \
        f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    command = [str(build_dir / "seepbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--mode", "traced" if args.trace else "timed",
               "--workdir", str(workdir)]
    try:
        run = subprocess.run(command, cwd=workdir, capture_output=True,
                             text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        shutil.rmtree(workdir, ignore_errors=True)
        return 3
    sys.stderr.write(run.stderr[-4000:])
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        log(f"seepbench exited with {run.returncode}")
        shutil.rmtree(workdir, ignore_errors=True)
        return 3

    trace_file = workdir / "trace.json"
    if trace_file.exists():
        traces = build_root() / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        kept = traces / f"{args.workload}-seed{args.seed}.json"
        shutil.move(str(trace_file), kept)
        log(f"spans and layer aggregates written to {kept}")
    shutil.rmtree(workdir, ignore_errors=True)

    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    for reason in result.get("reasons", []):
        log(f"failure: {reason}")
    names = set(result["metrics"])
    expected = expected_metrics(args.trace)
    if expected is not None and names != expected:
        log(f"metrics differ from BENCHMARK.json: missing "
            f"{sorted(expected - names)}, "
            f"unexpected {sorted(names - expected)}")
        return 4
    print(json.dumps({"provenance": provenance(result.get("build", {})),
                      "workload": args.workload, "seed": args.seed,
                      "trace": args.trace}))
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
