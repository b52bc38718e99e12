#!/usr/bin/env python3
"""Service benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. Builds an optimized copy of the library and the
benchmark with CMake (into $CARGO_TARGET_DIR, default .bench_build), runs the
workload in its own process, and prints one JSON object as the last line of
standard output:

  --trace 0  every end-to-end metric, measured with tracing off;
  --trace 1  the workload twice with the same seed, untraced then traced, each
             in its own process: the per-layer metrics of the traced run, plus
             trace_overhead.<metric> = traced minus untraced end-to-end value.

Lines before it give the human summary, the accounting, the result details
(tail percentile used, sample counts, input hash) and the provenance. Exits
non-zero without a result when the build fails or the program sources are
missing, and with a result marked "correct": false when a check failed.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("hugehost_pods", "planetlab_churn", "brite_enumerate")
# Deadline of one workload pass, build excluded: set-ups (3 hugehost_pods
# hosts take ~15 s) plus the timed phase, the traced replay (half of it) and
# shutdown.
PASS_SETUP_ALLOWANCE_S = 35
PASS_SECONDS_FACTOR = 2.5


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "service", "service.hpp")):
        log("perfbench: program sources (src/) not found next to perfbench/")
        return None
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    cmd = ["cmake", "--build", out, "-j", "4", "--target", *targets]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        return None
    return out


def git_provenance():
    def git(*args):
        try:
            r = subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                               text=True, timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return r.stdout.strip() if r.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    if sha is None:
        return {"git_sha": "unavailable", "git_dirty": None}
    return {"git_sha": sha, "git_dirty": bool(git("status", "--porcelain"))}


def run_pass(binary, args, traced, deadline):
    """One workload pass in its own process; returns the parsed result file."""
    out = build_dir()
    tag = f"{args.workload}-seed{args.seed}-{'traced' if traced else 'untraced'}"
    result_path = os.path.join(out, "results", tag + ".json")
    os.makedirs(os.path.dirname(result_path), exist_ok=True)
    if os.path.exists(result_path):
        os.remove(result_path)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "1" if traced else "0",
           "--result", result_path]
    if traced:
        cmd += ["--trace-out", os.path.join(out, "traces", tag + ".jsonl")]
        os.makedirs(os.path.join(out, "traces"), exist_ok=True)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log("perfbench: workload pass timed out")
        return None
    finally:
        # Also reached when run.py itself is terminated (see main).
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    sys.stdout.write(stdout)
    if proc.returncode not in (0, 1) or not os.path.isfile(result_path):
        log(f"perfbench: workload pass exited with {proc.returncode}")
        return None
    with open(result_path) as f:
        return json.load(f)


def default_seconds():
    """run_seconds of BENCHMARK.json, which the bounds were sized on."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return float(json.load(f)["run_seconds"])


def selftest():
    out = build(["perfbench_selftest"])
    if out is None:
        return 2
    return subprocess.run([os.path.join(out, "perfbench_selftest")]).returncode


def main():
    # Turn SIGTERM into an exception so that a running workload pass is
    # killed and reaped instead of left behind.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=default_seconds())
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if args.workload is None:
        parser.error("--workload is required")

    out = build(["perfbench"])
    if out is None:
        return 2
    binary = os.path.join(out, "perfbench")
    passes = 2 if args.trace else 1
    deadline = time.monotonic() + passes * (
        PASS_SETUP_ALLOWANCE_S + PASS_SECONDS_FACTOR * args.seconds)

    untraced = run_pass(binary, args, False, deadline)
    if untraced is None:
        return 1
    final = untraced
    metrics = untraced["metrics"]
    if args.trace:
        traced = run_pass(binary, args, True, deadline)
        if traced is None:
            return 1
        final = traced
        metrics = dict(traced["per_layer"])
        for name, m in untraced["metrics"].items():
            metrics["trace_overhead." + name] = {
                "value": traced["metrics"][name]["value"] - m["value"],
                "unit": m["unit"]}
        if not untraced["correct"]:
            final["correct"] = False

    provenance = dict(final["provenance"], **git_provenance())
    print(json.dumps({"accounting": final["accounting"],
                      "violations": final["violation_samples"]}))
    print(json.dumps({"detail": final["detail"]}))
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({"correct": bool(final["correct"]),
                      "attempted": int(final["attempted"]),
                      "failed": int(final["failed"]),
                      "metrics": metrics}))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
