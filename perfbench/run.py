#!/usr/bin/env python3
"""Build and run the spstream benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds the
driver (perfbench/CMakeLists.txt, Release) against the library sources in
src/ into .bench_build/perfbench; later calls only let the build tool check
that it is up to date. Build output goes to stderr, so the last line of
stdout is the driver's JSON result. `--workload all` runs every workload,
untraced and traced, each in its own process, and ends with one JSON line
that merges them.
"""
import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["enforce_select", "join_window", "net_loopback"]
# A run measures --seconds, plus set-up, warm-up and reference checks; the
# driver also stops itself after 120 s of timed epochs.
RUN_TIMEOUT_S = 175


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configure once, then build; returns the driver's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: spstream sources (src/) not found next to "
                 "perfbench/; run from a full checkout")
    out = build_dir()
    # Compiler temporaries stay inside the build tree too.
    env = dict(os.environ, TMPDIR=os.path.join(out, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent runs share one build
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            subprocess.run(cmd, stdout=sys.stderr, env=env, check=True)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", out, "-j", jobs],
                       stdout=sys.stderr, env=env, check=True)
    return os.path.join(out, "perfbench_driver")


def run_one(driver, workload, seed, seconds, trace):
    """Run one workload in its own process; returns (exit code, stdout)."""
    cmd = [driver, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, workload + ".json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: %s timed out" % workload, file=sys.stderr)
        return 1, ""
    return proc.returncode, proc.stdout


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = p.parse_args()

    try:
        driver = build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("perfbench: build failed: %s" % e)

    if args.workload != "all":
        code, out = run_one(driver, args.workload, args.seed, args.seconds,
                            args.trace)
        sys.stdout.write(out)
        return code

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            rc, out = run_one(driver, workload, args.seed, args.seconds, trace)
            sys.stdout.write(out)
            sys.stdout.flush()
            lines = out.strip().splitlines()
            if rc != 0 or not lines:
                code = 1
                merged["correct"] = False
                continue
            result = json.loads(lines[-1])
            merged["correct"] &= result["correct"]
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
            for name, m in result["metrics"].items():
                merged["metrics"][workload + "/" + name] = m
    print(json.dumps(merged))
    return code


if __name__ == "__main__":
    sys.exit(main())
