#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload damming --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30
    python3 perfbench/run.py --workload mesh_storm --seed 1 --seconds 45 --trace 1

Run from the repository root. The first call configures and builds the
simulator library (src/) and the runner (perfbench/src/) into
.bench_build/perfbench; later calls only rebuild what changed. The
runner's output is passed through unchanged: its last line is one JSON
object with the keys correct, attempted, failed and metrics. A traced run
also writes its spans to .bench_build/trace_<workload>.json.

Exits non-zero, printing no result, if the build fails (for example when
the simulator sources are missing) or the runner fails or overruns.
"""

import argparse
import hashlib
import os
import pathlib
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
RUNNER = BUILD_DIR / "perfbench_runner"
WORKLOADS = ("flood", "damming", "mesh_storm", "all")

BUILD_TIMEOUT_S = 840
# A single-workload run of up to ~60 s ends well inside this; longer or
# `all` runs get proportionally more (run_timeout()).
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_jobs():
    return str(max(1, min(4, len(os.sched_getaffinity(0)))))


def build():
    """Configure (once) and build the runner; output goes to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"simulator sources not found under {ROOT / 'src'}")
        return False
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", build_jobs()])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=max(1, deadline - time.monotonic()))
        except (OSError, subprocess.TimeoutExpired) as err:
            log(f"build step failed: {err}")
            return False
        if proc.returncode != 0:
            log(f"build step failed ({proc.returncode}): {' '.join(cmd)}")
            return False
    return RUNNER.is_file()


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=10)
            if proc.returncode == 0 and proc.stdout.strip():
                return proc.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "src-" + digest.hexdigest()[:12]


def run_timeout(workload, seconds):
    workloads = 3 if workload == "all" else 1
    return max(RUN_TIMEOUT_S, workloads * (2 * seconds + 30))


def run_runner(args, timeout):
    """Run the built runner with @p args; returns its exit code."""
    cmd = [str(RUNNER)] + args
    try:
        proc = subprocess.Popen(cmd, cwd=ROOT)
    except OSError as err:
        log(f"cannot start the runner: {err}")
        return 1
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"runner overran {timeout} s; stopping it")
        proc.kill()
        proc.wait()
        return 1


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a whole number")
    if not 0 < args.seconds <= 3600:
        parser.error("--seconds must be in (0, 3600]")

    if not build():
        return 1
    code = run_runner([
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
        "--scale", args.scale,
        "--trace-prefix", str(ROOT / ".bench_build" / "trace_"),
        "--source-id", source_id(),
    ], run_timeout(args.workload, args.seconds))
    if code != 0:
        log(f"runner exited with {code}")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
