#!/usr/bin/env python3
"""Build and run one workload of the repository benchmark.

    python3 perfbench/run.py --workload tune --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds the
library plus the benchmark (perfbench/CMakeLists.txt) into .bench_build/;
later runs only rebuild what changed. Workloads: tune, serve-single. The
last line of standard output is the JSON result printed by the benchmark
binary; any failure exits non-zero without one.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = ".bench_out"  # relative to ROOT: short unix-socket paths
WORKLOADS = ("tune", "serve-single")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        fail("library sources not found next to perfbench/; run from a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        run_build_step(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    run_build_step(["cmake", "--build", BUILD_DIR, "--target", "perfbench", "dfr_shard",
                    "-j", jobs])


def run_build_step(cmd):
    result = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        fail("build failed: " + " ".join(cmd))


def find_binary(name):
    for rel in (name, os.path.join("dfrlib", name)):
        path = os.path.join(BUILD_DIR, rel)
        if os.path.isfile(path):
            return path
    fail(f"built binary {name} not found under {BUILD_DIR}")


def stop_group(child):
    """Kill whatever is left of the workload's process group and reap it."""
    try:
        os.killpg(child.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    child.wait()


def source_identity():
    """The commit when run inside git, else a digest of the sources."""
    try:
        head = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        if head.returncode == 0 and head.stdout.strip():
            return head.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return "src-" + digest.hexdigest()[:12]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    cmd = [find_binary("perfbench"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--shard-bin", find_binary("dfr_shard"), "--out-dir", OUT_DIR,
           "--commit", source_identity()]
    # Own process group, so a timeout also stops the shard processes that
    # serve-single's traced run spawns.
    child = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             start_new_session=True)
    try:
        stdout, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(child)
        fail(f"workload did not finish within {RUN_TIMEOUT_S}s", 4)
    stop_group(child)  # shards left behind if the workload died abnormally
    lines = stdout.rstrip("\n").splitlines()
    for line in lines[:-1]:
        print(line)
    if child.returncode not in (0, 1) or not lines:
        if lines:
            print(lines[-1])
        fail(f"workload exited with status {child.returncode}", 3)
    try:
        parsed = json.loads(lines[-1])
    except json.JSONDecodeError:
        print(lines[-1])
        fail("last line of the workload output is not a JSON result", 3)
    if sorted(parsed) != ["attempted", "correct", "failed", "metrics"]:
        fail("result line has unexpected keys", 3)
    if child.returncode != 0 or not parsed["correct"]:
        print(lines[-1])
        fail("output check failed", 1)
    print(lines[-1])


if __name__ == "__main__":
    main()
