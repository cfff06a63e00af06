#!/usr/bin/env python3
"""Build and run one benchmark workload; print its result as one JSON line.

    python3 perfbench/run.py --workload spec-run|serve-echo|lockstep \\
        --seed N --seconds S --trace 0|1 [--break CHECK]

Run from the root of a source checkout. The benchmark is compiled from
source into the build directory named by $CARGO_TARGET_DIR (default
.bench_build), then perfbench/bench.exe measures the workload. This script
adds peak_rss_mb, the largest resident set of the benchmark process and
of the serving workers it forks, which only the parent of that process
can see once they have all exited.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import threading

BUILD_TIMEOUT_S = 870
RUN_TIMEOUT_S = 170


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("not at the root of a source checkout (no dune-project or lib/)")
    dune = shutil.which("dune")
    if dune is None:
        fail("dune is not on PATH")
    cmd = [dune, "build", "--root", ".", "--build-dir", build_dir,
           "--profile", "release", "--cache", "disabled",
           "./perfbench/bench.exe"]
    try:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if r.returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "default", "perfbench", "bench.exe")


def run(exe, argv):
    """Run the benchmark; return (exit status, stdout, peak RSS in MiB)."""
    p = subprocess.Popen([exe] + argv, stdout=subprocess.PIPE)
    killer = threading.Timer(RUN_TIMEOUT_S, p.kill)
    killer.start()
    try:
        out = p.stdout.read().decode()
        # wait4 reports the child's usage together with that of the
        # children it reaped itself: the forked serving workers
        _, status, usage = os.wait4(p.pid, 0)
        p.returncode = os.waitstatus_to_exitcode(status)
    finally:
        killer.cancel()
    return p.returncode, out, usage.ru_maxrss / 1024.0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    ap.add_argument("--break", dest="break_check",
                    help="feed one wrong answer to this check "
                         "(state, response, lockstep, vcycles)")
    a = ap.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    exe = build(build_dir)
    scratch = os.path.join(build_dir, "perfbench-scratch")
    os.makedirs(scratch, exist_ok=True)

    argv = ["--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", a.trace,
            "--scratch", scratch]
    if a.break_check:
        argv += ["--break", a.break_check]
    code, out, rss_mb = run(exe, argv)
    lines = out.strip().splitlines()
    if not lines:
        fail("benchmark printed no result (exit %d)" % code)
    result = json.loads(lines[-1])
    if a.trace == "0":
        result["metrics"]["peak_rss_mb"] = {"value": rss_mb, "unit": "MB"}
    print(json.dumps(result))
    sys.exit(code)


if __name__ == "__main__":
    main()
