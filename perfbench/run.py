#!/usr/bin/env python3
"""Builds and runs the audit benchmark (see BENCHMARK.json).

    python3 perfbench/run.py --workload suite_table2 --seed 1 --seconds 30 --trace 0

Run it from the repository root.  The first run configures and builds `ff`,
`ffaudit` and the `ffbench` driver (Release) under $CARGO_TARGET_DIR
(default .bench_build); later runs only re-check the build.  Build output
goes to stderr; the driver's report goes to stdout and its last line is the
JSON result.  The exit code is non-zero, and no result is printed, when the
build or the run fails.
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


def build(build_dir):
    configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    for cmd in (configure, ["cmake", "--build", build_dir, "--target", "ffbench", "-j", "4"]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def stop(proc):
    """Kills what is left of the driver's process group and waits until it is empty."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    for _ in range(100):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", default="0")
    parser.add_argument("--seconds", default="10")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    parser.add_argument("--sampler-seed", default="0x5eed",
                        help="sampler seed of every audited job (default: the ffaudit default)")
    args = parser.parse_args()

    root = os.getcwd()
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    if not build(build_dir):
        print("run.py: build failed", file=sys.stderr)
        return 1
    # Relative work directory: unix socket paths must stay short.
    work_dir = os.path.relpath(os.path.join(build_dir, "work-%d" % os.getpid()), root)
    cmd = [os.path.join(build_dir, "ffbench"), "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", args.trace, "--sampler-seed", args.sampler_seed,
           "--ffaudit", os.path.join(build_dir, "fuzzyflow", "ffaudit"), "--work-dir", work_dir]
    # Own process group, so coordinator workers left behind by a crashed or
    # interrupted driver are stopped too.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, start_new_session=True, text=True)

    def interrupted(signum, _frame):
        os.killpg(proc.pid, signal.SIGKILL)
        sys.exit(128 + signum)  # the finally clause below reaps and cleans up

    signal.signal(signal.SIGTERM, interrupted)
    signal.signal(signal.SIGINT, interrupted)
    try:
        out, _ = proc.communicate(timeout=170)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        print("run.py: driver timed out", file=sys.stderr)
        proc.returncode = 1
    finally:
        stop(proc)
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(out)
        print("run.py: driver exited with %d" % proc.returncode, file=sys.stderr)
        return 1
    try:
        json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(out)
        print("run.py: driver printed no result line", file=sys.stderr)
        return 1
    sys.stdout.write(out if out.endswith("\n") else out + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
