#!/usr/bin/env python3
"""Build and run the N-variant serving benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload serve_seq --seed 1 --seconds 10 --trace 0

Builds perfbench/main.exe from source with dune (release profile, dune's
shared cache off so nothing is written outside the checkout), runs it,
and checks that the last line of its output is the result object. The
exit code is non-zero, and no result is printed, when the build or the
run fails. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
WORKLOADS = ["serve_seq", "serve_par", "serve_attacked", "fleet_capacity"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    dune = shutil.which("dune")
    if dune is None:
        fail("dune is not on PATH")
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        fail("no dune-project at %s: run from the root of a full checkout" % ROOT)
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        done = subprocess.run(
            [dune, "build", "--root", ROOT, "--profile", "release",
             "./perfbench/main.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
            timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if done.returncode != 0:
        fail("build failed")


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")) or shutil.which("git") is None:
        return "unknown"
    done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run(args):
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--git-sha", git_sha(),
           "--spans-out", os.path.join(ROOT, "perfbench-out")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run timed out after %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        fail("harness exited with code %d" % done.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(done.stdout)
        fail("last output line is not a JSON object")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("result object has keys %s" % sorted(result))
    sys.stdout.write(done.stdout)
    return result


def parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=[0, 1])
    return p.parse_args(argv)


def main():
    args = parse(sys.argv[1:])
    build()
    run(args)


if __name__ == "__main__":
    main()
