#!/usr/bin/env python3
"""Self-test of the serving benchmark at a tiny size.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py

Builds the harness, then runs every workload in --tiny mode (fixed, small
operation counts) and checks that:
  - every metric named in BENCHMARK.json prints with its unit, in the
    untraced (end_to_end) and traced (per_layer) runs;
  - a deliberately wrong expected body is counted as a failure;
  - the output is deterministic for a fixed seed (outcome digest and the
    per-request counts), and a different seed changes the request order
    but not the number of operations attempted and failed;
  - the harness refuses to run with NV_ENGINE or NV_PARALLEL set.
Exits non-zero if any check fails.
"""

import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402

SPANS = os.path.join(bench.ROOT, "perfbench-out", "selftest")
failures = []


def harness(workload, seed, trace, *extra, env=None):
    cmd = [bench.EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--tiny",
           "--spans-out", SPANS] + list(extra)
    done = subprocess.run(cmd, cwd=bench.ROOT, capture_output=True, text=True,
                          env=env, timeout=bench.RUN_TIMEOUT_S)
    lines = done.stdout.rstrip("\n").split("\n")
    result = None
    if done.returncode == 0:
        result = json.loads(lines[-1])
    return done.returncode, lines, result


def expect(name, ok, detail=""):
    print("%s %s%s" % ("PASS" if ok else "FAIL", name,
                       (": " + detail) if detail and not ok else ""))
    if not ok:
        failures.append(name)


def line_value(lines, prefix):
    for line in lines:
        if line.startswith(prefix):
            return line[len(prefix):].strip()
    return None


def main():
    bench.build()
    os.makedirs(SPANS, exist_ok=True)
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    # serve_par is not in BENCHMARK.json but stays runnable by hand.
    workloads = bench.WORKLOADS

    for w in workloads:
        for trace in (0, 1):
            code, lines, result = harness(w, 5, trace)
            name = "%s trace=%d" % (w, trace)
            if result is None:
                expect(name + " runs", False, "exit code %d" % code)
                continue
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(name + " prints every named metric with its unit",
                   got == expected[trace], "got %s" % sorted(got.items()))
            expect(name + " prints failed_frac",
                   line_value(lines, "metric failed_frac ") is not None)
            expect(name + " counts attempted operations",
                   result["attempted"] >= 1 and 0 <= result["failed"]
                   <= result["attempted"])

    code, lines, result = harness("serve_seq", 5, 0, "--wrong-body")
    expect("wrong expected body is counted as a failure",
           result is not None and result["failed"] > 0
           and not result["correct"]
           and "failed=0" not in line_value(lines, "check benign_body "))

    for w in workloads:
        _, a, ra = harness(w, 5, 0)
        _, b, rb = harness(w, 5, 0)
        expect("%s same seed gives the same outcomes" % w,
               line_value(a, "digest ") == line_value(b, "digest ")
               and (ra["attempted"], ra["failed"]) == (rb["attempted"], rb["failed"]))
    for w in ("serve_seq", "fleet_capacity"):
        _, a, _ = harness(w, 5, 0)
        _, c, _ = harness(w, 6, 0)
        expect("%s another seed gives other inputs" % w,
               line_value(a, "digest ") != line_value(c, "digest "))
    # The timed work is fixed, so two sets of runs on other seeds attempt,
    # and fail, the same number of operations.
    for w in workloads:
        _, _, ra = harness(w, 5, 0)
        _, _, rc = harness(w, 6, 0)
        expect("%s another seed attempts and fails as many operations" % w,
               (ra["attempted"], ra["failed"]) == (rc["attempted"], rc["failed"]),
               "%s vs %s" % ((ra["attempted"], ra["failed"]),
                             (rc["attempted"], rc["failed"])))
    for w in ("serve_seq", "serve_attacked"):
        counts = []
        for _ in range(2):
            _, _, r = harness(w, 5, 1)
            counts.append(tuple(r["metrics"][k]["value"] for k in
                                ("vm.instr_per_req", "monitor.rendezvous_per_req")))
        expect("%s per-request counts are identical across runs" % w,
               counts[0] == counts[1] and counts[0][0] > 0, str(counts))

    for var in ("NV_ENGINE", "NV_PARALLEL"):
        env = dict(os.environ, **{var: "1"})
        code, lines, result = harness("serve_seq", 5, 0, env=env)
        expect("refuses to run with %s set" % var, code != 0 and result is None)

    print("%d check(s) failed" % len(failures) if failures else "all checks passed")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
