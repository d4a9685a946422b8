#!/usr/bin/env python3
"""Run one workload of the BoLT benchmark suite (see README.md).

    python3 bench/suite/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/suite/run.py --smoke

Builds libbolt from the repository in its production configuration
(Release, BOLT_SYNC_POINTS=OFF) and the suite against it, both under
build-bench/, then runs bench/suite's bolt_suite once.  The last line of
stdout is the run's JSON result: end-to-end metrics with --trace 0 (on
SimEnv's virtual clock), per-layer metrics with --trace 1.  --record FILE
also appends the result, tagged with workload, seed and trace, to a
JSON-lines file for compare.py.

--smoke runs every workload briefly at a small scale, untraced and
traced, and exits non-zero on any wrong answer or on any metric name
that BENCHMARK.json lists but the run did not print.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SUITE = os.path.join(ROOT, "bench", "suite")
BUILD = os.path.join(ROOT, "build-bench")
BINARY = os.path.join(BUILD, "suite", "bolt_suite")
WORKLOADS = ["update_heavy", "read_hot", "read_cold", "paper_sim"]
RUN_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def sh(cmd):
    # Build output goes to stderr: stdout carries only the result.
    subprocess.run(cmd, check=True, stdout=sys.stderr, cwd=ROOT)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isfile(os.path.join(ROOT, "src", "db", "db.h"))):
        sys.exit("run.py: no bolt sources under " + ROOT)
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        sh(["cmake", "-S", ROOT, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release",
            "-DBOLT_SYNC_POINTS=OFF"])
    sh(["cmake", "--build", BUILD, "--target", "bolt", "-j", jobs])
    suite_build = os.path.join(BUILD, "suite")
    if not os.path.isfile(os.path.join(suite_build, "CMakeCache.txt")):
        sh(["cmake", "-S", SUITE, "-B", suite_build,
            "-DCMAKE_BUILD_TYPE=Release", "-DBOLT_SOURCE_DIR=" + ROOT,
            "-DBOLT_LIBRARY=" + os.path.join(BUILD, "src", "libbolt.a")])
    sh(["cmake", "--build", suite_build, "-j", jobs])


def run_one(workload, seed, seconds, trace, scale=1.0):
    db = os.path.join(BUILD, "suite-db", "%s-%d" % (workload, os.getpid()))
    out_dir = os.path.join(BUILD, "suite-out")
    os.makedirs(os.path.dirname(db), exist_ok=True)
    os.makedirs(out_dir, exist_ok=True)
    prefix = os.path.join(out_dir, "%s-seed%d-trace%d" % (workload, seed, trace))
    cmd = [BINARY, "--workload=" + workload, "--seed=%d" % seed,
           "--seconds=%s" % seconds, "--trace=%d" % trace, "--db=" + db,
           "--out=" + prefix, "--scale=%s" % scale]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                              cwd=ROOT)
    finally:
        shutil.rmtree(db, ignore_errors=True)
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("run.py: bolt_suite exited %d without a result" % proc.returncode)
    return json.loads(lines[-1])


def smoke():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            before = len(problems)
            res = run_one(workload, 1, 3, trace, scale=0.05)
            tag = "%s trace=%d" % (workload, trace)
            if not res["correct"] or res["failed"]:
                problems.append("%s: %d of %d wrong" % (tag, res["failed"], res["attempted"]))
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            for name, unit in expected[trace].items():
                if got.get(name) != unit:
                    problems.append("%s: metric %s missing or not in %s" % (tag, name, unit))
            log("smoke %s: %s" % (tag, "ok" if len(problems) == before else "FAILED"))
    for p in problems:
        log(p)
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", help="append the tagged result to this JSON-lines file")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not args.smoke and args.workload is None:
        ap.error("--workload is required")

    build()
    if args.smoke:
        return smoke()
    res = run_one(args.workload, args.seed, args.seconds, args.trace)
    if args.record:
        with open(args.record, "a") as f:
            f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                "trace": args.trace, "result": res}) + "\n")
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
