#!/usr/bin/env python3
"""CHOP benchmark runner.

Builds the benchmark harness (chopbench/CMakeLists.txt, a Release build of
the CHOP libraries plus chopbench/harness) into .bench_build/, runs one
workload and prints every metric by name, then one JSON result line:

    python3 chopbench/run.py --workload designer_serve --seed 1 \
        --seconds 25 --trace 0

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ledger. Run from the root of a CHOP checkout. See
chopbench/NOTES.md for the workloads, metrics and oracles.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_LIMIT_S = 170  # the whole run, build excluded, must end within this


def fail(message):
    print("chopbench: " + message, file=sys.stderr)
    sys.exit(1)


def tree_hash():
    """Hash of the sources the harness is built from (names the code)."""
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "chopbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                paths.append(os.path.join(dirpath, name))
    for path in paths:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build(out_dir):
    """Configures once, then (re)builds the harness; returns its path."""
    os.makedirs(out_dir, exist_ok=True)
    jobs = str(os.cpu_count() or 1)
    with open(os.path.join(out_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
            step = subprocess.run(
                ["cmake", "-S", HERE, "-B", out_dir,
                 "-DCMAKE_BUILD_TYPE=Release"],
                stdout=sys.stderr, stderr=sys.stderr)
            if step.returncode != 0:
                fail("cmake configure failed")
        step = subprocess.run(
            ["cmake", "--build", out_dir, "--target", "chopbench_harness",
             "-j", jobs], stdout=sys.stderr, stderr=sys.stderr)
        if step.returncode != 0:
            fail("build failed")
    return os.path.join(out_dir, "chopbench_harness")


def selftest(harness, out_dir, code):
    """Runs the oracle self-test once per source tree."""
    marker = os.path.join(out_dir, "selftest-" + code)
    if os.path.exists(marker):
        return
    step = subprocess.run(
        [harness, "--selftest", "--reference-dir",
         os.path.join(HERE, "reference")],
        stdout=sys.stderr, stderr=sys.stderr, timeout=120)
    if step.returncode != 0:
        fail("oracle self-test failed: an oracle does not flag a wrong answer")
    open(marker, "w").close()


def check_work_counters(out_dir, key, counters):
    """Equal code and seed must reproduce the work counters exactly."""
    path = os.path.join(out_dir, "work_counters.json")
    with open(path + ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        seen = {}
        if os.path.exists(path):
            with open(path) as f:
                seen = json.load(f)
        if key in seen:
            if seen[key] != counters:
                return ("work counters differ from an earlier run of the "
                        "same code and seed: %s vs %s" % (counters, seen[key]))
            return ""
        seen[key] = counters
        with open(path + ".tmp", "w") as f:
            json.dump(seen, f, indent=1, sort_keys=True)
        os.replace(path + ".tmp", path)
    return ""


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("no CHOP source tree here (missing %s)" % needed)
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(spec_path):
        fail("missing BENCHMARK.json")
    with open(spec_path) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    out_dir = os.path.join(ROOT, ".bench_build", "chopbench")
    harness = build(out_dir)
    code = tree_hash()
    selftest(harness, out_dir, code)

    start = time.monotonic()
    try:
        run = subprocess.run(
            [harness, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--reference-dir", os.path.join(HERE, "reference")],
            stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
            timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        fail("run did not finish within %d s" % RUN_LIMIT_S)
    if run.returncode != 0 or not run.stdout.strip():
        fail("harness exited with code %d" % run.returncode)
    result = json.loads(run.stdout.strip().splitlines()[-1])

    failed = result["failed"]
    attempted = result["attempted"]
    problems = list(result["failures"])
    error = check_work_counters(
        out_dir, "%s seed=%d code=%s" % (args.workload, args.seed, code),
        result["deterministic"])
    if error:
        failed += 1
        attempted += 1
        problems.append(error)
    # The harness's failed_frac predates the work-counter check above.
    result["metrics"]["failed_frac"] = {
        "value": failed / attempted if attempted else 0.0, "unit": "ratio"}
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail("harness did not report %s in %s" % (m["name"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}

    meta = dict(result["meta"], commit=commit(), tree=code,
                run_s=round(time.monotonic() - start, 3))
    if not meta["release"]:
        print("WARNING: %s build, not Release" % meta["build_type"])
    print("meta: " + json.dumps(meta, sort_keys=True))
    print("work counters: " + json.dumps(result["deterministic"],
                                         sort_keys=True))
    for problem in problems:
        print("FAILED: " + problem)
    for name, m in metrics.items():
        print("%-40s %16.6f %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
