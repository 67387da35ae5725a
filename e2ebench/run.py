#!/usr/bin/env python3
"""End-to-end broker benchmark runner.

Run from the root of a checkout:

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 e2ebench/run.py --self-test

Builds libnlarm and nlarm_e2e from source (Release, under
.bench_build/ or $CARGO_TARGET_DIR), runs one workload in a per-run
temporary directory under .bench_out/ that is removed at exit, and prints a
provenance report followed, as the last stdout line, by one JSON object with
exactly the keys correct, attempted, failed and metrics. --trace 0 reports
every end-to-end metric of BENCHMARK.json, --trace 1 every per-layer
metric; the traced run also writes its spans to .bench_out/spans-<workload>.csv.

--self-test runs every workload briefly on two seeds, traced and untraced,
and asserts that every named metric is present with its unit, that
operations were attempted, none failed, and the oracle passed.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile

WORKLOADS = ["decide-distinct", "decide-repeat", "decide-tiled", "freshness"]
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170

# What each workload is for, checked on its traced self-test runs: the
# decision cache must be bypassed on distinct requests and carry repeated
# ones, the tiled decide must prune, and the follower must keep up.
EXPECTED = {
    "decide-distinct": ("serve.cache_hit_share", lambda v: v == 0, "== 0"),
    "decide-repeat": ("serve.cache_hit_share", lambda v: v > 0.5, "> 0.5"),
    "decide-tiled": ("hier.pruned_share", lambda v: v > 0, "> 0"),
    "freshness": ("replica.frames_per_poll", lambda v: v <= 1, "<= 1"),
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "e2ebench")


def build():
    """Configures (once) and builds nlarm_e2e; returns the binary path."""
    out = build_dir()
    configure = ["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    for cmd in (configure, ["cmake", "--build", out, "-j", jobs, "--target", "nlarm_e2e"]):
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("e2ebench: build failed: " + " ".join(cmd))
            return None
    return os.path.join(out, "nlarm_e2e")


def benchmark_spec():
    try:
        with open("BENCHMARK.json") as f:
            return json.load(f)
    except (OSError, ValueError):
        return None


def source_digest():
    """Commit when the checkout is a git tree, else a digest of the sources."""
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                text=True, timeout=10)
        if commit.returncode == 0:
            return "git:" + commit.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for root in ("src", "e2ebench"):
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "sha256:" + h.hexdigest()[:16]


def filesystem_of(path):
    """fstype and mount point of the filesystem holding `path`."""
    path = os.path.realpath(path)
    best = ("unknown", "")
    try:
        with open("/proc/self/mountinfo") as f:
            for line in f:
                left, _, right = line.partition(" - ")
                mount = left.split()[4]
                fstype = right.split()[0]
                if (path == mount or path.startswith(mount.rstrip("/") + "/")) and \
                        len(mount) >= len(best[1]):
                    best = (fstype, mount)
    except OSError:
        pass
    return {"fstype": best[0], "mount": best[1]}


def affinity_mask():
    cpus = sorted(os.sched_getaffinity(0))
    ranges, start = [], None
    for i, c in enumerate(cpus):
        if start is None:
            start = c
        if i + 1 == len(cpus) or cpus[i + 1] != c + 1:
            ranges.append(str(start) if start == c else "%d-%d" % (start, c))
            start = None
    return ",".join(ranges)


def run_once(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (result, report) or None on failure."""
    out_dir = os.path.abspath(".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=out_dir)
    try:
        cmd = [binary, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--tmp-dir", tmp,
               "--spans", os.path.join(out_dir, "spans-%s.csv" % workload)]
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            log("e2ebench: %s timed out" % workload)
            return None
        if proc.returncode != 0:
            log("e2ebench: %s exited with %d" % (workload, proc.returncode))
            return None
        lines = proc.stdout.strip().splitlines()
        try:
            full = json.loads(lines[-1])
        except (IndexError, ValueError):
            log("e2ebench: %s printed no result" % workload)
            return None
        report = full.pop("report", {})
        report["delta_log_filesystem"] = filesystem_of(tmp)
        return full, report
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def missing_metrics(result, trace):
    """Names of BENCHMARK.json metrics absent from the result, or with another unit."""
    spec = benchmark_spec()
    if spec is None:
        return []
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    got = result["metrics"]
    return [m["name"] for m in wanted
            if m["name"] not in got or got[m["name"]].get("unit") != m["unit"]]


def self_test(binary):
    failures = []
    for workload in WORKLOADS:
        for seed in (1, 2):
            for trace in (0, 1):
                label = "%s seed=%d trace=%d" % (workload, seed, trace)
                outcome = run_once(binary, workload, seed, 4, trace)
                if outcome is None:
                    failures.append(label + ": run failed")
                    continue
                result, report = outcome
                problems = []
                missing = missing_metrics(result, trace)
                if missing:
                    problems.append("missing metrics " + ", ".join(missing))
                if result["attempted"] <= 0:
                    problems.append("nothing attempted")
                name, ok, want = EXPECTED[workload]
                if trace and name in result["metrics"] and \
                        not ok(result["metrics"][name]["value"]):
                    problems.append("%s = %g, expected %s" % (
                        name, result["metrics"][name]["value"], want))
                if result["failed"] != 0 or not result["correct"]:
                    problems.append("%d failed: %s" % (result["failed"],
                                                       report.get("problems")))
                log("%-40s %s" % (label, "; ".join(problems) if problems else "ok"))
                failures += [label + ": " + p for p in problems]
    if failures:
        log("e2ebench self-test FAILED:\n  " + "\n  ".join(failures))
        return 1
    log("e2ebench self-test passed")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    binary = build()
    if binary is None:
        return 1
    if args.self_test:
        return self_test(binary)

    outcome = run_once(binary, args.workload, args.seed, args.seconds, args.trace)
    if outcome is None:
        return 1
    result, report = outcome
    missing = missing_metrics(result, args.trace)
    if missing:
        log("e2ebench: result lacks metrics: " + ", ".join(missing))
        return 1
    report.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "source": source_digest(), "build_type": "Release",
        "nproc": os.cpu_count(), "cpu_affinity": affinity_mask(),
    })
    print("# report " + json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
