#!/usr/bin/env python3
"""Builds and runs the quanta benchmark from the root of a checkout.

    python3 qbench/run.py --workload zone-mc|prob-brp|svc-mix --seed N \
        --seconds S --trace 0|1
    python3 qbench/run.py --self-test

The benchmark binary is built from qbench/ and ../src with CMake into
$CARGO_TARGET_DIR (default .bench_build). Build output goes to stderr; the
last line of stdout is the result JSON of the run. --self-test runs every
workload briefly, traced and untraced, and checks that each metric named in
BENCHMARK.json is present, finite and carries its unit.
"""
import argparse
import fcntl
import hashlib
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("zone-mc", "prob-brp", "svc-mix")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("qbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "qbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the quanta sources (src/) are missing next to qbench/")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", out,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, check=True)
        jobs = str(max(1, min(os.cpu_count() or 1, 4)))
        subprocess.run(["cmake", "--build", out, "-j", jobs,
                        "--target", "quanta_bench"],
                       stdout=sys.stderr, check=True)
    return os.path.join(out, "quanta_bench")


def git_sha():
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def source_digest():
    """SHA-256 over the library and benchmark sources (path + content)."""
    h = hashlib.sha256()
    for top in ("src", "qbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith((".h", ".cpp", ".txt", ".py")):
                    continue
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def run(binary, workload, seed, seconds, trace, capture=False):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", os.path.join(ROOT, ".bench_out"),
           "--git-sha", git_sha(), "--source-digest", source_digest()]
    proc = subprocess.Popen(cmd, cwd=ROOT,
                            stdout=subprocess.PIPE if capture else None)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("benchmark timed out")
    if proc.returncode != 0:
        fail("benchmark exited with code %d" % proc.returncode)
    return stdout.decode() if capture else None


def self_test(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for w in WORKLOADS:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            lines = run(binary, w, 1, 2, trace, capture=True).splitlines()
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append("%s trace=%d: result keys %s"
                                % (w, trace, sorted(result)))
                continue
            if not result["correct"]:
                problems.append("%s trace=%d: not correct" % (w, trace))
            metrics = result["metrics"]
            for m in spec[group]:
                got = metrics.get(m["name"])
                if got is None:
                    problems.append("%s: %s missing" % (w, m["name"]))
                elif got.get("unit") != m["unit"]:
                    problems.append("%s: %s unit %r, want %r"
                                    % (w, m["name"], got.get("unit"),
                                       m["unit"]))
                elif not isinstance(got.get("value"), (int, float)) or \
                        not math.isfinite(got["value"]):
                    problems.append("%s: %s not finite" % (w, m["name"]))
            print("self-test %-8s trace=%d: %d metrics, correct=%s"
                  % (w, trace, len(metrics), result["correct"]),
                  file=sys.stderr)
    for p in problems:
        print("self-test: " + p, file=sys.stderr)
    print(json.dumps({"self_test": "fail" if problems else "pass",
                      "problems": len(problems)}))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    if not a.self_test and None in (a.workload, a.seed, a.seconds, a.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        fail("build failed: %s" % e)
    if a.self_test:
        return self_test(binary)
    sys.stdout.flush()
    run(binary, a.workload, a.seed, a.seconds, a.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
