#!/usr/bin/env python3
"""Wire-level benchmark for popan_server.

Builds popan_server and the popan_perf load generator from this checkout
(into .bench_build/), runs one workload against the real server binary,
and prints every metric by name with its unit. The last line of standard
output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones (see perfbench/README.md). Exits non-zero, after printing
the result, when a correctness check failed; exits non-zero without a
result when the benchmark cannot build or run.

    python3 perfbench/run.py --workload range_scan --seed 1 --seconds 10 --trace 0
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("ingest_wal", "range_scan", "mixed_sharded")
END_TO_END = ("throughput_rps", "latency_p50_us", "latency_p99_us",
              "setup_s", "server_rss_mb")
# One run may not take longer than this, set-up included.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def run_quiet(cmd, timeout):
    """Runs a build step with its output on stderr, never stdout."""
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=timeout, check=False)
    if proc.returncode != 0:
        fail("command failed: " + " ".join(cmd))


def build():
    """Configures and builds popan_server and popan_perf; returns paths."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src", "server")):
        fail("the popan sources are missing next to perfbench/")
    for tool in ("cmake", "ninja"):
        if shutil.which(tool) is None:
            fail(tool + " not found")
    started = time.monotonic()
    if not os.path.isfile(os.path.join(CMAKE_DIR, "build.ninja")):
        run_quiet(["cmake", "-S", BENCH_DIR, "-B", CMAKE_DIR, "-G", "Ninja",
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], BUILD_TIMEOUT_S)
    left = BUILD_TIMEOUT_S - (time.monotonic() - started)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", CMAKE_DIR, "-j", jobs, "--target",
               "popan_perf", "popan_server_main"], max(60, left))
    perf = os.path.join(CMAKE_DIR, "popan_perf")
    server = os.path.join(CMAKE_DIR, "popan", "src", "server", "popan_server")
    for path in (perf, server):
        if not os.access(path, os.X_OK):
            fail("build did not produce " + path)
    return perf, server


def provenance():
    """Git revision when available, and a digest of the benchmarked sources."""
    rev = "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             check=False)
        if out.returncode == 0:
            rev = out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return rev, digest.hexdigest()[:16]


def run_bench(perf, server, args, tmp):
    rev, digest = provenance()
    cmd = [perf, "run", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--server", server, "--tmp", tmp, "--git-rev", rev,
           "--source-digest", digest,
           "--spans-dir", os.path.join(BUILD_DIR, "spans")]
    # A session of its own, so the watchdog can kill the generator and
    # the server child together.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("run exceeded %d s and was killed" % RUN_TIMEOUT_S)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return proc.returncode, out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        fail("--seconds must be positive and --seed non-negative")

    perf, server = build()
    os.makedirs(os.path.join(BUILD_DIR, "tmp"), exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=os.path.join(BUILD_DIR, "tmp"))
    # Write back what the build and earlier runs left dirty (a WAL run
    # writes about 100 MB), so it is not flushed during this run.
    os.sync()
    try:
        code, out = run_bench(perf, server, args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        os.sync()

    record = None
    for line in out.splitlines():
        if line.startswith("RECORD "):
            record = json.loads(line[len("RECORD "):])
        print(line)
    if record is None or code not in (0, 1):
        fail("the load generator exited with code %d and no result" % code)
    metrics = record["metrics"]
    if args.trace == 0:
        metrics = {name: metrics[name] for name in END_TO_END}
    result = {"correct": bool(record["correct"]),
              "attempted": int(record["attempted"]),
              "failed": int(record["failed"]),
              "metrics": metrics}
    print(json.dumps(result))
    sys.stdout.flush()
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
