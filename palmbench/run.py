#!/usr/bin/env python3
"""Palm benchmark entry point.

Builds the palmbench program from the repository's sources (CMake, Release)
and runs one workload:

    python3 palmbench/run.py --workload static-explore --seed 1 \
        --seconds 15 --trace 0

or every workload in a row, printing one table row per workload:

    python3 palmbench/run.py --all --seed 1

or only the harness self-tests:

    python3 palmbench/run.py --selftest

Run it from the repository root. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under palmbench/, and every file a run writes stays
inside that directory. The last line of standard output is the run's JSON
result; build output goes to standard error.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["static-explore", "stream-ingest", "dist-explore"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170

# The end-to-end metrics the --all table prints, in the order of the
# workload definitions. stream_query_* is the stream's windowed exact query,
# reported as exact_* on stream-ingest.
TABLE = [
    ("setup_s", "s"), ("exact_p50_ms", "ms"), ("exact_p99_ms", "ms"),
    ("approx_p50_ms", "ms"), ("approx_p99_ms", "ms"),
    ("ingest_series_per_s", "1/s"), ("ingest_p50_ms", "ms"),
    ("ingest_p99_ms", "ms"), ("stream_query_p50_ms", "ms"),
    ("stream_query_p99_ms", "ms"), ("drain_s", "s"), ("space_amp", "ratio"),
    ("rss_peak_mb", "MiB"), ("error_rate", "ratio"),
]


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "palmbench")


def build():
    """Configures and builds palmbench; returns the binary path or None."""
    if not os.path.isfile(os.path.join(HERE, "..", "src", "palm", "api.h")):
        log("palmbench: the library sources (src/) are not next to palmbench/")
        return None
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", out, "--target", "palmbench", "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"palmbench: build step failed: {e}")
            return None
        if done.returncode != 0:
            log("palmbench: build failed")
            return None
    return os.path.join(out, "palmbench")


def run_once(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (stdout lines, result dict) or None."""
    out = build_dir()
    work = os.path.join(out, f"work-{os.getpid()}")
    traces = os.path.join(out, "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", work,
           "--trace-out", os.path.join(traces, f"{workload}-seed{seed}.jsonl")]
    # Write back what earlier runs left dirty, so it does not land in this one.
    os.sync()
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"palmbench: {workload} did not finish in {RUN_TIMEOUT_S} s")
        return None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        log(f"palmbench: {workload} exited with {done.returncode}")
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log(f"palmbench: {workload} printed no result")
        return None
    return lines, result


def extras_of(lines):
    for line in lines:
        if line.startswith("extras "):
            return json.loads(line[len("extras "):])
    return {}


def run_all(binary, seed, seconds):
    rows = {}
    digests = {}
    ok = True
    for workload in WORKLOADS:
        got = run_once(binary, workload, seed, seconds, 0)
        if got is None:
            return 1
        lines, result = got
        for line in lines[:-1]:
            log(line)
        values = {k: v["value"] for k, v in result["metrics"].items()}
        values.update(extras_of(lines))
        if workload == "stream-ingest":
            values["stream_query_p50_ms"] = values.pop("exact_p50_ms")
            values["stream_query_p99_ms"] = values.pop("exact_p99_ms")
        rows[workload] = values
        for line in lines:
            if "exact_answer_digest=" in line:
                digests[workload] = line.split("=", 1)[1].strip()
        ok = ok and result["correct"]
    if digests.get("static-explore") != digests.get("dist-explore"):
        log("palmbench: dist-explore answers differ from static-explore's")
        ok = False
    width = 14
    print("metric".ljust(22) + "unit".ljust(7) +
          "".join(w.rjust(width + 2) for w in WORKLOADS))
    for name, unit in TABLE:
        cells = []
        for workload in WORKLOADS:
            value = rows[workload].get(name)
            cells.append(("-" if value is None else f"{value:.6g}").rjust(width + 2))
        print(name.ljust(22) + unit.ljust(7) + "".join(cells))
    print(json.dumps({"correct": ok, "seed": seed, "workloads": rows}))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload untraced and print a table")
    parser.add_argument("--selftest", action="store_true",
                        help="run only the harness self-tests")
    args = parser.parse_args()
    if not (args.all or args.selftest or args.workload):
        parser.error("one of --workload, --all or --selftest is required")

    binary = build()
    if binary is None:
        return 1
    if args.selftest:
        return subprocess.run([binary, "--selftest"], timeout=RUN_TIMEOUT_S).returncode
    if args.all:
        return run_all(binary, args.seed, args.seconds)
    got = run_once(binary, args.workload, args.seed, args.seconds, args.trace)
    if got is None:
        return 1
    print("\n".join(got[0]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
