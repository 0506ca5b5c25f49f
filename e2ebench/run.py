#!/usr/bin/env python3
"""End-to-end benchmark runner for the CooRMv2 RMS.

Builds the benchmark (e2ebench/CMakeLists.txt, Release) on first use, runs
one workload against a live in-process daemon and prints, as the last line
of standard output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end_to_end metrics of BENCHMARK.json;
with --trace 1 they are its per_layer metrics, taken from an untraced
window followed by a traced one (spans enabled), whose gap is reported as
the tracing overhead. The line before it lists every end-to-end figure of
the run, gated or not. Every metric, sample count and provenance field of
the run is also written to <build>/runs/<workload>-s<seed>-t<trace>.json.

    python3 e2ebench/run.py --workload rpc-bare --seed 1 --seconds 20 --trace 0
    python3 e2ebench/run.py --self-test

The build directory is $CARGO_TARGET_DIR if set, else .bench_build, both
relative to the source root. Exit status 0 means the build succeeded, every
in-run correctness check passed and every reported metric was measured.
"""

import argparse
import json
import os
import platform
import socket
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIME_LIMIT_S = 170  # hard cap on one invocation, build excluded


def fail(message):
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    return (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def build(target):
    """Configures (once) and builds `target`; returns the binary path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src" / "coorm").is_dir():
        fail(f"no coorm sources under {ROOT} (expected CMakeLists.txt and src/coorm)")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    with open(log, "a") as sink:
        if not (out / "CMakeCache.txt").is_file():
            step = subprocess.run(
                ["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"],
                stdout=sink, stderr=subprocess.STDOUT)
            if step.returncode != 0:
                fail(f"cmake configure failed; see {log}")
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        step = subprocess.run(
            ["cmake", "--build", str(out), "--target", target, "-j", jobs],
            stdout=sink, stderr=subprocess.STDOUT)
        if step.returncode != 0:
            fail(f"build of {target} failed; see {log}")
    # Write back what the build left dirty, so the measured run does not
    # share the disk and CPU with that writeback.
    os.sync()
    return out / target


def cache_value(cache, key):
    try:
        for line in cache.read_text().splitlines():
            if line.startswith(key + ":"):
                return line.split("=", 1)[1]
    except OSError:
        pass
    return "unknown"


def provenance(args, repetition):
    cache = build_dir() / "CMakeCache.txt"
    compiler = cache_value(cache, "CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = "unknown"
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        sha = sha.stdout.strip() if sha.returncode == 0 else "none (not a git checkout)"
    except OSError:
        sha = "none (git unavailable)"
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "host": socket.gethostname(),
        "platform": platform.platform(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        # coorm's own build type, from the tree that built it
        "coorm_build_type": cache_value(cache, "CMAKE_BUILD_TYPE"),
        "compiler": version,
        "git_sha": sha,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "repetition": repetition,
    }


def self_test():
    binary = build("e2e_selftest")
    sys.exit(subprocess.run([str(binary)]).returncode)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if args.self_test:
        self_test()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text()) \
        if (ROOT / "BENCHMARK.json").is_file() else None
    if spec is None:
        fail("BENCHMARK.json not found at the source root")
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"--workload must be one of {', '.join(names)}")
    if not args.seconds > 0:
        fail("--seconds must be > 0")

    binary = build("coorm_e2e")
    runs = build_dir() / "runs"
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    work = runs / tag
    work.mkdir(parents=True, exist_ok=True)
    record_path = runs / f"{tag}.json"
    repetition = 1 + len(list(runs.glob(f"{args.workload}-s*-t{args.trace}.json")))
    record_path.unlink(missing_ok=True)  # never report an earlier run's record

    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--work-dir", str(work), "--out", str(record_path)]
    started = time.monotonic()
    try:
        child = subprocess.run(command, stdout=subprocess.DEVNULL,
                               stderr=subprocess.PIPE, text=True,
                               timeout=TIME_LIMIT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {TIME_LIMIT_S} s")
    sys.stderr.write(child.stderr)
    if not record_path.is_file():
        fail(f"coorm_e2e exited {child.returncode} without a run record")
    record = json.loads(record_path.read_text())
    measured = record["report"]["metrics"]

    wanted = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]
    correct = bool(record["correct"]) and child.returncode == 0
    failed = int(record["failed"])
    metrics = {}
    for metric in wanted:
        value = measured.get(metric["name"], {}).get("value")
        if value is None:
            # A withheld percentile or a missing metric: the run did not
            # measure what it promises.
            correct = False
            failed += 1
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}

    record["provenance"] = provenance(args, repetition)
    record["wall_s"] = time.monotonic() - started
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    prov = record["provenance"]
    print(f"e2ebench: {args.workload} seed={args.seed} trace={args.trace} "
          f"host={prov['host']} nproc={prov['nproc']} "
          f"build={prov['coorm_build_type']} sha={prov['git_sha'][:12]} "
          f"record={record_path.relative_to(ROOT) if record_path.is_relative_to(ROOT) else record_path}")
    # Every end-to-end figure of the run (the undotted names), gated in
    # BENCHMARK.json or not, on one line ahead of the result.
    figures = "; ".join(
        f"{name}={entry['value']:.6g} {entry['unit']}" if entry["value"] is not None
        else f"{name}=withheld"
        for name, entry in measured.items() if "." not in name)
    print(f"e2ebench: end-to-end: {figures}")
    print(json.dumps({"correct": correct, "attempted": int(record["attempted"]),
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
