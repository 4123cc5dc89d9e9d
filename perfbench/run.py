#!/usr/bin/env python3
"""Runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (and with it the library
from src/) into .bench_build/perfbench, generates the graph inputs once per
source tree, runs the workload on the seed's requests, checks its outputs,
and prints every metric by name with its unit. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; with --trace 0 the metrics are the
end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer metrics.
The full run record, with the host fingerprint, goes to
.bench_build/results/.

Exit codes: 0 ok; 1 a correctness check failed; 2 build, input or usage
error; 3 the run is invalid (the open-loop generator fell behind).
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys

ROOT = os.getcwd()
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ["engine-unique", "serve-zipf", "serve-ingest", "dist-tcp",
             "exact-batch"]
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    os.makedirs(BUILD_ROOT, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "perfbench-build.log")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                # A failed configure leaves a cache that would skip it next time.
                if cmd[1] == "-S":
                    shutil.rmtree(BUILD_DIR, ignore_errors=True)
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-20:]))
                fail(f"build failed (log: {log_path})")


def source_hash():
    """Digest of the program and benchmark sources: the commit identity when
    the checkout is not a git repository."""
    digest = hashlib.sha256()
    for top in ("src", "bench", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint(info):
    return {
        "git_commit": git_commit(),
        "source_hash": source_hash(),
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "compiler": info.get("compiler"),
        "build_type": info.get("build_type"),
        "rtr_num_threads": os.environ.get("RTR_NUM_THREADS", "unset"),
    }


def make_inputs():
    """Generates the graph inputs once per source tree; every seed shares
    them (the seed draws the requests)."""
    name = "inputs-" + source_hash()
    inputs = os.path.join(BUILD_ROOT, name)
    if os.path.exists(os.path.join(inputs, "done")):
        return inputs
    for old in os.listdir(BUILD_ROOT):
        if old.startswith("inputs-"):
            shutil.rmtree(os.path.join(BUILD_ROOT, old), ignore_errors=True)
    tmp = os.path.join(BUILD_ROOT, f"tmp-{name}-{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    gen = subprocess.run([BINARY, "gen", "--dir", tmp], capture_output=True,
                         text=True, timeout=RUN_TIMEOUT_S)
    if gen.returncode:
        sys.stderr.write(gen.stderr)
        shutil.rmtree(tmp, ignore_errors=True)
        fail("input generation failed")
    open(os.path.join(tmp, "done"), "w").close()
    os.rename(tmp, inputs)
    return inputs


def run_one(workload, seed, seconds, trace, metric_names, inputs):
    traces = os.path.join(BUILD_ROOT, "traces")
    results = os.path.join(BUILD_ROOT, "results")
    os.makedirs(traces, exist_ok=True)
    os.makedirs(results, exist_ok=True)
    cmd = [BINARY, "run", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--inputs",
           inputs]
    if trace:
        cmd += ["--spans-out",
                os.path.join(traces, f"{workload}-seed{seed}.spans.jsonl")]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        fail(f"{workload}: perfbench exited with {proc.returncode}")
    record = json.loads(lines[-1])
    record["fingerprint"] = fingerprint(record["info"])
    record["run"] = {"workload": workload, "seed": seed, "seconds": seconds,
                     "trace": trace}
    out = os.path.join(results, f"{workload}-seed{seed}-trace{trace}.json")
    with open(out, "w") as f:
        json.dump(record, f, indent=1)

    print(f"== {workload} seed={seed} seconds={seconds} trace={trace}")
    for key, value in record["fingerprint"].items():
        print(f"   {key}: {value}")
    for name, m in record["metrics"].items():
        print(f"   {name:34s} {m['value']:.6g} {m['unit']}")
    for key, value in record["info"].items():
        print(f"   ({key}: {value})")
    for error in record["errors"]:
        print(f"   ERROR: {error}")
    missing = [n for n in metric_names if n not in record["metrics"]]
    if missing:
        fail(f"{workload}: metrics missing from the run: {missing}")
    return record


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seconds < 1 or args.seed < 0:
        fail("--seconds must be >= 1 and --seed >= 0")

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    metric_names = [m["name"] for m in
                    spec["per_layer" if args.trace else "end_to_end"]]

    build()
    inputs = make_inputs()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    records = [run_one(w, args.seed, args.seconds, args.trace, metric_names,
                       inputs) for w in workloads]

    invalid = [r["run"]["workload"] for r in records if not r["valid"]]
    if invalid:
        fail(f"invalid run (open-loop generator fell behind): {invalid}", 3)
    correct = all(r["correct"] for r in records)
    metrics = {}
    for r in records:
        prefix = "" if len(records) == 1 else r["run"]["workload"] + "/"
        for name in metric_names:
            metrics[prefix + name] = r["metrics"][name]
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
