#!/usr/bin/env python3
"""Benchmark entry point: build perfbench from source, run one workload.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a source tree. The first call configures and builds
perfbench/CMakeLists.txt (the fedsched library plus the driver binary) into
$CARGO_TARGET_DIR, or .bench_build when that is unset; later calls only
re-check the build. The workload then runs in its own process with
min(4, nproc) threads.

Output: a `host:` line, the driver's metric table, and as the last line one
JSON object {"correct", "attempted", "failed", "metrics"} holding every
end-to-end metric of BENCHMARK.json (--trace 0) or every per-layer metric
(--trace 1). A per-layer metric of a layer the workload bypasses (see
perfbench/workloads.json) reads 0. `--workload all` runs every workload in
turn, each in its own process. Exit status is non-zero when the build fails,
a run fails, an output check fails, or a result does not match BENCHMARK.json.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def threads():
    return max(1, min(4, len(os.sched_getaffinity(0))))


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(REPO, path)


def build(out_dir):
    """Configure once, then build the driver; all build output to stderr."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, ".lock"), "w", encoding="utf-8") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", out_dir,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           check=True, stdout=sys.stderr, stderr=sys.stderr)
        subprocess.run(["cmake", "--build", out_dir, "--target", "perfbench",
                        "-j", str(threads())],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out_dir, "perfbench")


def git_sha():
    """HEAD of the checkout when it is a git work tree, read without git."""
    head_path = os.path.join(REPO, ".git", "HEAD")
    if not os.path.isfile(head_path):
        return "unknown (not a git checkout)"
    with open(head_path, encoding="utf-8") as f:
        head = f.read().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    ref_path = os.path.join(REPO, ".git", ref)
    if os.path.isfile(ref_path):
        with open(ref_path, encoding="utf-8") as f:
            return f.read().strip()
    packed = os.path.join(REPO, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="utf-8") as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    return "unknown"


def source_digest():
    """sha256 over the library and benchmark sources (names and bytes)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(REPO, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, REPO).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def expected_metrics(bench, layout, workload, traced):
    """name -> unit the result must carry, and the names this workload bypasses."""
    if not traced:
        return {m["name"]: m["unit"] for m in bench["end_to_end"]}, set()
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    bypassed = {name for name, spec in layout["per_layer"].items()
                if workload not in spec["measured_on"]}
    return units, bypassed


def run_workload(bench, layout, binary, out_dir, workload, seed, seconds, trace):
    """Run one workload; print its output with the result line last."""
    print("host: " + json.dumps({
        "nproc": os.cpu_count(), "threads": threads(), "git_sha": git_sha(),
        "source_digest": source_digest(), "workload": workload, "seed": seed,
        "seconds": seconds, "trace": trace}), flush=True)

    work_dir = os.path.join(out_dir, "work", f"{workload}-{os.getpid()}")
    span_dir = os.path.join(out_dir, "spans")
    os.makedirs(span_dir, exist_ok=True)
    command = [binary, "--workload", workload, "--seed", str(seed),
               "--seconds", repr(seconds), "--trace", str(trace),
               "--threads", str(threads()), "--work-dir", work_dir,
               "--spans-out", os.path.join(span_dir, f"{workload}-seed{seed}.jsonl")]
    started = time.monotonic()
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode not in (0, 1) or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        fail(f"driver exited with {proc.returncode} and no result")
    result = json.loads(lines[-1])

    units, bypassed = expected_metrics(bench, layout, workload, trace == 1)
    for name in sorted(bypassed):
        if name in result["metrics"]:
            fail(f"{name} is declared bypassed on {workload} but was measured")
        result["metrics"][name] = {"value": 0.0, "unit": units[name]}
    if set(result["metrics"]) != set(units):
        missing = sorted(set(units) - set(result["metrics"]))
        extra = sorted(set(result["metrics"]) - set(units))
        fail(f"result metrics do not match BENCHMARK.json: missing {missing}, "
             f"unexpected {extra}")
    for name, metric in result["metrics"].items():
        if metric["unit"] != units[name]:
            fail(f"{name} reported in {metric['unit']}, BENCHMARK.json says "
                 f"{units[name]}")

    for line in lines[:-1]:
        print(line)
    print(f"wall: {time.monotonic() - started:.3f} s")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": dict(sorted(result["metrics"].items()))}), flush=True)
    return 0 if proc.returncode == 0 and result["correct"] else 1


def main():
    bench = load_json(os.path.join(REPO, "BENCHMARK.json"))
    layout = load_json(os.path.join(HERE, "workloads.json"))
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive", 2)

    if not os.path.isfile(os.path.join(REPO, "src", "CMakeLists.txt")):
        fail("no fedsched sources (src/) next to perfbench/", 2)
    out_dir = build_dir()
    try:
        binary = build(out_dir)
    except subprocess.CalledProcessError as error:
        fail(f"build failed: {error}", 2)

    workloads = names if args.workload == "all" else [args.workload]
    return max(run_workload(bench, layout, binary, out_dir, w, args.seed, args.seconds,
                            args.trace) for w in workloads)


if __name__ == "__main__":
    sys.exit(main())
