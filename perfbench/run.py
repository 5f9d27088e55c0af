#!/usr/bin/env python3
"""Run one workload of the ldgm benchmark and print its result.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload offline-mtx --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The script builds the harness in perfbench/harness (a package of its own
that links the repository's crates), generates the workload's input from
the seed into .bench_data/ unless an earlier run already did, runs the
harness, and prints the machine, the build, one line per metric, and as
its last line the result object. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HARNESS = os.path.join(ROOT, "perfbench", "harness")
DATA = os.path.join(ROOT, ".bench_data")
# A run must end within 180 s; leave room for start-up and printing.
RUN_TIMEOUT_S = 170
# Seed directories kept per workload; older ones are deleted (an
# offline-mtx input is ~150 MB).
KEEP_SEEDS = 3
# Written into each prepared seed directory; bump it when `prepare`
# writes something new, so stale directories are prepared again.
PREPARED = "perfbench-inputs-v2\n"


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def run(cmd, timeout):
    try:
        p = subprocess.run(cmd, cwd=ROOT, timeout=timeout, text=True, capture_output=True)
    except subprocess.TimeoutExpired:
        fail(f"timed out after {timeout} s: {' '.join(cmd)}")
    if p.returncode != 0:
        fail(f"{' '.join(cmd)} exited {p.returncode}:\n{p.stderr}")
    return p.stdout


def build():
    """Build the harness; returns the binary's path."""
    for need in ["Cargo.toml", "crates"]:
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(f"{need} not found: run from a checkout of the ldgm repository")
    if shutil.which("cargo") is None:
        fail("cargo not found")
    run(["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HARNESS, "Cargo.toml")], timeout=900)
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(HARNESS, "target"))
    return os.path.join(ROOT, target, "release", "perfbench")


def source_digest():
    """Commit id when run from git, else a digest of the sources built."""
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              capture_output=True, timeout=10)
        if head.returncode == 0:
            return head.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for top in ["Cargo.toml", "Cargo.lock", "src", "crates", "vendor", "perfbench"]:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "src-sha256:" + h.hexdigest()[:16]


def machine(seed):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(l.split(":", 1)[1].strip() for l in f if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    mem_gib = 0.0
    try:
        with open("/proc/meminfo") as f:
            kb = next(int(l.split()[1]) for l in f if l.startswith("MemTotal"))
            mem_gib = kb / 1024 / 1024
    except (OSError, StopIteration):
        pass
    rustc = subprocess.run(["rustc", "--version"], text=True, capture_output=True).stdout.strip()
    return {
        "cores": os.cpu_count(),
        "cpu": cpu,
        "mem_gib": round(mem_gib, 1),
        "os": platform.platform(),
        "rustc": rustc,
        "commit": source_digest(),
        "seed": seed,
    }


def prepare(binary, workload, seed, toy):
    """Generate the seed's input once; later runs reuse it."""
    tag = "toy-" if toy else ""
    wdir = os.path.join(DATA, tag + workload)
    sdir = os.path.join(wdir, f"seed-{seed}")
    done = os.path.join(sdir, "prepared")
    if not os.path.exists(done) or open(done).read() != PREPARED:
        shutil.rmtree(sdir, ignore_errors=True)
        cmd = [binary, "prepare", "--workload", workload, "--seed", str(seed), "--dir", sdir]
        run(cmd + (["--toy"] if toy else []), timeout=RUN_TIMEOUT_S)
        with open(done, "w") as f:
            f.write(PREPARED)
    os.utime(done)
    seeds = sorted((os.path.join(wdir, d) for d in os.listdir(wdir)),
                   key=lambda d: os.path.getmtime(os.path.join(d, "prepared"))
                   if os.path.exists(os.path.join(d, "prepared")) else 0)
    for old in seeds[:-KEEP_SEEDS]:
        shutil.rmtree(old, ignore_errors=True)
    return sdir


def measure(binary, workload, seed, seconds, trace, toy=False, inject=False):
    """Run one measurement; returns (printed lines, result object)."""
    start = time.monotonic()
    sdir = prepare(binary, workload, seed, toy)
    cmd = [binary, "measure", "--workload", workload, "--seed", str(seed), "--dir", sdir,
           "--seconds", str(seconds), "--trace", str(trace)]
    cmd += (["--toy"] if toy else []) + (["--inject-wrong-mate"] if inject else [])
    left = max(10, RUN_TIMEOUT_S - int(time.monotonic() - start))
    lines = run(cmd, timeout=left).strip().splitlines()
    if not lines:
        fail("harness printed nothing")
    return lines[:-1], json.loads(lines[-1])


def self_test(binary):
    """Toy-size check: every metric is printed with its unit, and an
    injected wrong mate array counts as a failed operation."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for w in spec["workloads"]:
        name = w["name"]
        for trace, key in [(0, "end_to_end"), (1, "per_layer")]:
            lines, result = measure(binary, name, 7, 1, trace, toy=True)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{name} trace {trace}: metrics {got} != {want}")
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{name} trace {trace}: not correct: {lines}")
        _, bad = measure(binary, name, 7, 1, 0, toy=True, inject=True)
        if bad["correct"] or bad["failed"] < 1:
            problems.append(f"{name}: injected wrong mate array was not counted as failed")
        print(f"self-test {name}: injected fault -> failed {bad['failed']} of {bad['attempted']}")
    for p in problems:
        print("self-test FAILED:", p)
    print("self-test", "FAILED" if problems else "passed")
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", help="a workload named in BENCHMARK.json")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    binary = build()
    if args.self_test:
        sys.exit(self_test(binary))

    info = machine(args.seed)
    print(f"perfbench: workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("machine: " + " ".join(f"{k}={json.dumps(v)}" for k, v in info.items()))
    print(f"inputs: generated from the seed into {os.path.relpath(DATA, ROOT)}/, untimed, "
          "reused across runs")
    lines, result = measure(binary, args.workload, args.seed, args.seconds, args.trace)
    for line in lines:
        print(line)
    os.makedirs(os.path.join(DATA, "results"), exist_ok=True)
    record = os.path.join(DATA, "results",
                          f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record, "w") as f:
        json.dump({"workload": args.workload, "trace": args.trace, "machine": info,
                   "result": result}, f, indent=1)
    print(f"record: {os.path.relpath(record, ROOT)}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
