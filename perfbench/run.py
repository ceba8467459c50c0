#!/usr/bin/env python3
"""Repository benchmark: builds the library and driver from source, runs one
workload, checks its outputs, and prints one JSON result as the last line.

    python3 perfbench/run.py --workload <train|a7_eval|maeri_eco> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under that root; see perfbench/README.md for the
workloads and metrics.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    """Configures once and builds incrementally; output goes to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"library sources not found under {ROOT} (run from a full checkout)")
    build_dir.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            die("build failed: " + " ".join(cmd))
    return build_dir / "perfbench_driver"


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def code_hash():
    """Hash of the sources the driver is built from, so that quality records
    are only compared between runs of identical code."""
    h = hashlib.sha256()
    files = []
    for base in (ROOT / "src", HERE / "src"):
        files += sorted(p for p in base.rglob("*") if p.is_file())
    for path in files + [HERE / "CMakeLists.txt"]:
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def check_against_seed_record(record_dir, args, quality, passed):
    """Quality figures are exact: a run whose figures differ from an earlier
    run of the same code, workload and seed is wrong. Only a run that passed
    its other checks leaves a record. Returns an error or None."""
    record_dir.mkdir(parents=True, exist_ok=True)
    path = record_dir / f"{args.workload}-{args.seed}-{code_hash()}.json"
    if path.is_file():
        earlier = json.loads(path.read_text())
        if earlier != quality:
            return f"quality differs from an earlier run with seed {args.seed}: {earlier} vs {quality}"
    elif passed:
        path.write_text(json.dumps(quality, sort_keys=True))
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        die("--seed must be >= 0 and --seconds >= 1")

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    driver = build(build_dir)
    cmd = [str(driver), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"driver did not finish within {RUN_TIMEOUT_S} s", 1)
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        die(f"driver exited with {proc.returncode}", proc.returncode if proc.returncode > 0 else 1)
    for line in lines[:-1]:
        print(line)
    record = json.loads(lines[-1])

    errors = []
    declared = declared_metrics(args.trace)
    emitted = {name: m["unit"] for name, m in record["metrics"].items()}
    if emitted != declared:
        errors.append(f"emitted metrics {emitted} do not match BENCHMARK.json {declared}")
    seed_error = check_against_seed_record(build_dir / "quality", args, record["quality"],
                                           record["correct"] and not errors)
    if seed_error:
        errors.append(seed_error)
    for e in errors:
        print(f"perfbench: check failed: {e}", file=sys.stderr)

    correct = record["correct"] and not errors
    print(json.dumps({"provenance": record["provenance"], "quality": record["quality"]}))
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
