#!/usr/bin/env python3
"""The repository's benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. It builds `pqos-qosd` and the measurement
harness (`perfbench/harness`) from source into `$CARGO_TARGET_DIR`
(default `.bench_build`), runs the workload, checks its outputs, writes a
full report (host, build, seed, checks, phase counts, spans) under
`.perfbench/`, and prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end metrics of BENCHMARK.json,
measured with tracing off; with `--trace 1` they are the per-layer metrics
of a separate traced run. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HARNESS_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def first_line(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip().splitlines()[0] if out.returncode == 0 and out.stdout.strip() else None


def source_digest():
    """SHA-256 over the sources the benchmark builds, for checkouts that
    are not git repositories."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "Cargo.toml"), os.path.join(ROOT, "Cargo.lock")]
    for base in ("crates", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, base)):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            paths.extend(os.path.join(dirpath, f) for f in sorted(filenames))
    for path in paths:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def host_record(seed):
    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.processor(),
        "kernel": platform.release(),
        "rustc": first_line(["rustc", "--version"]),
        "git_commit": first_line(["git", "rev-parse", "HEAD"]),
        "source_sha256": source_digest(),
        "seed": seed,
    }


def build(target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    steps = [
        ["cargo", "build", "--release", "--offline", "-q", "-p", "pqos-service", "--bin", "pqos-qosd"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join(HERE, "harness", "Cargo.toml")],
    ]
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd), 1)
    release = os.path.join(target_dir, "release")
    return os.path.join(release, "pqos-qosd"), os.path.join(release, "perfbench-harness")


def main():
    manifest_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(manifest_path):
        fail("run from the root of a checkout that has BENCHMARK.json")
    with open(manifest_path) as f:
        manifest = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in manifest["workloads"]])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")
    if not (os.path.isfile(os.path.join(ROOT, "Cargo.toml")) and os.path.isdir(os.path.join(ROOT, "crates"))):
        fail("the repository sources (Cargo.toml, crates/) are missing; nothing to build")

    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    qosd, harness = build(target_dir)
    out_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)

    cmd = [harness, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--qosd", qosd, "--out", out_dir]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"harness ran past {HARNESS_TIMEOUT_S} s", 1)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"harness failed (exit {proc.returncode})", 1)
    result = json.loads(lines[-1])

    traced = args.trace == "1"
    wanted = manifest["per_layer"] if traced else manifest["end_to_end"]
    values = result["values"]
    metrics, idle = {}, []
    for m in wanted:
        v = values.get(m["name"])
        if v is None and traced:
            # The layer does no work on this workload.
            v = 0.0
            idle.append(m["name"])
        if v is None or not math.isfinite(v):
            fail(f"{args.workload}: no value for {m['name']}", 1)
        if not traced and v <= 0:
            fail(f"{args.workload}: {m['name']} read {v}; end-to-end metrics are never 0", 1)
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}

    checks = result["checks"]
    correct = bool(result["correct"]) and bool(checks) and all(c["ok"] for c in checks)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": traced,
        "host": host_record(args.seed),
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "error_share": result["failed"] / max(result["attempted"], 1),
        "metrics": metrics,
        "idle_layers": idle,
        "checks": checks,
        "info": result["info"],
        "spans": result["spans"],
    }
    name = f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(out_dir, name), "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")

    print(f"perfbench {args.workload} seed {args.seed} ({'traced' if traced else 'untraced'}), "
          f"{report['host']['nproc']} cpus, report .perfbench/{name}")
    for c in checks:
        print(f"  check {'ok  ' if c['ok'] else 'FAIL'} {c['name']}: {c['detail']}")
    for k, m in metrics.items():
        print(f"  {k} = {m['value']:.6g} {m['unit']}{'  (idle)' if k in idle else ''}")
    print(f"  attempted {result['attempted']}, failed {result['failed']}")
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
