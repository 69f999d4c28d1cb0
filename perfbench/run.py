"""gcl benchmark: one run of one workload.

    python3 perfbench/run.py --workload pretrain-small --seed 1 --seconds 28 --trace 0

Run from the root of a checkout. Each run starts a fresh child process
(`session.py`) with BLAS pinned to one thread, so peak RSS and lazy set-up
belong to the run. `--trace 0` prints every end-to-end metric; `--trace 1`
runs the workload twice, untraced and then traced, each for half the
seconds, and prints every per-layer metric plus the tracing overhead. Every
run checks the outputs (see README.md) and exits non-zero when a check fails.

The last line of standard output is the JSON result
{"correct", "attempted", "failed", "metrics"}; the lines before it list the
metrics with their units and the machine metadata. The full result, and the
spans of a traced run, are written under `.bench_out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
RUN_LIMIT_S = 170.0  # a run must end within 180 s

# One BLAS thread: with 2 CPUs, grid workers x BLAS threads must stay <= nproc,
# and multithreaded BLAS slows the small matmuls of this engine under contention.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None  # an exported checkout carries no commit
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def run_child(workload, seed, seconds, trace, deadline):
    tag = f"{workload}-seed{seed}-trace{trace}"
    out = os.path.join(OUT_DIR, tag + ".json")
    cmd = [sys.executable, os.path.join(HERE, "session.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace), "--out", out]
    if trace:
        cmd += ["--spans", os.path.join(OUT_DIR, f"{workload}-seed{seed}-spans.jsonl")]
    if os.path.exists(out):
        os.remove(out)
    env = {**os.environ, **CHILD_ENV}
    timeout = max(deadline - time.monotonic(), 1.0)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, timeout=timeout)
    except subprocess.TimeoutExpired:  # subprocess.run kills and reaps the child
        sys.exit(f"{tag}: run did not finish within {RUN_LIMIT_S:.0f} s")
    if proc.returncode != 0 or not os.path.exists(out):
        sys.exit(f"{tag}: benchmark child exited with code {proc.returncode}")
    with open(out) as fh:
        return json.load(fh)


def stage_seconds(result):
    return sum(result["stages"].values())


def main(argv=None):
    ap = argparse.ArgumentParser(description="gcl benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "gcl", "__init__.py")):
        sys.exit("src/gcl not found: run the benchmark from the root of a gcl checkout")
    sys.path.insert(0, HERE)
    from session import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}, expected one of {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        sys.exit("--seconds must be positive")
    if args.seed < 0:
        sys.exit("--seed must be a non-negative integer")
    os.makedirs(OUT_DIR, exist_ok=True)
    deadline = time.monotonic() + RUN_LIMIT_S

    if args.trace:
        # Two half runs cost about one metric run.
        half = args.seconds / 2.0
        plain = run_child(args.workload, args.seed, half, 0, deadline)
        traced = run_child(args.workload, args.seed, half, 1, deadline)
        results = [plain, traced]
        metrics = dict(traced["layers"])
        if plain["stages"] and plain["stages"].keys() == traced["stages"].keys():
            overhead = stage_seconds(traced) / stage_seconds(plain)
            metrics["trace_overhead_ratio"] = {"value": overhead, "unit": "ratio"}
    else:
        results = [run_child(args.workload, args.seed, args.seconds, 0, deadline)]
        metrics = results[0]["metrics"]

    correct = all(r["correct"] for r in results)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    meta = {**results[0]["meta"], "git_commit": git_commit(), "workload": args.workload,
            "seconds": args.seconds, "trace": args.trace}
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:>16.6g} {m['unit']}")
    for r in results:
        for failure in r["failures"]:
            print(f"FAILED: {failure}")
        if r["skips_by_kind"]:
            print(f"augmentation skips by kind: {r['skips_by_kind']}")
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
