#!/usr/bin/env python3
"""dstlab benchmark: one workload, one seed, end-to-end or traced.

    python3 dstbench/run.py --workload verify-all --seed 1 --seconds 30 --trace 0

Run from the root of a dstlab checkout; the package is used from ``src/``.
With --trace 0 it prints setup_s, wall_s and peak_rss_mb (and failed_frac,
which also appears as failed/attempted).  With --trace 1 it prints the
per-layer metrics of one traced pass and the tracing overhead, and writes
the spans to dstbench/out/.  The last line of standard output is the result
as one JSON object.  See dstbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("verify-all", "simulate-regimes", "quantum-ladder")
SETUP_SAMPLES = 7        # fresh interpreters timed for setup_s, the worker's own included


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    # One thread per process; a fixed hash seed removes one source of run-to-run noise.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def start_worker(args, setup_only):
    """Start a worker; returns (process, set-up seconds at the reference host
    speed).  The set-up time is measured from process start until the worker
    reports ready, and scaled by the host speed it measures right after."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--tmp", OUT]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env(),
                            cwd=ROOT)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        if line.strip() != "ready":
            raise RuntimeError(f"worker did not start: {line.strip()!r}")
        line = proc.stdout.readline().split()
        if len(line) != 2 or line[0] != "speed":
            raise RuntimeError(f"worker did not report the host speed: {line!r}")
        ready *= float(line[1])
        if setup_only:
            proc.communicate()
            if proc.returncode:
                raise RuntimeError(f"set-up worker exited with {proc.returncode}")
    except BaseException:
        stop(proc)
        raise
    return proc, ready


def stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    if proc.stdout:
        proc.stdout.close()


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run(args):
    os.makedirs(OUT, exist_ok=True)
    setup = []
    if not args.trace:
        # The first interpreter in a fresh checkout also compiles bytecode; not timed.
        start_worker(args, True)
        for _ in range(SETUP_SAMPLES - 1):
            setup.append(start_worker(args, True)[1])
    proc, ready = start_worker(args, False)
    setup.append(ready)
    try:
        text, _ = proc.communicate()
    finally:
        stop(proc)
    if proc.returncode:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(text.strip().splitlines()[-1]), setup


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # A run has no time limit of its own; when it is stopped from outside,
    # the worker is stopped with it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not os.path.isfile(os.path.join(SRC, "dstlab", "__init__.py")):
        print(f"error: no dstlab sources under {SRC}", file=sys.stderr)
        return 2
    try:
        res, setup = run(args)
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    env = dict(res["env"], git_commit=git_commit())
    attempted = res["attempted"]
    failed = len(res["failures"])
    print(f"dstbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for uid, problems in res["failures"]:
        print(f"FAIL {uid}: {'; '.join(problems)}")
    if args.trace:
        metrics = res["layers"]
        path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "env": env,
                       "metrics": metrics, **res["trace"]}, fh, indent=1)
        top = sorted(res["trace"]["self_s"].items(), key=lambda kv: -kv[1])[:12]
        print("self time by span: " + ", ".join(f"{k} {v:.3f}s" for k, v in top))
        print(f"spans written to {os.path.relpath(path, ROOT)}")
    else:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (statistics.median(res["passes"]), "s"),
            "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        }
        print(f"setup_s: median of {len(setup)} fresh interpreters; "
              f"wall_s: median of {len(res['passes'])} passes; both at the "
              f"reference host speed")
        print(f"unscaled median pass {statistics.median(res['busy'])!r} s; "
              f"host speed per pass {[round(v, 3) for v in res['speeds']]}")
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value!r:>24} {unit}")
    print(f"{'failed_frac':44s} {failed / attempted!r:>24} ratio "
          f"({failed} of {attempted} units failed)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
