"""One benchmark process: set up a workload, then run and time its passes.

Started by run.py in a fresh interpreter.  It prints ``ready`` as soon as
set-up is done (run.py times the interval from process start to that line),
then the host speed measured right after set-up.  It ends by printing one
JSON line with the pass times, unit counts, gate failures, peak memory and
environment.  With --setup-only it stops after the host speed.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import signal
import statistics
import sys
import tempfile
import time
from contextlib import contextmanager
from fractions import Fraction

MIN_PASSES = 2
PROBE_PERIOD_S = 0.1     # interval between host-speed samples during a pass
PROBE_REF_S = 0.0025     # the probe's time at the reference host speed
SETUP_PROBES = 9


def probe():
    """A fixed pure-Python load (rational and float arithmetic, dict updates)
    that takes about 2.5 ms; its time measures the host's current speed."""
    s, x, d = Fraction(0), 0.0, {}
    for i in range(1, 300):
        s += Fraction(i % 7 + 1, i % 11 + 1) * Fraction(i % 5 + 1, 3)
        x = x * 0.999 + (i % 13) * 0.5
        key = (i & 63, i % 5)
        d[key] = d.get(key, 0) + i
    return s, x


def timed_probe():
    """Seconds one probe takes, with the collector off so that the program's
    heap does not change the probe's cost."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        probe()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    """Host speed sampled while passes run.

    The host is shared, and its speed drifts by up to a factor of two over
    seconds to minutes.  A timer signal runs the probe every PROBE_PERIOD_S
    seconds; each sample is PROBE_REF_S divided by the probe's time (1.0 at
    the reference speed).  A pass's time at the reference speed is its busy
    time multiplied by the mean of the samples taken during it, since the
    samples are evenly spaced in time.  The time spent in the probes is
    kept in ``spent``, and run_pass leaves it out of the units' time.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self._probing = False

    def sample(self, *_):
        if self._probing:  # a timer signal that arrives during a stalled probe
            return
        self._probing = True
        t0 = time.perf_counter()
        try:
            self.samples.append(PROBE_REF_S / timed_probe())
        finally:
            self.spent += time.perf_counter() - t0
            self._probing = False

    @contextmanager
    def sampling(self):
        old = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)


def run_pass(workload, units, failures, host, tracer=None):
    """Run every unit once; returns (busy seconds inside the units, mean host
    speed during the pass).  Each failing unit appends [unit id, problems]
    to ``failures``."""
    busy = 0.0
    first = len(host.samples)
    host.sample()
    for uid, fn in units:
        if tracer is not None:
            tracer.unit = uid
            sid = tracer.open(f"unit.{uid}")
        spent = host.spent
        t0 = time.perf_counter()
        try:
            outcome = fn()
        except Exception as exc:  # a unit that raises is a failed unit
            failures.append([uid, [f"raised {type(exc).__name__}: {exc}"]])
            continue
        finally:
            busy += time.perf_counter() - t0 - (host.spent - spent)
            if tracer is not None:
                tracer.close(sid)
        problems = workload.gate(uid, outcome)
        if problems:
            failures.append([uid, problems])
    return busy, statistics.fmean(host.samples[first:])


def kernel_micro(seed):
    """Pairs per second of the bare kernel on the three synthetic shapes of
    benchmarks/bench_weyl.py (random structured operators, N = 1, 2, 3)."""
    import random

    from dstlab import weyl
    from dstlab._rat import rat
    kernel = weyl._kernel
    rng = random.Random(seed)
    out = {}
    for n, n_terms, reps in ((1, 8, 16), (2, 16, 4), (3, 24, 1)):
        def terms():
            t = {}
            for _ in range(n_terms):
                key = tuple(rng.randint(0, 3) for _ in range(2 * n))
                t[key] = rat(rng.randint(-9, 9), rng.randint(1, 7))
            return t
        pairs = [(terms(), terms()) for _ in range(32)]
        work = reps * sum(len(a) * len(b) for a, b in pairs)
        t0 = time.perf_counter()
        for _ in range(reps):
            for a, b in pairs:
                kernel.trim(kernel.mul_into({}, a, b, n))
        out[n] = work / (time.perf_counter() - t0)
    return out


def environment():
    from importlib import metadata

    from dstlab import _rat, weyl

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "absent"
    return {
        "python": sys.version.split()[0],
        "kernel_backend": weyl.kernel_backend(),
        "rational_type": f"{_rat.RAT.__module__}.{_rat.RAT.__name__}",
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "usable_cores": len(os.sched_getaffinity(0)),
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tmp", required=True)
    args = ap.parse_args()

    from workloads import WORKLOADS
    workdir = tempfile.mkdtemp(dir=args.tmp)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        print("ready", flush=True)
        speed = PROBE_REF_S / statistics.median(timed_probe() for _ in range(SETUP_PROBES))
        print(f"speed {speed!r}", flush=True)
        if args.setup_only:
            return
        result = measure(workload, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    import resource
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["env"] = environment()
    print(json.dumps(result), flush=True)


def measure(workload, args):
    units = workload.units()
    failures = []
    busy, speeds = [], []
    host = HostSpeed()
    start = time.perf_counter()
    with host.sampling():
        while True:
            b, speed = run_pass(workload, units, failures, host)
            busy.append(b)
            speeds.append(speed)
            elapsed = time.perf_counter() - start
            # Stop before a pass that would overrun --seconds; but take a second
            # pass when the first fitted, so that the median is of two at least.
            if elapsed + statistics.median(busy) > args.seconds and (
                    len(busy) >= MIN_PASSES or elapsed > args.seconds):
                break
    passes = [b * s for b, s in zip(busy, speeds)]
    result = {"passes": passes, "busy": busy, "speeds": speeds,
              "attempted": len(passes) * len(units), "failures": failures}
    if args.trace:
        from tracer import Tracer, dump, layer_metrics
        micro = kernel_micro(args.seed) if workload.name == "quantum-ladder" else None
        tracer = Tracer()
        with tracer.installed(), host.sampling():
            b, speed = run_pass(workload, units, failures, host, tracer)
        traced = b * speed
        result["attempted"] += len(units)
        metrics = layer_metrics(
            tracer,
            csv_rows=sum(getattr(workload, "csv_rows", {}).values()),
            csv_bytes=sum(getattr(workload, "csv_bytes", {}).values()),
            report_bytes=getattr(workload, "report_bytes", 0),
            micro=micro)
        metrics["trace.wall_s"] = (traced, "s")
        metrics["trace.overhead_frac"] = (traced / statistics.median(passes) - 1, "ratio")
        result["layers"] = metrics
        result["trace"] = dump(tracer)
    return result


if __name__ == "__main__":
    main()
