"""Tests of the benchmark itself: hooks fire where expected, stay at zero
where a workload bypasses a layer, repeat their exact counts, and the
correctness gates reject wrong output.

    PYTHONPATH=src python3 -m pytest -q dstbench/test_dstbench.py

Each workload is traced twice in-process, which takes about a minute.
"""
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracer as tr  # noqa: E402
from worker import HostSpeed, run_pass  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 3


def traced_pass(name, tmp_path):
    """Layer metrics of one traced pass of a freshly set-up workload."""
    workload = WORKLOADS[name](SEED, str(tmp_path))
    units = workload.units()
    failures = []
    tracer = tr.Tracer()
    with tracer.installed():
        run_pass(workload, units, failures, HostSpeed(), tracer)
    assert failures == []
    metrics = tr.layer_metrics(
        tracer,
        csv_rows=sum(getattr(workload, "csv_rows", {}).values()),
        csv_bytes=sum(getattr(workload, "csv_bytes", {}).values()),
        report_bytes=getattr(workload, "report_bytes", 0))
    return {k: v for k, (v, _) in metrics.items()}, tracer


@pytest.fixture(scope="module")
def traces(tmp_path_factory):
    out = {}
    for name in WORKLOADS:
        runs = [traced_pass(name, tmp_path_factory.mktemp(name)) for _ in range(2)]
        out[name] = [m for m, _ in runs], runs[0][1]
    return out


def group(metrics, prefix):
    return {k: v for k, v in metrics.items() if k.startswith(prefix)}


def test_simulate_touches_only_the_classical_stack(traces):
    (m, _), _ = traces["simulate-regimes"]
    for prefix in ("kernel.", "weyl.", "quantum.", "verify.", "rmatrix.",
                   "backlund.", "baxter."):
        assert all(v == 0 for v in group(m, prefix).values()), prefix
    for bc, n in tr.SIMULATE_UNITS:
        assert m[f"cli.simulate.{bc}-n{n}.s"] > 0
    for label in tr.REGIME_LABELS:
        assert m[f"monodromy.generator.{label}.calls"] > 0
    assert m["lattice.step_rk4.calls"] > 0 and m["lattice.eom.calls"] > 0
    assert m["lattice.states_per_step"] > 0
    assert m["monodromy.generator.calls_per_sample"] >= 1
    assert m["poly.Mat2.matmul.calls"] > 0 and m["poly.Poly.mul.calls"] > 0
    assert m["cli.simulate.csv.bytes"] > 0


def test_ladder_touches_only_the_quantum_stack(traces):
    (m, _), _ = traces["quantum-ladder"]
    for prefix in ("lattice.", "monodromy.", "verify.", "cli.", "rmatrix.",
                   "backlund.", "baxter."):
        assert all(v == 0 for v in group(m, prefix).values()), prefix
    for check, sites in tr.LADDER_CHECKS:
        for n in sites:
            assert m[f"quantum.{check}.n{n}.s"] > m[f"quantum.{check}.n{n}.self_s"] > 0
    for key in ("kernel.mul_into.calls", "kernel.mul_into.term_pairs",
                "kernel.add_into.calls", "kernel.trim.calls", "weyl.WeylOp.mul.calls",
                "weyl.WeylOp.apply.calls", "poly.Mat2.matmul.calls",
                "quantum.dressed_U_op.n1.terms", "quantum.dressed_U_op.n2.terms"):
        assert m[key] > 0, key


def test_verify_all_reaches_every_suite(traces):
    (m, _), _ = traces["verify-all"]
    assert all(v == 0 for v in group(m, "cli.simulate.").values())
    assert all(v > 0 for v in group(m, "verify.").values())
    for key in ("kernel.mul_into.calls", "weyl.WeylOp.apply.calls",
                "lattice.step_rk4.calls", "monodromy.conserved_coeffs.s",
                "rmatrix.cism2_residual_U.s", "backlund.bt_solve.calls",
                "baxter.bethe_solve.s", "baxter.eigen_membership_residual.s",
                "quantum.q_reflection_dressed.n2.s", "quantum.hq_extract.n3.s"):
        assert m[key] > 0, key
    # The suites stop short of the ladder's larger checks.
    assert m["quantum.tau_commutes.n3.s"] == 0 and m["quantum.rtt_residual.n3.s"] == 0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_exact_counts_repeat(traces, name):
    (a, b), _ = traces[name]
    counts = [k for k in a if k.endswith((".calls", ".term_pairs", ".terms", ".bytes"))]
    counts += ["lattice.states_per_step", "monodromy.generator.calls_per_sample",
               "kernel.trim.dropped_frac"]
    assert {k: a[k] for k in counts} == {k: b[k] for k in counts}


def test_spans_have_parents_and_units(traces):
    _, tracer = traces["quantum-ladder"]
    names = {s[1] for s in tracer.spans}
    assert "unit.tau_commutes.n3" in names
    for sid, name, unit, parent, start, end in tracer.spans:
        assert end >= start and unit is not None
        if not name.startswith("unit."):
            assert parent is not None and parent < sid


def test_a_check_nested_in_another_counts_with_the_outer_one(traces):
    (m, _), tracer = traces["quantum-ladder"]
    spans = tracer.spans
    calls = [s for s in spans if s[1] == "quantum.hq_extract.n2"]
    own = [s for s in calls if spans[s[3]][1] == "unit.hq_extract.n2"]
    # hq_classical_limit_residual also calls hq_extract at N=2.
    assert len(own) == 1 < len(calls)
    assert m["quantum.hq_extract.n2.s"] == own[0][5] - own[0][4]


def test_every_hook_is_removed_afterwards():
    from dstlab import cli, lattice, poly, quantum, verify, weyl
    kernel = weyl._kernel
    before = (kernel.mul_into, lattice.step_rk4, cli.step_rk4, verify.step_rk4,
              verify.SUITES["quantum"], poly.Mat2.__mul__, lattice.LatticeState.__init__)
    with tr.Tracer().installed():
        assert quantum._kernel.mul_into is not before[0]
        assert cli.step_rk4 is lattice.step_rk4 is not before[1]
        assert verify.SUITES["quantum"] is verify.suite_quantum is not before[4]
        assert poly.Mat2.__mul__ is poly.Mat2.__matmul__
    after = (kernel.mul_into, lattice.step_rk4, cli.step_rk4, verify.step_rk4,
             verify.SUITES["quantum"], poly.Mat2.__mul__, lattice.LatticeState.__init__)
    assert all(x is y for x, y in zip(before, after))


def test_probe_time_is_left_out_of_unit_time():
    class NoGate:
        def gate(self, unit_id, outcome):
            return []

    def spin():
        end = time.perf_counter() + 0.5
        while time.perf_counter() < end:
            pass
    host = HostSpeed()
    before = signal.getsignal(signal.SIGALRM)
    with host.sampling():
        busy, speed = run_pass(NoGate(), [("spin", spin)], [], host)
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(host.samples) >= 4 and speed > 0
    # Only the sample taken at the start of the pass lies outside the unit.
    assert busy == pytest.approx(0.5 - host.spent, abs=0.01)


def test_oracle_rejects_an_engine_with_empty_products(tmp_path, monkeypatch):
    from dstlab import weyl
    workload = WORKLOADS["quantum-ladder"](SEED, str(tmp_path))
    monkeypatch.setattr(weyl._kernel, "mul_into", lambda out, ta, tb, n, factor=1: out)
    problems = workload.gate("oracle", workload._oracle())
    assert problems and all("oracle disagrees" in p for p in problems)


def test_verify_gate_rejects_a_missing_control():
    import json
    workload = WORKLOADS["verify-all"](SEED, "")
    records = [{"identity_id": rid, "pass": True} for rid in
               ("rtt-control", "reflection-control")]
    report = json.dumps({"records": records, "summary": {"failed": 0}})
    problems = workload.gate("verify-all", (0, report))
    assert any("bethe-membership-control" in p for p in problems)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "dstbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "dstbench/run.py", "--workload", "verify-all",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
