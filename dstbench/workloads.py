"""The benchmark's workloads: set-up, units of work, and correctness gates.

A workload is built once per process (its set-up: import the dstlab modules
it uses and build its inputs from the seed), then runs passes.  A pass runs
every unit once, in a fixed order.  Each unit returns an outcome; its gate,
evaluated outside the timed region, lists what is wrong with it.  A unit
fails if it raises, returns an unexpected exit code, or fails its gate.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import random

from tracer import LADDER_CHECKS, SIMULATE_UNITS

# Negative controls and pinned variants of the full report: each must be
# present and passing, so a program that skips or inverts them fails.
VERIFY_CONTROLS = (
    "boundary-exchange-control", "lax-compatibility-control",
    "reflection-control", "bt-closure-control", "bt-dressing-control",
    "gauge-index-control", "bethe-membership-control", "rtt-control",
    "reflection-printed-variant", "sov-variant-difference",
)
DRIFT_TOLERANCE = 1e-8   # the generator-drift-* tolerance of the classical suite


def _cli_call(cli, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


class VerifyAll:
    """`dstlab verify --suite all --seed S --json`, in-process through cli.main."""

    name = "verify-all"

    def __init__(self, seed, workdir):
        # The suites import these lazily; importing them here keeps import
        # cost in set-up and out of the first pass.
        from dstlab import backlund, baxter, cli, quantum, rmatrix, verify  # noqa: F401
        self.cli = cli
        self.argv = ["verify", "--suite", "all", "--seed", str(seed), "--json"]
        self.first = None
        self.report_bytes = 0

    def units(self):
        return [("verify-all", lambda: _cli_call(self.cli, self.argv))]

    def gate(self, unit_id, outcome):
        code, text = outcome
        problems = []
        if code != 0:
            problems.append(f"exit code {code}")
        try:
            report = json.loads(text)
        except ValueError:
            return problems + ["report is not JSON"]
        if report["summary"]["failed"] != 0:
            problems.append(f"{report['summary']['failed']} records failed")
        passed = {r["identity_id"]: r["pass"] for r in report["records"]}
        for rid in VERIFY_CONTROLS:
            if passed.get(rid) is not True:
                problems.append(f"control {rid} missing or failing")
        self.report_bytes = len(text.encode())
        if self.first is None:
            self.first = text
        elif text != self.first:
            problems.append("report bytes differ from the first pass")
        return problems


class SimulateRegimes:
    """`dstlab simulate` at its defaults for each regime, plus N=24 periodic."""

    name = "simulate-regimes"

    def __init__(self, seed, workdir):
        from dstlab import cli, verify  # noqa: F401  (cmd_simulate imports verify)
        self.cli = cli
        self.argv = {}
        for bc, n in SIMULATE_UNITS:
            uid = f"{bc}-n{n}"
            out = os.path.join(workdir, f"{uid}.csv")
            self.argv[uid] = ["simulate", "--bc", bc, "--n", str(n),
                              "--seed", str(seed), "--json", "--out", out]
        self.first = {}
        self.csv_bytes = {}
        self.csv_rows = {}

    def units(self):
        return [(uid, lambda argv=argv: _cli_call(self.cli, argv))
                for uid, argv in self.argv.items()]

    def gate(self, unit_id, outcome):
        code, text = outcome
        problems = []
        if code != 0:
            problems.append(f"exit code {code}")
        try:
            summary = json.loads(text)
        except ValueError:
            return problems + ["summary is not JSON"]
        if summary.get("blowup") is not False:
            problems.append("trajectory blew up")
        drift = summary.get("max_relative_drift")
        if not (isinstance(drift, float) and drift < DRIFT_TOLERANCE):
            problems.append(f"max_relative_drift {drift!r} not below {DRIFT_TOLERANCE}")
        with open(self.argv[unit_id][-1], "rb") as fh:
            data = fh.read()
        self.csv_bytes[unit_id] = len(data)
        self.csv_rows[unit_id] = data.count(b"\n") - 1
        signature = (text, hashlib.sha256(data).hexdigest())
        if self.first.setdefault(unit_id, signature) != signature:
            problems.append("summary or CSV differs from the first pass")
        return problems


def ladder_params(seed):
    """(eta, xi_-, xi_+) as small rationals a/b with a, b in 1..8, from the seed."""
    rng = random.Random(seed)
    return tuple((rng.randint(1, 8), rng.randint(1, 8)) for _ in range(3))


class QuantumLadder:
    """Exact checks through dstlab.quantum with force=True at one QParams."""

    name = "quantum-ladder"
    FORCED = ("rtt_residual", "abd_commutation_residual", "q_reflection_dressed")

    def __init__(self, seed, workdir):
        from dstlab import quantum, weyl
        from dstlab._rat import rat
        self.quantum = quantum
        self.weyl = weyl
        self.params = quantum.QParams(*(rat(a, b) for a, b in ladder_params(seed)))
        self.oracle_ops, self.oracle_poly = _oracle_inputs(weyl.WeylOp, rat)

    def units(self):
        out = []
        for check, sites in LADDER_CHECKS:
            for n in sites:
                out.append((f"{check}.n{n}", lambda c=check, n=n: self._check(c, n)))
        out.append(("oracle", self._oracle))
        return out

    def _check(self, check, n):
        # Look the function up at call time, so that a traced pass sees it.
        fn = getattr(self.quantum, check)
        p = self.params
        if check == "hq_classical_limit_residual":
            return fn(n, p.xi_minus, p.xi_plus)
        if check in self.FORCED:
            return fn(n, p, force=True)
        return fn(n, p)

    def _oracle(self):
        """Kernel-independent agreement: products against composed actions,
        and the canonical commutator [d_i, q_i] = 1."""
        W = self.weyl.WeylOp
        bad = []
        for i, (a, b) in enumerate(self.oracle_ops):
            if (a * b).apply(self.oracle_poly[a.n]) != a.apply(b.apply(self.oracle_poly[a.n])):
                bad.append(f"product {i}")
        for n in (1, 2, 3):
            for i in range(n):
                if self.weyl.commutator(W.dq(n, i), W.q(n, i)) != 1:
                    bad.append(f"[d{i + 1}, q{i + 1}] at N={n}")
        return bad

    def gate(self, unit_id, outcome):
        check = unit_id.rsplit(".", 1)[0]
        if check == "oracle":
            return [f"oracle disagrees: {b}" for b in outcome]
        if check in ("rtt_residual", "tau_commutes", "q_reflection_dressed"):
            ok = outcome[0] is True
        elif check == "abd_commutation_residual":
            ok = len(outcome) == 3 and all(v[0] is True for v in outcome.values())
        elif check == "hq_extract":
            report = outcome[1]
            ok = report["exact"] is True and report["ordering"] == "qrqr"
        else:
            ok = outcome == 0
        return [] if ok else [f"{unit_id} returned {outcome!r:.200}"]


def _oracle_inputs(W, rat):
    """Fixed operators built from term maps (never from products, so that a
    broken product cannot make them vanish) and dense test polynomials."""
    rng = random.Random(20020202)

    def op(n, n_terms, max_exp=3):
        terms = {}
        while len(terms) < n_terms:
            key = tuple(rng.randint(0, max_exp) for _ in range(2 * n))
            terms[key] = rat(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 7))
        return W(n, terms)

    ops = [(op(1, 6), op(1, 6)), (op(2, 8), op(2, 8)), (op(2, 5), op(2, 10))]
    polys = {n: {mono: rat(sum(mono) + 1, 2 + mono[0])
                 for mono in itertools.product(range(7), repeat=n)}
             for n in (1, 2)}
    return ops, polys


WORKLOADS = {w.name: w for w in (VerifyAll, SimulateRegimes, QuantumLadder)}
