"""Command-line harness: trajectory runs, identity suites, Bäcklund and
Baxter/Bethe experiments.  Seeded and reproducible: identical (command,
seed, version) produce byte-identical JSON.

Exit codes: 0 success, 1 verification failure, 2 trajectory blow-up,
3 cost guard, 64 usage error.
"""
from __future__ import annotations

import argparse
import json
import math
import re
import sys
from fractions import Fraction

import numpy as np

from . import __version__
from .errors import CostGuard, DstlabError, NonFiniteState
# step_rk4 is unused here, but dstbench's tests look it up in this module.
from .lattice import Open, Periodic, Quasiperiodic, step_rk4  # noqa: F401
from .monodromy import sampled_trajectory

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_BLOWUP = 2
EXIT_COST = 3
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads this private attribute to tell a negative number from
        # a flag, and by default takes only -5 or -0.5 for a number.  No flag
        # here starts with a digit, so -5/4 and -3e-1 are values too.
        self._negative_number_matcher = re.compile(r"^-\.?\d[\d.eE/+-]*$")

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _number(convert, accept, what):
    """An argparse type: the value `convert` makes of the text, if `accept`
    holds for it.  ZeroDivisionError (Fraction("1/0")) is a bad number too,
    and argparse does not catch it, so every refusal is ArgumentTypeError."""
    def parse(text):
        try:
            value = convert(text)
        except (ValueError, ZeroDivisionError):
            value = None
        if value is None or not accept(value):
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return value
    return parse


_positive_int = _number(int, lambda v: v > 0, "a positive integer")
_count = _number(int, lambda v: v >= 0, "a non-negative integer")
_positive = _number(float, lambda v: math.isfinite(v) and v > 0, "a positive number")
_duration = _number(float, lambda v: math.isfinite(v) and v >= 0, "a non-negative number")
_rational = _number(Fraction, lambda v: True, "a rational number such as 2/3")


def _build_parser():
    p = _Parser(prog="dstlab",
                description="integrable discrete self-trapping lattice laboratory")
    p.add_argument("--version", action="version", version=f"dstlab {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--seed", type=int, default=1, help="64-bit RNG seed")
        sp.add_argument("--json", action="store_true",
                        help="print the machine-readable report to stdout")
        sp.add_argument("--out", type=str, default=None,
                        help="write the report (CSV for simulate, JSON otherwise)")

    def add_bc(sp):
        sp.add_argument("--bc", choices=["periodic", "quasi", "open"], default="periodic")
        sp.add_argument("--xi", type=float, default=2.0, help="quasiperiodic twist")
        sp.add_argument("--theta-minus", type=float, default=0.3)
        sp.add_argument("--theta-plus", type=float, default=0.7)

    sp = sub.add_parser("simulate", help="integrate a trajectory and track the conserved coefficients")
    sp.add_argument("--n", type=_positive_int, default=6)
    add_bc(sp)
    sp.add_argument("--dt", type=_positive, default=1e-3)
    sp.add_argument("--t-final", type=_duration, default=10.0)
    sp.add_argument("--scale", type=float, default=None,
                    help="initial amplitude override (defaults to the regime's stable range)")
    sp.add_argument("--sample-every", type=_positive_int, default=50)
    common(sp)

    sp = sub.add_parser("verify", help="run identity suites and emit a verification report")
    sp.add_argument("--suite", default="all",
                    help="classical | rmatrix | backlund | quantum | baxter | all")
    sp.add_argument("--tol-scale", type=float, default=1.0)
    sp.add_argument("--xi-minus", type=_rational, default=None,
                    help="rational boundary constant for the quantum suite (e.g. 2/3)")
    sp.add_argument("--xi-plus", type=_rational, default=None,
                    help="rational boundary constant for the quantum suite")
    common(sp)

    sp = sub.add_parser("backlund", help="solve the Bäcklund map and report its certificates")
    sp.add_argument("--n", type=_positive_int, default=3)
    sp.add_argument("--sigma", type=float, default=0.3)
    add_bc(sp)
    common(sp)

    sp = sub.add_parser("baxter", help="Bethe roots, eigenvalue samples and the three-term identity")
    sp.add_argument("--n", type=_positive_int, default=2)
    sp.add_argument("--m", type=_count, default=1)
    sp.add_argument("--xi", type=float, default=1.0)
    sp.add_argument("--eta", type=float, default=1.0)
    common(sp)
    return p


def _dump(report, args):
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    if args.json:
        sys.stdout.write(text)


def _fmt_c(z):
    z = complex(z)
    return [repr(z.real), repr(z.imag)]


def cmd_simulate(args):
    from .verify import initial_state
    bc = {"periodic": Periodic(),
          "quasi": Quasiperiodic(args.xi),
          "open": Open(args.theta_minus, args.theta_plus)}[args.bc]
    st = initial_state(args.n, bc, args.seed, amplitude=args.scale,
                       t_final=args.t_final)
    is_complex = any(isinstance(v, complex) or getattr(v, "imag", 0) != 0
                     for v in st.flat())
    n = args.n
    steps = int(round(args.t_final / args.dt))
    samples = sampled_trajectory(st, bc, args.dt, steps, args.sample_every)
    first = next(samples)
    c0 = first.coeffs
    deg = len(c0) - 1

    header = ["t"]
    for name, count in (("q", n), ("r", n)):
        for i in range(1, count + 1):
            header += [f"{name}{i}_re", f"{name}{i}_im"] if is_complex else [f"{name}{i}"]
    for k in range(deg + 1):
        header += [f"c{k}_re", f"c{k}_im"] if is_complex else [f"c{k}"]
    header.append("max_relative_drift")

    rows = []

    def emit(t, sample):
        row = [repr(float(t))]
        for v in sample.state.flat():
            row += _fmt_c(v) if is_complex else [repr(float(v))]
        for c in sample.coeffs:
            row += _fmt_c(c) if is_complex else [repr(float(c.real))]
        row.append(repr(float(sample.drift)))
        rows.append(row)

    emit(0.0, first)
    last = first
    blowup = False
    try:
        for last in samples:
            emit(last.step * args.dt, last)
        done = last.step
    except NonFiniteState as exc:
        blowup, done = True, exc.steps_done
    last_t = done * args.dt if done else 0.0
    drift = last.drift

    out_path = args.out or "trajectory.csv"
    with open(out_path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")

    summary = {
        "version": __version__,
        "command": "simulate",
        "n": n,
        "regime": bc.label,
        "dt": args.dt,
        "t_final": args.t_final,
        "seed": args.seed,
        "rows": len(rows),
        "csv": out_path,
        "max_relative_drift": drift,
        "blowup": blowup,
        "last_time": last_t,
        "coefficient_drift": {
            f"c{k}": float(abs(last.coeffs[k] - c0[k]) / max(1.0, abs(c0[k])))
            for k in range(deg + 1)
        } if not blowup else {},
    }
    text = json.dumps(summary, sort_keys=True, indent=2) + "\n"
    if args.json:
        sys.stdout.write(text)
    else:
        status = "blow-up" if blowup else "ok"
        print(f"simulate {bc.label} n={n}: {status}, {len(rows)} samples, "
              f"max drift {drift:.3e}, csv -> {out_path}")
    return EXIT_BLOWUP if blowup else EXIT_OK


def cmd_verify(args):
    from .verify import SUITES, run_suites
    if args.suite != "all" and args.suite not in SUITES:
        print(f"error: unknown suite {args.suite!r} "
              f"(choose from {', '.join(list(SUITES) + ['all'])})", file=sys.stderr)
        return EXIT_USAGE
    report = run_suites(args.suite, seed=args.seed, tol_scale=args.tol_scale,
                        xi_minus=args.xi_minus, xi_plus=args.xi_plus)
    _dump(report, args)
    s = report["summary"]
    if not args.json:
        for r in report["records"]:
            if not r["pass"]:
                print(f"FAIL {r['identity_id']}: residual={r['residual']} "
                      f"tolerance={r['tolerance']}")
        print(f"verify suite={args.suite} seed={args.seed}: "
              f"{s['passed']}/{s['total']} passed")
    return EXIT_OK if s["failed"] == 0 else EXIT_FAIL


def cmd_backlund(args):
    from .backlund import (BTParams, bt_generating_check,
                           bt_invariance_residual, bt_local_identity_residual,
                           bt_solve, bt_symplectic_residual, v_dressing_residual)
    from .lattice import LatticeState
    if args.bc == "open":
        print("error: the transformation acts on ring closures "
              "(--bc periodic or quasi)", file=sys.stderr)
        return EXIT_USAGE
    bc = Periodic() if args.bc == "periodic" else Quasiperiodic(args.xi)
    rng = np.random.default_rng(args.seed)
    n = args.n
    st = LatticeState(
        tuple(rng.uniform(0.6, 1.4, n) + 1j * rng.uniform(-0.3, 0.3, n)),
        tuple(rng.uniform(0.6, 1.4, n) + 1j * rng.uniform(-0.3, 0.3, n)))
    params = BTParams(args.sigma, bc)
    try:
        res = bt_solve(st, params)
    except DstlabError as exc:
        print(f"solve failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FAIL
    gen_res = bt_generating_check(st.q, st.r, res.y, res.Y, args.sigma,
                                  xi=params.xi)
    xi = params.xi
    loc = max(bt_local_identity_residual(
        st.q[i], st.r[i], res.y[i],
        res.y[i + 1] if i + 1 < n else xi * res.y[0],
        st.r[i - 1] if i else xi * st.r[n - 1], args.sigma) for i in range(n))
    inv_gen, inv_cl = bt_invariance_residual(st, res, params)
    sympl = bt_symplectic_residual(st, params) if n <= 3 else None
    dress_p, dress_m = v_dressing_residual(
        res.y[0], xi * res.y[0], xi * st.r[-1], st.r[-1], args.sigma,
        args.theta_minus, args.theta_plus)
    checks = {
        "newton_residual": (res.newton_residual, 1e-11),
        "generating_function": (gen_res, 1e-9),
        "local_exchange": (loc, 1e-9),
        "spectrum_invariance": (inv_gen, 1e-8),
        "closure_exchange": (inv_cl, 1e-8),
        "dressing_plus": (dress_p, 1e-10),
        "dressing_minus": (dress_m, 1e-10),
    }
    if sympl is not None:
        checks["symplectic_jacobian"] = (sympl, 1e-5)
    report = {
        "version": __version__,
        "command": "backlund",
        "n": n,
        "sigma": args.sigma,
        "regime": bc.label,
        "seed": args.seed,
        "steps_used": res.steps_used,
        "y": [[z.real, z.imag] for z in res.y],
        "Y": [[z.real, z.imag] for z in res.Y],
        "checks": {k: {"residual": float(abs(v)), "tolerance": t,
                       "pass": float(abs(v)) <= t}
                   for k, (v, t) in checks.items()},
    }
    ok = all(c["pass"] for c in report["checks"].values())
    report["pass"] = ok
    _dump(report, args)
    if not args.json:
        for k, c in report["checks"].items():
            print(f"{'PASS' if c['pass'] else 'FAIL'} {k}: {c['residual']:.3e} "
                  f"(tol {c['tolerance']:.0e})")
    return EXIT_OK if ok else EXIT_FAIL


def cmd_baxter(args):
    from .baxter import (QKernelParams, bethe_remainder, bethe_solve,
                         eigen_membership_residual, lambda_degree_probe,
                         lambda_from_roots, tq_scalar_residual)
    try:
        samples = (0.3, 1.7, -0.9)
        if args.m > 0:
            cfg = bethe_solve(args.n, args.m, args.xi, args.eta, seed=args.seed)
        else:
            from .baxter import BetheConfig
            cfg = BetheConfig(args.n, 0, args.xi, args.eta, (), 0.0)
        membership = max(eigen_membership_residual(cfg, s0) for s0 in samples)
        remainder = bethe_remainder(cfg) if args.m else 0.0
        degree = lambda_degree_probe(cfg) if args.m else 0.0
        rng = np.random.default_rng(args.seed)
        y1 = 0.9 + 0.3j
        mid = (rng.uniform(0.5, 1.5, args.n - 1)
               + 1j * rng.uniform(-0.4, 0.4, args.n - 1)) if args.n > 1 else []
        kp = QKernelParams(0.8 + 0.4j, args.eta, args.xi if args.xi != 0 else 1.0,
                           (y1, *mid, (args.xi if args.xi else 1.0) * y1),
                           tuple(rng.uniform(-0.8, 0.8, args.n)
                                 + 1j * rng.uniform(-0.4, 0.4, args.n)))
        tq, corr = tq_scalar_residual(kp)
    except CostGuard:
        raise  # main gives it its own exit code
    except DstlabError as exc:
        print(f"baxter run failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FAIL
    checks = {
        "bethe_residual": (cfg.residual, 1e-10),
        "polynomiality_remainder": (remainder, 1e-8),
        "eigenvalue_degree": (degree, 1e-8),
        "eigen_membership": (membership, 1e-6),
        "three_term_identity": (tq, 1e-9),
    }
    report = {
        "version": __version__,
        "command": "baxter",
        "n": args.n,
        "m": args.m,
        "xi": args.xi,
        "eta": args.eta,
        "seed": args.seed,
        "roots": [[z.real, z.imag] for z in cfg.roots],
        "lambda_samples": {repr(s0): [lambda_from_roots(cfg, s0).real,
                                      lambda_from_roots(cfg, s0).imag]
                           for s0 in samples},
        "eta_correction_factors": [abs(corr[0]), abs(corr[1])],
        "checks": {k: {"residual": float(abs(v)), "tolerance": t,
                       "pass": float(abs(v)) <= t}
                   for k, (v, t) in checks.items()},
    }
    ok = all(c["pass"] for c in report["checks"].values())
    report["pass"] = ok
    _dump(report, args)
    if not args.json:
        for k, c in report["checks"].items():
            print(f"{'PASS' if c['pass'] else 'FAIL'} {k}: {c['residual']:.3e} "
                  f"(tol {c['tolerance']:.0e})")
    return EXIT_OK if ok else EXIT_FAIL


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    handlers = {"simulate": cmd_simulate, "verify": cmd_verify,
                "backlund": cmd_backlund, "baxter": cmd_baxter}
    try:
        return handlers[args.command](args)
    except CostGuard as exc:
        print(f"cost guard: {exc}", file=sys.stderr)
        return EXIT_COST
    except NonFiniteState:
        return EXIT_BLOWUP


if __name__ == "__main__":
    sys.exit(main())
