"""Command-line harness: trajectory runs, identity suites, Bäcklund and
Baxter/Bethe experiments.  Seeded and reproducible: identical (command,
seed, version) produce byte-identical JSON.

Exit codes: 0 success, 1 verification failure or a run stopped by another
DstlabError, 2 trajectory blow-up, 3 cost guard, 64 usage error.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import re
import stat
import sys
from fractions import Fraction

from . import __version__
from ._rng import PCG64
from .errors import CostGuard, DstlabError, NonFiniteState
# step_rk4 is unused here, but dstbench's tests look it up in this module.
from .lattice import Open, Periodic, Quasiperiodic, step_rk4  # noqa: F401
from .monodromy import relative_drift, sampled_trajectory

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
_non_negative = _number(float, lambda v: math.isfinite(v) and v >= 0, "a non-negative number")
_finite = _number(float, math.isfinite, "a finite number")
_nonzero = _number(float, lambda v: math.isfinite(v) and v != 0, "a finite nonzero number")
_rational = _number(Fraction, lambda v: True, "a rational number such as 2/3")


@functools.cache
def _build_parser():
    """The command-line parser, built once per process: argparse's objects
    form reference cycles that only the cyclic collector frees.  It holds no
    handlers: `main` looks the cmd_* functions up when it dispatches, so a
    rebound one is the one called."""
    p = _Parser(prog="dstlab",
                description="integrable discrete self-trapping lattice laboratory")
    p.add_argument("--version", action="version", version=f"dstlab {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--seed", type=_count, default=1,
                        help="RNG seed, a non-negative integer")
        sp.add_argument("--json", action="store_true",
                        help="print the machine-readable report to stdout")
        sp.add_argument("--out", type=str, default=None,
                        help="write the report (CSV for simulate, JSON otherwise)")

    def add_bc(sp, regimes):
        sp.add_argument("--bc", choices=regimes, default="periodic")
        sp.add_argument("--xi", type=_nonzero, default=2.0, help="quasiperiodic twist")
        sp.add_argument("--theta-minus", type=_finite, default=0.3)
        sp.add_argument("--theta-plus", type=_finite, default=0.7)

    sp = sub.add_parser("simulate", help="integrate a trajectory and track the conserved coefficients")
    sp.add_argument("--n", type=_positive_int, default=6)
    add_bc(sp, ["periodic", "quasi", "open"])
    sp.add_argument("--dt", type=_positive, default=1e-3)
    sp.add_argument("--t-final", type=_non_negative, default=10.0)
    sp.add_argument("--scale", type=_non_negative, default=None,
                    help="initial amplitude override (defaults to the regime's stable range)")
    sp.add_argument("--sample-every", type=_positive_int, default=50)
    common(sp)

    sp = sub.add_parser("verify", help="run identity suites and emit a verification report")
    sp.add_argument("--suite", default="all",
                    help="classical | rmatrix | backlund | quantum | baxter | all")
    sp.add_argument("--xi-minus", type=_rational, default=None,
                    help="rational boundary constant for the quantum suite (e.g. 2/3)")
    sp.add_argument("--xi-plus", type=_rational, default=None,
                    help="rational boundary constant for the quantum suite")
    common(sp)

    sp = sub.add_parser("backlund", help="solve the Bäcklund map and report its certificates")
    sp.add_argument("--n", type=_positive_int, default=3)
    sp.add_argument("--sigma", type=_finite, default=0.3)
    add_bc(sp, ["periodic", "quasi"])
    common(sp)

    sp = sub.add_parser("baxter", help="Bethe roots, eigenvalue samples and the three-term identity")
    sp.add_argument("--n", type=_positive_int, default=2)
    sp.add_argument("--m", type=_count, default=1)
    sp.add_argument("--xi", type=_nonzero, default=1.0)
    sp.add_argument("--eta", type=_nonzero, default=1.0)
    common(sp)
    return p


def _json_text(report):
    """report as sorted, indented JSON text.  A float that is not finite is
    written as its repr string ("nan", "inf"), as exact records write
    "exact-fail", so the text stays strict JSON."""
    def strict(v):
        if isinstance(v, float) and not math.isfinite(v):
            return repr(float(v))
        if isinstance(v, dict):
            return {k: strict(x) for k, x in v.items()}
        return [strict(x) for x in v] if isinstance(v, (list, tuple)) else v
    return json.dumps(strict(report), sort_keys=True, indent=2) + "\n"


@contextlib.contextmanager
def _open_out(path):
    """A context giving the text file at `path` for writing, or None without
    a path.  Callers open it before their run, so that a path that cannot be
    written fails at once.

    The file is written in place from its first byte, not truncated on
    open: on ext4, truncating a file to zero makes its close allocate and
    write back the new data, and each rerun then frees those blocks, which
    took about 60 ms per 90 KB CSV on an ext4 disk mounted with `discard`
    (0.1 ms in place).  When the block ends, normally or by any exception,
    the file is cut at the last byte written, if it is a regular file
    (`/dev/null`, ttys and pipes cannot be cut).  A process killed by
    SIGKILL never reaches that cut, so its file keeps the older file's
    bytes after the last byte it wrote."""
    if not path:
        yield None
        return
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w") as fh:
        try:
            yield fh
        finally:
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate()


def _dump(report, args, out):
    """Write the report's JSON text to `out` (the file _open_out gave, or
    None) and, with --json, to stdout."""
    text = _json_text(report)
    if out is not None:
        out.write(text)
    if args.json:
        sys.stdout.write(text)


def cmd_simulate(args):
    from .verify import initial_state
    steps = args.t_final / args.dt
    if not math.isfinite(steps):
        print(f"error: --t-final {args.t_final!r} / --dt {args.dt!r} "
              "is not a finite number of steps", file=sys.stderr)
        return EXIT_USAGE
    steps = round(steps)
    bc = {"periodic": Periodic(),
          "quasi": Quasiperiodic(args.xi),
          "open": Open(args.theta_minus, args.theta_plus)}[args.bc]
    st = initial_state(args.n, bc, args.seed, amplitude=args.scale,
                       t_final=args.t_final)
    is_complex = any(isinstance(v, complex) or getattr(v, "imag", 0) != 0
                     for v in st.flat())
    n = args.n

    # t, the drift and a real state's entries are floats, and the
    # coefficients complex, so repr of each (or of its parts) is the cell
    def row(t, sample):
        z = sample.state.q + sample.state.r
        if is_complex:
            cells = ",".join(f"{v.real!r},{v.imag!r}" for v in z + sample.coeffs)
        else:
            cells = ",".join(map(repr, z + tuple(c.real for c in sample.coeffs)))
        return f"{t!r},{cells},{sample.drift!r}\n"

    # Each row is written as it is sampled, so an interrupted run keeps the
    # rows before the interruption.
    out_path = args.out or "trajectory.csv"
    with _open_out(out_path) as fh:
        samples = sampled_trajectory(st, bc, args.dt, steps, args.sample_every)
        first = last = next(samples)
        c0 = first.coeffs
        header = ["t"]
        for name, count in (("q", n), ("r", n)):
            for i in range(1, count + 1):
                header += [f"{name}{i}_re", f"{name}{i}_im"] if is_complex else [f"{name}{i}"]
        for k in range(len(c0)):
            header += [f"c{k}_re", f"c{k}_im"] if is_complex else [f"c{k}"]
        header.append("max_relative_drift")
        fh.write(",".join(header) + "\n")
        fh.write(row(0.0, first))
        rows, blowup = 1, False
        try:
            for last in samples:
                fh.write(row(last.step * args.dt, last))
                rows += 1
            done = last.step
        except NonFiniteState as exc:
            blowup, done = True, exc.steps_done
    last_t = done * args.dt if done else 0.0
    drift = last.drift

    summary = {
        "version": __version__,
        "command": "simulate",
        "n": n,
        "regime": bc.label,
        "dt": args.dt,
        "t_final": args.t_final,
        "seed": args.seed,
        "rows": rows,
        "csv": out_path,
        "max_relative_drift": drift,
        "blowup": blowup,
        "last_time": last_t,
        "coefficient_drift": {
            f"c{k}": float(d) for k, d in enumerate(relative_drift(last.coeffs, c0))
        } if not blowup else {},
    }
    if args.json:
        sys.stdout.write(_json_text(summary))
    else:
        status = "blow-up" if blowup else "ok"
        print(f"simulate {bc.label} n={n}: {status}, {rows} samples, "
              f"max drift {drift:.3e}, csv -> {out_path}")
    return EXIT_BLOWUP if blowup else EXIT_OK


def cmd_verify(args):
    from .verify import SUITES, run_suites
    if args.suite != "all" and args.suite not in SUITES:
        print(f"error: unknown suite {args.suite!r} "
              f"(choose from {', '.join(list(SUITES) + ['all'])})", file=sys.stderr)
        return EXIT_USAGE
    with _open_out(args.out) as out:
        report = run_suites(args.suite, seed=args.seed, xi_minus=args.xi_minus,
                            xi_plus=args.xi_plus)
        _dump(report, args, out)
    s = report["summary"]
    if not args.json:
        for r in report["records"]:
            if not r["pass"]:
                print(f"FAIL {r['identity_id']}: residual={r['residual']} "
                      f"tolerance={r['tolerance']}")
        print(f"verify suite={args.suite} seed={args.seed}: "
              f"{s['passed']}/{s['total']} passed")
    return EXIT_OK if s["failed"] == 0 else EXIT_FAIL


def _report_checks(args, out, report, residuals, tolerances):
    """Complete `report` with the {residual, tolerance, pass} table of
    `residuals` ({name: residual}) and the overall pass, write it to `out`
    and --json, print one PASS/FAIL line per check unless --json, and return
    the exit code."""
    report.update(version=__version__, command=args.command, seed=args.seed)
    report["checks"] = {k: {"residual": float(abs(v)), "tolerance": tolerances[k],
                            "pass": float(abs(v)) <= tolerances[k]}
                        for k, v in residuals.items()}
    ok = report["pass"] = all(c["pass"] for c in report["checks"].values())
    _dump(report, args, out)
    if not args.json:
        for k, c in report["checks"].items():
            print(f"{'PASS' if c['pass'] else 'FAIL'} {k}: {c['residual']:.3e} "
                  f"(tol {c['tolerance']:.0e})")
    return EXIT_OK if ok else EXIT_FAIL


def cmd_backlund(args):
    from .backlund import (CERT_TOL, BTParams, _ring_next, _ring_prev, bt_certificates,
                           bt_symplectic_residual, solvable_state, v_dressing_residual)
    bc = Periodic() if args.bc == "periodic" else Quasiperiodic(args.xi)
    n = args.n
    st = solvable_state(PCG64(args.seed), n)
    params = BTParams(args.sigma, bc)
    xi = params.xi
    with _open_out(args.out) as out:
        res, certs = bt_certificates(st, params)
        certs["dressing_plus"], certs["dressing_minus"] = v_dressing_residual(
            res.y[0], _ring_next(res.y, xi)[-1], _ring_prev(st.r, xi)[0], st.r[-1],
            args.sigma, args.theta_minus, args.theta_plus)
        certs["symplectic_jacobian"] = bt_symplectic_residual(st, params)
        report = {
            "n": n,
            "sigma": args.sigma,
            "regime": bc.label,
            "mu": [res.mu.real, res.mu.imag],
            "y": [[z.real, z.imag] for z in res.y],
            "Y": [[z.real, z.imag] for z in res.Y],
        }
        return _report_checks(args, out, report, certs, CERT_TOL)


def cmd_baxter(args):
    from .baxter import (CERT_TOL, MEMBERSHIP_SAMPLES, QKernelParams,
                         bethe_certificates, bethe_solve, kernel_sites,
                         lambda_from_roots, tq_scalar_residual)
    with _open_out(args.out) as out:
        cfg = bethe_solve(args.n, args.m, args.xi, args.eta, seed=args.seed)
        certs = bethe_certificates(cfg)
        y, q = kernel_sites(PCG64(args.seed), args.n, args.xi)
        kp = QKernelParams(0.8 + 0.4j, args.eta, args.xi, y, q)
        certs["three_term_identity"], corr = tq_scalar_residual(kp)
        lams = {s0: lambda_from_roots(cfg, s0) for s0 in MEMBERSHIP_SAMPLES}
        report = {
            "n": args.n,
            "m": args.m,
            "xi": args.xi,
            "eta": args.eta,
            "roots": [[z.real, z.imag] for z in cfg.roots],
            "lambda_samples": {repr(s0): [lam.real, lam.imag] for s0, lam in lams.items()},
            "eta_correction_factors": [abs(corr[0]), abs(corr[1])],
        }
        return _report_checks(args, out, report, certs, CERT_TOL)


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
    except (DstlabError, OSError) as exc:     # OSError: an --out that cannot be written
        print(f"{args.command} run failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
