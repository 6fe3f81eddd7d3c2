"""CLI harness: exit codes, file outputs, determinism, suite hooks."""
import csv
import hashlib
import json
import os
import stat
import subprocess
import sys
import threading

import numpy as np
import pytest

from dstlab.cli import main
from dstlab import backlund, baxter, cli, monodromy, verify
from dstlab.errors import CostGuard
from branch_track import tracked_y1
from lax_chain import lax_chain
from dstlab.verify import run_suites, suite_rmatrix


def _run(args):
    return subprocess.run([sys.executable, "-m", "dstlab.cli", *args],
                          capture_output=True, text=True)


def _older_file(path):
    """path, holding 1 MB of x: --out is written in place, not truncated on
    open, and must still end at the run's last byte."""
    path.write_bytes(b"x" * 2**20)
    return path


def test_simulate_periodic(tmp_path):
    out = tmp_path / "traj.csv"
    code = main(["simulate", "--n", "6", "--bc", "periodic", "--seed", "42",
                 "--dt", "1e-3", "--t-final", "10", "--out", str(out), "--json"])
    assert code == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    header = rows[0]
    assert header[0] == "t"
    assert header[1] == "q1" and "r6" in header
    assert header[-1] == "max_relative_drift"
    assert any(c.startswith("c0") for c in header)
    assert float(rows[-1][-1]) < 1e-8


def test_simulate_open_complex_columns(tmp_path):
    out = tmp_path / "open.csv"
    code = main(["simulate", "--n", "6", "--bc", "open", "--seed", "42",
                 "--t-final", "2", "--out", str(out)])
    assert code == 0
    header = next(csv.reader(out.read_text().splitlines()))
    assert "q1_re" in header and "q1_im" in header


@pytest.mark.parametrize("bc, n", [("periodic", 6), ("quasi", 6), ("open", 6),
                                   ("periodic", 24)])
def test_simulate_bytes_match_the_lax_chain(bc, n, tmp_path, capsys, monkeypatch):
    out = tmp_path / "traj.csv"
    argv = ["simulate", "--bc", bc, "--n", str(n), "--seed", "5", "--t-final", "0.5",
            "--json", "--out", str(out)]

    def run():
        assert main(argv) == 0
        return capsys.readouterr().out, out.read_bytes()

    recurrence = run()
    monkeypatch.setattr(monodromy, "monodromy", lax_chain)
    assert run() == recurrence


# sha256 of (trajectory CSV, --json summary) of `simulate --seed 1 --out traj.csv`
# plus each row's options, with the RK4 kernel that stepped one state per call:
# any later change to the stepping that moves a bit of a run fails here.
_PINNED_SIMULATE = {
    ("--bc", "periodic", "--n", "6"): (
        "e4e520d6bd1cd967a81ad55909252deb7ffddbc6beeb43fc5111a1882ce9d18c",
        "f9a0b8b27377611a0222c28eaee9cc3c39c905aa6f76f277d834283b218387a4"),
    ("--bc", "quasi", "--n", "6"): (
        "9432d932d1203f99445161a4b48c7ac68e1efe06322ed1505e4214a7393b207e",
        "eac18e90ad610b27da25385cd5c723c3c79949a3208e9a317519545cb6d499f2"),
    # re-pinned when the drift took Python's complex abs: only the drift
    # column and the drifts of the summary moved, in their last digit
    ("--bc", "open", "--n", "6"): (
        "a2f5aa343213e439a69fc1ce15e2d214a5bae87b64434434976002a6dd423a7f",
        "b74756be63a85f261690294ba3044e46cc50ea47d2fd005b26a82776c7178f45"),
    ("--bc", "periodic", "--n", "24"): (
        "d70f65d077bc29a159ba16617e44b1125d26c47d852caa00fddf7efb66f56fe5",
        "b0726648186645fb56899bdc9f9f06c5a0db81ec878facdc0a0533ec008734e9"),
    # blow-ups (exit 2) at t = 1.158, sampled every 50, 7 and 1 steps
    ("--scale", "3", "--t-final", "50"): (
        "f698e697d5048abe90fa5d1b193af9ceaf1a8baa7fe580615b3789dfbae1e39e",
        "2d44d924667cdb2b734b82b66f9ecac29e9ca3484f03184716c086390f816b94"),
    ("--scale", "3", "--t-final", "50", "--sample-every", "7"): (
        "98312e8482bcf69e507af33fdc0809a54807742e994beb232d70cadadbac07c2",
        "e4ec00abdce2712ec4c010e75e150bd06c5d1566d475084554a6f4a57c004e66"),
    ("--scale", "3", "--t-final", "50", "--sample-every", "1"): (
        "7a566a8f9a02c82f5dbe7e3a83fddc052661ee78a9e4d17361971ee90d084c8f",
        "dee4b40846ef5a09448cfc1c6007f5b015ff6aa6db725cf631f875edc40eabf4"),
}


@pytest.mark.parametrize("options", sorted(_PINNED_SIMULATE), ids=" ".join)
def test_simulate_bytes_are_pinned(options, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the summary names the CSV by the path given
    for _ in ("fresh path", "over a longer file"):
        code = main(["simulate", *options, "--seed", "1", "--json", "--out", "traj.csv"])
        assert code == (2 if "--scale" in options else 0)
        digests = (hashlib.sha256((tmp_path / "traj.csv").read_bytes()).hexdigest(),
                   hashlib.sha256(capsys.readouterr().out.encode()).hexdigest())
        assert digests == _PINNED_SIMULATE[options]
        _older_file(tmp_path / "traj.csv")


# sha256 of the stdout of each report command: the bytes of a given
# (suite, seed, version) and of the backlund and baxter reports, across
# processes and changes, not only within one run.
_PINNED_REPORTS = {
    "verify --suite all --json --seed 1":
        "f731b60bd6d8d0b1e2d45ba27c6f3a2582bc8a24fb96b33a386b3620a0bcc40c",
    "verify --suite all --json --seed 2":
        "6275f3b83e727d23cac7bab195af60aedef31c79af7311bf1e16926473c728ec",
    "verify --suite all --json --seed 3":
        "a21f719ee99fe22abb8ec3fed7d1407ad232d5d4a3c8e4fe3d8bfade91e245cf",
    "backlund --json": "6be5c40d1e6e6d9ebb572bc5ab31a00ac03c185d1de383a334f894ef0bc096f3",
    "baxter --json": "5aad956dec1a1b263cd7fc4b0c68edd9513706286d4785d62dd60a0d47525b21",
    "baxter --n 3 --m 1 --xi 2 --eta 0.7 --json":
        "5d8a515db2fbdad396ef4666190b1e82fa15ce98a5b1eb00228c51d7b38ef70c",
}


@pytest.mark.parametrize("argv", sorted(_PINNED_REPORTS))
def test_report_bytes_are_pinned(argv, capsys):
    assert main(argv.split()) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == _PINNED_REPORTS[argv]


def test_simulate_runs_without_numpy(tmp_path):
    code = ("import sys; sys.modules['numpy'] = None; from dstlab.cli import main; "
            "sys.exit(main(sys.argv[1:]))")
    for bc in ("periodic", "quasi", "open"):
        argv = ["simulate", "--bc", bc, "--t-final", "1", "--out", str(tmp_path / f"{bc}.csv")]
        proc = subprocess.run([sys.executable, "-c", code, *argv],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


def test_trajectory_modules_import_no_numpy():
    # numpy's import is most of a cold simulate's time and memory
    code = ("import sys, dstlab.cli, dstlab.verify, dstlab.monodromy; "
            "sys.exit('numpy' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0


def test_every_command_runs_without_numpy():
    # numpy is only the tests' reference: every suite of verify and the
    # backlund and baxter commands run with its import blocked
    code = ("import sys; sys.modules['numpy'] = None; from dstlab.cli import main; "
            "print([main(argv.split()) for argv in sys.argv[1:]], file=sys.stderr)")
    commands = ["verify --suite all --json", "backlund --json", "baxter --json",
                "baxter --n 3 --m 1 --xi 2 --eta 0.7 --json"]
    proc = subprocess.run([sys.executable, "-c", code, *commands],
                          capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stderr.strip() == str([0] * len(commands)), proc.stderr


def test_simulate_t_final_zero(tmp_path):
    out = tmp_path / "zero.csv"
    code = main(["simulate", "--n", "2", "--t-final", "0", "--seed", "3",
                 "--out", str(out)])
    assert code == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert len(rows) == 2          # header + single sample
    assert float(rows[1][-1]) == 0.0


def test_simulate_blowup_exit_code(tmp_path):
    # written over a longer file, the CSV ends at the last row sampled
    out = _older_file(tmp_path / "blow.csv")
    code = main(["simulate", "--n", "4", "--bc", "periodic", "--scale", "0.5",
                 "--seed", "1", "--t-final", "10", "--out", str(out)])
    assert code == 2
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0][0] == "t" and all(len(r) == len(rows[0]) for r in rows)


def test_simulate_step0_generator_overflow_is_a_blowup(tmp_path, capsys):
    # a finite state whose monodromy overflows: no drift can be measured
    out = tmp_path / "big.csv"
    code = main(["simulate", "--scale", "1e150", "--t-final", "0", "--json",
                 "--out", str(out)])
    assert code == 2
    summary = _strict_json(capsys.readouterr().out)
    assert summary["blowup"] is True and summary["coefficient_drift"] == {}
    assert summary["max_relative_drift"] == "nan" and summary["last_time"] == 0.0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert len(rows) == 2 and rows[1][-1] == "nan"


def test_simulate_streams_rows_as_sampled(tmp_path, monkeypatch):
    # an interrupted run keeps the rows sampled before the interruption, and
    # nothing of the longer file it wrote over
    k = 3
    real = monodromy.sampled_trajectory

    def interrupted(*args):
        samples = real(*args)
        for _ in range(k):
            yield next(samples)
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "sampled_trajectory", interrupted)
    out = _older_file(tmp_path / "traj.csv")
    with pytest.raises(KeyboardInterrupt):
        main(["simulate", "--t-final", "1", "--out", str(out)])
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0][0] == "t" and [float(r[0]) for r in rows[1:]] == [0.0, 0.05, 0.1]


_QUICK = {"simulate": ["simulate", "--t-final", "0.01"],
          "verify": ["verify", "--suite", "rmatrix"],
          "backlund": ["backlund"],
          "baxter": ["baxter"]}


@pytest.mark.parametrize("command", sorted(_QUICK))
def test_unwritable_out_is_one_failure_line(command, tmp_path, monkeypatch, capsys):
    def not_reached(*args, **kwargs):
        raise AssertionError(f"{command} ran before opening --out")

    # each command's run: nothing runs before --out is open
    monkeypatch.setattr(cli, "sampled_trajectory", not_reached)
    monkeypatch.setattr(verify, "run_suites", not_reached)
    monkeypatch.setattr(backlund, "bt_certificates", not_reached)
    monkeypatch.setattr(baxter, "bethe_solve", not_reached)
    for out, error in ((tmp_path / "missing" / "x.out", "FileNotFoundError"),
                       (tmp_path, "IsADirectoryError")):
        assert main([*_QUICK[command], "--json", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"{command} run failed: {error}: ")
        assert captured.err.count("\n") == 1


def test_simulate_refuses_an_underflowing_default_amplitude(tmp_path, capsys):
    # 0.05 exp(-1000) is 0.0: the run would integrate the exact vacuum
    out = tmp_path / "vacuum.csv"
    argv = ["simulate", "--t-final", "1000", "--dt", "0.5", "--json", "--out", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("simulate run failed: DstlabError: the default amplitude")
    assert not out.exists()
    # an explicit amplitude still runs (and, this long, blows up)
    assert main([*argv, "--scale", "1e-3"]) == 2
    assert _strict_json(capsys.readouterr().out)["rows"] >= 1
    assert out.exists()


@pytest.mark.parametrize("command", sorted(_QUICK))
def test_out_over_a_longer_file_gets_the_fresh_bytes(command, tmp_path, capsys):
    fresh, old = tmp_path / "fresh.out", _older_file(tmp_path / "old.out")
    for out in (fresh, old):
        main([*_QUICK[command], "--out", str(out)])
    assert old.read_bytes() == fresh.read_bytes()


@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_out_to_a_device_that_cannot_be_cut(command, capsys):
    assert main([*_QUICK[command], "--out", os.devnull]) == 0


def test_out_to_a_fifo(tmp_path, capsys):
    fifo, received = tmp_path / "fifo", []
    os.mkfifo(fifo)
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    assert main([*_QUICK["verify"], "--out", str(fifo)]) == 0
    reader.join()
    fresh = tmp_path / "fresh.json"
    main([*_QUICK["verify"], "--out", str(fresh)])
    assert received == [fresh.read_bytes()]


def test_out_through_a_symlink_keeps_the_link_and_the_mode(tmp_path, capsys):
    target, link = _older_file(tmp_path / "target.csv"), tmp_path / "link.csv"
    link.symlink_to(target)
    target.chmod(0o600)
    main([*_QUICK["simulate"], "--out", str(link)])
    fresh = tmp_path / "fresh.csv"
    main([*_QUICK["simulate"], "--out", str(fresh)])
    assert link.is_symlink() and link.resolve() == target
    assert target.read_bytes() == fresh.read_bytes()
    assert stat.S_IMODE(target.stat().st_mode) == 0o600


def test_simulate_coefficient_drift_is_the_trajectory_formula(tmp_path, capsys):
    out = tmp_path / "open.csv"
    assert main(["simulate", "--bc", "open", "--n", "4", "--seed", "3", "--t-final", "1",
                 "--json", "--out", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out)
    rows = list(csv.DictReader(out.read_text().splitlines()))
    coeffs = [np.array([complex(float(row[f"c{k}_re"]), float(row[f"c{k}_im"]))
                        for k in range(len(summary["coefficient_drift"]))])
              for row in (rows[0], rows[-1])]
    expected = monodromy.relative_drift(coeffs[1], coeffs[0])
    assert [summary["coefficient_drift"][f"c{k}"] for k in range(len(expected))] \
        == list(map(float, expected))


def test_verify_exit_codes(tmp_path):
    rep = tmp_path / "rep.json"
    code = main(["verify", "--suite", "classical", "--seed", "1",
                 "--out", str(rep)])
    assert code == 0
    data = json.loads(rep.read_text())
    assert data["summary"]["failed"] == 0
    assert all("identity_id" in r and "pass" in r for r in data["records"])
    ids = [r["identity_id"] for r in data["records"]]
    assert ids == sorted(ids)


def test_unknown_suite_usage_exit():
    assert main(["verify", "--suite", "nosuch"]) == 64


def test_bad_flag_usage_exit():
    proc = _run(["simulate", "--bc", "invalid"])
    assert proc.returncode == 64


@pytest.mark.parametrize("argv", [
    ["simulate", "--sample-every", "0"],
    ["simulate", "--dt", "0"],
    ["simulate", "--dt", "-0.001"],
    ["simulate", "--dt", "nan"],
    ["simulate", "--n", "0"],
    ["simulate", "--t-final", "-1"],
    ["verify", "--xi-minus", "abc"],
    ["verify", "--xi-minus", "1/0"],
    ["verify", "--xi-plus", "1/0"],
    ["backlund", "--n", "0"],
    ["baxter", "--n", "0"],
    ["baxter", "--m", "-1"],
    ["verify", "--xi-minus", "-5/0"],
    ["verify", "--xi-plus", "--json"],
    # --xi and --eta must be finite and nonzero, whatever --bc is
    ["baxter", "--xi", "0", "--n", "2", "--m", "0"],
    ["baxter", "--eta", "0"],
    ["baxter", "--eta", "inf"],
    ["simulate", "--xi", "nan", "--bc", "quasi"],
    ["simulate", "--xi", "0", "--bc", "quasi"],
    ["simulate", "--xi", "0", "--bc", "periodic"],
    ["backlund", "--xi", "0", "--bc", "quasi"],
    # times, Bäcklund parameters and counts are finite numbers
    ["simulate", "--t-final", "nan"],
    ["backlund", "--sigma", "inf"],
    ["baxter", "--m", "1.5"],
    # amplitudes, couplings and the spectral shift are finite numbers
    ["simulate", "--scale", "nan"],
    ["simulate", "--scale", "-0.1"],
    ["simulate", "--theta-minus", "nan", "--bc", "open"],
    ["simulate", "--theta-plus", "inf", "--bc", "open"],
    ["backlund", "--theta-plus", "nan"],
    ["backlund", "--sigma", "nan"],
    # a seed is a non-negative integer
    ["simulate", "--seed", "-1"],
    ["verify", "--seed", "-1"],
    ["backlund", "--seed", "-1"],
    ["baxter", "--seed", "-1"],
])
def test_invalid_numbers_are_usage_errors(argv, tmp_path, monkeypatch, capsys):
    # refused while parsing, before any command runs or writes a file
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 64
    assert f"argument {argv[1]}: expected " in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_simulate_step_count_overflow_is_a_usage_error(tmp_path, monkeypatch, capsys):
    # each number is valid, but t_final / dt overflows to inf
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--t-final", "1e300", "--dt", "1e-300"]) == 64
    assert capsys.readouterr().err == (
        "error: --t-final 1e+300 / --dt 1e-300 is not a finite number of steps\n")
    assert not list(tmp_path.iterdir())


def test_no_tolerance_scale_flag(capsys):
    # every tolerance applies as written: no flag scales them
    assert main(["verify", "--tol-scale", "2"]) == 64
    assert "unrecognized arguments: --tol-scale 2" in capsys.readouterr().err


def _strict_json(text):
    def refuse(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=refuse)


def test_nan_certificate_fails_and_stays_strict_json(monkeypatch, capsys):
    monkeypatch.setattr(backlund, "v_dressing_residual", lambda *args: (float("nan"), 0.0))
    assert main(["backlund", "--json"]) == 1
    report = _strict_json(capsys.readouterr().out)
    assert report["checks"]["dressing_plus"] == {
        "residual": "nan", "tolerance": backlund.CERT_TOL["dressing_plus"], "pass": False}
    assert report["checks"]["dressing_minus"]["pass"] and not report["pass"]


def test_control_observing_zero_stays_strict_json(monkeypatch, capsys):
    monkeypatch.setattr(verify, "SUITES",
                        {"rmatrix": lambda *args: [verify.check_exceeds("control", 0.0, 1e-3)]})
    assert main(["verify", "--suite", "rmatrix", "--json"]) == 1
    (record,) = _strict_json(capsys.readouterr().out)["records"]
    assert record["residual"] == "inf" and record["pass"] is False


def test_verify_rational_overrides(capsys):
    assert main(["verify", "--suite", "quantum", "--xi-minus", "2/3",
                 "--xi-plus=-5/4", "--json"]) == 0
    attached = capsys.readouterr().out
    report = json.loads(attached)
    first = [r for r in report["records"] if r["identity_id"].startswith("rtt-n1-eta0-xi0")]
    assert first and all(r["parameters"]["xi_minus"] == "2/3" and
                         r["parameters"]["xi_plus"] == "-5/4" for r in first)
    # a negative fraction given as its own argument is a value, not a flag
    assert main(["verify", "--suite", "quantum", "--xi-minus", "2/3",
                 "--xi-plus", "-5/4", "--json"]) == 0
    assert capsys.readouterr().out == attached


@pytest.mark.parametrize("argv, flag, value", [
    (["backlund", "--json"], "--sigma", "-3e-1"),
    (["simulate", "--bc", "quasi", "--t-final", "0.5", "--json"], "--xi", "-2e0"),
])
def test_negative_values_as_separate_arguments(argv, flag, value, tmp_path, monkeypatch,
                                               capsys):
    monkeypatch.chdir(tmp_path)

    def run(*given):
        assert main(argv + list(given)) == 0
        csv_bytes = (tmp_path / "trajectory.csv").read_bytes() if argv[0] == "simulate" else b""
        return capsys.readouterr().out, csv_bytes

    assert run(flag, value) == run(f"{flag}={value}")


def test_verify_json_byte_identical():
    p1 = _run(["verify", "--suite", "rmatrix", "--seed", "1", "--json"])
    p2 = _run(["verify", "--suite", "rmatrix", "--seed", "1", "--json"])
    assert p1.returncode == 0 and p2.returncode == 0
    assert p1.stdout == p2.stdout


def test_backlund_command(tmp_path):
    rep = tmp_path / "bt.json"
    code = main(["backlund", "--n", "3", "--sigma", "0.3", "--bc", "quasi",
                 "--xi", "2", "--seed", "5", "--out", str(rep)])
    assert code == 0
    data = json.loads(rep.read_text())
    assert data["pass"]
    assert all(c["pass"] for c in data["checks"].values())


def test_backlund_certifies_symplecticity_past_three_sites(capsys):
    assert main(["backlund", "--n", "6", "--json"]) == 0
    check = json.loads(capsys.readouterr().out)["checks"]["symplectic_jacobian"]
    assert check["pass"]


def test_backlund_rejects_open():
    assert main(["backlund", "--bc", "open"]) == 64


def test_baxter_command(tmp_path):
    rep = tmp_path / "bx.json"
    code = main(["baxter", "--n", "2", "--m", "1", "--xi", "1", "--eta", "1",
                 "--seed", "7", "--out", str(rep)])
    assert code == 0
    data = json.loads(rep.read_text())
    assert data["checks"]["eigen_membership"]["residual"] < 1e-6
    assert data["checks"]["bethe_residual"]["pass"]


def test_baxter_vacuum(tmp_path):
    rep = tmp_path / "vac.json"
    code = main(["baxter", "--n", "2", "--m", "0", "--seed", "7",
                 "--out", str(rep)])
    assert code == 0
    data = json.loads(rep.read_text())
    assert data["roots"] == []
    assert data["checks"]["eigen_membership"]["residual"] < 1e-12


def test_rmatrix_wrong_k_injection_hook(monkeypatch):
    from dstlab import verify
    from dstlab.poly import Poly, poly_mat
    good = {r.identity_id: r.passed for r in suite_rmatrix(seed=1)}
    lam = Poly([0, 1])

    def wrong_k(bc):
        # theta I + lambda M with M^2 not proportional to I: no reflection algebra
        k = poly_mat(bc.theta_minus, lam, lam * lam, bc.theta_minus)
        return k, k

    monkeypatch.setattr(verify, "boundary_K", wrong_k)
    bad = {r.identity_id: r.passed for r in suite_rmatrix(seed=1)}
    assert all(good.values())
    flipped = {k for k, v in bad.items() if not v}
    assert flipped == {"reflection-kminus", "reflection-kplus"}
    assert bad["reflection-control"] and bad["reflection-printed-variant"]


def test_baxter_representation_guard_exits_3(capsys):
    assert main(["baxter", "--n", "6", "--m", "4"]) == 3
    assert capsys.readouterr().err == "cost guard: representation dimension 126 > 64\n"


def test_library_error_is_one_failure_line(capsys):
    # sigma = -1.61 is a point of the certificates' lambda grid, where the
    # gauge factor g(lambda - sigma) is singular
    assert main(["backlund", "--sigma", "-1.61", "--json"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "backlund run failed: SingularG: lambda hit sigma on the grid\n"


def test_diverging_newton_is_one_failure_line(capsys):
    # at sigma = 1e4 the map solves to rounding (its residual, 3.5e-12 on
    # terms of 1e4, passes), while the absolute generating-function
    # certificate, whose terms reach 1e8, fails: one FAIL line, exit 1
    assert main(["backlund", "--n", "6", "--seed", "12", "--bc", "quasi", "--xi", "-1",
                 "--sigma", "1e4"]) == 1
    out = capsys.readouterr()
    assert out.err == ""
    lines = out.out.splitlines()
    assert [line.split(":")[0] for line in lines if line.startswith("FAIL")] == [
        "FAIL generating_function"]
    assert "PASS map_residual: " in out.out


def test_capped_newton_steps_stay_on_the_continuation_branch(capsys):
    # the map's y_1 is the fixed point tracked from sigma = 0 over 1000 steps
    assert main(["backlund", "--n", "6", "--seed", "5", "--bc", "quasi", "--xi", "-1",
                 "--json"]) == 0
    y = [complex(*z) for z in json.loads(capsys.readouterr().out)["y"]]
    st = backlund.solvable_state(np.random.default_rng(5), 6)
    y1 = tracked_y1(st, 0.3, -1.0)
    assert abs(y[0] - y1) < 1e-12 * abs(y1)


def test_verify_cost_guard_exits_3(monkeypatch, capsys):
    def refused(*args, **kwargs):
        raise CostGuard("refused")

    monkeypatch.setattr(verify, "SUITES", {"rmatrix": refused})
    assert main(["verify", "--suite", "rmatrix", "--json"]) == 3
    out = capsys.readouterr()
    assert out.out == "" and out.err == "cost guard: refused\n"


def test_simulate_open_chain_at_large_and_odd_n(tmp_path, capsys):
    # the open chain's equilibrium is in closed form at every even N; odd N
    # with real couplings has none, and says why
    out = tmp_path / "open.csv"
    assert main(["simulate", "--bc", "open", "--n", "24", "--t-final", "1", "--json",
                 "--out", str(out)]) == 0
    assert _strict_json(capsys.readouterr().out)["blowup"] is False
    assert main(["simulate", "--bc", "open", "--n", "5", "--out", str(out)]) == 1
    assert capsys.readouterr().err == ("simulate run failed: DstlabError: the open chain "
                                       "has no elliptic fixed point: N = 5 is odd\n")


def test_report_records_sorted_and_complete(monkeypatch):
    # Three quick suites, so that records from different suites interleave.
    quick = {nm: verify.SUITES[nm] for nm in ("rmatrix", "backlund", "baxter")}
    monkeypatch.setattr(verify, "SUITES", quick)
    ids = [r["identity_id"] for r in run_suites("all", seed=2)["records"]]
    assert ids == sorted(ids)
    per_suite = [{r.identity_id for r in fn(2)} for fn in quick.values()]
    assert all(per_suite) and set(ids) == set().union(*per_suite)
