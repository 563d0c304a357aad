import hashlib
import json
import logging
import math
import os
import stat
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import volterrabound
from volterrabound import cli
from volterrabound.cli import main

from conftest import ATAN_PROBLEM, QUADRATIC_PROBLEM, write_problem


def run(args):
    return main(args)


def test_solve_completed(tmp_path, capsys):
    problem = write_problem(tmp_path / "p.json", ATAN_PROBLEM)
    out = tmp_path / "out"
    code = run(["solve", "--problem", problem, "--t-end", "2", "--step", "0.01", "--out", str(out)])
    assert code == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,u"
    assert lines[-1] == "# status=completed"
    assert len(lines) == 2 + 201


def test_solve_zero_kernel_matches_forcing(tmp_path):
    problem = write_problem(
        tmp_path / "p.json",
        {"f": "cos(t)", "a": "0", "c0": 2, "b0": 0, "c1": 0, "b1": 0, "c2": 0, "b": 0, "p": 1},
    )
    out = tmp_path / "out"
    code = run(["solve", "--problem", problem, "--t-end", "1", "--step", "0.1", "--out", str(out)])
    assert code == 0
    rows = (out / "trajectory.csv").read_text().splitlines()[1:-1]
    for row in rows:
        t, u = (float(x) for x in row.split(","))
        assert abs(u - math.cos(t)) <= np.spacing(abs(math.cos(t)))


def test_solve_blowup_exit_code_and_message(tmp_path, capsys):
    problem = write_problem(tmp_path / "p.json", QUADRATIC_PROBLEM)
    out = tmp_path / "out"
    code = run(["solve", "--problem", problem, "--t-end", "2", "--step", "0.001", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 3
    assert "blow-up detected near t=1.00" in captured.out
    assert "# status=blowup" in (out / "trajectory.csv").read_text()

    # A blow-up inside the first step of the grid keeps three significant
    # digits of its time instead of printing t=0.00.
    first_step = {"f": "10*exp(-t)", "a": "0.01*exp(-(t+s))*u^7",
                  "c0": 20, "b0": 1, "c1": 0.1, "b1": 2, "c2": 0.1, "b": 1, "p": 0.5}
    problem = write_problem(tmp_path / "first.json", first_step)
    code = run(["solve", "--problem", problem, "--t-end", "1", "--step", "1e-6", "--out", str(out)])
    assert code == 3
    assert capsys.readouterr().out == "blow-up detected near t=1.64e-05\n"


def test_certify_refuses_when_the_state_amplitudes_overflow(tmp_path, capsys):
    # c1 + c2 overflows in the search: a refusal (exit 2), not an error.
    problem = write_problem(tmp_path / "p.json", {
        "f": "exp(-t)", "a": "exp(-(t+s))*atan(u)", "c0": 1e308, "b0": 1,
        "c1": 1e308, "b1": 2, "c2": 1e308, "b": 1, "p": 1})
    code = run(["certify", "--problem", problem, "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out.startswith("no certificate: level condition failed: min h = inf")
    assert captured.err == ""


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_outputs_take_their_mode_from_the_umask(tmp_path, umask, mode):
    # The atomic write goes through a temporary file, created 0666 less
    # the umask as a plain open() creates it, and renamed into place: the
    # output keeps that mode.
    problem = write_problem(tmp_path / "p.json", ATAN_PROBLEM)
    out = tmp_path / "out"
    previous = os.umask(umask)
    try:
        code = run(["solve", "--problem", problem, "--t-end", "1", "--step", "0.1", "--out", str(out)])
    finally:
        os.umask(previous)
    assert code == 0
    assert stat.S_IMODE((out / "trajectory.csv").stat().st_mode) == mode


def test_runs_read_nothing_from_the_process_environment(tmp_path, capsys, caplog, monkeypatch):
    # Writing outputs neither sets the umask nor changes a file's mode,
    # and VOLTERRA_LOG is not read: no record reaches the log.
    def process_wide(*args):
        raise AssertionError("process-wide call")

    monkeypatch.setattr(os, "umask", process_wide)
    monkeypatch.setattr(os, "chmod", process_wide)
    problem = write_problem(tmp_path / "p.json", ATAN_PROBLEM)
    for command in ("solve", "verify"):
        out = str(tmp_path / command)
        assert run([command, "--problem", problem, "--t-end", "1", "--step", "0.1", "--out", out]) == 0
    monkeypatch.setenv("VOLTERRA_LOG", "info")
    caplog.set_level(logging.INFO)
    problem = write_problem(tmp_path / "quadratic.json", QUADRATIC_PROBLEM)
    assert run(["certify", "--problem", problem, "--out", str(tmp_path / "certify")]) == 2
    assert "decay hypotheses failed validation" in capsys.readouterr().out
    assert [r for r in caplog.records if r.name.startswith("volterra")] == []


def test_solve_step_must_divide_t_end(tmp_path, capsys):
    # A step of 0.6 would run the grid to t = 1.2 and report u there.
    problem = write_problem(tmp_path / "p.json", ATAN_PROBLEM)
    out = tmp_path / "out"
    code = run(["solve", "--problem", problem, "--t-end", "1", "--step", "0.6", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert not (out / "trajectory.csv").exists()


def test_solve_missing_file(tmp_path, capsys):
    code = run(["solve", "--problem", str(tmp_path / "missing.json")])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_solve_invalid_flag_values(tmp_path):
    problem = write_problem(tmp_path / "p.json", ATAN_PROBLEM)
    assert run(["solve", "--problem", problem, "--step", "-0.1"]) == 1


def test_certify_atan(tmp_path, capsys):
    problem = write_problem(tmp_path / "p.json", ATAN_PROBLEM)
    out = tmp_path / "out"
    code = run(["certify", "--problem", problem, "--out", str(out)])
    assert code == 0
    assert "certified" in capsys.readouterr().out
    payload = json.loads((out / "certificate.json").read_text())
    assert payload["validation"]["passed"] is True
    cert = payload["certificate"]
    assert cert["verdict"] == "certified"
    assert cert["family"] == "exponential"
    assert cert["rate"] > 0 and cert["coefficient"] > 0
    assert cert["tail_check"]["passed"] is True


def test_certify_subnormal_forcing(tmp_path, capsys):
    # f(0) = 1e-320 is positive, and 1/f(0) overflows.
    problem = write_problem(
        tmp_path / "p.json",
        {"f": "1e-320", "a": "0", "c0": 1e-320, "b0": 0, "c1": 0, "b1": 0, "c2": 0, "b": 0, "p": 0.5},
    )
    assert run(["certify", "--problem", problem, "--out", str(tmp_path)]) == 0
    assert "certified" in capsys.readouterr().out
    cert = json.loads((tmp_path / "certificate.json").read_text())["certificate"]
    assert cert["verdict"] == "certified" and cert["strict"] is True


def test_certify_quadratic_refused(tmp_path, capsys):
    problem = write_problem(tmp_path / "p.json", QUADRATIC_PROBLEM)
    out = tmp_path / "out"
    code = run(["certify", "--problem", problem, "--out", str(out)])
    assert code == 2
    captured = capsys.readouterr().out
    assert "no certificate" in captured
    payload = json.loads((out / "certificate.json").read_text())
    assert payload["certificate"]["verdict"] == "refused"


def test_certify_malformed_envelope(tmp_path, capsys):
    bad = dict(ATAN_PROBLEM, p=-0.5)
    problem = write_problem(tmp_path / "p.json", bad)
    code = run(["certify", "--problem", problem, "--out", str(tmp_path)])
    assert code == 1


def test_verify_atan_end_to_end(tmp_path, capsys):
    problem = write_problem(tmp_path / "p.json", ATAN_PROBLEM)
    out = tmp_path / "out"
    code = run(
        ["verify", "--problem", problem, "--t-end", "3", "--step", "0.01", "--out", str(out)]
    )
    assert code == 0
    assert "bound holds" in capsys.readouterr().out
    report = json.loads((out / "report.json").read_text())
    assert report["bound_check"]["holds"] is True
    assert report["bound_check"]["min_slack"] > 0.0
    # bound.csv is machine-checkable on its own: u <= g and u < mu_inv
    rows = (out / "bound.csv").read_text().splitlines()
    assert rows[0] == "t,u,g,mu_inv"
    for row in rows[1:]:
        _, u, g, mu_inv = (float(x) for x in row.split(","))
        assert u <= g + 1e-9
        assert u < mu_inv


def test_verify_quadratic_refused_with_blowup_note(tmp_path, capsys):
    problem = write_problem(tmp_path / "p.json", QUADRATIC_PROBLEM)
    out = tmp_path / "out"
    code = run(
        ["verify", "--problem", problem, "--t-end", "2", "--step", "0.001", "--out", str(out)]
    )
    assert code == 2
    captured = capsys.readouterr().out
    assert "no certificate" in captured
    assert "blows up near t=1.00" in captured


def test_demo_blowup(tmp_path, capsys):
    out = tmp_path / "demo"
    code = run(["demo-blowup", "--out", str(out)])
    assert code == 0
    captured = capsys.readouterr().out
    assert "blow-up detected near t=1.00" in captured
    assert "refused" in captured
    assert (out / "trajectory.csv").exists()
    assert (out / "certificate.json").exists()


def test_outputs_byte_identical_between_runs(tmp_path):
    problem = write_problem(tmp_path / "p.json", ATAN_PROBLEM)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    args = ["verify", "--problem", problem, "--t-end", "2", "--step", "0.01"]
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    for name in ("trajectory.csv", "bound.csv", "report.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


# Digests captured before verify wrote both CSV files in one pass.
_VERIFY_GOLDEN = {
    # The README problem: 2 501 rows, two full 1 024-row chunks and a
    # partial one.
    "atan": (
        ATAN_PROBLEM,
        ["--t-end", "2.5", "--step", "1e-3"],
        {
            "trajectory.csv": "a216931db55cbb6eeb0efb3ff8a3d21661cdb8fb86b61fa52acdb2dc9d23aa86",
            "bound.csv": "b116a90c6368dc008d3a4b68e8568b23c2cde74ec5b6da93dce94592fbdf3e3f",
            "report.json": "df249e5b0bdf6168f0d97a6f6c48dce2b307dadd217319a5e0e53a12d06c3fff",
        },
    ),
    # u = 1e7: the majorant stops at the solver's cap, t* = 9.005, so
    # bound.csv holds 901 rows against trajectory.csv's 2 001.  This pins
    # today's cut at min(len(t), len(majorant)); ROADMAP item 2 will
    # re-pin bound.csv and report.json on purpose.
    "cut": (
        {"f": "10000000", "a": "0", "c0": 1e7, "b0": 0, "c1": 0, "b1": 0, "c2": 0, "b": 0, "p": 0.5},
        ["--t-end", "20", "--step", "0.01"],
        {
            "trajectory.csv": "08dab0e2b90987ef8873660c39de8ff564740af7fcbef2fa6a3285a638e708a5",
            "bound.csv": "e77677e2e6ec97e1b5713f000a3ba47ff26082b535281a5be8fe04ebc4b349bd",
            "report.json": "e7f394f7b6573030a0ff14b850bebfc7dcabc7dc7b50445c7bdfa1bcc94bbe77",
        },
    ),
}


@pytest.mark.parametrize("case", sorted(_VERIFY_GOLDEN))
def test_verify_outputs_keep_their_bytes(tmp_path, case):
    problem, flags, digests = _VERIFY_GOLDEN[case]
    out = tmp_path / "out"
    path = write_problem(tmp_path / "p.json", problem)
    assert run(["verify", "--problem", path, "--out", str(out)] + flags) == 0
    assert {name: _sha256(out / name) for name in digests} == digests


@pytest.mark.parametrize(
    "t_end, digest",
    [
        # 1 024 and 1 025 grid nodes: one full chunk, and one row past it.
        ("1.023", "2035f479c443c55daacbe40943c936d49561a514a70f8a0fa0d6c29df8a2066e"),
        ("1.024", "4ebd001b8df8e51e45e89ffa351a1de97fd157542ac18045bdccac6966374f8c"),
    ],
)
def test_solve_csv_at_chunk_edges_keeps_its_bytes(tmp_path, t_end, digest):
    out = tmp_path / "out"
    path = write_problem(tmp_path / "p.json", ATAN_PROBLEM)
    assert run(["solve", "--problem", path, "--t-end", t_end, "--step", "1e-3", "--out", str(out)]) == 0
    assert _sha256(out / "trajectory.csv") == digest


@pytest.mark.parametrize(
    "problem, flags, names",
    [
        pytest.param({"f": "1.0", "a": "u^2.5", "c0": 1, "b0": 0, "c1": 1, "b1": 0, "c2": 0, "b": 0,
                      "p": 1.25}, ["solve", "--t-end", repr(4.0 / 3.0), "--step", repr(2.0 / 3000.0)],
                     ["trajectory.csv"], id="solve-blowup"),
        pytest.param(ATAN_PROBLEM, ["verify", "--t-end", "2.5"],
                     ["trajectory.csv", "bound.csv", "report.json"], id="verify-readme"),
    ],
)
def test_cold_and_warm_runs_write_the_same_bytes(tmp_path, problem, flags, names):
    # Two runs in one process, the second on the spec and generated step
    # functions the first left in the problem cache, and one in a fresh
    # interpreter, which builds everything anew.
    path = write_problem(tmp_path / "p.json", problem)
    args = flags + ["--problem", path, "--out"]
    codes = [run(args + [str(tmp_path / name)]) for name in ("warm1", "warm2")]
    assert volterrabound.load_problem(path) is volterrabound.load_problem(path)
    src = str(Path(volterrabound.__file__).parents[1])
    cold = subprocess.run([sys.executable, "-m", "volterrabound.cli", *args, str(tmp_path / "cold")],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True)
    assert codes == [cold.returncode] * 2
    for name in names:
        assert (tmp_path / "warm1" / name).read_bytes() == (tmp_path / "warm2" / name).read_bytes()
        assert (tmp_path / "warm1" / name).read_bytes() == (tmp_path / "cold" / name).read_bytes()


def test_verify_checks_its_sample_ranges_before_solving(tmp_path, capsys, monkeypatch):
    def no_solve(*args):
        raise AssertionError("solve ran before the range check")

    monkeypatch.setattr(cli, "solve", no_solve)
    problem = write_problem(tmp_path / "p.json", ATAN_PROBLEM)
    code = run(["verify", "--problem", problem, "--u-max", "1e308", "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: t_max must be finite and > 0, and u_max in (0, 8.988465674311579e+307]\n"
    )
    assert not (tmp_path / "out").exists()


def test_verify_write_failure_leaves_no_temporary_file(tmp_path, capsys):
    # bound.csv cannot replace a directory: the one pass over both CSV
    # files fails, and neither leaves its temporary file behind.
    problem = write_problem(tmp_path / "p.json", ATAN_PROBLEM)
    out = tmp_path / "out"
    (out / "bound.csv").mkdir(parents=True)
    code = run(["verify", "--problem", problem, "--t-end", "2", "--step", "0.01", "--out", str(out)])
    _assert_one_line_error(capsys, code, "i/o error: ")
    assert list(out.glob("trajectory.csv.*")) == list(out.glob("bound.csv.*")) == []


def test_certify_refusal_prints_margin_once(tmp_path, capsys):
    cubic = {
        "f": "0.5*exp(-t)", "a": "0.2*exp(-(2*t+s))*u^3",
        "c0": 1, "b0": 1, "c1": 0.2, "b1": 3, "c2": 0.6, "b": 2, "p": 1.5,
    }
    problem = write_problem(tmp_path / "p.json", cubic)
    assert run(["certify", "--problem", problem, "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr().out
    assert captured.count("best margin") == 1
    payload = json.loads((tmp_path / "certificate.json").read_text())
    assert payload["certificate"]["margin_min"] < 0.0


def _assert_one_line_error(capsys, code, prefix):
    err = capsys.readouterr().err
    assert code == 1
    assert len(err.splitlines()) == 1 and err.startswith(prefix)


def test_overflowing_kernel_variation_prints_no_warning(tmp_path, capsys):
    # Every kernel-variation margin is inf - inf: the check reads +inf at
    # the first sample, and numpy's overflow stays off stderr.
    problem = write_problem(
        tmp_path / "p.json",
        {"f": "exp(-t)", "a": "1e307*t*u", "c0": 2, "b0": 1, "c1": 1, "b1": 0, "c2": 1e308, "b": 0, "p": 1},
    )
    out = tmp_path / "out"
    assert run(["certify", "--problem", problem, "--out", str(out)]) == 2
    assert capsys.readouterr().err == ""
    checks = json.loads((out / "certificate.json").read_text())["validation"]["checks"]
    assert checks[2] == {
        "name": "kernel-variation",
        "margin": "inf",
        "point": {"t": 0.0, "profile": 10.0},
        "passed": True,
    }


def test_deeply_nested_forcing_is_one_line_error(tmp_path, capsys):
    deep = dict(ATAN_PROBLEM, f="(" * 5000 + "1" + ")" * 5000)
    problem = write_problem(tmp_path / "p.json", deep)
    code = run(["certify", "--problem", problem, "--out", str(tmp_path)])
    _assert_one_line_error(capsys, code, "error: expression nested too deeply")


def test_long_sum_too_deep_to_differentiate_is_one_line_error(tmp_path, capsys):
    long_sum = dict(ATAN_PROBLEM, f="+".join(["exp(-t)"] * 2000))
    problem = write_problem(tmp_path / "p.json", long_sum)
    code = run(["certify", "--problem", problem, "--out", str(tmp_path)])
    _assert_one_line_error(capsys, code, "error: expression nested too deeply")


def test_overflowing_envelope_exponent_is_one_line_error(tmp_path, capsys):
    problem = write_problem(tmp_path / "p.json", dict(ATAN_PROBLEM, p=1e300))
    code = run(["certify", "--problem", problem, "--out", str(tmp_path)])
    _assert_one_line_error(capsys, code, "error: numeric overflow: ")


def test_overflowing_p_is_named(tmp_path, capsys):
    problem = write_problem(tmp_path / "p.json", dict(ATAN_PROBLEM, p=1e300))
    code = run(["verify", "--problem", problem, "--t-end", "0.1", "--step", "0.01",
                "--out", str(tmp_path)])
    _assert_one_line_error(capsys, code, "error: numeric overflow: p = 1e+300 is too large")


def test_infinite_envelope_constant_is_one_line_error(tmp_path, capsys):
    # Python's JSON reader accepts Infinity; the envelope names the constant.
    problem = write_problem(tmp_path / "p.json", dict(ATAN_PROBLEM, c0=math.inf))
    code = run(["certify", "--problem", problem, "--out", str(tmp_path)])
    _assert_one_line_error(capsys, code, "error: c0 must be a finite number")


def test_integer_too_large_for_a_float_is_named(tmp_path, capsys):
    # JSON integers have no size limit; 10^400 has no binary64 value.
    problem = write_problem(tmp_path / "p.json", dict(ATAN_PROBLEM, c0=10**400))
    code = run(["certify", "--problem", problem, "--out", str(tmp_path)])
    _assert_one_line_error(capsys, code, "error: c0 must be a finite number")


@pytest.mark.parametrize("command", ["solve", "verify", "certify"])
def test_overflowing_literal_is_one_line_error(tmp_path, capsys, command):
    problem = write_problem(tmp_path / "p.json", dict(ATAN_PROBLEM, f="1e400"))
    grid = [] if command == "certify" else ["--t-end", "0.1", "--step", "0.01"]
    code = run([command, "--problem", problem, "--out", str(tmp_path)] + grid)
    _assert_one_line_error(capsys, code, "error: number out of range (at position 0)")
    assert not (tmp_path / "trajectory.csv").exists()


@pytest.mark.parametrize(
    "name, value, message",
    [
        pytest.param(name, -1, f"{name} must be >= 0", id=name)
        for name in ("c0", "c1", "c2", "b0", "b1", "b")
    ]
    + [pytest.param("p", 0, "p must be > 0", id="p")],
)
def test_out_of_range_envelope_constant_is_named(tmp_path, capsys, name, value, message):
    problem = write_problem(tmp_path / "p.json", dict(ATAN_PROBLEM, **{name: value}))
    code = run(["certify", "--problem", problem, "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("name, value", [("c0", "2.0"), ("p", True)])
def test_non_number_envelope_constant_is_named(tmp_path, capsys, name, value):
    # JSON strings and booleans are not numbers, though float() reads them.
    problem = write_problem(tmp_path / "p.json", dict(ATAN_PROBLEM, **{name: value}))
    code = run(["certify", "--problem", problem, "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err == f"error: {name} must be a number, got {value!r}\n"
    assert not (tmp_path / "certificate.json").exists()


def test_oversized_grid_is_one_line_error(tmp_path, capsys):
    # 10^15 nodes: numpy refuses the 7 PiB allocation at once.
    problem = write_problem(tmp_path / "p.json", ATAN_PROBLEM)
    args = ["solve", "--problem", problem, "--t-end", "1e12", "--step", "1e-3"]
    code = run(args + ["--out", str(tmp_path)])
    _assert_one_line_error(capsys, code, "error: out of memory: ")


def test_verify_long_sum_forcing(tmp_path, capsys):
    # A 900-deep tree of additions: evaluation must stay within the
    # default recursion limit, one frame per tree level.
    terms = 900
    long_sum = dict(ATAN_PROBLEM, f="+".join(["exp(-t)"] * terms), c0=2.5 * terms)
    problem = write_problem(tmp_path / "p.json", long_sum)
    args = ["verify", "--problem", problem, "--t-end", "0.05", "--step", "0.01"]
    assert run(args + ["--out", str(tmp_path)]) == 0
    assert "bound holds" in capsys.readouterr().out


@pytest.mark.parametrize(
    "args",
    [
        pytest.param([], id="no-command"),
        pytest.param(["solve"], id="no-problem"),
        pytest.param(["solve", "--problem", "p.json", "--step", "abc"], id="step-abc"),
        pytest.param(["solve", "--problem", "p.json", "--bogus", "1"], id="unknown-option"),
        pytest.param(["solve", "--problem", "p.json", "--step", "-0.1"], id="negative-step"),
    ],
)
def test_usage_error_is_one_line_error(capsys, args):
    # Exit 2 is a negative verdict; a malformed command line is 1.
    code = run(args)
    _assert_one_line_error(capsys, code, "error: ")


def test_problem_file_is_read_as_utf8_in_any_locale(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(dict(ATAN_PROBLEM, note="café"), ensure_ascii=False), encoding="utf-8")
    src = str(Path(volterrabound.__file__).parents[1])
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0", PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-m", "volterrabound.cli", "certify", "--problem", str(path),
         "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True,
    )
    assert (result.returncode, result.stderr) == (0, "")


def test_undecodable_problem_file_is_named(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_bytes(b"\xff\xfe" + json.dumps(ATAN_PROBLEM).encode("utf-16-le"))
    code = run(["certify", "--problem", str(path), "--out", str(tmp_path)])
    _assert_one_line_error(capsys, code, f"error: cannot read {path}: 'utf-8' codec can't decode")


def test_deeply_nested_json_is_named(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code = run(["certify", "--problem", str(path), "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err == f"error: {path} is not valid JSON: nested too deeply\n"


def test_u_max_beyond_half_the_float_range_is_one_line_error(tmp_path, capsys):
    problem = write_problem(tmp_path / "p.json", ATAN_PROBLEM)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(["certify", "--problem", problem, "--u-max", "1e308", "--out", str(tmp_path)])
    _assert_one_line_error(capsys, code, "error: ")
    assert caught == []
    assert not (tmp_path / "certificate.json").exists()
