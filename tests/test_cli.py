import json
import math

import numpy as np
import pytest

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
