"""Command-line front end.

Subcommands:

    volterra solve   --problem P [--t-end T --step H --out DIR]
    volterra certify --problem P [--t-max T --u-max U --out DIR]
    volterra verify  --problem P [all of the above]
    volterra demo-blowup [--out DIR]

Problem files are JSON (schema in docs/problem-schema.md).  Exit codes:
0 success (solve completed / certificate issued / bound verified),
2 negative verdict (no certificate, or bound violated), 3 blow-up from
``solve``, 1 anything malformed.  Outputs are written atomically and
repeated runs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

from . import __version__
from .certificate import (
    Certificate,
    InequalityData,
    derive_inequality,
    search_exponential,
    verify_solution_bound,
)
from .comparison import propagate_majorant
from .expr import ExprError
from .ioutil import write_csv_atomic, write_text_atomic
from .model import (
    ProblemFileError,
    ProblemSpec,
    ValidationReport,
    load_problem,
    problem_from_dict,
    validate_decay,
)
from .solver import BlowUp, Completed, Grid, StepFailure, solve, write_trajectory_csv
from .solver import _status_fields, _trajectory_csv

__all__ = ["main"]

_EXIT_OK = 0
_EXIT_ERROR = 1
_EXIT_REFUSED = 2
_EXIT_BLOWUP = 3

_DEMO_PROBLEM = {
    # u = 1 + integral of u^2: the textbook finite-time blow-up at t = 1.
    "f": "1",
    "a": "u^2",
    "c0": 1.0,
    "b0": 0.0,
    "c1": 1.0,
    "b1": 0.0,
    "c2": 0.0,
    "b": 0.0,
    "p": 1.0,
}


def _write_json(path: Path, payload: dict) -> None:
    write_text_atomic(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _certificate_payload(report: ValidationReport, cert: Certificate) -> dict:
    return {"validation": report.as_dict(), "certificate": cert.to_dict()}


def _certify_pipeline(
    spec: ProblemSpec, t_max: float, u_max: float
) -> tuple[ValidationReport, Certificate, InequalityData]:
    report = validate_decay(spec, t_max=t_max, u_max=u_max)
    data = derive_inequality(spec)
    cert = search_exponential(data)
    return report, cert, data


def _where_stopped(status: BlowUp | StepFailure) -> str:
    """Where the solver stopped, as printed: a blow-up time to three
    significant digits, or a step failure's time and reason."""
    if isinstance(status, BlowUp):
        return f"near t={status.t_star:#.3g}"
    return f"at t={status.t:.6g}: {status.reason}"


def cmd_solve(args: argparse.Namespace) -> int:
    spec = load_problem(args.problem)
    grid = Grid(t_end=args.t_end, h=args.step)
    traj = solve(spec, grid)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_trajectory_csv(traj, out / "trajectory.csv")
    if isinstance(traj.status, Completed):
        print(f"completed: {len(traj.values)} nodes, u(t_end) = {traj.values[-1]:.8g}")
        return _EXIT_OK
    if isinstance(traj.status, BlowUp):
        print(f"blow-up detected {_where_stopped(traj.status)}")
        return _EXIT_BLOWUP
    print(f"step failure {_where_stopped(traj.status)}", file=sys.stderr)
    return _EXIT_ERROR


def cmd_certify(args: argparse.Namespace) -> int:
    spec = load_problem(args.problem)
    report, cert, _ = _certify_pipeline(spec, args.t_max, args.u_max)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "certificate.json", _certificate_payload(report, cert))
    if cert.certified and report.passed:
        print(f"certified: |u(t)| <= {cert.to_dict()['bound']}")
        return _EXIT_OK
    if not cert.certified:
        print(f"no certificate: {cert.verdict.reason}")
    if not report.passed:
        failed = [c.name for c in report.checks if not c.passed]
        print(f"decay hypotheses failed validation: {', '.join(failed)}")
    return _EXIT_REFUSED


def cmd_verify(args: argparse.Namespace) -> int:
    spec = load_problem(args.problem)
    # Certify first: its input errors then end the run before the solve.
    report, cert, data = _certify_pipeline(spec, args.t_max, args.u_max)
    grid = Grid(t_end=args.t_end, h=args.step)
    traj = solve(spec, grid)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    payload = _certificate_payload(report, cert)
    payload["solver"] = {"status": _status_fields(traj.status)}
    majorant = None
    if isinstance(traj.status, StepFailure):
        code, stream = _EXIT_ERROR, sys.stderr
        message = f"step failure {_where_stopped(traj.status)}"
    elif not (cert.certified and report.passed):
        code, stream = _EXIT_REFUSED, sys.stdout
        reasons = []
        if not cert.certified:
            reasons.append(f"no certificate ({cert.verdict.reason})")
        if not report.passed:
            reasons.append("decay hypotheses failed validation")
        message = "; ".join(reasons)
        if isinstance(traj.status, BlowUp):
            message += f"; solution blows up {_where_stopped(traj.status)}"
    elif isinstance(traj.status, BlowUp):
        # A certified problem must not blow up; report the contradiction.
        code, stream = _EXIT_REFUSED, sys.stderr
        message = (
            f"certificate issued but the solver reports blow-up "
            f"{_where_stopped(traj.status)}; check the envelope constants"
        )
    else:
        bound_report = verify_solution_bound(traj, cert)
        majorant = propagate_majorant(data, grid)
        payload["bound_check"] = bound_report.as_dict()
        payload["majorant_status"] = _status_fields(majorant.status)
        stream = sys.stdout
        if bound_report.holds:
            code = _EXIT_OK
            message = f"bound holds at every node (min slack {bound_report.min_slack:.6g})"
        else:
            code = _EXIT_REFUSED
            message = (
                f"bound violated at t={bound_report.worst_t:.6g}: "
                f"|u| = {abs(bound_report.worst_u):.6g} vs bound {bound_report.worst_bound:.6g}"
            )

    _write_json(out / "report.json", payload)
    # trajectory.csv and bound.csv in one pass: bound.csv's t and u are
    # the first columns of trajectory.csv, formatted once for both.
    t = traj.times()
    columns, targets = [t, traj.values], [_trajectory_csv(traj, out / "trajectory.csv")]
    if majorant is not None:
        n = min(len(t), len(majorant.values))
        columns += [majorant.values[:n], cert.bound_values(t)[:n]]
        targets.append((out / "bound.csv", "t,u,g,mu_inv", 4, n, ()))
    write_csv_atomic(columns, targets)
    print(message, file=stream)
    return code


def cmd_demo_blowup(args: argparse.Namespace) -> int:
    """Walk through the quadratic-kernel example end to end."""
    spec = problem_from_dict(_DEMO_PROBLEM)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    print("problem: u(t) = 1 + integral_0^t u(s)^2 ds")
    print("closed form: u(t) = 1/(1-t), which leaves every bound at t -> 1")
    grid = Grid(t_end=2.0, h=1e-3)
    traj = solve(spec, grid)
    write_trajectory_csv(traj, out / "trajectory.csv")
    k = int(round(0.5 / grid.h))
    print(f"solver: u(0.5) = {traj.values[k]:.6f} (closed form 2.0)")
    if isinstance(traj.status, BlowUp):
        print(f"solver: blow-up detected {_where_stopped(traj.status)}")

    report, cert, _ = _certify_pipeline(spec, t_max=50.0, u_max=10.0)
    _write_json(out / "certificate.json", _certificate_payload(report, cert))
    if not cert.certified:
        print(f"certificate search: refused ({cert.verdict.reason})")
    failed = [c.name for c in report.checks if not c.passed]
    if failed:
        print(f"hypothesis validation: failed {', '.join(failed)}")
    print("conclusion: no global bound exists for this problem, and none is claimed")
    return _EXIT_OK


class _UsageError(Exception):
    """A command line that argparse rejects; main() prints it on one line."""


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # argparse's own would print usage and exit 2
        raise _UsageError(message)


def _positive(text: str) -> float:
    """The value of a numeric option: a positive finite number."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (value > 0.0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(f"must be a positive number, got {text!r}")
    return value


# The numeric options, each declared once for every subcommand that takes it.
_NUMERIC_FLAGS = {
    "--t-end": {"default": 10.0, "help": "horizon (default 10)"},
    "--step": {"default": 1e-3, "help": "grid step, must divide --t-end (default 1e-3)"},
    "--t-max": {"default": 50.0, "help": "hypothesis sampling horizon (default 50)"},
    "--u-max": {"default": 10.0, "help": "state sample range (default 10)"},
}


@functools.cache  # one parser per process; parse_args leaves it as it was
def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="volterra",
        description=(
            "Solve nonlinear Volterra integral equations of the second kind "
            "and certify global growth bounds on their solutions."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, *flags: str, problem: bool = True) -> None:
        if problem:
            p.add_argument("--problem", required=True, help="problem file (JSON)")
        p.add_argument("--out", default=".", help="output directory (default: .)")
        for flag in flags:
            p.add_argument(flag, type=_positive, **_NUMERIC_FLAGS[flag])

    p_solve = sub.add_parser("solve", help="integrate the equation and export the trajectory")
    add_common(p_solve, "--t-end", "--step")
    p_solve.set_defaults(func=cmd_solve)

    p_cert = sub.add_parser("certify", help="validate hypotheses and search for a growth bound")
    add_common(p_cert, "--t-max", "--u-max")
    p_cert.set_defaults(func=cmd_certify)

    p_verify = sub.add_parser("verify", help="solve, certify, and check the bound node by node")
    add_common(p_verify, "--t-end", "--step", "--t-max", "--u-max")
    p_verify.set_defaults(func=cmd_verify)

    p_demo = sub.add_parser("demo-blowup", help="run the quadratic-kernel blow-up walkthrough")
    add_common(p_demo, problem=False)
    p_demo.set_defaults(func=cmd_demo_blowup)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except (_UsageError, ProblemFileError, ExprError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_ERROR
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return _EXIT_ERROR
    except RecursionError:
        print("error: expression nested too deeply", file=sys.stderr)
        return _EXIT_ERROR
    except OverflowError as exc:
        print(f"error: numeric overflow: {exc}", file=sys.stderr)
        return _EXIT_ERROR
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return _EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
