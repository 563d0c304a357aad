"""The two workloads: set-up, one round of operations, and the check of
each operation's output.

A round is the same list of operations every time, so a run of whole
rounds keeps the share of failed operations fixed whatever its length.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import checks
import problems
import volterrabound as vb
from volterrabound import cli


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list]
    # A program fault that makes this operation fail on every run; the
    # failure is counted, not treated as a wrong answer.
    known_fault: Optional[str] = None


def _write_problem(path, problem):
    schema = {k: v for k, v in problem.items() if k not in ("name", "check")}
    path.write_text(json.dumps(schema, indent=2, sort_keys=True) + "\n")


def _cli(argv):
    """cli.main with its one-line verdict captured, as a user's shell would."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def _digests(out, names):
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names}


def _clear(out, names):
    """Remove checked outputs, so the next operation has to write them anew."""
    for name in names:
        (out / name).unlink(missing_ok=True)


# ---------------------------------------------------------------------------
# verify-long
# ---------------------------------------------------------------------------

VERIFY_OUTPUTS = ("trajectory.csv", "bound.csv", "report.json")


def setup_verify_long(workdir, seed):
    path = workdir / "atan.json"
    _write_problem(path, problems.README_ATAN)
    vb.load_problem(path)
    out = workdir / "out"
    argv = [
        "verify", "--problem", str(path), "--out", str(out),
        "--t-end", repr(problems.VERIFY_T_END), "--step", repr(problems.VERIFY_STEP),
    ]
    n_nodes = int(round(problems.VERIFY_T_END / problems.VERIFY_STEP)) + 1
    nodes = problems.residual_nodes(seed, n_nodes)
    initial = 1.0  # |f(0)| = exp(0)
    first = {}  # the first operation's digests, and the reference majorant once computed

    def check(rc):
        try:
            return verify_outputs(rc)
        finally:
            _clear(out, VERIFY_OUTPUTS)

    def verify_outputs(rc):
        if rc != 0:
            return [f"verify exited {rc}"]
        report = json.loads((out / "report.json").read_text())
        cert = report["certificate"]
        if not (report["validation"]["passed"] and cert["verdict"] == "certified"
                and cert["family"] == "exponential"):
            return [f"report.json: validation {report['validation']['passed']}, certificate {cert}"]
        found = [] if report["bound_check"]["holds"] else ["report.json: bound_check.holds is false"]
        t, u, status = checks.read_trajectory(out / "trajectory.csv")
        if status != "completed" or len(u) != n_nodes:
            return found + [f"trajectory: status {status!r}, {len(u)} of {n_nodes} nodes"]
        found += checks.check_trapezoid(t, u, problems.readme_atan_f, problems.readme_atan_a, nodes)
        rows = checks.read_bound_rows(out / "bound.csv")
        found += checks.check_bound_rows(rows)
        if "majorant" not in first:
            first["majorant"] = checks.envelope_rk4(
                problems.README_ATAN, initial, problems.VERIFY_T_END, problems.VERIFY_STEP
            )
        found += checks.check_majorant(rows[:, 2], first["majorant"])
        found += checks.check_below_bound(rows[:, 0], rows[:, 2], cert["coefficient"], cert["rate"])
        found += checks.check_exponential_conditions(
            problems.README_ATAN, cert["coefficient"], cert["rate"], initial, cert["strict"]
        )
        digests = _digests(out, VERIFY_OUTPUTS)
        first.setdefault("digests", digests)
        found += [f"{name} differs from the run's first operation"
                  for name in digests if digests[name] != first["digests"][name]]
        return found

    return [Op("verify", lambda: _cli(argv), check)]


# ---------------------------------------------------------------------------
# blowup-batch
# ---------------------------------------------------------------------------


def _blowup_check(problem, out):
    c, k, step = problem["check"]["c"], problem["check"]["k"], problem["check"]["step"]

    def check(rc):
        try:
            return blowup_outputs(rc)
        finally:
            _clear(out, ("trajectory.csv",))

    def blowup_outputs(rc):
        if rc != 3:
            return [f"solve exited {rc}, expected 3 (blow-up)"]
        t, u, status = checks.read_trajectory(out / "trajectory.csv")
        if not status.startswith("blowup t_star="):
            return [f"trajectory status {status!r}"]
        return checks.check_blowup(float(status.split("=")[1]), c, k, step) + checks.check_midpoint(
            t, u, c, k, step
        )

    return check


def setup_blowup_batch(workdir, seed):
    ops = []
    for problem in problems.blowup_batch(seed):
        path = workdir / f"{problem['name']}.json"
        _write_problem(path, problem)
        vb.load_problem(path)
        out = workdir / "out" / problem["name"]
        argv = [
            "solve", "--problem", str(path), "--out", str(out),
            "--t-end", repr(problem["check"]["t_end"]), "--step", repr(problem["check"]["step"]),
        ]
        ops.append(
            Op(problem["name"], lambda argv=argv: _cli(argv), _blowup_check(problem, out),
               problem["check"]["known_fault"])
        )
    return ops


WORKLOADS = {
    "verify-long": setup_verify_long,
    "blowup-batch": setup_blowup_batch,
}


def setup(workload, workdir: Path, seed):
    """Write and load the workload's problem files; returns one round of operations."""
    workdir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[workload](workdir, seed)
