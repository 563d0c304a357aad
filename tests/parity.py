"""A seeded corpus of solves, one line per case, for parity checks.

Run it on two commits and diff the outputs:

    PYTHONPATH=src python tests/parity.py --seed 1 --count 3000 > before.txt

Each line holds, tab-separated: the case id, the status kind, the grid
values reached, the refinement subnodes and Newton attempts taken, the
evaluations of the generated step functions, the first 16 hex digits of
the sha256 of the values' bytes, the status's time (t_star or t, else
-), and the problem: f, a, t_end and the number of steps.  Case i of a
seed does not depend on ``--count``, so a short run is a prefix of a
long one.  Columns 1, 2, 3, 8, 9 and 10 (id, kind, nodes, time, f, a)
of the first 100 cases of seed 1 are ``parity_slice.txt``, which
``test_parity.py`` checks in tier 1.

The families are blow-up powers u^k; the same under a fading memory,
exp(-m*(t-s))*u^k; atan kernels, split and not; cos(u)^2*u, whose slope
swings through zero every unit of u; (1+cos(u))*u^2, whose growth stops
at u = pi; and sqrt(u) under a falling forcing, which leaves the domain.
The kinds are the same on any platform short of a change to the solver;
the values' bits are this platform's math and numpy.
"""

from __future__ import annotations

import argparse
import hashlib
import random
import sys

from volterrabound import ExponentialDecayData, Grid, build_problem, solve
from volterrabound.solver import _BLOWUP_CAP, _status_fields

# The envelope does not enter a solve.
_ENVELOPE = ExponentialDecayData(1, 0, 1, 0, 0, 0, 1)


def _power(rng):
    c, k = rng.uniform(0.5, 1.5), rng.choice((2.0, 2.5, 3.0, 4.0, 7.0))
    t_star = c ** (1.0 - k) / (k - 1.0)
    return f"{c!r}", f"u^{k!r}", 2.0 * t_star, rng.randrange(20, 200)


def _fading(rng):
    c, m, k = rng.uniform(0.2, 1.5), rng.uniform(0.2, 5.0), rng.choice((2.0, 3.0))
    return f"{c!r}", f"exp(-{m!r}*(t-s))*u^{k!r}", 3.0, rng.randrange(30, 150)


def _atan(rng):
    f0, d, amp = rng.uniform(0.3, 1.5), rng.uniform(0.3, 1.5), rng.uniform(0.3, 3.0)
    f = rng.choice((f"{f0!r}*exp(-{d!r}*t)", f"{f0!r}*cos({d!r}*t)"))
    a = rng.choice((f"{amp!r}*exp(-({d!r}*t+s))*atan(u)", f"{amp!r}*atan(t*s*u)"))
    return f, a, 3.0, rng.randrange(20, 100)


def _cos(rng):
    f0, g, c = rng.uniform(0.5, 3.0), rng.uniform(0.0, 1.0), rng.uniform(1.0, 80.0)
    f = rng.choice((f"{f0!r}*cos(t)", f"{f0!r}+{g!r}*sin(3*t)"))
    t_end = rng.choice((1.0, 2.0, 4.0))
    return f, f"{c!r}*cos(u)^2*u", t_end, round(25 * t_end)


def _one_plus_cos(rng):
    f0, c = rng.uniform(0.5, 4.0), rng.uniform(0.5, 5.0)
    f = rng.choice((f"{f0!r}", f"{f0!r}*cos(t)"))
    return f, f"{c!r}*(1+cos(u))*u^2", 2.0, rng.randrange(20, 100)


def _sqrt(rng):
    f0, g, c = rng.uniform(0.05, 1.0), rng.uniform(0.0, 2.0), rng.uniform(0.1, 2.0)
    return f"{f0!r}-{g!r}*t", f"{c!r}*sqrt(u)", 1.0, rng.randrange(20, 100)


# Half the cases blow up: the verdict at a blow-up is what a step rule moves.
FAMILIES = (_power, _fading, _atan, _power, _cos, _fading, _one_plus_cos, _sqrt)


def case(seed: int, index: int) -> tuple:
    """Case ``index`` of ``seed``: (f, a, t_end, steps)."""
    rng = random.Random(f"{seed}-{index}")
    return FAMILIES[index % len(FAMILIES)](rng)


def run(f_text: str, a_text: str, t_end: float, steps: int) -> dict:
    """Solve one case and count its attempts and subnodes."""
    spec = build_problem(f_text, a_text, _ENVELOPE)
    stepper = spec._stepper
    newton, start = stepper.newton, stepper.evaluations
    counts = [0, 0]  # attempts, accepted attempts

    def counted(*args):
        converged, value, max_abs = result = newton(*args)
        counts[0] += 1
        counts[1] += converged and abs(value) <= _BLOWUP_CAP
        return result

    stepper.newton = counted
    try:
        traj = solve(spec, Grid(t_end=t_end, h=t_end / steps))
    finally:
        stepper.newton = newton
    status = _status_fields(traj.status)
    time = status.get("t_star", status.get("t"))
    return {
        "kind": status["kind"],
        "nodes": len(traj.values),
        "subnodes": counts[1] - (len(traj.values) - 1),
        "attempts": counts[0],
        "evaluations": stepper.evaluations - start,
        "sha": hashlib.sha256(traj.values.tobytes()).hexdigest()[:16],
        "time": "-" if time is None else repr(time),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--count", type=int, default=3000)
    args = parser.parse_args(argv)
    for index in range(args.count):
        f_text, a_text, t_end, steps = case(args.seed, index)
        r = run(f_text, a_text, t_end, steps)
        fields = [index, r["kind"], r["nodes"], r["subnodes"], r["attempts"], r["evaluations"],
                  r["sha"], r["time"], f_text, a_text, repr(t_end), steps]
        print("\t".join(map(str, fields)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
