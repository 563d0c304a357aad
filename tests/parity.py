"""A seeded corpus of solves, certificate searches or CSV cells, one line
per case, for parity checks.

Run it on two commits and diff the outputs:

    PYTHONPATH=src python tests/parity.py --seed 1 --count 3000 > before.txt

With ``--operation solve`` (the default) each line holds, tab-separated:
the case id, the status kind, the grid values reached, the refinement
subnodes and Newton attempts taken, the evaluations of the generated
step functions, the first 16 hex digits of the sha256 of the values'
bytes, the status's time (t_star or t, else -), and the problem: f, a,
t_end and the number of steps.  Case i of a seed does not depend on
``--count``, so a short run is a prefix of a long one.  Columns 1, 2, 3,
8, 9 and 10 (id, kind, nodes, time, f, a) of the first 100 cases of
seed 1 are ``parity_slice.txt``, which ``test_parity.py`` checks in
tier 1.

The families are blow-up powers u^k; the same under a fading memory,
exp(-m*(t-s))*u^k; atan kernels, split and not; cos(u)^2*u, whose slope
swings through zero every unit of u; (1+cos(u))*u^2, whose growth stops
at u = pi; and sqrt(u) under a falling forcing, which leaves the domain.
The kinds are the same on any platform short of a change to the solver;
the values' bits are this platform's math and numpy.

With ``--operation search`` each case is one certificate search, on an
exponential or a power-law decay record in turn.  Its line holds, tab-
separated: the case id, the weight family, the verdict (certified or
refused), the reprs of the coefficient, rate and margin at t = 0 (- where
there is none), the refusal's reason (or strict / non-strict), the tail
exponents, and the inputs: the initial value and the decay record.  A
search that raises prints ``raised <Type>: <message>`` in place of its
verdict fields.  The records take p in {0.25, 1/2, 0.75, 1, 1.5, 3} or
at random, amplitudes 0, O(1), 10^U(-300, 308) or 1e308, rates of
either sign or 0, and initial values 0, 5e-324, O(1) or up to 1e308.
The sha256 of the first 2 000 lines of seed 1 is pinned in
``test_parity.py``.

With ``--operation format`` each case is a block of 10 000 seeded doubles
(``format_values``), written once by Python's ``"%.17g"`` and once by the
CSV writer's numpy routine, one value a line.  Its line holds, tab-
separated: the block id and the sha256 of each text.  The two digests of
a line must be equal on any platform and numpy build.
"""

from __future__ import annotations

import argparse
import hashlib
import random
import sys

import numpy as np

from volterrabound import (
    ExponentialDecayData,
    Grid,
    InequalityData,
    PowerDecayData,
    build_problem,
    search_exponential,
    search_power,
    solve,
)
from volterrabound.ioutil import _cells, _rows_text
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


def solve_line(seed: int, index: int) -> str:
    f_text, a_text, t_end, steps = case(seed, index)
    r = run(f_text, a_text, t_end, steps)
    fields = [index, r["kind"], r["nodes"], r["subnodes"], r["attempts"], r["evaluations"],
              r["sha"], r["time"], f_text, a_text, repr(t_end), steps]
    return "\t".join(map(str, fields))


def _amplitude(rng):
    kind = rng.randrange(4)
    if kind == 0:
        return 0.0
    if kind == 1:
        return rng.uniform(0.0, 3.0)
    return 10.0 ** rng.uniform(-300.0, 308.0) if kind == 2 else 1e308


def _rate(rng):
    # Exponential rates, or power-law orders; below 1 an order is a
    # negative rate in log time.
    kind = rng.randrange(8)
    if kind < 2:
        return rng.uniform(-3.0, 0.0) if kind == 0 else 0.0
    return rng.uniform(0.0, 5.0) if kind < 7 else rng.uniform(5.0, 50.0)


def _initial(rng):
    kind = rng.randrange(4)
    if kind < 2:
        return (0.0, 5e-324)[kind]
    return rng.uniform(0.0, 5.0) if kind == 2 else 10.0 ** rng.uniform(100.0, 308.0)


def search_case(seed: int, index: int) -> tuple:
    """Search case ``index`` of ``seed``: (initial, decay record), the
    record exponential for even ``index`` and power-law for odd."""
    rng = random.Random(f"{seed}-search-{index}")
    p = rng.choice((0.25, 0.5, 0.75, 1.0, 1.5, 3.0, None)) or rng.uniform(0.05, 4.0)
    constants = [f(rng) for f in (_amplitude, _rate) * 3]
    record = (ExponentialDecayData, PowerDecayData)[index % 2](*constants, p)
    return _initial(rng), record


def search_line(seed: int, index: int) -> str:
    initial, record = search_case(seed, index)
    power = isinstance(record, PowerDecayData)
    fields = [index, "power" if power else "exponential"]
    try:
        cert = (search_power if power else search_exponential)(InequalityData(initial, record))
    except Exception as exc:
        fields.append(f"raised {type(exc).__name__}: {exc}")
    else:
        if cert.certified:
            fields.append("certified")
            reason = "strict" if cert.verdict.strict else "non-strict"
        else:
            fields.append("refused")
            reason = cert.verdict.reason
        weight, margin = cert.weight, cert.margin_min
        fields += ["-", "-"] if weight is None else [repr(weight.coefficient), repr(weight.rate)]
        fields += ["-" if margin is None else repr(margin), reason, repr(cert.tail_check.exponents)]
    fields += [repr(initial), repr(record)]
    return "\t".join(map(str, fields))


_TENS = np.array([float(f"1e{k}") for k in range(-300, 300)])
_STEPS = [1e-3, 0.01, 0.04, 0.1, 1 / 3, 0.0006666666666666666]
_SPECIALS = [0.0, -0.0, float("inf"), -float("inf"), float("nan"), 5e-324, -5e-324,
             sys.float_info.max, -sys.float_info.max, sys.float_info.min]


def _near_ties(rng, count):
    """Doubles x whose V = x * 10^k = m * 5^k / 2^s, the digits that
    "%.17g" rounds, lies 1/2^s or 3/2^s from a tie, with s = 47 ... 53:
    closer than the numpy routine's arithmetic resolves, for k = 23 ... 26,
    where 10^k is not a double."""
    values = []
    while len(values) < count:
        k, s = int(rng.integers(23, 27)), int(rng.integers(47, 54))
        m = ((1 << (s - 1)) + int(rng.choice([-3, -1, 1, 3]))) * pow(5**k, -1, 1 << s) % (1 << s)
        if 10**16 << s <= m * 5**k < 10**17 << s:
            values.append(m * 2.0 ** -(k + s))
    return values


def format_values(seed: int, block: int) -> np.ndarray:
    """Block ``block`` of ``seed``: 10 000 doubles in a seeded order.  4 000
    random bit patterns; 1 500 grid times i*h and 1 500 values of either
    sign from 1e-20 to 1e20, the program's ranges; 1 000 integers 2^53 ...
    2^54 scaled by 2^-60 ... 2^60; 800 exact ties, odd q * 2^-j whose
    decimal expansion has 18 digits, the last a 5, and 200 near-ties
    (``_near_ties``); 300 powers of ten from 1e-300 to 1e299, each with
    both neighbours; and 100 of +-0, +-inf, nan, +-5e-324, +-the largest
    float and the smallest normal one."""
    rng = np.random.default_rng([seed, block])
    tens = _TENS[rng.integers(0, len(_TENS), 300)]
    j = rng.integers(2, 26, 800)
    odd = rng.integers(-(-(10**17) // 5**j), np.minimum(10**18 // 5**j, 2**53 - 1)) | 1
    values = np.concatenate([
        rng.integers(0, 2**64, 4000, dtype=np.uint64).view(np.float64),
        rng.integers(0, 200_001, 1500) * rng.choice(_STEPS, 1500),
        rng.uniform(-1.0, 1.0, 1500) * 10.0 ** rng.uniform(-20.0, 20.0, 1500),
        np.ldexp(rng.integers(2**53, 2**54, 1000).astype(float), rng.integers(-60, 61, 1000)),
        np.ldexp(odd.astype(float), -j),
        _near_ties(rng, 200),
        tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf),
        np.resize(_SPECIALS, 100),
    ])
    return rng.permutation(values)


def format_line(seed: int, index: int) -> str:
    values = format_values(seed, index)
    python = "".join("%.17g\n" % v for v in values.tolist())
    cells, ends = _cells(values)
    numpy = _rows_text(cells[:, None], ends[:, None], len(values), 1)
    digests = [hashlib.sha256(text.encode()).hexdigest() for text in (python, numpy)]
    return "\t".join([str(index)] + digests)


OPERATIONS = {"solve": solve_line, "search": search_line, "format": format_line}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--operation", choices=OPERATIONS, default="solve")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--count", type=int, default=3000)
    args = parser.parse_args(argv)
    line = OPERATIONS[args.operation]
    for index in range(args.count):
        print(line(args.seed, index))
    return 0


if __name__ == "__main__":
    sys.exit(main())
