"""The CSV writer's cells are the bytes of Python's ``"%.17g"``."""

import math
import sys
from fractions import Fraction

import numpy as np

import parity
from volterrabound.ioutil import _CSV_CHUNK, _cells, _decimal, _rows_text, _tables, write_csv_atomic


def python_text(values):
    return "".join("%.17g\n" % v for v in values.tolist())


def numpy_text(values):
    cells, ends = _cells(values)
    return _rows_text(cells[:, None], ends[:, None], len(values), 1)


def test_cells_are_percent_17g_over_every_value_class():
    # Seeded blocks of the format corpus (bit patterns, the program's
    # ranges, near-tie integers, powers of ten and their neighbours,
    # specials), every power of ten from 1e-300 to 1e299 with both
    # neighbours, and the cells that only Python formats.  A RuntimeWarning
    # (log10 of 0, a split that overflows) fails the test.
    tens = np.array([float(f"1e{k}") for k in range(-300, 300)])
    specials = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, sys.float_info.max,
                -sys.float_info.max, 1e-290, 1e290, 1e-288, 1e288, 1 + 2**-17]
    blocks = [parity.format_values(7, block) for block in range(6)]
    neighbours = [np.nextafter(tens, 0.0), -np.nextafter(tens, np.inf)]
    for values in blocks + [tens, *neighbours, np.array(specials)]:
        assert numpy_text(values) == python_text(values)


def test_python_formats_few_cells_of_the_program_ranges():
    # Grid times and trajectory-like values: the near-ties Python formats
    # are well under 2% of them.
    rng = np.random.default_rng(5)
    values = np.concatenate([np.arange(12001) * 1e-3, rng.uniform(-3.0, 3.0, 12001),
                             np.exp(rng.uniform(-30.0, 30.0, 12001))])
    *_, slow = _decimal(np.abs(values), _tables()[3])
    assert slow.mean() < 0.02


def test_csv_files_are_the_rows_python_formats(tmp_path):
    # Two targets over shared columns, as verify writes them: the second
    # prints four columns, two of them shorter than the first two, and
    # stops short of its columns.  Rows 1023 and 1024 straddle the first
    # chunk seam and hold cells that only Python formats, a near-tie among
    # them (1 + 2^-17 ends in ...125 at 18 digits).
    rows, short = 2 * _CSV_CHUNK + 300, _CSV_CHUNK + 500
    rng = np.random.default_rng(11)
    columns = [np.arange(rows) * 1e-3, rng.uniform(-2.0, 2.0, rows),
               np.exp(rng.uniform(-40.0, 40.0, short)), rng.uniform(0.0, 1e8, short)]
    seam = [math.nan, math.inf, -math.inf, 0.0, -0.0, 1e300, 5e-324, 1 + 2**-17]
    for j, column in enumerate(columns):
        column[_CSV_CHUNK - 1] = seam[2 * j]
        column[_CSV_CHUNK] = seam[2 * j + 1]
    trajectory, bound = tmp_path / "trajectory.csv", tmp_path / "bound.csv"
    write_csv_atomic(columns, [(trajectory, "t,u", 2, rows, ("# status=completed",)),
                               (bound, "t,u,g,mu_inv", 4, short - 7, ())])

    def expected(header, width, count, trailer):
        lines = [",".join("%.17g" % column[i] for column in columns[:width]) for i in range(count)]
        return "".join(line + "\n" for line in [header, *lines, *trailer])

    assert trajectory.read_text() == expected("t,u", 2, rows, ["# status=completed"])
    assert bound.read_text() == expected("t,u,g,mu_inv", 4, short - 7, [])


def test_no_double_lies_near_the_lower_digit_boundary():
    # _decimal moves E down where V < 10^16 - 1/20, since 10 V < 10^17 - 1/2
    # rounds to 17 nines one digit lower.  It makes no near-tie test there:
    # over every E in range, the doubles nearest that boundary keep 10 V
    # at least 1e-3 from 10^17 - 1/2, where the arithmetic errs by 1e-13.
    closest = math.inf
    for e in range(-290, 290):
        scale = Fraction(10) ** (17 - e)
        boundary = (10**17 - Fraction(1, 2)) / scale
        near = float(boundary)
        for x in (math.nextafter(near, 0.0), near, math.nextafter(near, math.inf)):
            closest = min(closest, abs(Fraction(x) - boundary) * scale)
    assert closest > 1e-3
