"""The tier-1 slice of the verdict corpus in ``parity.py``."""

from pathlib import Path

import parity

SLICE = Path(__file__).with_name("parity_slice.txt")


def test_verdict_slice_keeps_every_status_kind():
    # The first 100 cases of seed 1, half of them blow-ups.  A deliberate
    # change of verdicts re-pins the list with
    #     PYTHONPATH=src python tests/parity.py --count 100 | cut -f1,2,9,10 > tests/parity_slice.txt
    # and CHANGES.md names the cases that moved.
    pinned = [line.split("\t") for line in SLICE.read_text().splitlines()]
    assert [int(index) for index, *_ in pinned] == list(range(100))
    moved = []
    for index, kind, f_text, a_text in pinned:
        case = parity.case(1, int(index))
        assert case[:2] == (f_text, a_text)
        got = parity.run(*case)["kind"]
        if got != kind:
            moved.append(f"{index}: {kind} -> {got} for f = {f_text}, a = {a_text}")
    assert moved == []
