"""The tier-1 slices of the corpora in ``parity.py``.

``parity_slice.txt`` pins each solve case's status kind, node count and
status time.  The times are the bits of this platform's ``math`` and
numpy, as the sha256 pins of ``test_verify_outputs_keep_their_bytes``
are; the kinds and node counts hold on any platform short of a solver
change.  The search corpus is pinned by the sha256 of its lines, which
print the reprs of the searches' floats and so pin this platform's bits
too.
"""

import hashlib
from pathlib import Path

import parity

SLICE = Path(__file__).with_name("parity_slice.txt")


def test_verdict_slice_keeps_every_status_kind():
    # The first 100 cases of seed 1, half of them blow-ups.  A deliberate
    # change of verdicts re-pins the list with
    #     PYTHONPATH=src python tests/parity.py --count 100 | cut -f1,2,3,8,9,10 > tests/parity_slice.txt
    # and CHANGES.md names the cases that moved.
    pinned = [line.split("\t") for line in SLICE.read_text().splitlines()]
    assert [int(index) for index, *_ in pinned] == list(range(100))
    moved = []
    for index, kind, nodes, time, f_text, a_text in pinned:
        case = parity.case(1, int(index))
        assert case[:2] == (f_text, a_text)
        got = parity.run(*case)
        if (got["kind"], str(got["nodes"]), got["time"]) != (kind, nodes, time):
            moved.append(f"{index}: {kind} {nodes} {time} -> {got['kind']} {got['nodes']} {got['time']}"
                         f" for f = {f_text}, a = {a_text}")
    assert moved == []


def test_search_corpus_keeps_its_lines():
    # The first 2 000 certificate searches of seed 1.  A deliberate change
    # of verdicts re-pins the digest with
    #     PYTHONPATH=src python tests/parity.py --operation search --count 2000 | sha256sum
    # and CHANGES.md names the cases that moved.
    text = "".join(parity.search_line(1, index) + "\n" for index in range(2000))
    assert (hashlib.sha256(text.encode()).hexdigest()
            == "24768216b47dc677a868d32b817219a99ed6f84bb442c3f7310117285be92156")
