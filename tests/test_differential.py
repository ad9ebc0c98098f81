"""The public API and the command line against the differential harness's golden lines.

`tests/differential_golden.txt` holds the outcome lines of the golden seed (`differential.py` says how they are
made).  A refactor keeps them all; a change that means to alter an outcome regenerates the file and names the
changed lines in `CHANGES.md`.
"""

import difflib
from pathlib import Path

import differential

GOLDEN = Path(__file__).with_name("differential_golden.txt")


def test_every_outcome_matches_the_golden_file():
    expected = GOLDEN.read_text().splitlines()
    got = list(differential.outcomes())
    diff = list(difflib.unified_diff(expected, got, "golden", "this tree", n=0, lineterm=""))
    assert not diff, f"{len(diff)} diff lines, the first 40:\n" + "\n".join(diff[:40])


def test_a_compare_counts_the_differing_lines_per_label():
    old = ["MAX_GROUND_SET = 64", "dual(2,1) -> 2,1", "dual(x) -> raise", "cli('perm',) -> 1", "cli('bases',) -> 0"]
    new = ["MAX_GROUND_SET = 65", "dual(2,1) -> 2,1", "dual(x) -> ok", "dual(y) -> ok", "cli('perm',) -> 0",
           "cli('bases',) -> 0"]
    diff = list(difflib.unified_diff(old, new, "old", "new", n=0, lineterm=""))
    assert differential.label_counts(diff) == {"MAX_GROUND_SET": (1, 1), "cli": (1, 1), "dual": (1, 2)}
