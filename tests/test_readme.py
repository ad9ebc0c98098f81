"""The command line examples in README.md are what the command line prints.

CI runs each example through the installed console script too, with `readme_examples` and `assert_shown`.
"""

import re
import shlex
from pathlib import Path

import pytest

from positroids.cli import run

README = Path(__file__).resolve().parent.parent / "README.md"


def mask_elapsed(line):
    return re.sub(r"\d+\.\d+s", "<elapsed>s", line)


def readme_examples():
    """(command, shown output lines) for every `$ positroids ...` line of README's sh blocks."""
    examples = []
    for block in re.findall(r"^```sh\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S):
        shown = None  # the output lines of the block's latest command
        for line in block.splitlines():
            if line.startswith("$ "):
                shown = []
                examples.append((line[2:], shown))
            elif line and shown is not None:
                shown.append(line)
    return examples


EXAMPLES = readme_examples()


def test_readme_has_examples():
    assert len(EXAMPLES) >= 5
    assert all(shlex.split(command)[0] == "positroids" for command, _ in EXAMPLES)


def assert_shown(out, shown):
    """Assert that out, a command's stdout, is what README shows: elapsed times masked, `...` for any run of lines."""
    got = [mask_elapsed(line) for line in out.splitlines()]
    want = [mask_elapsed(line) for line in shown]
    if "..." not in want:
        assert got == want
        return
    cut = want.index("...")
    head, tail = want[:cut], want[cut + 1:]
    assert len(got) >= len(head) + len(tail)
    assert got[:len(head)] == head
    assert got[len(got) - len(tail):] == tail


@pytest.mark.parametrize("command, shown", EXAMPLES, ids=[command for command, _ in EXAMPLES])
def test_readme_example(capsys, command, shown):
    assert run(shlex.split(command)[1:]) == 0
    assert_shown(capsys.readouterr().out, shown)
