"""The command line examples in README.md are what the command line prints."""

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


@pytest.mark.parametrize("command, shown", EXAMPLES, ids=[command for command, _ in EXAMPLES])
def test_readme_example(capsys, command, shown):
    assert run(shlex.split(command)[1:]) == 0
    got = [mask_elapsed(line) for line in capsys.readouterr().out.splitlines()]
    want = [mask_elapsed(line) for line in shown]
    if "..." not in want:
        assert got == want
        return
    # a `...` line stands for any run of lines
    cut = want.index("...")
    head, tail = want[:cut], want[cut + 1:]
    assert len(got) >= len(head) + len(tail)
    assert got[:len(head)] == head
    assert got[len(got) - len(tail):] == tail
