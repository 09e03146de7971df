"""README's command examples: each `$ mary ...` block is the command's real output."""

import re
import shlex
from pathlib import Path

import pytest

from mary.cli import EXIT_OK, main

README = Path(__file__).resolve().parent.parent / "README.md"


def command_blocks():
    """(argv, expected stdout) for each fenced block whose first line starts with `$ mary`."""
    blocks = []
    for body in re.findall(r"^```[^\n]*\n(.*?)^```", README.read_text(), re.M | re.S):
        first, _, rest = body.partition("\n")
        if first.startswith("$ mary"):
            blocks.append((shlex.split(first)[2:], rest))
    return blocks


BLOCKS = command_blocks()


def test_every_command_has_an_example():
    assert sorted(argv[0] for argv, _ in BLOCKS) == ["count", "expand", "residue", "verify"]


@pytest.mark.parametrize("argv, expected", BLOCKS, ids=[" ".join(a) for a, _ in BLOCKS])
def test_example_output(capsys, argv, expected):
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == expected
