"""The README's command-line examples run as documented.

Each `cfspectra` line of the "Command line" block runs through cli.main and
must exit 0; a comment that quotes output (one with a digit in it, such as
`√221/5 ≈ 2.9732137`) must appear verbatim in what it prints.  The
verify-suite lines are left to test_acceptance.py.
"""

import shlex
from pathlib import Path

import pytest

from cfspectra import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _examples():
    block = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    lines = block.split("```")[1].strip().splitlines()
    out = []
    for line in lines:
        cmd, _, comment = line.partition("#")
        argv = shlex.split(cmd)
        assert argv[0] == "cfspectra", line
        if argv[1] != "verify-suite":
            out.append((argv[1:], comment.strip()))
    return out


EXAMPLES = _examples()


def test_readme_lists_the_examples():
    assert len(EXAMPLES) == 12


@pytest.mark.parametrize("argv,comment", EXAMPLES,
                         ids=[" ".join(a) for a, _ in EXAMPLES])
def test_readme_example(argv, comment, capsys):
    assert cli.main(argv) == 0
    if any(ch.isdigit() for ch in comment):
        assert comment in capsys.readouterr().out
