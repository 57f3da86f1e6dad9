"""Every ``slet`` command shown in README.md runs as documented.

The commands come from the README's ``sh`` blocks, joined across
backslash continuations, and run through ``cli.main`` in a fresh
directory.  ``slet table 2`` exits 5, as the README's note on the
expected acceptance failure says; every other command exits 0.
"""

import re
import shlex
from pathlib import Path

import pytest

from slet.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands():
    """argv (without ``slet``) of each ``slet`` command in a sh block."""
    text = README.read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", text, re.S):
        for line in re.sub(r"\\\n\s*", " ", block).splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["slet"]:
                commands.append(argv[1:])
    return commands


COMMANDS = readme_commands()


def test_commands_found():
    assert len(COMMANDS) >= 5


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_command_runs(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = main(argv)
    out = capsys.readouterr().out
    assert code == (5 if argv[:2] == ["table", "2"] else 0)
    if "--out" in argv:
        assert (tmp_path / argv[argv.index("--out") + 1]).read_text()
    else:
        assert out
