"""The README's command-line examples run as documented."""

import shlex
from pathlib import Path

from srskit.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands():
    """argv of each ``srskit`` line of the README's "Command line" block."""
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        words = shlex.split(line, comments=True)
        if words:
            assert words[0] == "srskit", line
            commands.append(words[1:])
    return commands


def test_readme_command_line_examples_run(tmp_path, monkeypatch, capsys):
    commands = readme_commands()
    assert len(commands) >= 4
    # the examples read the files earlier ones write, so run them in order
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv) == 0, shlex.join(argv)
