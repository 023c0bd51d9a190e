"""The README's command walkthrough runs as written.

Each `spinekit` line of the README's shell blocks runs in order in one
directory, and must exit with the code its comment names ("exit N"), or 0
when the comment names none.
"""

from __future__ import annotations

import contextlib
import io
import re
import shlex
from pathlib import Path

from spinekit.cli import run_command

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands() -> list[tuple[str, list[str], int]]:
    """(line, argv, expected exit code) for each `spinekit` line."""
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.M | re.S)
    commands = []
    for line in "\n".join(blocks).splitlines():
        if line.startswith("spinekit "):
            code = re.search(r"#.*\bexit (\d+)", line)
            argv = shlex.split(line, comments=True)[1:]
            commands.append((line, argv, int(code.group(1)) if code else 0))
    return commands


def test_walkthrough_exit_codes(tmp_path, monkeypatch):
    commands = readme_commands()
    assert len(commands) >= 15
    monkeypatch.chdir(tmp_path)
    for line, argv, expected in commands:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_command(argv)
        assert code == expected, f"{line}\n{out.getvalue()}{err.getvalue()}"
