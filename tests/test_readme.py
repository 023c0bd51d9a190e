"""The README's command walkthrough and Python examples run as written.

Each `spinekit` line of the README's shell blocks runs in order in one
directory, and must exit with the code its comment names ("exit N"), or 0
when the comment names none. Each Python block runs on its own, so a block
that names a function the library no longer has fails. Each size limit the
README states must be the one the code enforces.
"""

from __future__ import annotations

import contextlib
import io
import re
import shlex
from math import isqrt
from pathlib import Path

import pytest

from spinekit.catalog import CLASSIFY_LIMIT
from spinekit.cli import resolve_group_spec, run_command
from spinekit.errors import TooLarge
from spinekit.extension import _CLOSURE_BUDGET
from spinekit.generators import _SPINE_BUDGET
from spinekit.model import indexed_form

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```", README.read_text(), re.M | re.S)


def readme_commands() -> list[tuple[str, list[str], int]]:
    """(line, argv, expected exit code) for each `spinekit` line."""
    commands = []
    for line in "\n".join(readme_blocks("sh")).splitlines():
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


def test_python_blocks_run():
    blocks = readme_blocks("python")
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_stated_limits_match_the_code():
    text = " ".join(README.read_text().split())

    def spaced(n: int) -> str:  # 262144 -> "262 144", as the README writes it
        return f"{n:,}".replace(",", " ")

    zn = isqrt(_CLOSURE_BUDGET)
    stated = [
        f"a vertex group G past {spaced(_CLOSURE_BUDGET)} // |I|^2 maps",
        f"more than the same {spaced(_CLOSURE_BUDGET)} products (n > {zn})",
        f"more than 2^24 = {spaced(_SPINE_BUDGET)} images",
        f"`Zn` (cyclic of order n, 1 <= n <= {zn})",
        "`Sn` (symmetric, 1 <= n <= 4)",
        f"every group above order {CLASSIFY_LIMIT}",
        "`bytes` on carriers of at most 256 points",
    ]
    assert [s for s in stated if s not in text] == []
    assert _SPINE_BUDGET == 2**24
    with pytest.raises(TooLarge):
        resolve_group_spec(f"Z{zn + 1}")
    assert len(resolve_group_spec("S4")) == 24
    with pytest.raises(ValueError, match="up to S4"):
        resolve_group_spec("S5")
    assert type(indexed_form(range(256))) is bytes
    assert type(indexed_form(range(257))) is tuple
