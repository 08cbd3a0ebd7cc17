"""The README's Python examples run as written, in order, in one namespace.

A line of the form ``expression  # literal ...`` is also a claim: the
expression must evaluate to the literal once its block has run. Its
``greenwood`` command lines are parsed and checked, but not run.
"""

import ast
import re
import shlex
from pathlib import Path

import pytest

from greenwood import cli

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCK = re.compile(r"^```python\n(.*?)^```", re.M | re.S)
SH_BLOCK = re.compile(r"^```sh\n(.*?)^```", re.M | re.S)
CLAIM = re.compile(
    r"^(?P<expr>[^\s#][^#]*?)\s+#\s+(?P<value>True|False|-?[\d.]+|\([\d, ]+\))(?=$|[:,\s])"
)


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    blocks = BLOCK.findall(README.read_text(encoding="utf-8"))
    assert len(blocks) >= 4
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    claims = 0
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
        for line in block.splitlines():
            match = CLAIM.match(line)
            if match:
                claims += 1
                got = eval(match["expr"], namespace)
                assert got == ast.literal_eval(match["value"]), line
    assert claims >= 8
    assert (tmp_path / "vibration.bin").exists()


def test_readme_command_lines_are_accepted():
    # parse_args exits on a bad flag, and _check_flags refuses an unread one
    blocks = SH_BLOCK.findall(README.read_text(encoding="utf-8"))
    lines = [
        line for block in blocks for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("greenwood ")
    ]
    assert len(lines) >= 7
    for line in lines:
        try:
            cli._check_flags(cli.build_parser().parse_args(shlex.split(line)[1:]))
        except (SystemExit, cli._UsageError) as exc:
            pytest.fail(f"{line}: {exc!r}")
