"""The Python examples of README.md run as written, and its command lines parse."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

from ratioreg import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```", README.read_text(encoding="utf-8"),
                      re.S | re.M)


def test_readme_python_blocks_run(capsys):
    """Every ```python block runs, in order, in one namespace (later ones reuse names)."""
    blocks = _blocks("python")
    assert len(blocks) >= 2
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert capsys.readouterr().out


def test_readme_command_lines_parse():
    """Every ``ratioreg`` line of the ```sh blocks parses with the CLI's own parser, and
    together they show every subcommand, so a renamed flag or subcommand fails here.  No
    command runs."""
    commands = [shlex.split(line)[1:] for block in _blocks("sh")
                for line in block.splitlines() if line.startswith("ratioreg ")]
    parser = cli.build_parser()
    for words in commands:
        assert parser.parse_args(words).command == words[0]
    assert {words[0] for words in commands} == set(cli._COMMANDS)
