"""The README's "Command line" and "Library" examples run and print what they show, and its
Subcommands table lists exactly the CLI's subcommands."""

import argparse
import contextlib
import io
import re
import shlex
from pathlib import Path

from simrank.cli import build_parser, cli_main

README = Path(__file__).resolve().parents[1] / "README.md"


def _section(title: str) -> str:
    return README.read_text(encoding="utf-8").split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_command_line_examples_print_as_documented(capsys):
    block = re.search(r"```text\n(.*?)```", _section("Command line"), re.S).group(1)
    examples = re.findall(r"^\$ simrank (.*)\n((?:.+\n)+)", block, re.M)
    assert [command.split()[0] for command, _ in examples] == ["rank", "nearest", "corr"]
    for command, shown in examples:
        command, _, head = command.partition(" | head -")
        assert cli_main(shlex.split(command)) == 0
        lines = capsys.readouterr().out.splitlines(keepends=True)
        assert "".join(lines[:int(head)] if head else lines) == shown, command


def test_subcommands_table_lists_every_subcommand():
    table = _section("Command line").split("\nSubcommands:\n", 1)[1]
    listed = re.findall(r"^\| `([\w-]+)", table, re.M)
    parsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert listed == list(parsers.choices)


def test_library_example_runs_as_documented():
    code = re.search(r"```python\n(.*?)```", _section("Library"), re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    first, second = out.getvalue().splitlines()
    assert first.startswith("RankingEntry(rank=1, player='Coutinho', distance=3.769")
    assert second == "***"
