"""README's Quickstart runs as written, and its flag table lists exactly the
flags that each subcommand's parser takes, so a removed flag cannot linger
in the docs."""

import argparse
import re
import shlex
from pathlib import Path

from regio_forecast.cli import build_parser, main

QUICKSTART = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8") \
    .split("## Quickstart (CLI)\n", 1)[1].split("\n## ", 1)[0]


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    return next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def test_quickstart_commands_run(tmp_path, monkeypatch, capsys):
    block = re.search(r"```bash\n(.*?)```", QUICKSTART, flags=re.S).group(1)
    commands = [shlex.split(line, comments=True)
                for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("regio-forecast ")]
    assert {argv[1] for argv in commands} == set(_subcommands())
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv[1:]) == 0, (argv, capsys.readouterr().err)


def test_flag_table_matches_the_parser():
    table = {}
    for command, cell in re.findall(r"^\| `(\w+)` \| (.*) \|$", QUICKSTART, flags=re.M):
        flags = set(re.findall(r"--[a-z][a-z-]*", cell))
        for other in re.findall(r"the `(\w+)` flags", cell):
            flags |= table[other]
        table[command] = flags
    parsed = {name: {option for action in parser._actions for option in action.option_strings
                     if option not in ("-h", "--help", "--config")}
              for name, parser in _subcommands().items()}
    assert table == parsed
