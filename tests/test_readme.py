"""README's Quickstart runs as written, each command writing exactly the
files its table row lists, and the table lists exactly the flags that each
subcommand's parser takes, so a removed flag cannot linger in the docs."""

import argparse
import re
import shlex
from pathlib import Path

from regio_forecast.cli import build_parser, main
from regio_forecast.features import TARGET_COLUMNS
from regio_forecast.ingest import region_by_code

QUICKSTART = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8") \
    .split("## Quickstart (CLI)\n", 1)[1].split("\n## ", 1)[0]


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    return next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def _listed_files(argv: list[str]) -> set[str]:
    """The files that the table's "writes" cell lists for the Quickstart line ``argv``."""
    cell = re.search(rf"^\| `{argv[1]}` \| .* \| (.*) \|$", QUICKSTART, flags=re.M).group(1)
    names = set()
    for name in re.findall(r"`([^`]+\.(?:csv|json))`", cell):
        if "<target>" in name:
            names |= {name.replace("<target>", target) for target in TARGET_COLUMNS}
        elif "<region>" in name:
            regions = int(argv[argv.index("--regions") + 1])
            names |= {name.replace("<region>", region_by_code(code).file_stem)
                      for code in range(regions)}
        else:
            names.add(name)
    return names


def _snapshot(root: Path) -> dict[Path, tuple[int, int]]:
    """Each file under ``root``, with its inode and mtime: an atomic rewrite changes both."""
    return {p: (p.stat().st_ino, p.stat().st_mtime_ns) for p in root.rglob("*") if p.is_file()}


def test_quickstart_commands_run(tmp_path, monkeypatch, capsys):
    block = re.search(r"```bash\n(.*?)```", QUICKSTART, flags=re.S).group(1)
    commands = [shlex.split(line, comments=True)
                for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("regio-forecast ")]
    assert {argv[1] for argv in commands} == set(_subcommands())
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        before = _snapshot(tmp_path)
        assert main(argv[1:]) == 0, (argv, capsys.readouterr().err)
        after = _snapshot(tmp_path)
        written = {p for p in after if before.get(p) != after[p]}
        out = tmp_path / argv[argv.index("--out") + 1]
        assert written == {out / name for name in _listed_files(argv)}, argv


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
