"""The README agrees with the code: its "Numerical cut-offs" list matches the
module constants, and its command lines and quick start run."""

import importlib
import re
import shlex
from pathlib import Path

import pytest

from repstab.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
ENTRY = re.compile(r"^- `(\w+)\.([A-Z_]+) = ([^`]+)`:", re.MULTILINE)


def _section(title):
    return README.read_text(encoding="utf-8").split(f"## {title}\n", 1)[1].split("\n## ", 1)[0]


def _first_block(title):
    return _section(title).split("```", 2)[1].split("\n", 1)[1]


def _cutoff_entries():
    return ENTRY.findall(_section("Numerical cut-offs"))


def _command_lines():
    lines = _first_block("Command line").replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("repstab ")]


def test_readme_cutoff_list_has_distinct_entries():
    names = [(module, name) for module, name, _ in _cutoff_entries()]
    assert len(names) == 14
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("module,name,value", _cutoff_entries())
def test_readme_cutoff_matches_code(module, name, value):
    assert getattr(importlib.import_module(f"repstab.{module}"), name) == float(value)


@pytest.mark.parametrize("argv", _command_lines(), ids=lambda argv: argv[0])
def test_readme_command_line_runs(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0


def test_readme_quick_start_runs(capsys):
    exec(compile(_first_block("Library quick start"), str(README), "exec"), {})
    assert len(capsys.readouterr().out.split()) == 3
