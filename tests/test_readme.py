"""The README's "Numerical cut-offs" list agrees with the module constants."""

import importlib
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
ENTRY = re.compile(r"^- `(\w+)\.([A-Z_]+) = ([^`]+)`:", re.MULTILINE)


def _cutoff_entries():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Numerical cut-offs", 1)[1].split("\n## ", 1)[0]
    return ENTRY.findall(section)


def test_readme_cutoff_list_has_17_distinct_entries():
    names = [(module, name) for module, name, _ in _cutoff_entries()]
    assert len(names) == 18
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("module,name,value", _cutoff_entries())
def test_readme_cutoff_matches_code(module, name, value):
    assert getattr(importlib.import_module(f"repstab.{module}"), name) == float(value)
