"""`repstab.__all__` holds exactly what its callers reach: the names that
`demos/` and `bench/` use as `rs.<name>`, the names README.md mentions
unqualified, and the error classes."""

import re
from pathlib import Path

import repstab as rs
from repstab.errors import RepStabError

ROOT = Path(__file__).resolve().parents[1]


def _used_by_scripts() -> set[str]:
    scripts = sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    return {name for path in scripts
            for name in re.findall(r"\brs\.([A-Za-z_]\w*)", path.read_text(encoding="utf-8"))}


def _named_by_readme() -> set[str]:
    # a name qualified by a module other than rs (`repstab.irreps.UnitaryRep`)
    # is not a name of the package namespace
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return set(re.findall(r"(?<![\w.])(?:rs\.)?([A-Za-z_]\w*)", text))


def _is_error_class(name: str) -> bool:
    obj = getattr(rs, name)
    return isinstance(obj, type) and issubclass(obj, RepStabError)


def test_every_export_has_a_caller():
    callers = _used_by_scripts() | _named_by_readme()
    unused = sorted(n for n in rs.__all__ if n not in callers and not _is_error_class(n))
    assert unused == []


def test_every_name_the_scripts_reach_is_exported():
    assert sorted(_used_by_scripts() - set(rs.__all__)) == []
