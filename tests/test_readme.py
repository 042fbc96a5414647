"""README's code and tables against the package: the library example runs,
and every tolerance row names a constant with its value and functions that
exist."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import onebit

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def section(title):
    """The README text under ``## title``, up to the next level-2 heading."""
    start = README.index(f"\n## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start : end if end >= 0 else None]


def tolerance_rows():
    """(constant, module, value, bounds) of each Tolerances table row; cells
    are split on pipes that are not escaped."""
    rows = []
    for line in section("Tolerances").splitlines():
        cells = [c.strip() for c in re.split(r"(?<!\\)\|", line)[1:-1]]
        if len(cells) == 4 and cells[0].startswith("`"):
            rows.append((cells[0].strip("`"), cells[1].strip("`"), cells[2], cells[3]))
    return rows


def onebit_modules():
    return [
        importlib.import_module(f"onebit.{info.name}")
        for info in pkgutil.iter_modules(onebit.__path__)
        if info.name != "__main__"  # importing it runs the CLI
    ]


def resolves(name):
    """True when a dotted name is reached by attribute lookup from some
    onebit module, or from some class defined in one."""
    roots = onebit_modules()
    roots += [v for m in roots for v in vars(m).values() if isinstance(v, type)]
    for root in roots:
        target = root
        for part in name.split("."):
            target = getattr(target, part, None)
        if target is not None:
            return True
    return False


def test_library_example_runs(capsys):
    block = re.search(r"```python\n(.*?)```", section("Library example"), re.S)
    exec(compile(block.group(1), "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("(0, 1) -0.11")


def test_tolerance_table_has_every_row():
    assert [row[0] for row in tolerance_rows()] == [
        "DIST_TOL", "SECTOR_TOL", "PHYSICAL_TOL", "ORTHO_TOL", "PERMUTATION_TOL", "HERMITIAN_TOL",
    ]


@pytest.mark.parametrize(
    "constant, module, value, bounds", tolerance_rows(), ids=[row[0] for row in tolerance_rows()]
)
def test_tolerance_row_matches_the_code(constant, module, value, bounds):
    assert getattr(importlib.import_module(f"onebit.{module}"), constant) == float(value)
    names = re.findall(r"`([^`]+)`", bounds)
    assert names
    unresolved = [name for name in names if not resolves(name)]
    assert unresolved == []
