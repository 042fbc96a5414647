"""The mutation check's table in ``tools/mutants.py``: every mutant can be
planted in a library module, and the tool's docstring keeps the count."""

import importlib.util
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_SPEC)
sys.modules[_SPEC.name] = mutants  # dataclass reads its module's namespace
_SPEC.loader.exec_module(mutants)


def test_names_are_unique():
    names = [m.name for m in mutants.MUTANTS]
    assert len(set(names)) == len(names)


def test_every_module_has_its_test_file():
    assert mutants.MODULES
    for path in mutants.LIBRARY_TESTS:
        assert (ROOT / path).is_file(), path


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_snippet_occurs_once_in_a_library_module(mutant):
    assert Path(mutant.path).stem in mutants.MODULES
    assert mutant.old != mutant.new
    source = (ROOT / "src" / "onebit" / mutant.path).read_text()
    assert source.count(mutant.old) == 1


def test_docstring_keeps_the_count():
    counts = re.findall(r"the (\d+) mutants", mutants.__doc__)
    assert counts == [str(len(mutants.MUTANTS))]
