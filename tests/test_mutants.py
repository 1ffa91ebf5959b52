"""The planted mutations of ``tools/mutants.py`` still apply, and its runner reads pytest right."""

import importlib.util
import re
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("mutants", _ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mutants)


def test_the_list_is_seeded():
    assert len(mutants.MUTANTS) >= 6
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_each_old_text_occurs_once(mutant):
    text = (_ROOT / mutant.path).read_text(encoding="utf-8")
    assert text.count(mutant.old) == 1
    assert mutant.new != mutant.old


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_each_named_test_exists(mutant):
    assert mutant.tests
    for node in mutant.tests:
        path, *names = node.split("::")
        text = (_ROOT / path).read_text(encoding="utf-8")
        for name in names:
            assert re.search(rf"^\s*(def|class) {re.escape(name)}\b", text, re.M), node


def test_failed_ids_read_the_short_summary():
    output = "\n".join([
        ".F.",
        "=========================== short test summary info ============================",
        "FAILED tests/a.py::TestX::test_y[p-q] - AssertionError: x - y",
        "FAILED tests/a.py::test_z",
        "1 failed, 2 passed in 0.1s",
    ])
    assert mutants.failed_ids(output) == ["tests/a.py::TestX::test_y[p-q]", "tests/a.py::test_z"]


def test_a_node_is_caught_by_a_test_inside_it():
    failed = ["tests/a.py::TestX::test_y[p]", "tests/a.py::test_z"]
    caught = ("tests/a.py", "tests/a.py::TestX", "tests/a.py::TestX::test_y", "tests/a.py::test_z")
    for node in caught:
        assert mutants.caught(node, failed), node
    for node in ("tests/a.py::TestXY", "tests/a.py::test_zz", "tests/a.py::TestX::test_y[q]"):
        assert not mutants.caught(node, failed), node
