"""The fault catalogue of tests/faults.py stays applicable: each fault's
old text occurs exactly once in its file, and each test it names exists.
Whether the tests catch the faults is checked by `python3 tests/faults.py`,
which CI runs."""

import re

import pytest

from faults import FAULTS, ROOT, SRC


@pytest.mark.parametrize("fault", FAULTS, ids=lambda f: f.name)
def test_each_fault_applies_at_exactly_one_place(fault):
    assert (SRC / fault.path).read_text(encoding="utf-8").count(fault.old) == 1
    assert fault.new != fault.old


@pytest.mark.parametrize("fault", FAULTS, ids=lambda f: f.name)
def test_each_fault_names_tests_that_exist(fault):
    assert fault.tests and len(set(fault.tests)) == len(fault.tests)
    for test in fault.tests:
        path, name = re.fullmatch(r"([^:]+)::(\w+)(\[.*\])?", test).group(1, 2)
        assert f"\ndef {name}(" in (ROOT / path).read_text(encoding="utf-8")


def test_fault_names_are_distinct():
    assert len({f.name for f in FAULTS}) == len(FAULTS)
