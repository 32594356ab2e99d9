"""The entries of ``tests/mutants.py`` still point at the code and the tests.

The mutation script is slow, so it is run by hand; an entry whose old text
has moved, or whose named test was renamed, would otherwise show only there.
"""

import re

import pytest

from mutants import MUTANTS, REPO


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: f"{m.file}:{m.old.strip()[:40]}")
def test_old_text_occurs_once_in_its_file(mutant):
    text = (REPO / "src" / "ptfollow" / mutant.file).read_text()
    assert text.count(mutant.old) == 1


@pytest.mark.parametrize("test", sorted({test for m in MUTANTS for test in m.tests}))
def test_named_test_exists(test):
    path, *names = test.split("::")
    source = (REPO / path).read_text()
    for name in names:
        name = name.split("[")[0]  # a parametrized case of the function
        assert re.search(rf"^\s*(def|class) {re.escape(name)}\b", source, re.M), name
