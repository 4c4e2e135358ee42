"""Each edit of tests/mutants.py still has its target: the text it replaces
occurs exactly once in its file, so a mutant whose code has changed fails
here rather than only in the slow mutant run."""

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("name", MUTANTS)
def test_mutant_text_occurs_once(name):
    rel, old, _ = MUTANTS[name]
    assert (ROOT / rel).read_text().count(old) == 1, (rel, old)
