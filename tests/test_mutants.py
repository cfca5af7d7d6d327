"""Every mutant of tests/mutants.py still applies: its old text occurs
exactly once under src/, in the file it names."""

import pytest

from mutants import HERE, MUTANTS


@pytest.mark.parametrize("name", MUTANTS)
def test_old_text_occurs_once_in_src(name):
    mutant = MUTANTS[name]
    counts = {str(path.relative_to(HERE)): path.read_text(encoding="utf-8").count(mutant.old)
              for path in sorted((HERE / "src").rglob("*.py"))}
    assert {path: n for path, n in counts.items() if n} == {mutant.file: 1}
