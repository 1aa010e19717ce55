"""The committed mutants of `tests/mutants.py` still apply to the code:
each old text occurs exactly once under `src/`, in the file it names.
Whether the tests kill them is checked by running `python tests/mutants.py`."""

from __future__ import annotations

import pytest

from .mutants import MUTANTS, SOURCE


@pytest.mark.parametrize(
    "mutant", MUTANTS, ids=[f"{m.file}:{m.new.splitlines()[-1].strip()}" for m in MUTANTS])
def test_old_text_occurs_once_under_src(mutant):
    counts = {path.name: path.read_text(encoding="utf-8").count(mutant.old)
              for path in SOURCE.rglob("*.py")}
    assert counts[mutant.file] == 1 and sum(counts.values()) == 1
