"""``tools/mutants.py`` has no stale entry: each mutant's old text occurs
once in its file, and its test selection names tests that exist.  No mutant
is run here."""

import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def load_mutants():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


MUTANTS = load_mutants()


@pytest.mark.parametrize("name, file, old, new, selection", MUTANTS,
                         ids=[mutant[0] for mutant in MUTANTS])
def test_entry_is_not_stale(name, file, old, new, selection):
    assert (ROOT / file).read_text(encoding="utf-8").count(old) == 1
    for node in selection:
        path, *names = node.split("::")
        text = (ROOT / path).read_text(encoding="utf-8")
        for part in names:
            assert re.search(rf"^\s*(class|def) {re.escape(part)}\b", text, re.M), node
