"""The mutant list (tests/mutants.py) and its committed kill matrix agree with
src/ and with each other, so neither can drift unseen."""
import json

import mutants


def test_each_snippet_occurs_once_and_the_matrix_holds_every_mutant():
    stale = [name for name, module, snippet, replacement in mutants.MUTANTS
             if mutants.source(module).read_text().count(snippet) != 1 or replacement == snippet]
    assert stale == []
    matrix = json.loads(mutants.MATRIX.read_text())
    entries = [(e["name"], e["module"], e["snippet"], e["replacement"]) for e in matrix["mutants"]]
    assert entries == list(mutants.MUTANTS)
    assert matrix["baseline"]["tier1_failed"] == []
