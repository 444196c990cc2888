"""The package root's export list, and the imports of every module."""
import ast
import pathlib
import types

import pytest

import hiercoop

MODULES = sorted(pathlib.Path(hiercoop.__file__).parent.glob("*.py"))


def test_export_list_is_the_public_surface_without_repeats():
    # a name deleted from a module must leave __all__ and the imports together
    assert len(hiercoop.__all__) == len(set(hiercoop.__all__))
    public = {
        name
        for name, value in vars(hiercoop).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(hiercoop.__all__) == public - {"annotations"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    # a deletion that leaves its imports behind fails here; __all__ counts as a use
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.partition(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts}
    assert sorted(imported - used) == []
