"""The package root's export list."""
import types

import hiercoop


def test_export_list_is_the_public_surface_without_repeats():
    # a name deleted from a module must leave __all__ and the imports together
    assert len(hiercoop.__all__) == len(set(hiercoop.__all__))
    public = {
        name
        for name, value in vars(hiercoop).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(hiercoop.__all__) == public - {"annotations"}
