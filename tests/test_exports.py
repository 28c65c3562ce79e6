"""Every name that a module lists in ``__all__`` exists, so a star import
of any module works."""

import importlib
import pkgutil

import pytest

import contris

# __main__ runs the command line on import
MODULES = [info.name for info in pkgutil.iter_modules(contris.__path__, "contris.")
           if info.name != "contris.__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing
