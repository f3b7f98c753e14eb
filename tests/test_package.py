import importlib
import pkgutil

import pytest

import splitwire

MODULES = ["splitwire"] + sorted(
    m.name for m in pkgutil.walk_packages(splitwire.__path__, "splitwire."))


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    # a stale entry breaks `from module import *` and nothing else
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
