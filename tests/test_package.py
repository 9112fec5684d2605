import importlib
import pkgutil

import pytest

import pirarray

# every module but __main__, whose import runs the command line
MODULES = ["pirarray"] + [
    f"pirarray.{info.name}" for info in pkgutil.iter_modules(pirarray.__path__) if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), name
    assert [attr for attr in exported if not hasattr(module, attr)] == [], name
    exec(f"from {name} import *", {})  # raises on a name that does not resolve
