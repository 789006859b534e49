import importlib
import pkgutil

import pytest

import ringbox

MODULES = sorted(
    m.name for m in pkgutil.iter_modules(ringbox.__path__) if m.name != "__main__"
)


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_exist(name):
    mod = importlib.import_module(f"ringbox.{name}")
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert missing == []
