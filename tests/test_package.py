import ast
import importlib
import pkgutil
from pathlib import Path

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


def test_smith_normal_form_called_only_in_intlinalg():
    # invariant factors have one routine (intlinalg.invariant_factors); no
    # other module runs its own Smith-form loop
    callers = []
    for path in sorted(Path(ringbox.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                fn = node.func
                name = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", None)
                if name == "smith_normal_form":
                    callers.append(path.name)
    assert callers and set(callers) == {"intlinalg.py"}
