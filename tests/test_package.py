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
    # invariant factors have one routine (intlinalg.invariant_factors), and
    # it is the Smith form's only caller: particular solutions come off the
    # stacked Hermite form (intlinalg.preimage)
    callers = []
    for path in sorted(Path(ringbox.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        parents = {
            child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                fn = node.func
                name = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", None)
                if name == "smith_normal_form":
                    outer = node
                    while not isinstance(outer, (ast.FunctionDef, ast.Module)):
                        outer = parents[outer]
                    callers.append((path.name, getattr(outer, "name", None)))
    assert callers == [("intlinalg.py", "invariant_factors")]
