import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import ringbox

MODULES = sorted(
    m.name for m in pkgutil.iter_modules(ringbox.__path__) if m.name != "__main__"
)


def _trees():
    for path in sorted(Path(ringbox.__file__).parent.glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"))


def _found(match):
    """(module file, enclosing function, node) of every node of the
    package that ``match`` accepts."""
    found = []
    for module, tree in _trees():
        parents = {
            child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)
        }
        for node in ast.walk(tree):
            if match(node):
                outer = node
                while not isinstance(outer, (ast.FunctionDef, ast.Module)):
                    outer = parents[outer]
                found.append((module, getattr(outer, "name", None), node))
    return found


def _called(node):
    """The name a call node calls, by attribute or bare name."""
    fn = node.func
    return fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", None)


def _callers(name):
    """(module file, enclosing function) of every call to ``name``
    in the package, by attribute or bare name."""
    return [
        (module, fn)
        for module, fn, _ in _found(lambda n: isinstance(n, ast.Call) and _called(n) == name)
    ]


def _defined(name):
    """(module file, name) of every class or function called ``name``."""
    return [
        (module, node.name)
        for module, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name == name
    ]


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_exist(name):
    mod = importlib.import_module(f"ringbox.{name}")
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert missing == []


def test_smith_normal_form_called_only_in_intlinalg():
    # invariant factors have one routine (intlinalg.invariant_factors), and
    # it is the Smith form's only caller: particular solutions come off the
    # stacked Hermite form (intlinalg.preimage)
    assert _callers("smith_normal_form") == [("intlinalg.py", "invariant_factors")]


def test_period_finding_has_one_continued_fraction_loop():
    # both sampled order finders read their period estimates off one
    # routine, and the multiplicative one takes a label function, not a
    # quotient adapter
    assert _callers("limit_denominator") == [("qsim.py", "_period_estimates")]
    assert _defined("QuotientView") == []


def test_subgroup_of_torus_called_only_for_hidden_entries():
    # sampled characters are mixed-radix draws over the dual's Hermite
    # columns; only the hidden-subgroup generators of ringops need the
    # torus' independent generators
    assert _callers("subgroup_of_torus") == [("ringops.py", "_hidden_entries")]


def test_decompose_group_called_only_by_the_accumulation():
    # a hidden subgroup's generators come with their torus orders, which
    # are their invariant factors: only an accumulated generator list is
    # decomposed through the oracle
    assert set(_callers("decompose_group")) == {
        ("idealcore.py", "accumulate_additive_generators")
    }


def test_stacked_lattice_built_only_where_no_span_holds_it():
    # a span's stacked form extends its parent's (one call, over the
    # parent's form or the moduli), and relation lattices read it off the
    # span: only a caller-supplied post, the modular solver and the torus
    # subgroup's relation lattice stack images over a target outside a span
    assert sorted(_callers("stacked_lattice")) == [
        ("intlinalg.py", "solve_modular"),
        ("intlinalg.py", "subgroup_of_torus"),
        ("qsim.py", "_hidden_subgroup_exact"),
        ("qsim.py", "stacked"),
    ]


def test_int_matrix_built_only_in_intlinalg():
    # the solvers take columns; IntMatrix is the Smith form's type
    for name in ("from_rows", "IntMatrix"):
        assert {module for module, _ in _callers(name)} == {"intlinalg.py"}, name
    # invariant_factors always has the relation columns of a full-rank lattice
    assert _callers("zeros") == []


def test_kernel_columns_read_only_by_the_torus_subgroup_and_exact_solve():
    # the sampled solve reads the dual of its hidden lattice, and of its
    # rows' lattice, off their triangular Hermite columns by back-substitution;
    # the torus subgroup reads its relation lattice inline, with no wrapper
    assert sorted(_callers("kernel_columns")) == [
        ("intlinalg.py", "subgroup_of_torus"),
        ("qsim.py", "_hidden_subgroup_exact"),
    ]
    assert _defined("lattice_kernel_mod") == []


def test_no_coord_subgroup_or_builder_copy():
    # the hidden-subgroup solver returns canonical columns, and a builder
    # is copied by padding it with no extra coordinates
    assert _defined("CoordSubgroup") == []
    assert _defined("copy") == []


def test_getrandbits_called_only_to_advance_the_stream():
    # draws are randrange and random() calls; the stream is advanced by raw
    # getrandbits draws only past discarded characters and past an
    # overlap-1 decision's shots, both pinned to the calls they stand for
    assert sorted(_callers("getrandbits")) == [
        ("qsim.py", "_skip_randranges"),
        ("qsim.py", "is_subset_decision"),
    ]


def test_doubling_tables_extended_only_on_the_metered_channel():
    # a session's doubling tables live in PrimitiveProvider.doublings and
    # reach combine_codes only through PrimitiveProvider.combine, bound to
    # the ring itself: no code made on the unmetered simulation channel can
    # enter a metered sum, and no table entry is made off the ledger
    uses = _found(lambda n: isinstance(n, ast.Attribute) and n.attr == "doublings")
    assert sorted((module, fn) for module, fn, _ in uses) == [
        ("qsim.py", "__init__"),
        ("qsim.py", "combine"),
    ]
    tabled = [
        (module, fn, ast.unparse(node.args[0]))
        for module, fn, node in _found(
            lambda n: isinstance(n, ast.Call)
            and _called(n) == "combine_codes"
            and (len(n.args) > 4 or any(kw.arg == "powers" for kw in n.keywords))
        )
    ]
    assert tabled == [("qsim.py", "combine", "ring")]


def test_ring_add_and_mul_are_the_one_metered_route():
    # metered queries go through RingOracle.add/mul alone: no metered
    # channel is read, the ring's ledger counts are written only there, and
    # every channel is bound to no ledger or to the verification ledger
    assert _found(lambda n: isinstance(n, ast.Attribute) and n.attr == "metered") == []
    counts = sorted(
        (module, fn, ast.unparse(node))
        for module, fn, node in _found(
            lambda n: isinstance(n, ast.Attribute)
            and isinstance(n.ctx, ast.Store)
            and n.attr in ("add_count", "mul_count")
        )
    )
    # self.ledger is RingOracle's; OracleChannel holds its ledger in _ledger
    assert counts == [
        ("blackbox.py", "add", "self._ledger.add_count"),
        ("blackbox.py", "add", "self.ledger.add_count"),
        ("blackbox.py", "mul", "self._ledger.mul_count"),
        ("blackbox.py", "mul", "self.ledger.mul_count"),
    ]
    bound = sorted(
        ast.unparse(node.args[1])
        for _, _, node in _found(lambda n: isinstance(n, ast.Call) and _called(n) == "OracleChannel")
    )
    assert bound == ["None", "self.verification_ledger"]
