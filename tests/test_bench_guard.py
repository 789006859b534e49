"""The traced benchmark run (``ringbench/run.py --trace 1``) looks program
names up by string; a rename in ``src/ringbox`` must fail here, not there."""

import importlib
import importlib.util
from pathlib import Path

from ringbox import ringops as ops
from ringbox.blackbox import ModularSpec, make_ring, parse_element_literal
from ringbox.idealcore import IdealSpec, find_basis_representation
from ringbox.qsim import PrimitiveProvider, ProviderConfig

TRACER = Path(__file__).resolve().parent.parent / "ringbench" / "tracer.py"
LAYERS = ("blackbox", "intlinalg", "qsim", "abelian", "idealcore", "ringops", "verify", "cli")
CACHES = ("_spans", "groups", "decomp_memo", "accumulations", "tensors")


def load_tracer():
    spec = importlib.util.spec_from_file_location("ringbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def layer_modules():
    return {name: importlib.import_module(f"ringbox.{name}") for name in LAYERS}


def test_traced_names_exist():
    tracer = load_tracer()
    mods = layer_modules()
    for (layer, cls_name), methods in tracer.SPAN_METHODS.items():
        cls = getattr(mods[layer], cls_name)
        for m in methods:
            assert callable(getattr(cls, m, None)), f"{cls_name}.{m}"
    assert "span_coordinates" in tracer.SPAN_METHODS[("qsim", "PrimitiveProvider")]
    for op in tracer.RINGOPS:
        assert callable(getattr(ops, op, None)), op
    for name in tracer.COUNTER_FUNCTIONS:
        layer, attr = name.split(".")
        assert callable(getattr(mods[layer], attr, None)), name


def run_ops(provider):
    ring = make_ring(ModularSpec(12), 5)
    three, four, six = (parse_element_literal(ring, v) for v in ("3", "4", "6"))
    rep = ops.ring_representation(ring, provider)
    find_basis_representation(ring, IdealSpec("left", (four,)), provider)
    ops.ideal_intersection(
        ring, IdealSpec("left", (four,)), IdealSpec("left", (six,)), provider, rep
    )
    ops.is_prime_ideal(ring, IdealSpec("two", (three,)), provider, rep)


def test_provider_caches_are_sized():
    provider = PrimitiveProvider(ProviderConfig(seed=3))
    run_ops(provider)
    for name in CACHES:
        cache = getattr(provider, name, None)
        assert isinstance(cache, dict), f"provider has no session memo {name}"
        assert cache, f"{name} is empty after run_ops"


def test_tracer_installs_and_samples():
    tracer = load_tracer()
    tr = tracer.Tracer(layer_modules())
    tr.install()
    try:
        provider = PrimitiveProvider(ProviderConfig(seed=3))
        run_ops(provider)
        tr.sample_caches(forget=True)
        metrics = tracer.layer_metrics(tr, 1)
    finally:
        tr.uninstall()
    assert metrics["qsim.ahsp_solves"][0] > 0
    assert metrics["qsim.decisions"][0] > 0
    assert metrics["qsim.span_map_self_s"][0] > 0
