"""Span tracer for the traced benchmark run.

The tracer replaces the public functions of every ringbox module with
wrappers, at each name the function is bound to (``qsim.lattice_kernel_mod``
and ``intlinalg.lattice_kernel_mod`` are the same function reached through
two module namespaces), and puts the originals back on ``uninstall``.

* A *span* records name, start, end, parent span and op id. Spans stay in
  memory until the run ends; self time is the span's duration minus the time
  its child spans and counters cover.
* A *counter* records calls and accumulated time only. The oracle's add/mul
  calls are counters, classified by the ledger the channel is bound to, and
  so is the hot ``egcd`` helper: there are far too many of them for spans.

Wrappers only read arguments and results; they draw no random numbers and
touch no provider state, so a traced run computes exactly what an untraced
run with the same seed computes.
"""

from __future__ import annotations

import gzip
import json
import time
import types
from collections import defaultdict

perf = time.perf_counter

# module-level public functions that run too often for one span per call
COUNTER_FUNCTIONS = {"intlinalg.egcd"}

# public methods traced as spans, per class
SPAN_METHODS = {
    ("qsim", "PrimitiveProvider"): (
        "fork",
        "swap_shots",
        "coset_overlap",
        "is_subset_decision",
        "membership",
        "sample_hidden_subgroup_characters",
        "solve_ahsp",
        "find_additive_order",
        "find_multiplicative_order_in_quotient",
        "sample_uniform",
        "span_coordinates",
    ),
}

# the derived ops whose calls and self time the traced run reports
RINGOPS = (
    "ring_representation",
    "ideal_equal",
    "ideal_contains",
    "is_unit",
    "inverse",
    "ideal_intersection",
    "colon_ideal",
    "annihilator",
    "ideal_order",
    "ring_order",
    "solve_linear",
    "multiplicative_identity",
    "additive_identity",
    "additive_inverse",
    "hom_kernel",
    "is_injective",
    "is_surjective",
    "is_prime_ideal",
)

# span fields
NAME, START, END, PARENT, OP, COVERED = range(6)


class Tracer:
    def __init__(self, modules):
        """``modules`` maps layer name to the imported ringbox module."""
        self.modules = modules
        self.spans: list[list] = []
        self.stack: list[int] = []
        # name -> [calls, seconds, calls made while an op runs]
        self.counters: dict[str, list] = defaultdict(lambda: [0, 0.0, 0])
        self.maxima: dict[str, int] = defaultdict(int)
        self.sums: dict[str, int] = defaultdict(int)
        self.providers: dict[int, object] = {}
        self.op = None
        self._restore: list[tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------------

    def _span(self, name, fn, probe=None):
        spans, stack = self.spans, self.stack
        tracer = self

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = perf()
                stack.pop()
            if probe is not None:
                probe(tracer, args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _count(self, name, dt):
        c = self.counters[name]
        c[0] += 1
        c[1] += dt
        if type(self.op) is int:
            c[2] += 1
        if self.stack:
            self.spans[self.stack[-1]][COVERED] += dt

    def _counter(self, name, fn):
        count = self._count

        def counted(*args, **kwargs):
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                count(name, perf() - t0)

        counted.__wrapped__ = fn
        return counted

    def _channel_counter(self, op, fn):
        count = self._count
        names = {kind: f"oracle.{kind}.{op}" for kind in ("sim", "metered", "verify")}

        def channel_op(chan, a, b):
            t0 = perf()
            try:
                return fn(chan, a, b)
            finally:
                led = chan._ledger
                if led is None:
                    kind = "sim"
                elif led is chan._ring.ledger:
                    kind = "metered"
                else:
                    kind = "verify"
                count(names[kind], perf() - t0)

        channel_op.__wrapped__ = fn
        return channel_op

    # -- install / uninstall -------------------------------------------------

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        wrappers: dict[int, object] = {}
        for layer, mod in self.modules.items():
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                if not isinstance(fn, types.FunctionType) or fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                if name in COUNTER_FUNCTIONS:
                    wrappers[id(fn)] = self._counter(name, fn)
                else:
                    wrappers[id(fn)] = self._span(name, fn, PROBES.get(name))
        # the CLI has no __all__; run and render are its public entry points
        for attr in ("run", "render"):
            fn = getattr(self.modules["cli"], attr)
            wrappers[id(fn)] = self._span(f"cli.{attr}", fn)
        # rebind at every call site: each module namespace holding the function
        namespaces = list(self.modules.values())
        package = __import__(self.modules["cli"].__package__)
        namespaces.append(package)
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                w = wrappers.get(id(value))
                if w is not None:
                    self._set(ns, attr, w)
        for (layer, cls_name), methods in SPAN_METHODS.items():
            cls = getattr(self.modules[layer], cls_name)
            for m in methods:
                name = f"{layer}.{m}"
                self._set(cls, m, self._span(name, getattr(cls, m), PROBES.get(name)))
        bb = self.modules["blackbox"]
        for op in ("add", "mul"):
            self._set(bb.OracleChannel, op, self._channel_counter(op, getattr(bb.OracleChannel, op)))
            self._set(bb.RingOracle, op, self._counter(f"oracle.metered.{op}", getattr(bb.RingOracle, op)))

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- provider caches -----------------------------------------------------

    def sample_caches(self, forget=False):
        """Peak number of elements held in the caches of every provider the
        traced code has used since the last ``forget``."""
        total = 0
        for p in self.providers.values():
            total += sum(len(v) for v in getattr(p, "_closure_cache", {}).values())
            total += sum(len(v) for v in getattr(p, "_span_maps", {}).values())
            total += sum(len(v) for v in getattr(p, "decomp_memo", {}).values())
        self.maxima["qsim.cache_entries"] = max(self.maxima["qsim.cache_entries"], total)
        if forget:
            self.providers.clear()

    # -- results -------------------------------------------------------------

    def self_times(self):
        """Per span: self time and number of direct child spans."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        children = [0] * len(spans)
        for rec in spans:
            p = rec[PARENT]
            if p >= 0:
                child_time[p] += rec[END] - rec[START]
                children[p] += 1
        selfs = [
            rec[END] - rec[START] - child_time[i] - rec[COVERED]
            for i, rec in enumerate(spans)
        ]
        return selfs, children

    def write(self, path):
        """All spans as JSON lines: name, start, end, parent, op, self."""
        selfs, _ = self.self_times()
        t0 = self.spans[0][START] if self.spans else 0.0
        with gzip.open(path, "wt") as fh:
            for i, rec in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        [
                            rec[NAME],
                            round(rec[START] - t0, 7),
                            round(rec[END] - t0, 7),
                            rec[PARENT],
                            rec[OP],
                            round(selfs[i], 7),
                        ]
                    )
                )
                fh.write("\n")


# -- probes: read arguments and results of selected calls --------------------


def _note_provider(tracer, args, out):
    tracer.providers[id(args[0])] = args[0]


def _probe_ahsp(tracer, args, out):
    _note_provider(tracer, args, out)
    tracer.maxima["qsim.ahsp_max_rank"] = max(
        tracer.maxima["qsim.ahsp_max_rank"], len(args[1].moduli)
    )


def _probe_characters(tracer, args, out):
    _note_provider(tracer, args, out)
    tracer.sums["qsim.characters"] += len(out)


def _probe_snf(tracer, args, out):
    a = args[0]
    tracer.maxima["intlinalg.snf_max_cells"] = max(
        tracer.maxima["intlinalg.snf_max_cells"], a.rows * a.cols
    )


def _probe_accumulate(tracer, args, out):
    tracer.sums["idealcore.rounds"] += out.rounds


PROBES = {
    "qsim.solve_ahsp": _probe_ahsp,
    "qsim.sample_hidden_subgroup_characters": _probe_characters,
    "qsim.is_subset_decision": _note_provider,
    "qsim.span_coordinates": _note_provider,
    "intlinalg.smith_normal_form": _probe_snf,
    "idealcore.accumulate_additive_generators": _probe_accumulate,
}


def layer_metrics(tracer: Tracer, ops: int) -> dict:
    """Per-layer metrics of one traced pass, as {name: (value, unit)}."""
    selfs, children = tracer.self_times()
    spans = tracer.spans
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    layer_self: dict[str, float] = defaultdict(float)
    layer_calls: dict[str, int] = defaultdict(int)
    memo_hits = 0
    draws = 0
    for i, rec in enumerate(spans):
        name = rec[NAME]
        calls[name] += 1
        self_s[name] += selfs[i]
        layer = name.split(".", 1)[0]
        layer_self[layer] += selfs[i]
        layer_calls[layer] += 1
        if name == "abelian.decompose_element" and children[i] == 0:
            memo_hits += 1
        if (
            name == "qsim.sample_uniform"
            and rec[PARENT] >= 0
            and spans[rec[PARENT]][NAME] == "idealcore.accumulate_additive_generators"
        ):
            draws += 1
    cnt = tracer.counters

    def queries(kind, field):
        return cnt[f"oracle.{kind}.add"][field] + cnt[f"oracle.{kind}.mul"][field]

    oracle_s = sum(v[1] for k, v in cnt.items() if k.startswith("oracle."))
    per_op = max(1, ops)
    rounds = tracer.sums["idealcore.rounds"]
    out = {
        # metered and simulation queries made while ops run; verification
        # queries are made by the checker, between ops
        "blackbox.metered_queries": (queries("metered", 2) / per_op, "1/op"),
        "blackbox.sim_queries": (queries("sim", 2) / per_op, "1/op"),
        "blackbox.verify_queries": (queries("verify", 0) / per_op, "1/op"),
        "blackbox.oracle_self_s": (oracle_s, "s"),
        "qsim.decisions": (calls["qsim.is_subset_decision"], "count"),
        "qsim.decide_self_s": (self_s["qsim.is_subset_decision"], "s"),
        "qsim.ahsp_solves": (calls["qsim.solve_ahsp"], "count"),
        "qsim.ahsp_self_s": (
            self_s["qsim.solve_ahsp"] + self_s["qsim.sample_hidden_subgroup_characters"],
            "s",
        ),
        "qsim.ahsp_max_rank": (tracer.maxima["qsim.ahsp_max_rank"], "count"),
        "qsim.characters": (tracer.sums["qsim.characters"], "count"),
        "qsim.span_map_self_s": (self_s["qsim.span_coordinates"], "s"),
        "qsim.cache_entries": (tracer.maxima["qsim.cache_entries"], "count"),
        "intlinalg.snf_calls": (calls["intlinalg.smith_normal_form"], "count"),
        "intlinalg.snf_self_s": (self_s["intlinalg.smith_normal_form"], "s"),
        "intlinalg.snf_max_cells": (tracer.maxima["intlinalg.snf_max_cells"], "count"),
        "intlinalg.lattice_kernel_self_s": (self_s["intlinalg.lattice_kernel_mod"], "s"),
        "intlinalg.torus_self_s": (self_s["intlinalg.subgroup_of_torus"], "s"),
        "abelian.decompose_group_calls": (calls["abelian.decompose_group"], "count"),
        "abelian.decompose_group_self_s": (self_s["abelian.decompose_group"], "s"),
        "abelian.decompose_element_self_s": (self_s["abelian.decompose_element"], "s"),
        "abelian.decomp_memo_hit_ratio": (
            memo_hits / calls["abelian.decompose_element"]
            if calls["abelian.decompose_element"]
            else 0.0,
            "ratio",
        ),
        "idealcore.accumulate_self_s": (self_s["idealcore.accumulate_additive_generators"], "s"),
        "idealcore.rounds": (rounds, "count"),
        "idealcore.tensor_self_s": (self_s["idealcore.multiplication_tensor"], "s"),
        "idealcore.augment_ratio": (rounds / draws if draws else 0.0, "ratio"),
    }
    for op in RINGOPS:
        out[f"ringops.{op}.calls"] = (calls[f"ringops.{op}"], "count")
        out[f"ringops.{op}.self_s"] = (self_s[f"ringops.{op}"], "s")
    out["verify.self_s"] = (layer_self["verify"], "s")
    out["verify.calls"] = (layer_calls["verify"], "count")
    out["cli.self_s"] = (layer_self["cli"], "s")
    out["trace.spans"] = (len(spans), "count")
    return out
