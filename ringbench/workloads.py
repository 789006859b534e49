"""Inputs, operations and ground truth of the benchmark workloads.

A workload runs in *rounds*. Every round of a workload has the same number
and kinds of operations. The algebra of round ``r`` (ideals, elements,
equations) depends on ``r`` alone; the benchmark seed and the pass number
draw each round's ring keys (the opaque element encodings) and the
providers' random streams. So the same seed gives the same inputs, and two
seeds pose the same problems under different encodings and random draws. A
round builds its own rings and providers, so nothing computed in one round
can be reused by the next.

* ``desk-exact`` / ``desk-sampled``: the ten desk rings, one provider per
  ring for the whole round, the full derived-op mix. Set-up is building the
  rings and providers plus each ring's basis representation.
* ``scale-cli``: one ``ringbox.cli.run`` call per op, each with its own ring
  text and session, on rings of 2^8 to 2^16 + 1 elements.

Each op records its answer (or the error it raised); ``check`` compares it
with ground truth after the round, outside the timed region.
"""

from __future__ import annotations

import random
import subprocess
import sys
from math import gcd, lcm
from pathlib import Path

# ringbox modules, bound by ``bind`` before any workload runs; every call goes
# through the module attribute so that the tracer's wrappers are seen
rb = {}


def bind(modules):
    rb.clear()
    rb.update(modules)


class Op:
    """One timed call and the check of its answer (or of the error raised)."""

    __slots__ = ("ring", "kind", "call", "check", "result")

    def __init__(self, ring, kind, call, check):
        self.ring = ring
        self.kind = kind
        self.call = call
        self.check = check
        self.result = None


# ---------------------------------------------------------------------------
# desk workloads
# ---------------------------------------------------------------------------


def desk_rings():
    bb = rb["blackbox"]
    return [
        ("Z_6", bb.ModularSpec(6)),
        ("Z_12", bb.ModularSpec(12)),
        ("Z_36", bb.ModularSpec(36)),
        ("Z_64", bb.ModularSpec(64)),
        ("Z_101", bb.ModularSpec(101)),
        ("Z_2xZ_9", bb.ProductSpec((bb.ModularSpec(2), bb.ModularSpec(9)))),
        ("M_2(Z_2)", bb.MatrixSpec(2, bb.ModularSpec(2))),
        ("F_4", bb.PolyQuotSpec(2, (1, 1, 1))),
        ("F_8", bb.PolyQuotSpec(2, (1, 1, 0, 1))),
        ("Z_3[x]/(x^2)", bb.PolyQuotSpec(3, (0, 0, 1))),
    ]


class DeskTruth:
    """Brute-force ground truth for one desk ring, from ``ringbox.verify``."""

    def __init__(self, ring):
        v = rb["verify"]
        self.ring = ring
        self.elems = v.ring_elements(ring)
        self.zero = v.find_zero(ring, self.elems)
        self._closures = {}
        self._units = None

    def closure(self, gens, side):
        key = (gens, side)
        if key not in self._closures:
            self._closures[key] = rb["verify"].ideal_closure(self.ring, gens, side)
        return self._closures[key]

    def span(self, codes):
        if not codes:
            return frozenset({self.zero})
        return rb["verify"].additive_span(self.ring, codes)

    def units(self):
        if self._units is None:
            self._units = rb["verify"].unit_table(self.ring, self.elems)
        return self._units


class DeskRing:
    __slots__ = ("name", "spec", "ring", "provider", "rep", "truth")

    def __init__(self, name, spec, ring, provider, rep):
        self.name = name
        self.spec = spec
        self.ring = ring
        self.provider = provider
        self.rep = rep
        self.truth = None


# ideals per desk ring per round; each brings eleven ops
DESK_IDEALS = 2


class DeskRound:
    """One round over the ten desk rings."""

    def __init__(self, seed, repeat, index, backend, epsilon):
        keys = random.Random(f"desk:{seed}:{repeat}:{index}")
        self.ring_keys = [keys.randrange(1 << 30) for _ in desk_rings()]
        self.target_keys = [keys.randrange(1 << 30) for _ in desk_rings()]
        self.rng = random.Random(f"desk-inputs:{index}")
        self.backend = backend
        self.epsilon = epsilon
        self.rings: list[DeskRing] = []

    def setup(self):
        """Rings, providers and each ring's basis representation."""
        bb, qsim, ops = rb["blackbox"], rb["qsim"], rb["ringops"]
        self.rings = []
        for (name, spec), key in zip(desk_rings(), self.ring_keys):
            ring = bb.make_ring(spec, key)
            provider = qsim.PrimitiveProvider(
                qsim.ProviderConfig(backend=self.backend, epsilon=self.epsilon, seed=key)
            )
            rep = ops.ring_representation(ring, provider)
            self.rings.append(DeskRing(name, spec, ring, provider, rep))

    def ops(self):
        out = []
        for dr, key in zip(self.rings, self.target_keys):
            out.extend(_desk_ring_ops(dr, self.rng, DESK_IDEALS, key))
        return out

    def ledgers(self):
        """(metered, verification, decisions) totals over the round's rings."""
        metered = verification = decisions = 0
        for dr in self.rings:
            metered += dr.ring.ledger.total()
            verification += dr.ring.verification_ledger.total()
            decisions += dr.provider.stats["decisions"]
        return metered, verification, decisions

    def metered(self, op):
        return op.ring.ring.ledger.total()

    def decisions(self, op):
        return op.ring.provider.stats["decisions"]

    def truth(self, op):
        dr = op.ring
        if dr.truth is None:
            dr.truth = DeskTruth(dr.ring)
        return dr.truth

    def release(self):
        self.rings = []


def _desk_ring_ops(dr, rng, n_ideals, target_key):
    """n_ideals ideals on one ring, eleven ops each, plus hom kernels."""
    bb, ic, ops, v = rb["blackbox"], rb["idealcore"], rb["ringops"], rb["verify"]
    errors = rb["errors"]
    spec, ring, provider, rep = dr.spec, dr.ring, dr.provider, dr.rep
    noncommutative = isinstance(spec, bb.MatrixSpec)

    values = {}

    def element(value=None):
        if value is None:
            value = spec.element_at(rng.randrange(spec.order()))
        code = ring._encode(value)
        values[code] = value
        return code

    def side_product(side, r, g):
        r, g = values[r], values[g]
        return element(spec.mul(g, r) if side == "right" else spec.mul(r, g))

    def op(kind, call, check):
        return Op(dr, kind, call, check)

    out = []
    ideals = []
    for idx in range(n_ideals + 1):
        side = ("left", "right", "two")[idx % 3] if noncommutative else "left"
        gens = tuple(element() for _ in range(rng.randint(1, 2)))
        ideals.append(ic.IdealSpec(side, gens))
    for idx in range(1, n_ideals + 1):
        ideal, prev = ideals[idx], ideals[idx - 1]
        gens, side = ideal.generators, ideal.side
        x = element()
        y = side_product(side, element(), gens[0])
        s_elems = tuple(element() for _ in range(rng.randint(1, 2)))
        ann_side = "right" if (noncommutative and idx % 2) else "left"
        u = element()
        a, b = element(), element()

        def closure(t, spec_=ideal):
            return t.closure(spec_.generators, spec_.side)

        def prev_closure(t, spec_=prev):
            return t.closure(spec_.generators, spec_.side)

        out.append(op(
            "basis",
            lambda ideal=ideal: ic.find_basis_representation(ring, ideal, provider),
            lambda t, res, closure=closure: (
                t.span(res.basis.h) == closure(t) and res.order() == len(closure(t))
            ),
        ))
        for probe in (x, y):
            out.append(op(
                "member",
                lambda ideal=ideal, probe=probe: ops.ideal_contains(ring, ideal, probe, provider),
                lambda t, res, probe=probe, closure=closure: res == (probe in closure(t)),
            ))
        out.append(op(
            "equal",
            lambda ideal=ideal, prev=prev: ops.ideal_equal(ring, ideal, prev, provider),
            lambda t, res, closure=closure, prev_closure=prev_closure: (
                res == (closure(t) == prev_closure(t))
            ),
        ))
        out.append(op(
            "intersect",
            lambda ideal=ideal, prev=prev: ops.ideal_intersection(ring, ideal, prev, provider, rep),
            lambda t, res, closure=closure, prev_closure=prev_closure: (
                t.span(res.basis.h) == closure(t) & prev_closure(t)
            ),
        ))
        out.append(op(
            "colon",
            lambda ideal=ideal, prev=prev: ops.colon_ideal(ring, ideal, prev, provider, rep),
            lambda t, res, closure=closure, prev_closure=prev_closure: (
                t.span(res[0]) == v.colon_set(ring, closure(t), prev_closure(t), t.elems)
            ),
        ))
        out.append(op(
            "annihilator",
            lambda s=s_elems, side=ann_side: ops.annihilator(ring, s, side, provider, rep),
            lambda t, res, s=s_elems, side=ann_side: (
                t.span(res[0]) == v.annihilator_set(ring, s, side, t.elems)
            ),
        ))
        out.append(op(
            "unit",
            lambda u=u: ops.is_unit(ring, u, provider, rep),
            lambda t, res, u=u: res == (u in t.units()),
        ))
        out.append(op(
            "inverse",
            lambda u=u: ops.inverse(ring, u, provider, rep),
            lambda t, res, u=u: _expect(
                res, u not in t.units(), errors.PreconditionError,
                lambda r: r == t.units()[u],
            ),
        ))
        out.append(op(
            "solve",
            lambda a=a, b=b: ops.solve_linear(ring, a, b, provider, rep),
            lambda t, res, a=a, b=b: _solve_ok(res, v.solve_linear_set(ring, a, b, t.elems)),
        ))
        out.append(op(
            "prime",
            lambda gens=gens: ops.is_prime_ideal(ring, ic.IdealSpec("two", gens), provider, rep),
            lambda t, res, gens=gens: _prime_ok(t, res, t.closure(gens, "two"), errors),
        ))
    # homomorphism kernels: the identity, and reduction mod the least divisor
    homs = [ops.HomomorphismOracle(ring, ring, lambda c: c, name="id")]
    if isinstance(spec, bb.ModularSpec) and spec.n > 2:
        d = next(d for d in range(2, spec.n + 1) if spec.n % d == 0)
        target = bb.make_ring(bb.ModularSpec(d), target_key)

        def mod_map(code, _src=ring, _dst=target, _d=d):
            return _dst._encode(_src._decode(code) % _d)

        homs.append(ops.HomomorphismOracle(ring, target, mod_map, name="mod"))
    for rho in homs:
        out.append(op(
            "hom_kernel",
            lambda rho=rho: ops.hom_kernel(rho, provider, rep),
            lambda t, res, rho=rho: t.span(res[0]) == frozenset(
                c for c in t.elems if rho(c) == rho(t.zero)
            ),
        ))
    return out


def _expect(res, want_error, error_type, ok):
    """Answer check for ops that must raise ``error_type`` on some inputs."""
    if want_error:
        return isinstance(res, error_type)
    return not isinstance(res, BaseException) and ok(res)


def _solve_ok(res, sols):
    return (res in sols) if sols else res is None


def _prime_ok(t, res, two_closure, errors):
    if len(two_closure) == len(t.elems):
        return isinstance(res, errors.PreconditionError)
    if isinstance(res, BaseException):
        return False
    return res.prime == rb["verify"].is_prime_by_definition(t.ring, two_closure, t.elems)


# ---------------------------------------------------------------------------
# scale-cli: closed-form ground truth from the ring description
# ---------------------------------------------------------------------------


class ModularModel:
    """Z_n: ideals are (d) for d | n."""

    def __init__(self, n):
        self.n = n

    def text(self, v):
        return str(v)

    def parse(self, s):
        return int(s) % self.n

    def ideal(self, gens):
        return gcd(self.n, *gens)

    def order(self, d):
        return self.n // d

    def contains(self, d, x):
        return x % d == 0

    def span_order(self, gens):
        return self.n // gcd(self.n, *gens)

    def meet(self, d1, d2):
        return lcm(d1, d2)

    def mul(self, a, b):
        return a * b % self.n


class ProductModel:
    """Z_m x Z_n with coprime m, n: every additive subgroup and every ideal
    is a product of one per factor."""

    def __init__(self, *moduli):
        self.parts = tuple(ModularModel(n) for n in moduli)

    def text(self, v):
        return "(" + ", ".join(str(x) for x in v) + ")"

    def parse(self, s):
        return tuple(p.parse(x) for p, x in zip(self.parts, s.strip()[1:-1].split(",")))

    def ideal(self, gens):
        return tuple(p.ideal([g[i] for g in gens]) for i, p in enumerate(self.parts))

    def order(self, d):
        out = 1
        for p, di in zip(self.parts, d):
            out *= p.order(di)
        return out

    def contains(self, d, x):
        return all(p.contains(di, xi) for p, di, xi in zip(self.parts, d, x))

    def span_order(self, gens):
        return self.order(self.ideal(gens))

    def meet(self, d1, d2):
        return tuple(lcm(a, b) for a, b in zip(d1, d2))

    def mul(self, a, b):
        return tuple(p.mul(x, y) for p, x, y in zip(self.parts, a, b))


class TruncatedPolyModel:
    """F_p[x]/(x^m): ideals are (x^k), additive subgroups F_p-subspaces."""

    def __init__(self, p, m):
        self.p = p
        self.m = m

    def text(self, v):
        return "[" + ", ".join(str(c) for c in v) + "]"

    def parse(self, s):
        body = s.strip()[1:-1]
        return tuple(int(c) % self.p for c in body.split(","))

    def val(self, v):
        return next((i for i, c in enumerate(v) if c), self.m)

    def ideal(self, gens):
        return min(self.val(g) for g in gens)

    def order(self, k):
        return self.p ** (self.m - k)

    def contains(self, k, x):
        return self.val(x) >= k

    def span_order(self, gens):
        """p^rank of the generators over F_p (Gaussian elimination)."""
        p, rows, rank = self.p, [list(g) for g in gens], 0
        for col in range(self.m):
            piv = next((r for r in range(rank, len(rows)) if rows[r][col] % p), None)
            if piv is None:
                continue
            rows[rank], rows[piv] = rows[piv], rows[rank]
            inv = pow(rows[rank][col], -1, p)
            rows[rank] = [c * inv % p for c in rows[rank]]
            for r in range(len(rows)):
                if r != rank and rows[r][col] % p:
                    f = rows[r][col]
                    rows[r] = [(c - f * q) % p for c, q in zip(rows[r], rows[rank])]
            rank += 1
        return p**rank

    def meet(self, a, b):
        return max(a, b)

    def mul(self, a, b):
        out = [0] * self.m
        for i, x in enumerate(a):
            if x:
                for j in range(self.m - i):
                    out[i + j] = (out[i + j] + x * b[j]) % self.p
        return tuple(out)


class MatrixModel:
    """M_2(Z_q): two-sided ideals are M_2(dZ_q) for d | q. Additive spans are
    counted by enumerating Z_q^4, which is small."""

    def __init__(self, q):
        self.q = q

    def random(self, rng):
        return tuple(rng.randrange(self.q) for _ in range(4))

    def text(self, v):
        return f"{v[0]},{v[1]};{v[2]},{v[3]}"

    def parse(self, s):
        return tuple(int(c) % self.q for row in s.split(";") for c in row.split(","))

    def ideal(self, gens):
        return gcd(self.q, *(c for g in gens for c in g))

    def order(self, d):
        return (self.q // d) ** 4

    def contains(self, d, x):
        return all(c % d == 0 for c in x)

    def span_order(self, gens):
        q = self.q
        seen = {(0, 0, 0, 0)}
        frontier = list(seen)
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = tuple((a + b) % q for a, b in zip(x, g))
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        return len(seen)

    def meet(self, a, b):
        return lcm(a, b)

    def mul(self, a, b):
        q = self.q
        return (
            (a[0] * b[0] + a[1] * b[2]) % q,
            (a[0] * b[1] + a[1] * b[3]) % q,
            (a[2] * b[0] + a[3] * b[2]) % q,
            (a[2] * b[1] + a[3] * b[3]) % q,
        )

    def one(self):
        return (1, 0, 0, 1)

    def is_unit(self, x):
        return gcd(x[0] * x[3] - x[1] * x[2], self.q) == 1

    def prime(self, d):
        # M_2(Z_q)/M_2(dZ_q) = M_2(Z_d) has zero divisors, so no proper ideal
        # is prime in the sense of the field test
        return None if d == 1 else False


SCALE_RINGS = {
    "Z_2^15": ("ring.kind = modular\nring.n = 32768\n", ModularModel(32768)),
    "Z_65537": ("ring.kind = modular\nring.n = 65537\n", ModularModel(65537)),
    "Z_2^7xZ_3^5": (
        "ring.kind = product\nring.factors = modular 128, modular 243\n",
        ProductModel(128, 243),
    ),
    "F_2[x]/(x^10)": (
        "ring.kind = polyquot\nring.p = 2\nring.f = 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1\n",
        TruncatedPolyModel(2, 10),
    ),
    "M_2(Z_4)": ("ring.kind = matrix\nring.k = 2\nring.base = modular 4\n", MatrixModel(4)),
}

# (ring, command, ops per round, ideal kind): "proper" ideals step through
# sizes on a log scale; a "whole" ideal has a unit generator, so its
# accumulation reaches the full rank of the ring (10 on F_2[x]/(x^10))
SCALE_SLOTS = (
    ("Z_65537", "order", 1, "proper"),
    ("F_2[x]/(x^10)", "order", 1, "whole"),
    ("F_2[x]/(x^10)", "member", 1, "whole"),
    ("F_2[x]/(x^10)", "basis", 4, "proper"),
    ("F_2[x]/(x^10)", "member", 6, "proper"),
    ("F_2[x]/(x^10)", "equal", 3, "proper"),
    ("Z_2^15", "basis", 3, "proper"),
    ("Z_2^15", "order", 3, "proper"),
    ("Z_2^15", "member", 3, "proper"),
    ("Z_2^15", "equal", 2, "proper"),
    ("Z_2^15", "intersect", 1, "proper"),
    ("Z_2^7xZ_3^5", "basis", 2, "proper"),
    ("M_2(Z_4)", "basis", 4, "proper"),
    ("M_2(Z_4)", "member", 8, "proper"),
    ("M_2(Z_4)", "intersect", 1, "proper"),
    ("M_2(Z_4)", "inverse", 1, "proper"),
    ("M_2(Z_4)", "prime", 1, "proper"),
)


_CLI_SETUP = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "from ringbox import blackbox, cli; "
    "[blackbox.make_ring(blackbox.parse_ring_file(t), 0) for t in sys.argv[2:]]"
)


class ScaleRing:
    """Ring of one scale-cli op: the CLI builds its own, the op only needs
    the name for reporting."""

    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name


class ScaleRound:
    """One round of scale-cli ops, each a fresh ``cli.run`` session."""

    def __init__(self, seed, repeat, index):
        self.keys = random.Random(f"scale:{seed}:{repeat}:{index}")
        self.rng = random.Random(f"scale-inputs:{index}")
        self.outcomes = {}

    def setup(self):
        """What every CLI invocation pays before its command runs: start an
        interpreter, import ringbox, parse each ring description and build
        its oracle."""
        src = str(Path(rb["cli"].__file__).resolve().parent.parent)
        texts = [text for text, _ in SCALE_RINGS.values()]
        subprocess.run([sys.executable, "-I", "-c", _CLI_SETUP, src, *texts], check=True, timeout=60)

    def ops(self):
        rng = self.rng
        out = []
        for ring_name, command, count, ideal_kind in SCALE_SLOTS:
            text, model = SCALE_RINGS[ring_name]
            for i in range(count):
                out.append(
                    _scale_op(
                        ring_name, text, model, command, ideal_kind, i, count, rng,
                        self.keys.randrange(1 << 30), self.outcomes,
                    )
                )
        return out

    def ledgers(self):
        metered = verification = decisions = 0
        for report in self.outcomes.values():
            q = report["queries"]
            metered += q["add"] + q["mul"]
            verification += q["verification_add"] + q["verification_mul"]
            decisions += report["confidence"]["decisions"]
        return metered, verification, decisions

    def metered(self, op):
        report = self.outcomes.get(id(op))
        if report is None:
            return 0
        q = report["queries"]
        return q["add"] + q["mul"]

    def decisions(self, op):
        report = self.outcomes.get(id(op))
        return 0 if report is None else report["confidence"]["decisions"]

    def truth(self, op):
        return None

    def release(self):
        self.outcomes = {}


def _element(model, rng, level, shift=0):
    """A random generator of the ideal at ``level`` in [0, 1): the ideals of
    a ring are ordered by a valuation (the power of 2 on Z_2^15, of 2 and 3
    on the product, of x on F_2[x]/(x^10), of 2 on M_2(Z_4)) that grows
    with the level. ``level=None`` gives a unit; ``shift`` lowers the
    valuation, which gives an element outside the ideal."""

    def unit(m, p):
        while True:
            u = rng.randrange(1, m)
            if u % p:
                return u

    def exponent(lo, hi):
        return 0 if level is None else max(0, lo + int(level * (hi - lo)) - shift)

    if isinstance(model, ProductModel):
        k, j = exponent(1, 7), exponent(1, 5)
        return (unit(128, 2) << k & 127, unit(243, 3) * 3**j % 243)
    if isinstance(model, TruncatedPolyModel):
        k = exponent(1, model.m)
        return tuple([0] * k + [unit(model.p, model.p)] + [rng.randrange(model.p) for _ in range(model.m - k - 1)])
    if isinstance(model, MatrixModel):
        d = 2 if exponent(0, 2) else 1
        while True:
            e = model.random(rng)
            if model.is_unit(e):
                return tuple(d * c % model.q for c in e)
    if model.n == 32768:
        return unit(1 << 15, 2) << exponent(1, 15) & 32767
    return unit(model.n, model.n)


def _ideal_gens(model, rng, level, two):
    """One or two generators of the ideal at ``level`` (None: the whole
    ring); the second lies in the ideal of the first."""
    gens = [_element(model, rng, level)]
    if two and not isinstance(model, TruncatedPolyModel):
        # polyquot ideals get one generator: the CLI cannot parse a list of
        # polyquot literals (ValueError), and every ideal of F_p[x]/(x^m) is
        # principal anyway
        deeper = None if level is None else level + rng.random() * (1.0 - level)
        if isinstance(model, MatrixModel):
            deeper = level
        gens.append(_element(model, rng, deeper if level is not None else None))
    return gens


def _scale_op(ring_name, text, model, command, ideal_kind, index, count, rng, key, outcomes):
    """The ``index``-th of ``count`` ops of one slot. Ideal sizes step evenly
    through the slot's levels, the same in every round, and every other op
    gets a member, an equal ideal, a unit or a solvable equation."""
    cli, errors = rb["cli"], rb["errors"]
    kwargs = {}
    side = "two" if isinstance(model, MatrixModel) else None
    even = index % 2 == 0

    def gens_text(gens):
        sep = ";;" if isinstance(model, MatrixModel) else ", "
        return sep.join(model.text(g) for g in gens)

    level = None if ideal_kind == "whole" else (index + 0.5) / count
    gens = _ideal_gens(model, rng, level, two=not even)
    ideal = model.ideal(gens)
    kwargs["ideal"] = gens_text(gens)
    if command in ("equal", "intersect"):
        level2 = level if (command == "equal" and even) else (level + 0.5) % 1.0
        gens2 = _ideal_gens(model, rng, level2, two=even)
        kwargs["ideal2"] = gens_text(gens2)
        ideal2 = model.ideal(gens2)
    if command == "member":
        if even:
            x = model.mul(gens[0], _element(model, rng, None))
        else:
            x = _element(model, rng, level, shift=1)
        kwargs["element"] = model.text(x)
    if command == "inverse":
        x = _element(model, rng, None if even else level)
        kwargs["element"] = model.text(x)
    if side is not None and command in ("basis", "member", "intersect", "prime"):
        kwargs["side"] = side
    config = cli.RunConfig(
        command=command,
        ring_text=text,
        backend="exact",
        seed=key,
        json_out=True,
        **kwargs,
    )
    op = None

    def call():
        code, report, human = cli.run(config)
        cli.render(report, human, config)
        outcomes[id(op)] = report
        return report["result"]

    def check(_t, res):
        if command == "prime":
            want = model.prime(ideal)
            if want is None:
                return isinstance(res, errors.PreconditionError)
            return not isinstance(res, BaseException) and (res["verdict"] == "prime") == want
        if command == "inverse":
            if not model.is_unit(x):
                return isinstance(res, errors.PreconditionError)
            if isinstance(res, BaseException):
                return False
            y = model.parse(res["inverse"])
            return model.mul(x, y) == model.one() == model.mul(y, x)
        if isinstance(res, BaseException):
            return False
        if command == "basis":
            return res["ideal_order"] == model.order(ideal) and _spans(model, ideal, res["generators"])
        if command == "order":
            return res["order"] == model.order(ideal)
        if command == "member":
            return res["member"] == model.contains(ideal, x)
        if command == "equal":
            return res["equal"] == (ideal == ideal2)
        if command == "intersect":
            meet = model.meet(ideal, ideal2)
            return res["order"] == model.order(meet) and _spans(model, meet, res["generators"])
        raise ValueError(f"no ground truth for {command}")

    op = Op(ScaleRing(ring_name), command, call, check)
    return op


def _spans(model, ideal, generator_texts):
    """The generators lie in the ideal and additively span all of it."""
    gens = [model.parse(s) for s in generator_texts]
    if not gens:
        return model.order(ideal) == 1
    return all(model.contains(ideal, g) for g in gens) and model.span_order(gens) == model.order(ideal)
