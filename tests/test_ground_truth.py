"""The simulation layer's ground truth (lattice algebra over the additive
coordinates of a ring description) against brute-force enumeration through
``ringbox.verify``: element codes, subgroup orders, coset overlaps and the
exact hidden subgroup of every hiding-map kind, the direct span lattice
against the stacked Hermite form and against a span extended from a
memoized prefix, and the field test behind ``prime``, on
the ten desk rings, on explicit rings and on random nested descriptions; and
``verify.ideal_closure`` itself against a naive fixpoint."""

import itertools
import random
from fractions import Fraction
from math import prod
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ringbox import qsim
from ringbox import ringops as ops
from ringbox import verify
from ringbox.blackbox import (
    MatrixSpec,
    ModularSpec,
    PolyQuotSpec,
    ProductSpec,
    format_element,
    make_ring,
    parse_element_literal,
)
from ringbox.abelian import decompose_group
from ringbox.errors import MembershipError, PreconditionError
from ringbox.idealcore import IdealSpec, find_basis_representation
from ringbox.intlinalg import LatticeBuilder, stacked_lattice
from ringbox.qsim import (
    PrimitiveProvider,
    ProviderConfig,
    SubgroupDescriptor,
    _coordinate_sum,
    _moduli_lattice,
    _Span,
    combine_codes,
)
from test_acceptance import DESK_SUITE


def seed_index(spec, a):
    """The element index of the seed's nested per-kind formulas."""
    if isinstance(spec, ModularSpec):
        return a
    if isinstance(spec, ProductSpec):
        idx = 0
        for f, x in zip(spec.factors, a):
            idx = idx * f.order() + seed_index(f, x)
        return idx
    if isinstance(spec, MatrixSpec):
        idx = 0
        for row in a:
            for x in row:
                idx = idx * spec.base.order() + seed_index(spec.base, x)
        return idx
    idx = 0
    for c in reversed(a):
        idx = idx * spec.p + c
    return idx


def check_coordinates(spec):
    """coords round trip, index bijection and the seed's index formula."""
    seen = set()
    for idx in range(spec.order()):
        value = spec.element_at(idx)
        assert spec.index_of(value) == idx == seed_index(spec, value)
        c = spec.coords(value)
        assert all(0 <= ci < m for ci, m in zip(c, spec.additive_moduli()))
        assert spec.from_coords(c) == value
        seen.add(value)
    assert len(seen) == spec.order()


def test_element_codes_keep_the_seed_index():
    for _, spec in DESK_SUITE:
        check_coordinates(spec)


def additive_order_by_addition(spec, value):
    k, acc = 1, value
    while acc != spec.zero():
        acc = spec.add(acc, value)
        k += 1
    return k


def exact(seed=1):
    return PrimitiveProvider(ProviderConfig(backend="exact", seed=seed))


def brute_overlap(ring, a, b):
    chan = ring.verification
    sa = verify.additive_span(ring, a.generators)
    sb = verify.additive_span(ring, b.generators)
    ca = {chan.add(a.offset, x) for x in sa}
    cb = {chan.add(b.offset, x) for x in sb}
    return Fraction(len(ca & cb), max(len(sa), len(sb)))


def sorted_elements(ring):
    return sorted(verify.ring_elements(ring), key=lambda c: c.bits)


def check_overlaps(ring, elems, p, rng, pairs):
    for _ in range(pairs):
        ga = tuple(rng.choice(elems) for _ in range(rng.randint(1, 2)))
        gb = tuple(rng.choice(elems) for _ in range(rng.randint(1, 2)))
        a = SubgroupDescriptor(ring, ga, offset=rng.choice(elems))
        b = SubgroupDescriptor(ring, gb, offset=rng.choice(elems))
        assert p._span(ring, ga).order == len(verify.additive_span(ring, ga))
        assert p._exact_overlap(a, b) == brute_overlap(ring, a, b)
        # the same subgroup through an offset inside it
        inner = SubgroupDescriptor(ring, ga, offset=ga[0])
        assert p._exact_overlap(inner, SubgroupDescriptor(ring, ga)) == 1


class RecordingProvider(PrimitiveProvider):
    """Exact provider that keeps every hiding map it solves."""

    def __init__(self, seed):
        super().__init__(ProviderConfig(backend="exact", seed=seed))
        self.solved = []

    def solve_ahsp(self, hiding):
        sub = super().solve_ahsp(hiding)
        self.solved.append((hiding, sub))
        return sub


def brute_kernel(ring, zero, hiding, hidden_code):
    """Coordinate vectors z whose combination sum_j z_j g_j satisfies
    ``hidden_code``, by enumeration on the verification channel."""
    chan = ring.verification
    multiples = []
    for g, s in zip(hiding.combo_generators, hiding.moduli):
        row = [zero]
        for _ in range(s - 1):
            row.append(chan.add(row[-1], g))
        multiples.append(row)
    out = set()
    for z in itertools.product(*(range(s) for s in hiding.moduli)):
        code = zero
        for row, zj in zip(multiples, z):
            code = chan.add(code, row[zj])
        if hidden_code(code):
            out.add(z)
    return out


def check_hidden(ring, zero, hiding, sub, hidden_code):
    lat = LatticeBuilder(hiding.moduli)
    for col in sub:
        lat.add(col)
    want = brute_kernel(ring, zero, hiding, hidden_code)
    got = {
        z
        for z in itertools.product(*(range(s) for s in hiding.moduli))
        if lat.contains(z)
    }
    assert got == want, hiding.name
    assert prod(hiding.moduli) // lat.determinant() == len(want)


def additive_generators(ring, subgroup):
    """A few elements of ``subgroup`` that span it additively."""
    gens, span = [], set()
    for c in sorted(subgroup, key=lambda c: c.bits):
        if c not in span:
            gens.append(c)
            span = verify.additive_span(ring, gens)
    return gens


# largest hidden-subgroup domain enumerated
MAX_DOMAIN = 1 << 14


def check_hiding_kinds(ring, elems, rng, kinds):
    """Run the ops that build each hiding-map kind and check the first
    hidden subgroup of each kind they solved (every one of ``kinds``) against
    a brute-force kernel; domains above MAX_DOMAIN are skipped."""
    zero = verify.find_zero(ring, elems)
    chan = ring.verification
    p = RecordingProvider(rng.randrange(1 << 30))
    rep = ops.ring_representation(ring, p)
    side = "two" if isinstance(ring.spec, MatrixSpec) else "left"
    i_spec = IdealSpec(side, (rng.choice(elems),))
    j_spec = IdealSpec(side, (rng.choice(elems), rng.choice(elems)))
    closure_i = verify.ideal_closure(ring, i_spec.generators, side)
    closure_j = verify.ideal_closure(ring, j_spec.generators, side)
    s_elems = (rng.choice(elems),)
    ann_side = rng.choice(("left", "right"))
    ops.ideal_intersection(ring, i_spec, j_spec, p, rep)
    ops.colon_ideal(ring, i_spec, j_spec, p, rep)
    ops.annihilator(ring, s_elems, ann_side, p, rep)
    rho = ops.HomomorphismOracle(ring, ring, lambda c: c, name="identity")
    ops.hom_kernel(rho, p, rep)

    def annihilates(x):
        if ann_side == "left":
            return all(chan.mul(x, s) == zero for s in s_elems)
        return all(chan.mul(s, x) == zero for s in s_elems)

    j_gens = additive_generators(ring, closure_j)
    hidden = {
        "relation-lattice": lambda x: x == zero,
        "element-decomposition": lambda x: x == zero,
        "intersection": lambda x: x in closure_j,
        "colon": lambda x: all(chan.mul(x, b) in closure_i for b in j_gens),
        "annihilator": annihilates,
        "hom-kernel": lambda x: rho(x) == rho(zero),
    }
    seen = set()
    for hiding, sub in p.solved:
        if hiding.name in seen and hiding.name not in kinds:
            continue
        if prod(hiding.moduli) <= MAX_DOMAIN:
            check_hidden(ring, zero, hiding, sub, hidden[hiding.name])
            seen.add(hiding.name)
    assert seen == set(hidden)


def test_desk_rings_lattice_algebra_matches_enumeration():
    rng = random.Random(20261018)
    for _, spec in DESK_SUITE:
        ring = make_ring(spec, rng.randrange(1 << 30))
        elems = sorted_elements(ring)
        check_overlaps(ring, elems, exact(), rng, pairs=12)
        check_hiding_kinds(
            ring, elems, rng, kinds=("intersection", "colon", "annihilator")
        )


def test_desk_mod_hom_kernel_matches_enumeration():
    rng = random.Random(7)
    for n, d in ((12, 4), (36, 6), (64, 8)):
        src = make_ring(ModularSpec(n), rng.randrange(1 << 30))
        dst = make_ring(ModularSpec(d), rng.randrange(1 << 30))
        rho = ops.HomomorphismOracle(
            src, dst, lambda c: dst._encode(src._decode(c) % d), name="mod"
        )
        p = RecordingProvider(n)
        ops.hom_kernel(rho, p)
        zero = verify.find_zero(src, verify.ring_elements(src))
        ((hiding, sub),) = [hs for hs in p.solved if hs[0].name == "hom-kernel"]
        check_hidden(src, zero, hiding, sub, lambda x: rho(x) == rho(zero))


# -- random nested descriptions ------------------------------------------------

MAX_ORDER = 1 << 9

MONIC = {
    2: [(1, 1), (0, 1), (1, 1, 1), (0, 0, 1), (1, 0, 1), (1, 1, 0, 1), (0, 0, 0, 1)],
    3: [(1, 1), (0, 0, 1), (1, 0, 1), (2, 1, 1)],
}


def small_specs():
    leaves = st.one_of(
        st.integers(2, 12).map(ModularSpec),
        st.sampled_from(sorted(MONIC)).flatmap(
            lambda p: st.sampled_from(MONIC[p]).map(lambda f: PolyQuotSpec(p, f))
        ),
    )

    def extend(inner):
        return st.one_of(
            st.lists(inner, min_size=2, max_size=3).map(
                lambda fs: ProductSpec(tuple(fs))
            ),
            st.tuples(st.integers(1, 3), inner).map(lambda kb: MatrixSpec(*kb)),
        )

    return st.recursive(leaves, extend, max_leaves=3).filter(
        lambda s: s.order() <= MAX_ORDER
    )


MATRIX_OVER_PRODUCT = MatrixSpec(2, ProductSpec((ModularSpec(2), ModularSpec(2))))
MATRIX_OVER_POLYQUOT = MatrixSpec(2, PolyQuotSpec(2, (1, 1, 1)))
MATRIX_3 = MatrixSpec(3, ModularSpec(2))
PRODUCT_OF_POLYQUOTS = ProductSpec((PolyQuotSpec(2, (1, 1, 1)), PolyQuotSpec(3, (0, 0, 1))))
# a matrix as a product factor and as a matrix cell
PRODUCT_WITH_MATRIX = ProductSpec((ModularSpec(2), MatrixSpec(2, ModularSpec(2))))
MATRIX_OVER_MATRIX = MatrixSpec(2, MatrixSpec(2, ModularSpec(2)))


@settings(
    max_examples=10,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@example(MATRIX_OVER_PRODUCT, 1)
@example(MATRIX_OVER_POLYQUOT, 2)
@example(MATRIX_3, 3)
@example(PRODUCT_OF_POLYQUOTS, 4)
@given(small_specs(), st.integers(0, 1 << 20))
def test_nested_specs_against_enumeration(spec, seed):
    rng = random.Random(seed)
    check_coordinates(spec)
    for _ in range(4):
        value = spec.element_at(rng.randrange(spec.order()))
        assert spec.additive_order(value) == additive_order_by_addition(spec, value)
    ring = make_ring(spec, seed)
    elems = sorted_elements(ring)
    check_overlaps(ring, elems, exact(seed), rng, pairs=3)
    check_hiding_kinds(ring, elems, rng, kinds=())
    # a random ideal's basis against the brute-force closure
    side = rng.choice(("left", "right", "two"))
    gens = tuple(rng.choice(elems) for _ in range(rng.randint(1, 2)))
    rep = find_basis_representation(ring, IdealSpec(side, gens), exact(seed))
    closure = verify.ideal_closure(ring, gens, side)
    zero = verify.find_zero(ring, elems)
    assert rep.order() == len(closure)
    assert verify.additive_span(ring, rep.basis.h + (zero,)) == closure


@settings(
    max_examples=30,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@example(PRODUCT_WITH_MATRIX, 1)
@example(MATRIX_OVER_MATRIX, 2)
@example(MatrixSpec(1, MatrixSpec(1, PolyQuotSpec(2, (1, 1, 1)))), 3)
@given(small_specs(), st.integers(0, 1 << 20))
def test_element_literals_round_trip(spec, seed):
    # every element of a small ring, 64 random ones of a larger ring
    ring = make_ring(spec, seed)
    rng = random.Random(seed)
    n = spec.order()
    indices = range(n) if n <= 64 else [rng.randrange(n) for _ in range(64)]
    for idx in indices:
        code = ring._encode(spec.element_at(idx))
        assert parse_element_literal(ring, format_element(ring, code)) == code


def naive_closure(ring, gens, side):
    """Fixpoint of pairwise sums and products with the ring generators."""
    chan = ring.verification
    out = frozenset(gens)
    while True:
        grown = set(out)
        grown.update(chan.add(x, y) for x in out for y in out)
        for r in ring.generators:
            if side in ("left", "two"):
                grown.update(chan.mul(r, x) for x in out)
            if side in ("right", "two"):
                grown.update(chan.mul(x, r) for x in out)
        if grown == out:
            return out
        out = frozenset(grown)


def test_ideal_closure_matches_a_naive_fixpoint():
    rng = random.Random(23)
    for _, spec in DESK_SUITE + [(None, MatrixSpec(2, ModularSpec(3)))]:
        ring = make_ring(spec, rng.randrange(1 << 30))
        elems = sorted_elements(ring)
        assert set(elems) == naive_closure(ring, ring.generators, "two")
        for side in ("left", "right", "two"):
            gens = tuple(rng.choice(elems) for _ in range(rng.randint(1, 2)))
            want = naive_closure(ring, gens, side)
            assert verify.ideal_closure(ring, gens, side) == want, (spec.describe(), side)


# -- spans: the direct lattice against the stacked Hermite form -----------------


def check_span_against_stacked(spec, seed):
    """``_Span`` builds its lattice directly and the stacked form of
    coords(h_j) over the moduli only for coordinates; its lattice, order and
    coordinates must equal what the heads and tails of the stacked form
    give, for invariant-factor bases of random generator tuples."""
    ring = make_ring(spec, seed)
    rng = random.Random(seed)
    elems = sorted_elements(ring)
    zero = verify.find_zero(ring, elems)
    dim = len(ring.spec._moduli)
    for _ in range(3):
        gens = tuple(rng.choice(elems) for _ in range(rng.randint(1, 3)))
        basis = decompose_group(ring, gens, exact(seed))
        span = _Span(ring, basis.h)
        stacked = stacked_lattice([ring._coords(h) for h in basis.h], _moduli_lattice(ring))
        heads = tuple(col[:dim] for col in stacked.basis_columns() if any(col[:dim]))
        assert span.lattice.basis_columns() == heads
        head_lattice = LatticeBuilder(ring.spec._moduli)
        for col in heads:
            head_lattice.add(col)
        assert span.order == ring._ring_size() // head_lattice.determinant()
        members = verify.additive_span(ring, gens)
        assert span.order == len(members) == basis.order()
        for code in elems:
            rest = stacked.reduce(ring._coords(code) + (0,) * len(basis.s))
            if code not in members:
                assert any(rest[:dim])
                with pytest.raises(MembershipError):
                    span.coordinates(ring, code, basis.s)
                continue
            got = span.coordinates(ring, code, basis.s)
            assert got == tuple((-v) % s for v, s in zip(rest[dim:], basis.s))
            assert combine_codes(ring.verification, basis.h, got, zero) == code
        assert span.lattice.basis_columns() == heads


def test_span_matches_stacked_form_on_desk_rings():
    for i, (_, spec) in enumerate(DESK_SUITE):
        check_span_against_stacked(spec, 60 + i)


@settings(
    max_examples=10,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@example(MATRIX_OVER_PRODUCT, 7)
@given(small_specs(), st.integers(0, 1 << 20))
def test_span_matches_stacked_form_on_nested_specs(spec, seed):
    check_span_against_stacked(spec, seed)


def check_span_extension(spec, seed):
    """A span the provider extends from a memoized prefix equals one built
    from the moduli alone, and overlaps of nested tuples (both ways round)
    and of unrelated ones agree with enumeration."""
    ring = make_ring(spec, seed)
    rng = random.Random(seed)
    elems = sorted_elements(ring)
    p = exact(seed)
    for _ in range(3):
        gens = tuple(rng.choice(elems) for _ in range(rng.randint(2, 4)))
        cut = rng.randint(0, len(gens) - 1)
        p._span(ring, gens[:cut])
        ext, fresh = p._span(ring, gens), _Span(ring, gens)
        assert ext.lattice.basis_columns() == fresh.lattice.basis_columns()
        assert ext.order == fresh.order
        assert ext._images == fresh._images
        for code in elems:
            image = ring._coords(code)
            assert ext.combination(ring, image) == fresh.combination(ring, image)
        short = gens[: max(cut, 1)]
        other = tuple(rng.choice(elems) for _ in range(rng.randint(1, 2)))
        for ga, gb in ((short, gens), (gens, short), (gens, other)):
            a = SubgroupDescriptor(ring, ga, offset=rng.choice(elems))
            b = SubgroupDescriptor(ring, gb, offset=rng.choice(elems))
            assert p._exact_overlap(a, b) == brute_overlap(ring, a, b)


def test_span_extension_on_desk_rings():
    for i, (_, spec) in enumerate(DESK_SUITE):
        check_span_extension(spec, 80 + i)


@settings(
    max_examples=10,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@example(MATRIX_OVER_PRODUCT, 8)
@given(small_specs(), st.integers(0, 1 << 20))
def test_span_extension_on_nested_specs(spec, seed):
    check_span_extension(spec, seed)


F2_X10 = PolyQuotSpec(2, (0,) * 10 + (1,))


def pivot_snapshot(lat):
    return tuple(map(tuple, lat._pivots))


@settings(
    max_examples=10,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@example(F2_X10, 9)
@example(MATRIX_OVER_PRODUCT, 10)
@given(small_specs(), st.integers(0, 1 << 20))
def test_stacked_form_extends_the_parent_span(spec, seed):
    """Along a chain of generator tuples, each span's stacked form is its
    parent's padded plus the new columns: the same canonical form as one
    stacked from scratch, with the parent's pivots left as they were and
    only the root stacked from scratch (``done == 0``)."""
    ring = make_ring(spec, seed)
    rng = random.Random(seed)
    elems = [ring._encode(spec.element_at(rng.randrange(spec.order()))) for _ in range(8)]
    p = exact(seed)
    chain = tuple(rng.choice(elems) for _ in range(rng.randint(2, 6)))
    with mock.patch.object(qsim, "stacked_lattice", wraps=stacked_lattice) as scratch:
        parent = None
        for cut in range(1, len(chain) + 1):
            span = p._span(ring, chain[:cut])
            assert span._parent is parent
            if parent is not None:
                if rng.random() < 0.5:  # a relation lattice read it
                    parent.stacked(ring).basis_columns()
                before = pivot_snapshot(parent.stacked(ring))
            ext = span.stacked(ring)
            if parent is not None:
                assert pivot_snapshot(parent.stacked(ring)) == before
            fresh = stacked_lattice(span._images, _moduli_lattice(ring))
            assert ext.basis_columns() == fresh.basis_columns()
            parent = span
    assert sum(len(c.args) < 3 or c.args[2] == 0 for c in scratch.call_args_list) == 1


def overlap_decision(p, a, b):
    """Reference swap-test decision that always computes the overlap: the
    same verdict and the same draws as ``is_subset_decision``."""
    p.stats["decisions"] += 1
    c = p._exact_overlap(a, b)
    if not p.sampled:
        return c == 1
    if c == 1:
        p.rng.getrandbits(64 * p._decision_shots())
        return True
    p0 = float((1 + c * c) / 2)
    return all(p.rng.random() < p0 for _ in range(p._decision_shots()))


def check_nested_decisions(spec, seed, backend):
    """Decisions on nested generator tuples (the longer on either side, with
    and without offsets) against the overlap and against the reference's
    verdicts and random stream; an accepted decision, and any exact one,
    adds no span once the shorter tuple's is memoized."""
    ring = make_ring(spec, seed)
    rng = random.Random(seed)
    chan, zero = ring.unmetered, ring._zero_code()
    elems = [ring._encode(spec.element_at(rng.randrange(spec.order()))) for _ in range(6)]
    config = ProviderConfig(backend=backend, seed=seed, epsilon=1e-9)
    p, ref, truth = (PrimitiveProvider(config) for _ in range(3))
    verdicts = set()
    for _ in range(10):
        short = tuple(rng.choice(elems) for _ in range(rng.randint(0, 3)))
        # members of the short span (sums of its generators, or zero) keep
        # the spans equal; random elements usually do not
        members = [zero] + [chan.add(g, h) for g in short for h in short]
        pool = members if rng.random() < 0.5 else elems
        long = short + tuple(rng.choice(pool) for _ in range(rng.randint(0, 2)))
        x = rng.choice(elems)
        offsets = rng.choice(((None, None), (x, chan.add(x, rng.choice(members))), (x, None)))
        pair = [SubgroupDescriptor(ring, short, offset=offsets[0])]
        pair.append(SubgroupDescriptor(ring, long, offset=offsets[1]))
        a, b = pair if rng.random() < 0.5 else pair[::-1]
        p._span(ring, short)
        spans = len(p._spans)
        got = p.is_subset_decision(a, b)
        assert got == overlap_decision(ref, a, b) == (truth._exact_overlap(a, b) == 1)
        assert p.rng.getstate() == ref.rng.getstate()
        assert p.stats == ref.stats
        if got or backend == "exact":
            assert len(p._spans) == spans
        verdicts.add(got)
    return verdicts


@settings(
    max_examples=15,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@example(F2_X10, 11)
@example(MATRIX_OVER_PRODUCT, 12)
@given(small_specs(), st.integers(0, 1 << 20))
def test_nested_decisions_read_the_shorter_span(spec, seed):
    for backend in ("exact", "sampled"):
        check_nested_decisions(spec, seed, backend)


def test_nested_decisions_accept_and_reject_on_desk_rings():
    for backend in ("exact", "sampled"):
        verdicts = set()
        for i, (_, spec) in enumerate(DESK_SUITE):
            verdicts |= check_nested_decisions(spec, 90 + i, backend)
        assert verdicts == {True, False}


def check_coordinate_sums(spec, seed):
    """The ground truth's coordinate sum against the double-and-add through
    the unmetered oracle."""
    ring = make_ring(spec, seed)
    rng = random.Random(seed)
    zero = ring._zero_code()
    elems = [ring._encode(spec.element_at(rng.randrange(spec.order()))) for _ in range(6)]
    for _ in range(8):
        codes = tuple(rng.choice(elems) for _ in range(rng.randint(0, 4)))
        coeffs = tuple(rng.randrange(3 * spec.order()) if rng.random() < 0.7 else 0 for _ in codes)
        want = combine_codes(ring.unmetered, codes, coeffs, zero)
        assert _coordinate_sum(ring, codes, coeffs) == want


def test_coordinate_sum_on_desk_rings():
    for i, (_, spec) in enumerate(DESK_SUITE):
        check_coordinate_sums(spec, 100 + i)


@settings(
    max_examples=20,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@example(F2_X10, 13)
@given(small_specs(), st.integers(0, 1 << 20))
def test_coordinate_sum_on_nested_specs(spec, seed):
    check_coordinate_sums(spec, seed)


# -- the field test behind `prime` --------------------------------------------


def check_prime_verdicts(spec, seed):
    """The default ``is_prime_ideal`` against the elementwise definition
    (a*b in I forces a or b in I) for every distinct principal two-sided
    ideal, on both backends; returns whether each proper one is prime."""
    ring = make_ring(spec, seed)
    elems = sorted_elements(ring)
    ideals = {}
    for g in elems:
        ideals.setdefault(verify.ideal_closure(ring, (g,), "two"), g)
    whole = [g for closure, g in ideals.items() if len(closure) == len(elems)]
    want = {
        g: verify.is_prime_by_definition(ring, closure, elems)
        for closure, g in ideals.items()
        if len(closure) < len(elems)
    }
    for backend in ("exact", "sampled"):
        p = PrimitiveProvider(ProviderConfig(backend=backend, seed=seed))
        rep = ops.ring_representation(ring, p)
        for g in whole:
            with pytest.raises(PreconditionError):
                ops.is_prime_ideal(ring, IdealSpec("two", (g,)), p, rep)
        for g, prime in want.items():
            verdict = ops.is_prime_ideal(ring, IdealSpec("two", (g,)), p, rep)
            assert verdict.prime == prime, (spec.describe(), backend, ring._decode(g))
            assert (verdict.trials, verdict.confidence) == (0, 1.0)
    return list(want.values())


FIELD_TEST_RINGS = [
    PolyQuotSpec(3, (1, 0, 1)),  # F_9
    PolyQuotSpec(2, (1, 1, 0, 0, 1)),  # F_16
    PolyQuotSpec(5, (2, 0, 1)),  # F_25
    PolyQuotSpec(2, (1, 0, 0, 0, 1)),  # F_2[x]/(x^4+1), local
    PolyQuotSpec(2, (0, 1, 0, 1)),  # F_2[x]/(x^3+x) = F_2[x]/(x) x F_2[x]/(x+1)^2
    ProductSpec((PolyQuotSpec(2, (1, 1, 1)),) * 2),  # F_4 x F_4
    ProductSpec((ModularSpec(3), ModularSpec(3))),
    ProductSpec((ModularSpec(2), PolyQuotSpec(2, (1, 1, 0, 1)))),  # Z_2 x F_8
    ProductSpec((ModularSpec(4), ModularSpec(2))),
    ModularSpec(30),
    ModularSpec(49),
    PolyQuotSpec(3, (0, 0, 1)),  # Z_3[x]/(x^2)
    MatrixSpec(2, ModularSpec(2)),
    MatrixSpec(2, ModularSpec(3)),
]


def test_field_test_on_explicit_rings():
    verdicts = []
    for i, spec in enumerate(FIELD_TEST_RINGS):
        verdicts += check_prime_verdicts(spec, 40 + i)
    assert True in verdicts and False in verdicts


@settings(
    max_examples=10,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@example(MATRIX_OVER_POLYQUOT, 5)
@example(PRODUCT_OF_POLYQUOTS, 6)
@given(small_specs(), st.integers(0, 1 << 20))
def test_field_test_on_nested_specs(spec, seed):
    check_prime_verdicts(spec, seed)


def test_field_test_leaves_a_warm_provider_untouched():
    """A repeated call is answered from the session memos and the tensor:
    no oracle query, no decision, no random draw."""
    for backend in ("exact", "sampled"):
        for spec, literals in (
            (ModularSpec(30), ("6", "10", "15", "0")),
            (MatrixSpec(2, ModularSpec(3)), ("0,0;0,0",)),
        ):
            ring = make_ring(spec, 17)
            p = PrimitiveProvider(ProviderConfig(backend=backend, seed=17))
            rep = ops.ring_representation(ring, p)
            for text in literals:
                i_spec = IdealSpec("two", (parse_element_literal(ring, text),))
                first = ops.is_prime_ideal(ring, i_spec, p, rep)
                before = (ring.ledger.snapshot(), p.stats["decisions"], p.rng.getstate())
                assert ops.is_prime_ideal(ring, i_spec, p, rep) == first
                after = (ring.ledger.snapshot(), p.stats["decisions"], p.rng.getstate())
                assert after == before, (spec.describe(), backend, text)
