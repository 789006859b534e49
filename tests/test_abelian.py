import random
from math import prod

import pytest

from ringbox import qsim
from ringbox.abelian import (
    InvariantFactorBasis,
    combine_codes,
    decompose_element,
    decompose_elements,
    decompose_group,
    ideal_lattice,
    present_group,
)
from ringbox.blackbox import (
    MatrixSpec,
    ModularSpec,
    PolyQuotSpec,
    ProductSpec,
    make_ring,
    parse_element_literal,
)
from ringbox.errors import MembershipError
from ringbox.intlinalg import invariant_factors, stacked_lattice, subgroup_of_torus
from ringbox.qsim import PrimitiveProvider, ProviderConfig
from ringbox.verify import additive_span, ring_elements
from test_acceptance import DESK_SUITE


def provider(backend="exact", seed=1, **kw):
    return PrimitiveProvider(ProviderConfig(backend=backend, seed=seed, **kw))


def codes(ring, *lits):
    return tuple(parse_element_literal(ring, str(v)) for v in lits)


def test_presentation_invariants():
    r = make_ring(ModularSpec(12), 3)
    p = provider()
    four, six = codes(r, 4, 6)
    pres = present_group(r, (four, six), p)
    assert pres.orders == (3, 2)
    orders, _, _ = invariant_factors(pres.relation_lattice, len(pres.orders))
    assert prod(orders) == len(additive_span(r, (four, six)))


def test_decompose_group_z2xz9_single_factor_18():
    r = make_ring(ProductSpec((ModularSpec(2), ModularSpec(9))), 2)
    p = provider()
    gens = (
        parse_element_literal(r, "(1, 0)"),
        parse_element_literal(r, "(0, 1)"),
    )
    basis = decompose_group(r, gens, p)
    assert basis.s == (18,)
    assert basis.order() == 18


def test_decompose_group_gens_4_6():
    r = make_ring(ModularSpec(12), 3)
    p = provider()
    basis = decompose_group(r, codes(r, 4, 6), p)
    assert basis.s == (6,)
    assert additive_span(r, basis.h) == additive_span(r, codes(r, 2))


def test_decompose_single_generator_trivial():
    r = make_ring(ModularSpec(12), 3)
    p = provider()
    (five,) = codes(r, 5)
    basis = decompose_group(r, (five,), p)
    assert basis.s == (12,)
    assert basis.h == (five,) or additive_span(r, basis.h) == additive_span(r, (five,))


def test_divisibility_chain_and_order_product():
    rng = random.Random(7)
    for spec, seed in [
        (ModularSpec(36), 1),
        (ProductSpec((ModularSpec(2), ModularSpec(9))), 2),
        (PolyQuotSpec(2, (1, 1, 1)), 3),
    ]:
        r = make_ring(spec, seed)
        elems = sorted(ring_elements(r), key=lambda c: c.bits)
        p = provider()
        for _ in range(8):
            gens = tuple(rng.choice(elems) for _ in range(rng.randint(1, 3)))
            basis = decompose_group(r, gens, p)
            for a, b in zip(basis.s, basis.s[1:]):
                assert b % a == 0
            assert basis.order() == len(additive_span(r, gens))


def test_to_from_original_verified_by_oracle():
    r = make_ring(ModularSpec(12), 5)
    p = provider()
    gens = codes(r, 4, 6)
    basis = decompose_group(r, gens, p)
    chan = r.verification
    zero = combine_codes(chan, gens, (3, 2))  # 3*4 + 2*6 = 24 = 0 mod 12
    for i, h in enumerate(basis.h):
        assert combine_codes(chan, gens, basis.to_original[i], zero=zero) == h
    for j, g in enumerate(gens):
        assert combine_codes(chan, basis.h, basis.from_original[j], zero=zero) == g


def test_decompose_element_examples():
    r = make_ring(ModularSpec(12), 9)
    p = provider()
    one, seven, four, eight = codes(r, 1, 7, 4, 8)
    basis_full = decompose_group(r, (one,), p)
    assert decompose_element(r, seven, basis_full, p) == (7,)
    basis4 = decompose_group(r, (four,), p)
    assert decompose_element(r, eight, basis4, p) == (2,)

    f4 = make_ring(PolyQuotSpec(2, (1, 1, 1)), 1)
    pf = provider()
    gens = (parse_element_literal(f4, "[1, 0]"), parse_element_literal(f4, "[0, 1]"))
    fb = decompose_group(f4, gens, pf)
    x1 = parse_element_literal(f4, "[1, 1]")
    n = decompose_element(f4, x1, fb, pf)
    chan = f4.verification
    assert combine_codes(chan, fb.h, n) == x1
    assert n == (1, 1) or len(n) == 2


def test_decompose_element_membership_error():
    r = make_ring(ModularSpec(12), 9)
    p = provider()
    basis4 = decompose_group(r, codes(r, 4), p)
    (two,) = codes(r, 2)
    with pytest.raises(MembershipError):
        decompose_element(r, two, basis4, p)


def test_decompositions_read_a_generator_of_elements_once():
    r = make_ring(ModularSpec(12), 9)
    basis = decompose_group(r, r.generators, provider())
    xs = codes(r, 3, 8, 3)
    got = decompose_elements(r, (x for x in xs), basis, provider())
    assert got == decompose_elements(r, xs, basis, provider()) == ((3,), (8,), (3,))
    lat = ideal_lattice(r, (x for x in codes(r, 4)), basis, provider())
    assert lat.determinant() == 4  # |Z_12 / (4)|, not the moduli's 12


@pytest.mark.parametrize("backend", ["exact", "sampled"])
def test_decompose_elements_over_a_basis_in_any_order(backend):
    # the batch modulus max(s) kills every member whatever the basis order
    r = make_ring(ProductSpec((ModularSpec(2), ModularSpec(4))), 3)
    p = provider(backend, seed=4, epsilon=1e-6)
    basis = decompose_group(r, r.generators, p)
    assert basis.s == (2, 4)
    flipped = InvariantFactorBasis(
        basis.h[::-1],
        basis.s[::-1],
        basis.to_original[::-1],
        tuple(row[::-1] for row in basis.from_original),
    )
    xs = sorted(ring_elements(r), key=lambda c: c.bits)
    got = decompose_elements(r, xs, flipped, p)
    assert got == tuple(n[::-1] for n in decompose_elements(r, xs, basis, p))


def test_decompose_round_trip_1000_random():
    rng = random.Random(0xBEEF)
    cases = [
        (ModularSpec(36), 4, ["1"]),
        (PolyQuotSpec(2, (1, 0, 1, 1)), 5, ["[1]", "[0,1]", "[0,0,1]"]),
    ]
    for spec, seed, gen_lits in cases:
        r = make_ring(spec, seed)
        p = provider()
        elems = sorted(ring_elements(r), key=lambda c: c.bits)
        gens = tuple(parse_element_literal(r, lit) for lit in gen_lits)
        basis = decompose_group(r, gens, p)
        assert basis.order() == len(elems)  # spans the whole ring
        chan = r.verification
        zero = combine_codes(chan, basis.h, (basis.s[0],) + (0,) * (len(basis.s) - 1))
        for _ in range(500):
            x = rng.choice(elems)
            n = decompose_element(r, x, basis, p)
            assert all(0 <= c < s for c, s in zip(n, basis.s))
            assert combine_codes(chan, basis.h, n, zero=zero) == x


def test_decompose_element_sampled_backend():
    r = make_ring(ModularSpec(36), 4)
    p = provider("sampled", seed=21, epsilon=1e-3)
    elems = sorted(ring_elements(r), key=lambda c: c.bits)
    basis = decompose_group(r, r.generators, p)
    chan = r.verification
    rng = random.Random(3)
    for _ in range(40):
        x = rng.choice(elems)
        n = decompose_element(r, x, basis, p)
        if any(n):
            assert combine_codes(chan, basis.h, n) == x


def test_quotient_labels_partition():
    # lat.reduce(span coordinates) labels the cosets of an ideal's lattice
    r = make_ring(ModularSpec(12), 6)
    p = provider()
    ring_basis = decompose_group(r, r.generators, p)
    coords = p.span_coordinates(r, ring_basis)
    elems = ring_elements(r)
    zero, three = codes(r, 0, 3)
    lat = ideal_lattice(r, (three,), ring_basis, p)
    labels = {}
    for e in elems:
        labels.setdefault(lat.reduce(coords(e)), set()).add(e)
    assert len(labels) == 3 == lat.determinant()  # |Z_12 / (3)| = 3
    sizes = {len(v) for v in labels.values()}
    assert sizes == {4}  # Lagrange: equal coset sizes
    assert lat.reduce(coords(three)) == lat.reduce(coords(zero))
    # trivial subgroup: injective labels
    lat0 = ideal_lattice(r, (), ring_basis, p)
    assert len({lat0.reduce(coords(e)) for e in elems}) == 12 == lat0.determinant()


def test_quotient_view_size_and_labels():
    # Z_12 / (4): the lattice's determinant is the quotient's size
    r = make_ring(ModularSpec(12), 6)
    p = provider()
    ring_basis = decompose_group(r, r.generators, p)
    coords = p.span_coordinates(r, ring_basis)
    zero, two, four, six = codes(r, 0, 2, 4, 6)
    lat = ideal_lattice(r, (four,), ring_basis, p)
    assert lat.determinant() == 4
    assert lat.reduce(coords(six)) == lat.reduce(coords(two))  # 6 = 2 + 4
    square = r.verification.mul(two, two)
    assert lat.reduce(coords(square)) == lat.reduce(coords(zero))  # 4 in (4)


def test_subgroup_order_examples():
    r = make_ring(ModularSpec(12), 2)
    p = provider()
    assert decompose_group(r, codes(r, 4), p).order() == 3
    assert decompose_group(r, codes(r, 1), p).order() == 12
    assert decompose_group(r, codes(r, 0), p).order() == 1


def test_decompose_group_orders_match_pure_lattice_route():
    # hidden-subgroup presentation + Smith form against the Smith form of the
    # generators' additive coordinates over the spec's moduli
    rng = random.Random(0x1F)
    for _, spec in DESK_SUITE:
        r = make_ring(spec, 4)
        p = provider()
        elems = sorted(ring_elements(r), key=lambda c: c.bits)
        for _ in range(3):
            gens = tuple(rng.choice(elems) for _ in range(rng.randint(1, 3)))
            _, orders = subgroup_of_torus([r._coords(g) for g in gens], spec._moduli)
            assert decompose_group(r, gens, p).s == orders


@pytest.mark.parametrize("backend", ("exact", "sampled"))
def test_present_group_reads_an_extended_span(backend, monkeypatch):
    # an accumulation round presents the previous round's entries plus one:
    # the relation lattice comes off the span's stacked form, extended from
    # the memoized prefix's, with no Hermite form stacked from scratch
    # (``done == 0``)
    rng = random.Random(0x5A)
    for _, spec in DESK_SUITE + [(None, PolyQuotSpec(2, (0,) * 10 + (1,)))]:
        r = make_ring(spec, 6)
        elems = [r._encode(spec.element_at(rng.randrange(spec.order()))) for _ in range(5)]
        p = provider(backend)
        for cut in range(1, 3):
            present_group(r, elems[:cut], p)
        calls = []

        def counted(images, target, done=0):
            if done == 0:
                calls.append((images, target))
            return stacked_lattice(images, target, done)

        monkeypatch.setattr(qsim, "stacked_lattice", counted)
        warm = [present_group(r, elems[:cut], p) for cut in range(3, 6)]
        monkeypatch.undo()
        assert calls == []
        for cut, pres in zip(range(3, 6), warm):
            assert pres == present_group(r, elems[:cut], provider(backend))


BACKENDS = ("exact", "sampled")


def warm_state(ring, p):
    return ring.ledger.snapshot(), dict(p.stats), p.rng.getstate()


@pytest.mark.parametrize("backend", BACKENDS)
def test_decompose_group_memo_hit_makes_no_query_or_draw(backend):
    spec = MatrixSpec(2, ModularSpec(2))
    r = make_ring(spec, 3)
    p = provider(backend)
    e11, e12 = (parse_element_literal(r, lit) for lit in ("1,0;0,0", "0,1;0,0"))
    first = decompose_group(r, (e11, e12), p)
    before = warm_state(r, p)
    # the key is the generator tuple, whatever sequence carries it
    assert decompose_group(r, [e11, e12], p) is first
    assert warm_state(r, p) == before
    assert len(p.groups) == 1
    # the same codes under another seed of the same spec: a new entry
    other = next(
        ring
        for ring in (make_ring(spec, seed) for seed in range(4, 1000))
        if {e11, e12} <= ring_elements(ring)
    )
    assert decompose_group(other, (e11, e12), p) is not first
    assert len(p.groups) == 2
    assert decompose_group(r, (e12, e11), p) is not first
    assert len(p.groups) == 3
