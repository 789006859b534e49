import itertools
import math
from collections import Counter
from fractions import Fraction
from random import Random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ringbox import qsim
from ringbox import ringops as ops
from ringbox import verify
from ringbox.abelian import (
    decompose_element,
    decompose_elements,
    decompose_group,
    ideal_lattice,
)
from ringbox.blackbox import (
    MatrixSpec,
    ModularSpec,
    PolyQuotSpec,
    ProductSpec,
    make_ring,
    parse_element_literal,
)
from ringbox.errors import (
    HidingContractError,
    LowConfidenceError,
    MembershipError,
    PreconditionError,
)
from ringbox.idealcore import IdealSpec
from ringbox.intlinalg import LatticeBuilder
from ringbox.qsim import (
    HidingFunction,
    PrimitiveProvider,
    ProviderConfig,
    SubgroupDescriptor,
    _annihilator,
    _certify,
    _dual,
    _reconstruct,
    _skip_randranges,
    _Span,
    combine_codes,
)
from matrix_algebra import kernel_mod
from test_acceptance import DESK_SUITE
from test_ground_truth import small_specs


def ring_z12(seed=7):
    return make_ring(ModularSpec(12), seed)


def codes(ring, *lits):
    return tuple(parse_element_literal(ring, str(v)) for v in lits)


def provider(backend="exact", seed=1, **kw):
    return PrimitiveProvider(ProviderConfig(backend=backend, seed=seed, **kw))


def scaled_descriptor(ring, prov, gens, r):
    chan = ring.unmetered
    return SubgroupDescriptor(ring, tuple(chan.mul(r, g) for g in gens))


def test_coset_overlap_examples():
    r = ring_z12()
    p = provider()
    (four,) = codes(r, 4)
    a = SubgroupDescriptor(r, (four,))
    five, three = codes(r, 5, 3)
    b = scaled_descriptor(r, p, (four,), five)  # 5*<4> = <4>
    assert p.coset_overlap(a, b) == 1.0
    c = scaled_descriptor(r, p, (four,), three)  # 3*<4> = {0}
    assert p.coset_overlap(a, c) == pytest.approx(1 / 3)
    assert p.coset_overlap(a, a) == 1.0


def test_subset_decision_examples():
    r = ring_z12()
    p = provider()
    (four,) = codes(r, 4)
    sub = SubgroupDescriptor(r, (four,))
    assert p.membership(four, sub)
    (two,) = codes(r, 2)
    assert not p.membership(two, sub)
    evens = SubgroupDescriptor(r, codes(r, 2))
    five_evens = scaled_descriptor(r, p, codes(r, 2), codes(r, 5)[0])
    assert p.is_subset_decision(five_evens, evens)


def test_sampled_decisions_agree_with_exact():
    r = ring_z12()
    pe = provider("exact")
    ps = provider("sampled", seed=9, epsilon=1e-3)
    gens_pool = codes(r, 0, 1, 2, 3, 4, 6, 8, 9)
    for g1 in gens_pool:
        for g2 in gens_pool:
            a = SubgroupDescriptor(r, (g1,))
            b = SubgroupDescriptor(r, (g2,))
            assert pe.is_subset_decision(a, b) == ps.is_subset_decision(a, b)
            for x in gens_pool:
                assert pe.membership(x, a) == ps.membership(x, a)


def test_swap_shot_law():
    p = provider("sampled", seed=5)
    shots = 10_000
    for c in (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1)):
        zeros = p.swap_shots(c, shots)
        want = float((1 + c * c) / 2)
        sigma = math.sqrt(want * (1 - want) / shots)
        assert abs(zeros / shots - want) <= max(3 * sigma, 1e-12)


def hiding_for_kernel(ring, gens, moduli):
    return HidingFunction(ring=ring, moduli=moduli, combo_generators=gens)


def solved_lattice(columns, moduli):
    """A solved hidden subgroup's lift to Z^l (the moduli included)."""
    lat = LatticeBuilder(moduli)
    for col in columns:
        lat.add(col)
    return lat


def in_subgroup(columns, moduli, vec):
    """Whether a solved hidden subgroup contains the coordinate vector."""
    return solved_lattice(columns, moduli).contains(vec)


def subgroup_order(columns, moduli):
    """The order of a solved hidden subgroup of Z_{s_1} x ... x Z_{s_l}."""
    return math.prod(moduli) // solved_lattice(columns, moduli).determinant()


def test_characters_annihilate_hidden_subgroup():
    # G = Z_4 with hiding through 2*z mod 4 wait-free: use ring Z_4, gen 2
    r = make_ring(ModularSpec(4), 3)
    (two,) = codes(r, 2)
    p = provider("sampled", seed=2)
    hiding = hiding_for_kernel(r, (two,), (4,))  # kernel of z -> 2z: {0, 2}
    samples = p.sample_hidden_subgroup_characters(hiding, 64)
    assert set(samples) <= {(0,), (2,)}
    assert len(set(samples)) == 2  # both characters appear over 64 draws

    r12 = ring_z12()
    (one,) = codes(r12, 1)
    hiding = hiding_for_kernel(r12, (one,), (12,))  # injective: H={0}, dual full
    samples = p.sample_hidden_subgroup_characters(hiding, 200)
    assert len(set(samples)) > 6


def test_characters_z2xz2_diagonal():
    r = make_ring(ProductSpec((ModularSpec(2), ModularSpec(2))), 1)
    chan = r.unmetered
    a = parse_element_literal(r, "(1, 1)")
    p = provider("sampled", seed=4)
    # hiding z1*(1,1) + z2*(1,1): kernel = {(0,0),(1,1)}
    hiding = hiding_for_kernel(r, (a, a), (2, 2))
    samples = p.sample_hidden_subgroup_characters(hiding, 64)
    assert set(samples) <= {(0, 0), (1, 1)}


def test_solve_ahsp_examples():
    r = ring_z12()
    (four,) = codes(r, 4)
    for backend in ("exact", "sampled"):
        p = provider(backend, seed=11)
        # hiding m -> 4m on Z_12: kernel <3>
        hiding = hiding_for_kernel(r, (four,), (12,))
        sub = p.solve_ahsp(hiding)
        assert subgroup_order(sub, hiding.moduli) == 4
        assert in_subgroup(sub, hiding.moduli, (3,))
        assert not in_subgroup(sub, hiding.moduli, (1,))

        (one,) = codes(r, 1)
        hiding = hiding_for_kernel(r, (one,), (12,))
        sub = p.solve_ahsp(hiding)
        assert subgroup_order(sub, hiding.moduli) == 1


def unreduced_annihilator(vectors, moduli):
    """The kernel of every scaled vector as its own row, with no reduction."""
    big = math.lcm(*moduli)
    rows = [[v * (big // m) for v, m in zip(y, moduli)] for y in vectors]
    # one column per coordinate, so that no vectors leave the kernel Z^l
    columns = [[row[j] for row in rows] for j in range(len(moduli))]
    return kernel_mod(columns, [big] * len(rows))


@given(st.integers(1, 4), st.integers(1, 8), st.data())
@settings(max_examples=80, deadline=None)
def test_annihilator_matches_unreduced_rows(l, extra, data):
    moduli = data.draw(st.lists(st.sampled_from((1, 2, 3, 4, 6, 8, 12)), min_size=l, max_size=l))
    # a factor per coordinate sharing a divisor with its modulus keeps the
    # vectors inside a proper subgroup, so they need not generate the dual
    factors = data.draw(st.lists(st.sampled_from((1, 1, 2, 3)), min_size=l, max_size=l))
    vectors = [
        tuple(data.draw(st.integers(-m, 2 * m)) * f for m, f in zip(moduli, factors))
        for _ in range(l + extra)
    ]
    assert _annihilator(vectors, moduli) == unreduced_annihilator(vectors, moduli)


@given(st.integers(1, 3), st.data())
@settings(max_examples=80, deadline=None)
def test_dual_hermite_columns_draw_each_character_once(l, data):
    moduli = data.draw(st.lists(st.sampled_from((1, 2, 3, 4, 6, 8, 12)), min_size=l, max_size=l))
    hidden = LatticeBuilder(moduli)
    for _ in range(data.draw(st.integers(0, 3))):
        hidden.add([data.draw(st.integers(0, m - 1)) for m in moduli])
    cols = hidden.basis_columns()
    dual = _annihilator(cols, moduli)
    # triangular, with pivots dividing the moduli
    assert len(dual) == l
    for i, (col, m) in enumerate(zip(dual, moduli)):
        assert not any(col[:i]) and col[i] > 0 and m % col[i] == 0
    # the mixed-radix box hits every dual element exactly once
    radices = [range(m // col[i]) for i, (col, m) in enumerate(zip(dual, moduli))]
    drawn = Counter()
    for coeffs in itertools.product(*radices):
        y = [sum(c * col[r] for c, col in zip(coeffs, dual)) for r in range(l)]
        drawn[tuple(v % m for v, m in zip(y, moduli))] += 1
    full = LatticeBuilder(moduli)
    for col in unreduced_annihilator(cols, moduli):
        full.add(col)
    box = itertools.product(*(range(m) for m in moduli))
    assert drawn == Counter(y for y in box if full.contains(y))


@given(st.integers(1, 5), st.sampled_from(("drawn", "whole", "moduli")), st.data())
@settings(max_examples=150, deadline=None)
def test_dual_by_back_substitution_matches_the_kernel(l, kind, data):
    moduli = data.draw(st.lists(st.sampled_from((1, 2, 3, 4, 6, 8, 12)), min_size=l, max_size=l))
    hidden = LatticeBuilder(moduli)
    if kind == "whole":  # L = Z^l: its dual is the moduli lattice
        for i in range(l):
            hidden.add([int(i == j) for j in range(l)])
    elif kind == "drawn":  # kind "moduli" adds nothing: its dual is Z^l
        for _ in range(data.draw(st.integers(0, 4))):
            hidden.add([data.draw(st.integers(-20, 20)) for _ in moduli])
    cols = hidden.basis_columns()
    dual = _dual(cols, moduli)
    assert dual == solved_lattice(unreduced_annihilator(cols, moduli), moduli).basis_columns()
    if kind == "whole":
        assert dual == LatticeBuilder(moduli).basis_columns()
    if kind == "moduli":
        assert dual == tuple(tuple(int(i == j) for i in range(l)) for j in range(l))


def test_annihilator_of_a_proper_subgroup():
    # the vectors span only <(2, 0)> in Z_8 x Z_4, whose annihilator is
    # 4Z x Z
    vectors = [(2, 0), (4, 0), (6, 0)]
    assert _annihilator(vectors, (8, 4)) == ((4, 0), (0, 1))
    assert unreduced_annihilator(vectors, (8, 4)) == ((4, 0), (0, 1))


@given(st.integers(1, 4), st.data())
@settings(max_examples=150, deadline=None)
def test_reconstruction_matches_the_kernel_of_every_character(l, data):
    moduli = data.draw(st.lists(st.sampled_from((1, 2, 3, 4, 6, 8, 12)), min_size=l, max_size=l))
    hidden = LatticeBuilder(moduli)
    gens = data.draw(st.integers(0, 4))
    if gens == 4:  # the trivial case: the hidden lattice is Z^l, its dual {0}
        for i in range(l):
            hidden.add([int(i == j) for j in range(l)])
    else:
        for _ in range(gens):
            hidden.add([data.draw(st.integers(0, m - 1)) for m in moduli])
    dual = _annihilator(hidden.basis_columns(), moduli)
    # few characters, or coefficients sharing a factor with the pivots,
    # leave a batch short of the dual: the fallback route runs
    characters = []
    for _ in range(data.draw(st.integers(0, l + 8))):
        y = [0] * l
        for col in dual:
            c = data.draw(st.sampled_from((0, 0, 1, 2, 3, 4, 6)))
            y = [a + c * b for a, b in zip(y, col)]
        characters.append(tuple(v % m for v, m in zip(y, moduli)))
    if gens == 4:  # the rows span that dual before any insert: no kernel is taken
        assert _annihilator(characters, moduli, math.lcm(*moduli) ** l) is None
    full = solved_lattice(unreduced_annihilator(characters, moduli), moduli).basis_columns()
    assert _reconstruct(characters, moduli, hidden) == full


@pytest.mark.parametrize("epsilon,extra", [(1e-6, 32), (1e-9, 38)])
def test_sampled_solve_draws_only_its_characters(epsilon, extra):
    r = make_ring(ProductSpec((ModularSpec(4), ModularSpec(6))), 2)
    gens = (parse_element_literal(r, "(2, 3)"), parse_element_literal(r, "(1, 2)"))
    hiding = hiding_for_kernel(r, gens, (2, 12))
    p = provider("sampled", seed=9, epsilon=epsilon)
    twin = provider("sampled", seed=9, epsilon=epsilon)
    p.solve_ahsp(hiding)
    twin.sample_hidden_subgroup_characters(hiding, len(hiding.moduli) + extra)
    assert p.rng.getstate() == twin.rng.getstate()


def test_sampled_solve_builds_no_character_past_the_span(monkeypatch):
    r = make_ring(ProductSpec((ModularSpec(4), ModularSpec(6))), 2)
    gens = (parse_element_literal(r, "(2, 3)"), parse_element_literal(r, "(1, 2)"))
    hiding = hiding_for_kernel(r, gens, (2, 12))
    batch = len(hiding.moduli) + 38
    twin = provider("sampled", seed=9, epsilon=1e-9)
    drawn = twin.sample_hidden_subgroup_characters(hiding, batch)
    state = twin.rng.getstate()
    hidden = twin._hidden_subgroup_exact(hiding)
    full = 12**2 // hidden.determinant()
    span = next(k for k in range(batch + 1) if _annihilator(drawn[:k], hiding.moduli, full) is None)
    assert 0 < span < batch

    inserted, returned = [], []
    annihilator, sampler = qsim._annihilator, PrimitiveProvider.sample_hidden_subgroup_characters

    def counting(vectors, moduli, full=0):
        def read():
            for y in vectors:
                inserted.append(y)
                yield y

        return annihilator(read(), moduli, full)

    def recording(self, *args):
        returned.append(sampler(self, *args))
        return returned[-1]

    monkeypatch.setattr(qsim, "_annihilator", counting)
    monkeypatch.setattr(PrimitiveProvider, "sample_hidden_subgroup_characters", recording)
    p = provider("sampled", seed=9, epsilon=1e-9)
    assert p.solve_ahsp(hiding) == hidden.basis_columns()
    # one scaled row per character up to the span, and no character built
    # past it; the rest of the batch is drawn and charged all the same
    assert inserted == returned[0] == drawn[:span]
    assert p.stats["characters"] == batch
    assert p.rng.getstate() == state


RADICES = st.one_of(
    st.integers(0, 32).map(lambda e: 1 << e),
    st.sampled_from([3, 5, 6, 12, 2**31, 2**32 - 1, 2**40, 2**61 - 1]),
    st.integers(1, 2**32 - 1),
)


@given(st.lists(RADICES, max_size=4), st.integers(0, 50), st.integers(0, 2**32))
@settings(max_examples=200, deadline=None)
def test_skipped_randranges_leave_the_state_of_the_calls(radices, rounds, seed):
    # CPython draws randrange(r) as getrandbits(r.bit_length()) until below
    # r, over one 32-bit word per draw below 2^32 and several above it
    rng, twin = Random(seed), Random(seed)
    _skip_randranges(rng, radices, rounds)
    for _ in range(rounds):
        for r in radices:
            twin.randrange(r)
    assert rng.getstate() == twin.getstate()


@pytest.mark.parametrize("epsilon", [1e-6, 1e-9])
def test_sampled_decisions_leave_the_state_of_the_shot_loop(epsilon):
    # overlap 1 (accepted: every shot drawn), 1/2 and 0 (rejected at the
    # first shot reading 1); the twin draws one random() per shot
    r = ring_z12()
    four, two, one = codes(r, 4, 2, 1)
    fours, evens = SubgroupDescriptor(r, (four,)), SubgroupDescriptor(r, (two,))
    p = provider("sampled", seed=9, epsilon=epsilon)
    twin = Random()
    for a, b, overlap, accepted in (
        (fours, SubgroupDescriptor(r, (four, four)), 1, True),
        (fours, evens, Fraction(1, 2), False),
        (SubgroupDescriptor(r, (four,), offset=one), fours, 0, False),
        (evens, evens, 1, True),
    ):
        assert p._exact_overlap(a, b) == overlap
        twin.setstate(p.rng.getstate())
        assert p.is_subset_decision(a, b) == accepted
        p0 = float((1 + overlap * overlap) / 2)
        for _ in range(p._decision_shots()):
            if twin.random() >= p0:
                break
        assert p.rng.getstate() == twin.getstate()


class RecordingProvider(PrimitiveProvider):
    """Keeps every hiding map its solver is given."""

    def __init__(self, config):
        super().__init__(config)
        self.hidings = []

    def solve_ahsp(self, hiding):
        self.hidings.append(hiding)
        return super().solve_ahsp(hiding)


def test_sampled_solve_matches_exact_on_desk_rings():
    for _, spec in DESK_SUITE:
        ring = make_ring(spec, 3)
        rec = RecordingProvider(ProviderConfig(seed=5, epsilon=1e-9))
        basis = decompose_group(ring, ring.generators, rec)  # relation lattice
        span = SubgroupDescriptor(ring, basis.h, basis=basis)
        decompose_elements(ring, [rec.sample_uniform(span)[0] for _ in range(4)], basis, rec)
        assert {h.name for h in rec.hidings} == {"relation-lattice", "element-decomposition"}
        exact = provider(seed=6, epsilon=1e-9)
        sampled = provider("sampled", seed=6, epsilon=1e-9)
        for hiding in rec.hidings:
            assert sampled.solve_ahsp(hiding) == exact.solve_ahsp(hiding)


def record_desk_hidings(spec):
    """The hiding maps one ring_representation, one intersection, one colon
    and one annihilator build on a ring, recorded as solved."""
    ring = make_ring(spec, 3)
    rec = RecordingProvider(ProviderConfig(seed=5, epsilon=1e-9))
    rep = ops.ring_representation(ring, rec)
    span = SubgroupDescriptor(ring, rep.basis.h, basis=rep.basis)
    a, b = (rec.sample_uniform(span)[0] for _ in range(2))
    ia, ib = IdealSpec("left", (a,)), IdealSpec("left", (b,))
    ops.ideal_intersection(ring, ia, ib, rec, rep)
    ops.colon_ideal(ring, ia, ib, rec, rep)
    ops.annihilator(ring, (a,), "left", rec, rep)
    return ring, rec.hidings


def oracle_twin(hiding):
    """The same hiding map behind a post the library did not build."""
    return HidingFunction(
        ring=hiding.ring,
        moduli=hiding.moduli,
        combo_generators=hiding.combo_generators,
        post=lambda code, f=hiding.post: f(code),
        target=hiding.target,
        name=hiding.name,
    )


def stacked_twin(hiding):
    """The same map with the default post but no basis marker: its kernel
    comes from the Hermite form stacked over all combo generators."""
    return HidingFunction(
        ring=hiding.ring,
        moduli=hiding.moduli,
        combo_generators=hiding.combo_generators,
        name=hiding.name,
    )


def assert_span_route_matches_stacked(hiding, seed=6):
    """The marked map read off the basis span gives the stacked route's
    lattice, and its spot check draws the same numbers."""
    assert hiding.over_basis
    by_span = provider(seed=seed, epsilon=1e-9)
    by_stack = provider(seed=seed, epsilon=1e-9)
    assert by_span.solve_ahsp(hiding) == by_stack.solve_ahsp(stacked_twin(hiding))
    assert by_span.rng.getstate() == by_stack.rng.getstate()
    basis_key = (hiding.ring._key, hiding.combo_generators[hiding.over_basis :])
    assert basis_key in by_span._spans and basis_key not in by_stack._spans


def test_coordinate_spot_check_matches_oracle_path_on_desk_rings():
    names = set()
    for _, spec in DESK_SUITE:
        _, hidings = record_desk_hidings(spec)
        for hiding in hidings:
            names.add(hiding.name)
            twin = oracle_twin(hiding)
            assert hiding.additive and not twin.additive
            by_coords = provider(seed=6, epsilon=1e-9)
            by_oracle = provider(seed=6, epsilon=1e-9)
            state = by_coords.rng.getstate()
            assert by_coords.solve_ahsp(hiding) == by_oracle.solve_ahsp(twin)
            assert by_coords.rng.getstate() == state  # the certificate draws nothing
            assert bool(hiding.over_basis) == (hiding.name == "element-decomposition")
            if hiding.over_basis:
                assert_span_route_matches_stacked(hiding)
    assert names == {
        "relation-lattice",
        "element-decomposition",
        "intersection",
        "colon",
        "annihilator",
    }


@settings(
    max_examples=25,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(small_specs(), st.integers(0, 1 << 20))
def test_span_route_matches_stacked_route_on_small_rings(spec, seed):
    ring = make_ring(spec, seed)
    p = provider(seed=seed)
    basis = decompose_group(ring, ring.generators, p)
    span = SubgroupDescriptor(ring, basis.h, basis=basis)
    xs = tuple(p.sample_uniform(span)[0] for _ in range(3))
    hiding = HidingFunction(
        ring=ring,
        moduli=(max(basis.s, default=1),) * len(xs) + basis.s,
        combo_generators=xs + basis.h,
        over_basis=len(xs),
    )
    assert_span_route_matches_stacked(hiding, seed=seed)


def test_span_route_falls_back_outside_the_span():
    r = ring_z12()
    one, eight, four = codes(r, 1, 8, 4)  # <4> has order 3 and misses 1
    hiding = HidingFunction(
        ring=r, moduli=(12, 3), combo_generators=(one, four), over_basis=1
    )
    sub = provider().solve_ahsp(hiding)
    assert sub == provider().solve_ahsp(stacked_twin(hiding))
    # the kernel of z -> z_1 + 4 z_2: (-4, 1) and 12 e_1 span it, not (1, -n)
    assert subgroup_order(sub, hiding.moduli) == 3
    assert in_subgroup(sub, hiding.moduli, (8, 1))
    assert not in_subgroup(sub, hiding.moduli, (0, 1))
    # one element outside the span sends the whole batch the stacked way
    batch = HidingFunction(
        ring=r, moduli=(12, 12, 3), combo_generators=(eight, one, four), over_basis=2
    )
    assert provider().solve_ahsp(batch) == provider().solve_ahsp(stacked_twin(batch))


@settings(
    max_examples=25,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(small_specs(), st.integers(0, 1 << 20), st.sampled_from(("exact", "sampled")))
def test_batched_decomposition_matches_single_elements(spec, seed, backend):
    ring = make_ring(spec, seed)
    basis = decompose_group(ring, ring.generators, provider(seed=seed))
    span = SubgroupDescriptor(ring, basis.h, basis=basis)
    draw = provider(seed=seed)
    xs = [draw.sample_uniform(span)[0] for _ in range(3)]
    xs += [ring._zero_code(), xs[0]]  # the zero element and a repeat
    batched = provider(backend, seed=seed, epsilon=1e-9)
    single = provider(backend, seed=seed + 1, epsilon=1e-9)
    got = decompose_elements(ring, xs, basis, batched)
    assert got == tuple(decompose_element(ring, x, basis, single) for x in xs)


def test_batch_with_an_outsider_raises_before_any_solve():
    r = ring_z12()
    for backend in ("exact", "sampled"):
        p = RecordingProvider(ProviderConfig(backend=backend, seed=5))
        basis = decompose_group(r, codes(r, 4), p)  # <4> = {0, 4, 8}
        solves = len(p.hidings)
        eight, one = codes(r, 8, 1)
        with pytest.raises(MembershipError) as info:
            decompose_elements(r, (eight, one), basis, p)
        assert info.value.index == 1  # the outsider's place in the batch
        assert len(p.hidings) == solves
        memo = p.decomp_memo[(r._key, basis.h, basis.s)]
        assert eight not in memo and one not in memo
        decompose_element(r, eight, basis, p)  # the member alone decomposes
        assert list(memo) == [eight]


class AcceptingProvider(PrimitiveProvider):
    """A provider whose membership test accepts every element, as a wrong
    sampled accept would."""

    def membership(self, x, sub):
        return True


def test_a_wrongly_accepted_non_member_has_low_confidence():
    # 1 is not killed by e = 3 over <4> in Z_12, so the batch map breaks its
    # contract; (0, 1) is killed by e = 2 over <(1, 0)> in Z_2 x Z_2, but
    # the kernel has no column (e_1; w)
    z2xz2 = make_ring(ProductSpec((ModularSpec(2), ModularSpec(2))), 1)
    for ring, gen, outsider in ((ring_z12(), "4", "1"), (z2xz2, "(1, 0)", "(0, 1)")):
        p = AcceptingProvider(ProviderConfig(backend="sampled", seed=5, epsilon=1e-3))
        basis = decompose_group(ring, (parse_element_literal(ring, gen),), p)
        with pytest.raises(LowConfidenceError):
            decompose_element(ring, parse_element_literal(ring, outsider), basis, p)


def test_basis_marker_needs_the_default_post():
    r = ring_z12()
    four, two = codes(r, 4, 2)
    with pytest.raises(PreconditionError):
        HidingFunction(
            ring=r,
            moduli=(3, 6),
            combo_generators=(four, two),
            post=r._coords,
            target=LatticeBuilder((12,)),
            over_basis=1,
        )


@pytest.mark.parametrize("over_basis", [-1, 3])
def test_basis_marker_counts_at_most_the_generators(over_basis):
    r = ring_z12()
    with pytest.raises(PreconditionError):
        HidingFunction(
            ring=r, moduli=(3, 6), combo_generators=codes(r, 4, 2), over_basis=over_basis
        )


class FreshSpans(PrimitiveProvider):
    """Exact provider without span reuse: every span is built from the
    moduli alone, and every decision, nested tuples included, reads an
    overlap counted by enumeration."""

    def _span(self, ring, gens):
        return _Span(ring, gens)

    def _nested_equal(self, a, b):
        return None

    def _exact_overlap(self, a, b):
        ring, zero = a.ring, a.ring._zero_code()

        def coset(d):
            span = verify.additive_span(ring, d.generators + (zero,))
            offset = zero if d.offset is None else d.offset
            return span, {ring.verification.add(offset, x) for x in span}

        (sa, ca), (sb, cb) = coset(a), coset(b)
        return Fraction(len(ca & cb), max(len(sa), len(sb)))


def desk_op_mix(ring, p):
    """A derived-op mix on one ring; yields each op's answer in turn."""
    rep = ops.ring_representation(ring, p)
    yield rep.basis.h, rep.basis.s
    span = SubgroupDescriptor(ring, rep.basis.h, basis=rep.basis)
    a, b = (p.sample_uniform(span)[0] for _ in range(2))
    yield a, b
    ia, ib = IdealSpec("left", (a,)), IdealSpec("two", (b,))
    yield ops.ideal_contains(ring, ia, b, p)
    yield ops.ideal_equal(ring, ia, ib, p)
    meet = ops.ideal_intersection(ring, ia, ib, p, rep)
    yield meet.basis.h, meet.basis.s
    yield ops.colon_ideal(ring, ia, ib, p, rep)
    yield ops.annihilator(ring, (a,), "left", p, rep)
    yield ops.is_unit(ring, a, p, rep)
    yield ops.ring_order(ring, p, rep)


def test_span_reuse_keeps_answers_counts_and_streams():
    """Extended spans and nested decisions read off the shorter span change
    no answer, metered count or random draw against spans built afresh and
    overlaps by enumeration."""
    for i, (_, spec) in enumerate(DESK_SUITE):
        ring, twin = make_ring(spec, 20 + i), make_ring(spec, 20 + i)
        config = ProviderConfig(seed=i, epsilon=1e-9)
        p, ref = PrimitiveProvider(config), FreshSpans(config)
        for got, want in zip(desk_op_mix(ring, p), desk_op_mix(twin, ref), strict=True):
            assert got == want
            assert ring.ledger.snapshot() == twin.ledger.snapshot()
            assert p.rng.getstate() == ref.rng.getstate()
            assert p.stats == ref.stats


@settings(
    max_examples=20,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(small_specs(), st.integers(0, 1 << 20), st.sampled_from(("exact", "sampled")))
def test_hidden_subgroup_ops_keep_their_torus_basis(spec, seed, backend):
    """Each op that reads a hidden subgroup returns the invariant-factor
    basis of its generators without decomposing them again: no
    relation-lattice solve follows its own solve."""
    ring = make_ring(spec, seed)
    rec = RecordingProvider(ProviderConfig(backend=backend, seed=seed, epsilon=1e-9))
    rep = ops.ring_representation(ring, rec)
    span = SubgroupDescriptor(ring, rep.basis.h, basis=rep.basis)
    a, b = (rec.sample_uniform(span)[0] for _ in range(2))
    ia, ib = IdealSpec("left", (a,)), IdealSpec("left", (b,))
    ident = ops.HomomorphismOracle(ring, ring, lambda code: code, name="identity")

    def intersection():
        basis = ops.ideal_intersection(ring, ia, ib, rec, rep).basis
        return basis.h or (ring._zero_code(),), basis

    runs = {
        "intersection": intersection,
        "colon": lambda: ops.colon_ideal(ring, ia, ib, rec, rep),
        "annihilator": lambda: ops.annihilator(ring, (a,), "left", rec, rep),
        "hom-kernel": lambda: ops.hom_kernel(ident, rec, rep),
    }
    for name, run in runs.items():
        start = len(rec.hidings)
        codes, basis = run()
        names = [h.name for h in rec.hidings[start:]]
        assert "relation-lattice" not in names[names.index(name):], name
        fresh = decompose_group(ring, codes, provider(backend, seed=seed + 1, epsilon=1e-9))
        assert (basis.h, basis.s) == (fresh.h, fresh.s), name


def test_annihilator_makes_one_solve_after_the_ring_representation():
    r = ring_z12()
    for backend in ("exact", "sampled"):
        rec = RecordingProvider(ProviderConfig(backend=backend, seed=5))
        rep = ops.ring_representation(r, rec)
        start = len(rec.hidings)
        codes, basis = ops.annihilator(r, (parse_element_literal(r, "4"),), "left", rec, rep)
        assert [h.name for h in rec.hidings[start:]] == ["annihilator"]
        assert basis.s == (4,)  # Ann(4) = <3> in Z_12


def test_hom_kernel_map_keeps_the_oracle_path():
    ring = make_ring(ModularSpec(12), 7)
    rec = RecordingProvider(ProviderConfig(seed=5))
    rho = ops.HomomorphismOracle(ring, ring, lambda code: code, name="identity")
    ops.hom_kernel(rho, rec)
    (hiding,) = (h for h in rec.hidings if h.name == "hom-kernel")
    assert not hiding.additive


def test_coordinate_spot_check_rejects_a_column_outside_the_kernel():
    r = ring_z12()
    gens = codes(r, 1, 4)
    hiding = hiding_for_kernel(r, gens, (12, 3))  # kernel of z -> z_1 + 4 z_2
    assert hiding.additive
    images = [r._coords(g) for g in gens]
    _certify(hiding, images, [(8, 1), (0, 3)])  # kernel vectors pass
    with pytest.raises(HidingContractError):
        _certify(hiding, images, [(8, 1), (0, 1)])  # 4 is not 0 in Z_12


def test_certificate_rejects_a_wrong_modulus():
    # z -> z on Z_6 is no map: 6 is not 0 in Z_12 (the random rounds
    # passed it, and the solver returned the trivial subgroup)
    r = ring_z12()
    hiding = hiding_for_kernel(r, codes(r, 1), (6,))
    with pytest.raises(HidingContractError):
        provider().solve_ahsp(hiding)
    hiding = hiding_for_kernel(r, codes(r, 4), (6,))
    assert subgroup_order(provider().solve_ahsp(hiding), hiding.moduli) == 2


def test_certificate_rejects_a_wrong_modulus_over_a_basis():
    r = ring_z12()
    p = provider()
    basis = decompose_group(r, r.generators, p)
    (four,) = codes(r, 4)  # of order 3; the basis span is all of Z_12
    for s, ok in ((3, True), (6, True), (2, False), (4, False)):
        hiding = HidingFunction(
            ring=r,
            moduli=(s,) + basis.s,
            combo_generators=(four,) + basis.h,
            over_basis=1,
        )
        if ok:
            assert p.solve_ahsp(hiding) == p.solve_ahsp(stacked_twin(hiding))
        else:
            with pytest.raises(HidingContractError):
                p.solve_ahsp(hiding)


def test_coordinate_spot_check_makes_no_oracle_call(monkeypatch):
    ring, hidings = record_desk_hidings(MatrixSpec(2, ModularSpec(2)))
    calls = {"add": 0, "mul": 0}

    def counted(name, raw):
        def wrapped(a, b):
            calls[name] += 1
            return raw(a, b)

        return wrapped

    monkeypatch.setattr(ring, "_raw_add", counted("add", ring._raw_add))
    monkeypatch.setattr(ring, "_raw_mul", counted("mul", ring._raw_mul))
    defaults = [h for h in hidings if h.name in ("relation-lattice", "element-decomposition")]
    assert defaults
    for hiding in defaults:
        provider().solve_ahsp(hiding)
    assert calls == {"add": 0, "mul": 0}
    provider().solve_ahsp(oracle_twin(max(defaults, key=lambda h: len(h.moduli))))
    assert calls["add"] > 0  # the counters see the oracle path


def test_sample_uniform_makes_no_oracle_call(monkeypatch):
    # the sample is summed in coordinates and encoded once; counted as the
    # coordinate spot check counts, by wrapping the ring's raw oracles
    for _, spec in DESK_SUITE[:7]:
        ring = make_ring(spec, 4)
        p = provider(seed=8)
        basis = ops.ring_representation(ring, p).basis
        span = SubgroupDescriptor(ring, basis.h, basis=basis)
        calls = {"add": 0, "mul": 0}
        raw = {"add": ring._raw_add, "mul": ring._raw_mul}

        def counted(name):
            def wrapped(a, b):
                calls[name] += 1
                return raw[name](a, b)

            return wrapped

        with monkeypatch.context() as patch:
            patch.setattr(ring, "_raw_add", counted("add"))
            patch.setattr(ring, "_raw_mul", counted("mul"))
            samples = [p.sample_uniform(span) for _ in range(20)]
        assert calls == {"add": 0, "mul": 0}
        zero = ring._zero_code()
        for code, coeffs in samples:
            assert code == combine_codes(ring.unmetered, basis.h, coeffs, zero)


def test_solve_ahsp_constant_function():
    r = make_ring(ModularSpec(6), 2)
    (one,) = codes(r, 1)
    hiding = HidingFunction(
        ring=r,
        moduli=(6,),
        combo_generators=(one,),
        post=lambda c: (0,),
        target=LatticeBuilder((6,)),
    )
    p = provider()
    sub = p.solve_ahsp(hiding)
    assert subgroup_order(sub, hiding.moduli) == 6


def test_hiding_contract_violation_detected():
    r = ring_z12()
    (one,) = codes(r, 1)
    # labels collapse non-coset-consistently: v -> v // 5 is not additive
    lits = {codes(r, v)[0]: v for v in range(12)}
    bad_post = lambda c: (lits[c] // 5,)  # not constant on cosets of any subgroup
    hiding = HidingFunction(
        ring=r,
        moduli=(12,),
        combo_generators=(one,),
        post=bad_post,
        target=LatticeBuilder((12,)),
    )
    p = provider()
    with pytest.raises(HidingContractError):
        p.solve_ahsp(hiding)


@pytest.mark.parametrize("backend", ["exact", "sampled"])
@pytest.mark.parametrize(
    "moduli", [(0,), (-3,), (12, 12)], ids=["zero", "negative", "count-mismatch"]
)
def test_hiding_rejects_bad_moduli(moduli, backend):
    r = ring_z12()
    with pytest.raises(PreconditionError):
        provider(backend).solve_ahsp(
            HidingFunction(ring=r, moduli=moduli, combo_generators=codes(r, 1))
        )


def test_find_additive_order_examples():
    r = ring_z12()
    four, one = codes(r, 4, 1)
    for backend in ("exact", "sampled"):
        p = provider(backend, seed=3)
        assert p.find_additive_order(r, four) == 3
        assert p.find_additive_order(r, one) == 12
    m = make_ring(MatrixSpec(2, ModularSpec(2)), 1)
    e11 = parse_element_literal(m, "1,0;0,0")
    assert provider().find_additive_order(m, e11) == 2
    assert provider("sampled").find_additive_order(m, e11) == 2


class RecordingRandom(Random):
    """A Random from a given state that keeps the arguments of every
    randrange call."""

    def __init__(self, state):
        super().__init__()
        self.setstate(state)
        self.ranges = []

    def randrange(self, *args):
        self.ranges.append(args)
        return super().randrange(*args)


def replayed(state, ranges):
    """The state a fresh Random from ``state`` reaches after these
    randrange calls and no other draw."""
    twin = Random()
    twin.setstate(state)
    for args in ranges:
        twin.randrange(*args)
    return twin.getstate()


def test_sampled_order_finders_pin_their_draws():
    # additive: outcomes j below the period c = 100, three rounds at this
    # seed, of lcm 25, 50 and 100, each certified through the metered oracle
    # over one doubling table of the element: 4 + 1 + 1 doublings, and 2
    # adds per sum and 1 per check (15 adds in all)
    r = make_ring(ModularSpec(100), 5)
    p = provider("sampled", seed=3)
    start = p.rng.getstate()
    p.rng = RecordingRandom(start)
    (one,) = codes(r, 1)
    assert p.find_additive_order(r, one) == 100
    assert p.rng.ranges == [(100,)] * 3
    assert p.rng.getstate() == replayed(start, p.rng.ranges)
    assert r.ledger.snapshot() == (15, 0)

    # multiplicative, on Z_202 / (101) = Z_101 of 101 cosets: outcomes
    # below the period 100 of 2, not below the coset count; two rounds at
    # this seed, and only the last one certified (9 metered muls for 2^101)
    r = make_ring(ModularSpec(202), 5)
    p = provider("sampled", seed=1)
    basis = decompose_group(r, r.generators, p)
    hundred_one, two = codes(r, 101, 2)
    labels = coset_labels(r, basis, ideal_lattice(r, (hundred_one,), basis, p), p)
    assert labels[1] == 101
    start, before = p.rng.getstate(), r.ledger.snapshot()
    p.rng = RecordingRandom(start)
    assert p.find_multiplicative_order_in_quotient(r, *labels, two) == 100
    assert p.rng.ranges == [(100,)] * 2
    assert p.rng.getstate() == replayed(start, p.rng.ranges)
    assert r.ledger.snapshot() == (before[0], before[1] + 9)


def test_additive_order_checks_each_lcm_once():
    # a round whose running lcm did not grow made the same failed check
    # before it: the certificates of 1, 5, 5, 25, 25, 100 cost those of
    # 1, 5, 25, 100, and the draws are the finder's own
    spent = []
    for accs in ((1, 5, 5, 25, 25, 100), (1, 5, 25, 100)):
        r = make_ring(ModularSpec(100), 5)
        (one,) = codes(r, 1)
        p = provider("sampled", seed=3)
        p._period_estimates = lambda period, bound, accs=accs: iter(accs)
        assert p.find_additive_order(r, one) == 100
        spent.append(r.ledger.snapshot())
    assert spent[0] == spent[1]


def test_memoized_additive_order_draws_and_queries_nothing():
    r = make_ring(ModularSpec(100), 5)
    for backend in ("exact", "sampled"):
        p = provider(backend, seed=3)
        (one,) = codes(r, 1)
        assert p.find_additive_order(r, one) == 100
        seen = (p.rng.getstate(), r.ledger.snapshot(), dict(p.stats))
        assert p.find_additive_order(r, one) == 100
        assert (p.rng.getstate(), r.ledger.snapshot(), p.stats) == seen
        assert p.orders == {(r._key, one): 100}


def test_additive_order_matches_brute_force_both_backends():
    from ringbox.verify import ring_elements

    for spec in (ModularSpec(36), PolyQuotSpec(2, (1, 1, 1))):
        r = make_ring(spec, 5)
        elems = sorted(ring_elements(r), key=lambda c: c.bits)
        chan = r.verification
        for backend in ("exact", "sampled"):
            p = provider(backend, seed=8)
            for a in elems:
                got = p.find_additive_order(r, a)
                # repeated addition: k*a == 0 iff (k*a) + a == a
                k = 1
                cur = a
                while chan.add(cur, a) != a:
                    cur = chan.add(cur, a)
                    k += 1
                assert got == k


def test_sample_uniform_chi_square():
    from ringbox.abelian import decompose_group

    r = ring_z12()
    p = provider(seed=6)
    (four,) = codes(r, 4)
    basis = decompose_group(r, (four,), p)
    desc = SubgroupDescriptor(r, (four,), basis=basis)
    counts = {}
    draws = 3000
    for _ in range(draws):
        code, coeffs = p.sample_uniform(desc)
        counts[code] = counts.get(code, 0) + 1
    assert len(counts) == 3
    expected = draws / 3
    chi2 = sum((n - expected) ** 2 / expected for n in counts.values())
    assert chi2 < 16.27  # chi-square 2 dof, p ~ 3e-4

    trivial_basis = decompose_group(r, codes(r, 0), p)
    desc0 = SubgroupDescriptor(r, codes(r, 0), basis=trivial_basis)
    code, coeffs = p.sample_uniform(desc0)
    assert coeffs == ()
    assert p.membership(code, desc0)


def coset_labels(ring, ring_basis, lat, prov):
    """(label_of, size) of the ring modulo an ideal's coordinate lattice."""
    coords = prov.span_coordinates(ring, ring_basis)
    return (lambda code: lat.reduce(coords(code))), lat.determinant()


def test_multiplicative_order_in_quotient():
    from ringbox.abelian import decompose_group, ideal_lattice

    r = ring_z12()
    p = provider(seed=13)
    ring_basis = decompose_group(r, r.generators, p)
    three, four, two = codes(r, 3, 4, 2)
    for backend in ("exact", "sampled"):
        pb = provider(backend, seed=14)
        lat3 = ideal_lattice(r, (three,), ring_basis, pb)
        labels3 = coset_labels(r, ring_basis, lat3, pb)
        assert pb.find_multiplicative_order_in_quotient(r, *labels3, two) == 2

        lat4 = ideal_lattice(r, (four,), ring_basis, pb)
        labels4 = coset_labels(r, ring_basis, lat4, pb)
        assert pb.find_multiplicative_order_in_quotient(r, *labels4, two) is None

    f4 = make_ring(PolyQuotSpec(2, (1, 1, 1)), 2)
    pf = provider(seed=15)
    x = parse_element_literal(f4, "[0, 1]")
    assert pf.find_multiplicative_order_in_quotient(f4, lambda code: code, 4, x) == 3


def test_mult_order_precondition():
    from ringbox.abelian import decompose_group, ideal_lattice

    r = ring_z12()
    p = provider(seed=16)
    ring_basis = decompose_group(r, r.generators, p)
    three, six = codes(r, 3, 6)
    lat = ideal_lattice(r, (three,), ring_basis, p)
    labels = coset_labels(r, ring_basis, lat, p)
    with pytest.raises(PreconditionError):
        p.find_multiplicative_order_in_quotient(r, *labels, six)  # 6 in (3)


def test_provider_fork_determinism():
    p1 = provider("sampled", seed=42)
    p2 = provider("sampled", seed=42)
    f1 = p1.fork("task")
    f2 = p2.fork("task")
    assert [f1.rng.random() for _ in range(5)] == [f2.rng.random() for _ in range(5)]
    assert p1.fork("other").rng.random() != p1.fork("task2").rng.random()


def popcount(c):
    return bin(c).count("1")


@settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(small_specs(), st.integers(0, 1 << 20), st.data())
def test_doubling_tables_sum_as_the_table_less_route(spec, seed, data):
    ring = make_ring(spec, seed)
    size = spec.order()
    k = data.draw(st.integers(1, 4), label="terms")
    xs = [
        ring._encode(spec.element_at(data.draw(st.integers(0, size - 1), label="element")))
        for _ in range(k)
    ]
    pool = data.draw(st.lists(st.integers(1, 1 << 12), min_size=1, max_size=2), label="pool")
    coeff = st.one_of(st.just(0), st.integers(0, 1 << 12), st.sampled_from(pool))
    cs = [data.draw(coeff, label="coefficient") for _ in range(k)]
    # brute force: the sum of the coefficients times the coordinates
    moduli = spec.additive_moduli()
    total = [0] * len(moduli)
    for c, x in zip(cs, xs):
        total = [a + c * b for a, b in zip(total, ring._coords(x))]
    want = ring._encode(spec.from_coords(tuple(a % m for a, m in zip(total, moduli))))
    zero = ring._zero_code()
    doublings = sum(c.bit_length() - 1 for c in cs if c)
    adds = max(sum(map(popcount, cs)) - 1, 0)

    def cost(*args):
        before = ring.ledger.snapshot()
        got = combine_codes(ring, xs, cs, zero, *args)
        spent = ring.ledger.snapshot()
        return got, spent[0] - before[0], spent[1] - before[1]

    assert cost() == (want, doublings + adds, 0)  # a fresh table per term
    powers = {}
    got, cold, _ = cost(powers)
    assert got == want and cold <= doublings + adds  # a repeated code doubles once
    assert cost(powers) == (want, adds, 0)  # warm: only the set bits
    for x, table in powers.items():
        for b, entry in enumerate(table):
            assert entry == combine_codes(ring.unmetered, (x,), (1 << b,))
    # the session's tables are the provider's, per ring, on the metered channel
    p = provider(seed=seed)
    if not any(cs):
        with pytest.raises(PreconditionError):
            p.combine(ring, xs, cs)  # the empty combination has no zero code
        return
    assert p.combine(ring, xs, cs) == want
    before = ring.ledger.snapshot()
    assert p.combine(ring, xs, cs) == want
    assert ring.ledger.snapshot()[0] - before[0] == adds
    assert set(p.doublings) == {ring._key}


def test_negative_coefficients_are_refused():
    r = ring_z12()
    one, four = codes(r, 1, 4)
    p = provider()
    for powers in (None, {}):
        with pytest.raises(ValueError):
            combine_codes(r, (one, four), (3, -1), None, powers)
    with pytest.raises(ValueError):
        p.combine(r, (four,), (-2,))
