import random
from math import log2

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ringbox import ringops as ops
from ringbox import verify
from ringbox.blackbox import (
    MatrixSpec,
    ModularSpec,
    PolyQuotSpec,
    make_ring,
    parse_element_literal,
)
from ringbox.errors import ClosureError, LowConfidenceError
from ringbox.idealcore import (
    IdealSpec,
    accumulate_additive_generators,
    find_basis_representation,
    membership_witness,
    multiplication_tensor,
)
from ringbox.abelian import decompose_group
from ringbox.qsim import PrimitiveProvider, ProviderConfig

from rescan_reference import rescan_accumulate
from test_acceptance import DESK_SUITE
from test_ground_truth import small_specs


def provider(backend="exact", seed=1, **kw):
    return PrimitiveProvider(ProviderConfig(backend=backend, seed=seed, **kw))


def codes(ring, *lits):
    return tuple(parse_element_literal(ring, str(v)) for v in lits)


def eval_prov(ring, prov, ideal_gens, zero):
    return prov.evaluate(ring.verification, ideal_gens, ring.generators, zero)


def test_accumulate_z12_principal():
    r = make_ring(ModularSpec(12), 7)
    p = provider()
    (four,) = codes(r, 4)
    res = accumulate_additive_generators(r, IdealSpec("left", (four,)), p)
    assert res.rounds == 0
    assert verify.additive_span(r, res.codes) == verify.ideal_closure(r, (four,), "left")


def test_accumulate_m2z2_left_ideal_one_round():
    r = make_ring(MatrixSpec(2, ModularSpec(2)), 3)
    p = provider()
    e11 = parse_element_literal(r, "1,0;0,0")
    res = accumulate_additive_generators(r, IdealSpec("left", (e11,)), p)
    closure = verify.ideal_closure(r, (e11,), "left")
    assert len(closure) == 4  # {0, E11, E21, E11+E21}
    assert verify.additive_span(r, res.codes) == closure
    assert res.rounds == 1
    assert res.sizes[0] == 2 and res.sizes[-1] == 4


def test_accumulate_trivial_ideal():
    r = make_ring(ModularSpec(12), 7)
    p = provider()
    (zero,) = codes(r, 0)
    res = accumulate_additive_generators(r, IdealSpec("left", (zero,)), p)
    assert res.rounds == 0
    assert res.basis.s == ()
    assert res.basis.order() == 1


def test_find_basis_z12_ideal_4():
    r = make_ring(ModularSpec(12), 7)
    p = provider()
    rep = find_basis_representation(r, IdealSpec("left", codes(r, 4)), p)
    assert rep.orders == (3,)
    assert rep.order() == 3
    assert rep.tensor == (((1,),),)  # 4*4 = 16 = 4 mod 12


def test_find_basis_ring_itself():
    r = make_ring(ModularSpec(12), 7)
    p = provider()
    rep = find_basis_representation(r, IdealSpec("left", codes(r, 1)), p)
    assert rep.orders == (12,)
    assert rep.tensor == (((1,),),)


def test_find_basis_m2z2_left_ideal():
    r = make_ring(MatrixSpec(2, ModularSpec(2)), 3)
    p = provider()
    e11 = parse_element_literal(r, "1,0;0,0")
    rep = find_basis_representation(r, IdealSpec("left", (e11,)), p)
    assert rep.orders == (2, 2)
    # verify tensor by oracle arithmetic
    chan = r.verification
    zero = parse_element_literal(r, "0,0;0,0")
    for i in range(2):
        for j in range(2):
            prod = chan.mul(rep.basis.h[i], rep.basis.h[j])
            acc = zero
            for k in range(2):
                c = rep.tensor[i][j][k]
                for _ in range(c):
                    acc = chan.add(acc, rep.basis.h[k])
            assert acc == prod


def test_tensor_examples():
    r6 = make_ring(ModularSpec(6), 1)
    p = provider()
    basis = decompose_group(r6, codes(r6, 1), p)
    assert multiplication_tensor(r6, basis, p) == (((1,),),)

    f4 = make_ring(PolyQuotSpec(2, (1, 1, 1)), 2)
    pf = provider()
    one = parse_element_literal(f4, "[1, 0]")
    x = parse_element_literal(f4, "[0, 1]")
    basis = decompose_group(f4, (one, x), pf)
    tensor = multiplication_tensor(f4, basis, pf)
    # x*x = x + 1 whichever order the basis came out in
    chan = f4.verification
    for i in range(2):
        for j in range(2):
            prod = chan.mul(basis.h[i], basis.h[j])
            acc = None
            for k in range(2):
                c = tensor[i][j][k]
                for _ in range(c):
                    acc = basis.h[k] if acc is None else chan.add(acc, basis.h[k])
            if acc is not None:
                assert acc == prod


def test_tensor_closure_error():
    f4 = make_ring(PolyQuotSpec(2, (1, 1, 1)), 2)
    p = provider()
    x = parse_element_literal(f4, "[0, 1]")
    basis = decompose_group(f4, (x,), p)  # {0, x} not multiplicatively closed
    with pytest.raises(ClosureError, match=r"h_1 \* h_1 escapes"):
        multiplication_tensor(f4, basis, p)
    # {E12, E21} in M_2(Z_2): E12 E12 = 0 lies in the span, E12 E21 = E11 not
    m = make_ring(MatrixSpec(2, ModularSpec(2)), 1)
    gens = (parse_element_literal(m, "0,1;0,0"), parse_element_literal(m, "0,0;1,0"))
    basis = decompose_group(m, gens, p)
    assert basis.h == gens
    with pytest.raises(ClosureError, match=r"h_1 \* h_2 escapes"):
        multiplication_tensor(m, basis, p)


def test_augmentation_doubling_and_round_bound():
    rng = random.Random(11)
    for spec, seed in [
        (MatrixSpec(2, ModularSpec(2)), 4),
        (ModularSpec(36), 5),
        (PolyQuotSpec(2, (1, 0, 1, 1)), 6),
    ]:
        r = make_ring(spec, seed)
        elems = sorted(verify.ring_elements(r), key=lambda c: c.bits)
        for trial in range(6):
            gens = tuple(rng.choice(elems) for _ in range(rng.randint(1, 2)))
            side = "left" if trial % 2 == 0 else "two"
            p = provider(seed=trial)
            res = accumulate_additive_generators(r, IdealSpec(side, gens), p)
            closure = verify.ideal_closure(r, gens, side)
            # Lemma-style termination check: span equals the ideal closure
            assert verify.additive_span(r, res.codes) == closure
            assert res.rounds <= log2(max(2, len(closure)))
            for before, after in zip(res.sizes, res.sizes[1:]):
                assert after >= 2 * before
            # closure property: r*B and B*r inside B for every ring generator
            chan = r.verification
            for rg in r.generators:
                for b in closure:
                    if side in ("left", "two"):
                        assert chan.mul(rg, b) in closure
                    if side in ("right", "two"):
                        assert chan.mul(b, rg) in closure


def test_provenance_soundness():
    rng = random.Random(13)
    for spec, seed in [
        (ModularSpec(12), 1),
        (MatrixSpec(2, ModularSpec(2)), 2),
        (PolyQuotSpec(2, (1, 1, 1)), 3),
    ]:
        r = make_ring(spec, seed)
        elems = sorted(verify.ring_elements(r), key=lambda c: c.bits)
        zero = verify.find_zero(r, elems)
        for trial in range(4):
            gens = tuple(rng.choice(elems) for _ in range(rng.randint(1, 2)))
            p = provider(seed=trial)
            res = accumulate_additive_generators(r, IdealSpec("left", gens), p)
            for code, prov in res.entries:
                assert eval_prov(r, prov, gens, zero) == code
            rep = find_basis_representation(r, IdealSpec("left", gens), provider(seed=trial))
            for h, prov in zip(rep.basis.h, rep.provenance):
                assert eval_prov(r, prov, gens, zero) == h


def test_membership_witness():
    r = make_ring(ModularSpec(12), 7)
    p = provider()
    gens = codes(r, 4)
    rep = find_basis_representation(r, IdealSpec("left", gens), p)
    elems = sorted(verify.ring_elements(r), key=lambda c: c.bits)
    zero = verify.find_zero(r, elems)
    (eight,) = codes(r, 8)
    w = membership_witness(r, eight, rep, p)
    assert eval_prov(r, w, gens, zero) == eight
    # identity witness on a generator
    w = membership_witness(r, gens[0], rep, p)
    assert eval_prov(r, w, gens, zero) == gens[0]

    m = make_ring(MatrixSpec(2, ModularSpec(2)), 3)
    pm = provider()
    e11 = parse_element_literal(m, "1,0;0,0")
    e21 = parse_element_literal(m, "0,0;1,0")
    mrep = find_basis_representation(m, IdealSpec("left", (e11,)), pm)
    melems = sorted(verify.ring_elements(m), key=lambda c: c.bits)
    mzero = verify.find_zero(m, melems)
    w = membership_witness(m, e21, mrep, pm)
    assert eval_prov(m, w, (e11,), mzero) == e21


def test_membership_witness_rejects_outsider():
    from ringbox.errors import MembershipError

    r = make_ring(ModularSpec(12), 7)
    p = provider()
    gens = codes(r, 4)
    rep = find_basis_representation(r, IdealSpec("left", gens), p)
    (two,) = codes(r, 2)
    with pytest.raises(MembershipError):
        membership_witness(r, two, rep, p)


def test_tensor_ring_laws_through_coordinates():
    # associativity and distributivity expanded through the tensor mod orders
    r = make_ring(PolyQuotSpec(3, (0, 0, 1)), 9)  # Z_3[x]/(x^2)
    p = provider()
    rep = find_basis_representation(r, IdealSpec("left", r.generators), p)
    s = rep.orders
    l = len(s)
    M = rep.tensor

    def mul_vec(u, v):
        out = [0] * l
        for i in range(l):
            if not u[i]:
                continue
            for j in range(l):
                if not v[j]:
                    continue
                for k in range(l):
                    out[k] += u[i] * v[j] * M[i][j][k]
        return tuple(x % s[k] for k, x in enumerate(out))

    import itertools

    basis_vecs = [tuple(1 if t == i else 0 for t in range(l)) for i in range(l)]
    for u, v, w in itertools.product(basis_vecs, repeat=3):
        assert mul_vec(mul_vec(u, v), w) == mul_vec(u, mul_vec(v, w))
        uv_w = mul_vec(tuple((a + b) % s[i] for i, (a, b) in enumerate(zip(u, v))), w)
        sum_uw_vw = tuple(
            (a + b) % s[i] for i, (a, b) in enumerate(zip(mul_vec(u, w), mul_vec(v, w)))
        )
        assert uv_w == sum_uw_vw


def test_sampled_backend_accumulation_matches():
    rng = random.Random(17)
    r = make_ring(ModularSpec(36), 8)
    elems = sorted(verify.ring_elements(r), key=lambda c: c.bits)
    for trial in range(5):
        gens = tuple(rng.choice(elems) for _ in range(rng.randint(1, 2)))
        p = provider("sampled", seed=trial, epsilon=1e-3)
        res = accumulate_additive_generators(r, IdealSpec("left", gens), p)
        assert verify.additive_span(r, res.codes) == verify.ideal_closure(
            r, gens, "left"
        )


BACKENDS = ("exact", "sampled")


@pytest.mark.parametrize("backend", BACKENDS)
def test_accumulation_memo_hit_makes_no_query_decision_or_draw(backend):
    r = make_ring(MatrixSpec(2, ModularSpec(2)), 3)
    p = provider(backend)
    ideal = IdealSpec("left", (parse_element_literal(r, "1,0;0,0"),))
    first = accumulate_additive_generators(r, ideal, p)
    before = (r.ledger.snapshot(), p.stats["decisions"], p.rng.getstate())
    assert accumulate_additive_generators(r, ideal, p) is first
    # the key holds the ring generators the scan resolves, not the argument
    assert accumulate_additive_generators(r, ideal, p, r.generators) is first
    assert (r.ledger.snapshot(), p.stats["decisions"], p.rng.getstate()) == before


@pytest.mark.parametrize("backend", BACKENDS)
def test_tensor_memo_hit_makes_no_query_or_draw(backend):
    spec = MatrixSpec(2, ModularSpec(2))
    r = make_ring(spec, 3)
    p = provider(backend)
    rep = ops.ring_representation(r, p)
    before = (r.ledger.snapshot(), dict(p.stats), p.rng.getstate())
    assert multiplication_tensor(r, rep.basis, p) is rep.tensor
    assert (r.ledger.snapshot(), dict(p.stats), p.rng.getstate()) == before
    held = len(p.tensors)
    other = make_ring(spec, 4)
    tensor = multiplication_tensor(other, ops.ring_representation(other, p).basis, p)
    assert tensor is not rep.tensor
    assert len(p.tensors) == held + 1


@pytest.mark.parametrize("backend", BACKENDS)
def test_accumulation_memo_misses(backend):
    spec = MatrixSpec(2, ModularSpec(2))
    r = make_ring(spec, 3)
    p = provider(backend)
    e11, e12 = (parse_element_literal(r, lit) for lit in ("1,0;0,0", "0,1;0,0"))
    ideal = IdealSpec("left", (e11,))
    first = accumulate_additive_generators(r, ideal, p)
    # another key for the same ring description under which the codes of e11
    # and of r's generators are still elements: passed r's generators, the
    # call differs from the first one in the ring key alone
    shared = {e11, *r.generators}
    other = next(
        ring
        for ring in (make_ring(spec, seed) for seed in range(4, 1000))
        if shared <= verify.ring_elements(ring)
    )
    for ring, spec_, prov, ring_gens in (
        (r, IdealSpec("right", (e11,)), p, None),
        (r, IdealSpec("left", (e11, e12)), p, None),
        (r, ideal, p, r.generators[:1]),
        (other, ideal, p, r.generators),
        (r, ideal, p.fork("memo"), None),
        (r, ideal, provider(backend), None),
    ):
        held = len(prov.accumulations)
        res = accumulate_additive_generators(ring, spec_, prov, ring_gens)
        assert res is not first
        assert len(prov.accumulations) == held + 1


@pytest.mark.parametrize("backend", BACKENDS)
def test_closed_ideal_draws_no_sample(backend):
    # the left ideal {[a, 0; b, 0]} of M_2(Z_2): the swap generator maps it
    # onto itself and E11 into a proper part of it, so each scan entry's
    # containment test accepts at once
    r = make_ring(MatrixSpec(2, ModularSpec(2)), 3)
    p = provider(backend)
    e11, e21 = (parse_element_literal(r, lit) for lit in ("1,0;0,0", "0,0;1,0"))
    res = accumulate_additive_generators(r, IdealSpec("left", (e11, e21)), p)
    assert len(r.generators) == 2
    assert (res.rounds, res.decisions) == (0, 2)
    assert (p.stats["samples"], p.stats["decisions"]) == (0, 2)


@pytest.mark.parametrize("backend", BACKENDS)
def test_exhausted_cap_after_a_rejection_raises(backend, monkeypatch):
    # E21 * E11 = E21 leaves B = {0, E11}, so the containment test rejects
    # for certain; draws forced to B's zero can never leave B
    r = make_ring(MatrixSpec(2, ModularSpec(2)), 3)
    p = provider(backend, epsilon=1e-3)
    e11, zero = (parse_element_literal(r, lit) for lit in ("1,0;0,0", "0,0;0,0"))
    draws = []

    def zero_draw(sub):
        draws.append(sub)
        return zero, (0,) * len(sub.basis.s)

    monkeypatch.setattr(p, "sample_uniform", zero_draw)
    with pytest.raises(LowConfidenceError):
        accumulate_additive_generators(r, IdealSpec("left", (e11,)), p)
    assert len(draws) == 14  # ceil(log2(1/epsilon)) + 4
    assert not p.accumulations


def _answers(r, i_spec, j_spec, x, p, zero):
    inter = ops.ideal_intersection(r, i_spec, j_spec, p)
    colon_codes, _ = ops.colon_ideal(r, i_spec, j_spec, p)
    return (
        ops.ideal_contains(r, i_spec, x, p),
        ops.ideal_equal(r, i_spec, j_spec, p),
        verify.additive_span(r, inter.basis.h) if inter.basis.h else frozenset({zero}),
        verify.additive_span(r, colon_codes),
    )


@pytest.mark.parametrize("backend", BACKENDS)
def test_warm_provider_answers_like_a_cold_one(backend):
    rng = random.Random(19)
    for _, spec in DESK_SUITE:
        r = make_ring(spec, 7)
        elems = sorted(verify.ring_elements(r), key=lambda c: c.bits)
        zero = verify.find_zero(r, elems)
        sides = ("left", "right", "two") if isinstance(spec, MatrixSpec) else ("left",)
        warm = provider(backend, seed=5)
        for trial in range(3):
            side = sides[trial % len(sides)]
            i_spec, j_spec = (IdealSpec(side, (rng.choice(elems),)) for _ in range(2))
            x = rng.choice(elems)
            i_set = verify.ideal_closure(r, i_spec.generators, side)
            j_set = verify.ideal_closure(r, j_spec.generators, side)
            want = (
                x in i_set,
                i_set == j_set,
                i_set & j_set,
                verify.colon_set(r, i_set, j_set, elems),
            )
            cold = _answers(r, i_spec, j_spec, x, provider(backend, seed=5), zero)
            _answers(r, i_spec, j_spec, x, warm, zero)
            assert _answers(r, i_spec, j_spec, x, warm, zero) == cold == want


@pytest.mark.parametrize("backend", BACKENDS)
def test_accumulation_multiplies_each_generator_once_per_scan_entry(backend):
    # every scan entry multiplies each of G = (first basis, adjoined
    # elements) at most once, and each draw makes one more product; over
    # F_2 every adjoined element extends the basis, so no entry takes the
    # current basis instead and the count is exact
    trunc = make_ring(PolyQuotSpec(2, (0,) * 10 + (1,)), 5)
    m = make_ring(MatrixSpec(2, ModularSpec(4)), 5)
    cases = [(trunc, IdealSpec("left", trunc.generators))] + [
        (m, IdealSpec("two", (parse_element_literal(m, lit),)))
        for lit in ("1,0;0,0", "2,0;0,0", "0,2;0,0", "1,2;0,3")
    ]
    grew = 0
    for r, spec in cases:
        p = provider(backend, seed=3)
        muls, draws = r.ledger.mul_count, p.stats["samples"]
        res = accumulate_additive_generators(r, spec, p)
        muls, draws = r.ledger.mul_count - muls, p.stats["samples"] - draws
        plan = len(r.generators) * (2 if spec.side == "two" else 1)
        first = decompose_group(r, spec.generators, p)  # memoized: no query
        once = plan * (len(first.h) + res.rounds) + draws
        assert muls == once if r is trunc else muls <= once
        grew += res.rounds > 1
    assert grew  # a rescan of the whole basis would make more products


@settings(
    max_examples=12,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(
    small_specs(),
    st.integers(0, 1 << 20),
    st.sampled_from(("left", "right", "two")),
    st.sampled_from(BACKENDS),
)
def test_accumulation_decides_like_a_full_rescan(spec, seed, side, backend):
    # twin rings and providers: the reference loop rescans the whole basis
    # after every augmentation; the library's must match its result,
    # decisions and random stream with no more products, and multiply each
    # element of G at most once per scan entry
    rng = random.Random(seed)
    twins = [make_ring(spec, seed) for _ in range(2)]
    elems = sorted(verify.ring_elements(twins[0]), key=lambda c: c.bits)
    ideal = IdealSpec(side, tuple(rng.choice(elems) for _ in range(rng.randint(1, 2))))
    twin_providers = [provider(backend, seed=seed) for _ in range(2)]
    res, ref = (
        accumulate(r, ideal, p)
        for r, p, accumulate in zip(
            twins, twin_providers, (accumulate_additive_generators, rescan_accumulate)
        )
    )
    (r, r_ref), (p, p_ref) = twins, twin_providers
    assert res == ref
    assert p.stats == p_ref.stats
    assert p.rng.getstate() == p_ref.rng.getstate()
    (adds, muls), (ref_adds, ref_muls) = r.ledger.snapshot(), r_ref.ledger.snapshot()
    assert adds == ref_adds and muls <= ref_muls
    plan = len(r.generators) * (2 if side == "two" else 1)
    first = decompose_group(r, ideal.generators, p)  # memoized: no query
    assert muls <= plan * (len(first.h) + res.rounds) + p.stats["samples"]
