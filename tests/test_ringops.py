import itertools
import random
from types import SimpleNamespace

import pytest

from ringbox import ringops as ops
from ringbox import verify
from ringbox.blackbox import (
    MatrixSpec,
    ModularSpec,
    PolyQuotSpec,
    ProductSpec,
    make_ring,
    parse_element_literal,
)
from ringbox.errors import HidingContractError, PreconditionError
from ringbox.idealcore import IdealSpec
from ringbox.intlinalg import LatticeBuilder
from ringbox.qsim import PrimitiveProvider, ProviderConfig
from ringbox.ringops import HomomorphismOracle, _quotient_is_field


def provider(backend="exact", seed=1, **kw):
    return PrimitiveProvider(ProviderConfig(backend=backend, seed=seed, **kw))


@pytest.fixture(scope="module")
def z12():
    r = make_ring(ModularSpec(12), 7)
    p = provider()
    rep = ops.ring_representation(r, p)
    return r, p, rep


def lit(ring, s):
    return parse_element_literal(ring, s)


def test_ideal_equal(z12):
    r, p, rep = z12
    I2 = IdealSpec("left", (lit(r, "2"),))
    I10 = IdealSpec("left", (lit(r, "10"),))
    I3 = IdealSpec("left", (lit(r, "3"),))
    assert ops.ideal_equal(r, I2, I10, p)
    assert not ops.ideal_equal(r, I2, I3, p)
    assert ops.ideal_equal(r, I2, I2, p)


def test_ideal_contains(z12):
    r, p, rep = z12
    I4 = IdealSpec("left", (lit(r, "4"),))
    assert ops.ideal_contains(r, I4, lit(r, "8"), p)
    assert not ops.ideal_contains(r, I4, lit(r, "2"), p)
    zero = ops.additive_identity(r, p)
    for gen in ("1", "3", "4"):
        assert ops.ideal_contains(r, IdealSpec("left", (lit(r, gen),)), zero, p)


def test_units_and_inverse(z12):
    r, p, rep = z12
    assert ops.is_unit(r, lit(r, "5"), p, rep)
    assert ops.inverse(r, lit(r, "5"), p, rep) == lit(r, "5")
    assert not ops.is_unit(r, lit(r, "4"), p, rep)
    with pytest.raises(PreconditionError):
        ops.inverse(r, lit(r, "4"), p, rep)

    f4 = make_ring(PolyQuotSpec(2, (1, 1, 1)), 2)
    pf = provider()
    frep = ops.ring_representation(f4, pf)
    x = lit(f4, "[0, 1]")
    assert ops.is_unit(f4, x, pf, frep)
    assert ops.inverse(f4, x, pf, frep) == lit(f4, "[1, 1]")


def test_intersection_examples(z12):
    r, p, rep = z12
    I4 = IdealSpec("left", (lit(r, "4"),))
    I6 = IdealSpec("left", (lit(r, "6"),))
    I2 = IdealSpec("left", (lit(r, "2"),))
    I3 = IdealSpec("left", (lit(r, "3"),))
    assert ops.ideal_intersection(r, I4, I6, p, rep).order() == 1
    inter = ops.ideal_intersection(r, I2, I3, p, rep)
    assert inter.order() == 2
    assert ops.ideal_intersection(r, I4, I4, p, rep).order() == 3


def test_colon_examples(z12):
    r, p, rep = z12
    I4 = IdealSpec("left", (lit(r, "4"),))
    I2 = IdealSpec("left", (lit(r, "2"),))
    I0 = IdealSpec("left", (lit(r, "0"),))
    I1 = IdealSpec("left", (lit(r, "1"),))
    _, basis = ops.colon_ideal(r, I4, I2, p, rep)
    assert basis.order() == 6
    _, basis = ops.colon_ideal(r, I0, I4, p, rep)
    assert basis.order() == 4
    _, basis = ops.colon_ideal(r, I4, I1, p, rep)  # (I : R) = I for two-sided I
    assert basis.order() == 3


def test_annihilator_examples(z12):
    r, p, rep = z12
    codes, basis = ops.annihilator(r, (lit(r, "4"),), "left", p, rep)
    assert basis.order() == 4
    codes, basis = ops.annihilator(r, (lit(r, "1"),), "left", p, rep)
    assert basis.order() == 1

    m = make_ring(MatrixSpec(2, ModularSpec(2)), 3)
    pm = provider()
    mrep = ops.ring_representation(m, pm)
    e11 = lit(m, "1,0;0,0")
    codes, basis = ops.annihilator(m, (e11,), "left", pm, mrep)
    elems = verify.ring_elements(m)
    want = verify.annihilator_set(m, (e11,), "left", elems)
    assert basis.order() == len(want) == 4
    got = verify.additive_span(m, codes)
    assert got == want


def test_orders(z12):
    r, p, rep = z12
    assert ops.ideal_order(r, IdealSpec("left", (lit(r, "4"),)), p) == 3
    assert ops.ring_order(r, p, rep) == 12
    assert ops.ideal_order(r, IdealSpec("left", (lit(r, "0"),)), p) == 1
    m = make_ring(MatrixSpec(2, ModularSpec(2)), 1)
    pm = provider()
    assert ops.ring_order(m, pm) == 16


def test_solve_linear(z12):
    r, p, rep = z12
    x = ops.solve_linear(r, lit(r, "4"), lit(r, "8"), p, rep)
    assert r.verification.mul(lit(r, "4"), x) == lit(r, "8")
    assert ops.solve_linear(r, lit(r, "4"), lit(r, "2"), p, rep) is None
    one = ops.multiplicative_identity(r, p, rep)
    b = lit(r, "9")
    assert ops.solve_linear(r, one, b, p, rep) == b


def test_additive_identity_found_once_per_session():
    r = make_ring(ModularSpec(12), 7)
    for backend in ("exact", "sampled"):
        p = provider(backend, seed=3)
        zero = ops.additive_identity(r, p)
        assert zero == lit(r, "0")
        seen = (r.ledger.snapshot(), p.rng.getstate(), dict(p.stats))
        assert ops.additive_identity(r, p) == zero
        assert (r.ledger.snapshot(), p.rng.getstate(), p.stats) == seen
        assert p.zeros == {r._key: zero}


def test_identities(z12):
    r, p, rep = z12
    assert ops.multiplicative_identity(r, p, rep) == lit(r, "1")
    assert ops.additive_identity(r, p) == lit(r, "0")
    assert ops.additive_inverse(r, lit(r, "4"), p) == lit(r, "8")
    zero = lit(r, "0")
    assert ops.additive_inverse(r, zero, p) == zero

    pr = make_ring(ProductSpec((ModularSpec(2), ModularSpec(9))), 4)
    pp = provider()
    assert ops.multiplicative_identity(pr, pp) == lit(pr, "(1, 1)")

    m = make_ring(MatrixSpec(2, ModularSpec(2)), 1)
    pm = provider()
    assert ops.multiplicative_identity(m, pm) == lit(m, "1,0;0,1")


def test_identity_error_path_on_sub_ideal():
    # the rng (2) in Z_12 has no multiplicative identity: 2r = 1 mod 6 unsolvable
    from ringbox.idealcore import find_basis_representation

    r = make_ring(ModularSpec(12), 7)
    p = provider()
    rep2 = find_basis_representation(r, IdealSpec("left", (lit(r, "2"),)), p)
    with pytest.raises(PreconditionError):
        ops.multiplicative_identity(r, p, rep2)


def mod_hom(src, dst):
    def mapping(code):
        value = src._decode(code)
        return dst._encode(value % dst.spec.n)

    return HomomorphismOracle(src, dst, mapping, name="reduce")


def test_hom_kernel_injective_surjective():
    r12 = make_ring(ModularSpec(12), 7)
    r6 = make_ring(ModularSpec(6), 8)
    p = provider()
    rho = mod_hom(r12, r6)
    codes, basis = ops.hom_kernel(rho, p)
    kernel = verify.additive_span(r12, codes)
    want = {c for c in verify.ring_elements(r12) if r12._decode(c) % 6 == 0}
    assert kernel == want
    assert basis.order() == 2
    assert not ops.is_injective(rho, p)
    assert ops.is_surjective(rho, p)

    ident = HomomorphismOracle(r12, r12, lambda c: c, name="id")
    codes, basis = ops.hom_kernel(ident, p)
    assert basis.order() == 1
    assert ops.is_injective(ident, p)
    assert ops.is_surjective(ident, p)


def test_hom_scaling_by_idempotent():
    # x -> 4x on Z_12 is additive and (since 4^2 = 4) multiplicative
    r12 = make_ring(ModularSpec(12), 7)
    p = provider()
    four = lit(r12, "4")

    def scale(code):
        return r12.unmetered.mul(four, code)

    rho = HomomorphismOracle(r12, r12, scale, name="scale4")
    codes, basis = ops.hom_kernel(rho, p)
    kernel = verify.additive_span(r12, codes)
    want = {c for c in verify.ring_elements(r12) if (4 * r12._decode(c)) % 12 == 0}
    assert kernel == want
    assert basis.order() == 4  # kernel = (3)
    assert not ops.is_injective(rho, p)
    assert not ops.is_surjective(rho, p)


def test_hom_contract_violation_rejected():
    r12 = make_ring(ModularSpec(12), 7)
    p = provider()

    def crooked(code):
        # x -> x + 1 is neither additive nor multiplicative
        v = r12._decode(code)
        return r12._encode((v + 1) % 12)

    rho = HomomorphismOracle(r12, r12, crooked, name="shift")
    with pytest.raises(HidingContractError):
        ops.hom_kernel(rho, p)


def test_hom_non_surjective():
    r12 = make_ring(ModularSpec(12), 7)
    p = provider()
    # embed Z_6 -> Z_12 additively is not a ring hom; instead test image of
    # reduce Z_12 -> Z_12 composed with projection onto (4): use mod map to Z_6
    # then lift: simplest honest case: identity on Z_12 restricted... use the
    # mod map into Z_6 but compare against a bigger codomain: map Z_6 -> Z_6
    # by x -> x is surjective; non-surjective example: Z_6 -> Z_6, x -> 3x is
    # not multiplicative; use instead the reduce map Z_12 -> Z_12 (identity)
    # versus reduce into the subring image of x -> x mod 4 lifted *3:
    # x mod 12 -> 4*(x mod 3) is a ring hom Z_12 -> Z_12? check: additive yes;
    # multiplicative: 4ab vs 4a*4b=16ab=4ab mod 12: yes (4 idempotent mod 12).
    r12 = make_ring(ModularSpec(12), 9)

    def mapping(code):
        v = r12._decode(code)
        return r12._encode((4 * (v % 3)) % 12)

    rho = HomomorphismOracle(r12, r12, mapping, name="proj4")
    assert not ops.is_surjective(rho, p)
    codes, basis = ops.hom_kernel(rho, p)
    assert basis.order() == 4  # kernel = multiples of 3


def test_prime_examples(z12):
    r, p, rep = z12
    assert ops.is_prime_ideal(r, IdealSpec("two", (lit(r, "3"),)), p, rep).prime
    assert not ops.is_prime_ideal(r, IdealSpec("two", (lit(r, "4"),)), p, rep).prime
    assert ops.is_prime_ideal(r, IdealSpec("two", (lit(r, "2"),)), p, rep).prime
    with pytest.raises(PreconditionError):
        ops.is_prime_ideal(r, IdealSpec("two", (lit(r, "1"),)), p, rep)


def test_prime_period_finding_path(z12):
    r, p, rep = z12
    v = ops.is_prime_ideal(
        r, IdealSpec("two", (lit(r, "3"),)), p, rep, use_period_finding=True
    )
    assert v.prime
    v = ops.is_prime_ideal(
        r, IdealSpec("two", (lit(r, "4"),)), p, rep, use_period_finding=True
    )
    assert not v.prime


def test_prime_zero_ideal_in_field():
    f4 = make_ring(PolyQuotSpec(2, (1, 1, 1)), 5)
    p = provider()
    rep = ops.ring_representation(f4, p)
    v = ops.is_prime_ideal(f4, IdealSpec("two", (lit(f4, "[0,0]"),)), p, rep)
    assert v.prime

    # M_2(Z_2): the zero ideal is maximal two-sided but not prime (zero divisors)
    m = make_ring(MatrixSpec(2, ModularSpec(2)), 3)
    pm = provider()
    mrep = ops.ring_representation(m, pm)
    v = ops.is_prime_ideal(m, IdealSpec("two", (lit(m, "0,0;0,0"),)), pm, mrep)
    assert not v.prime
    elems = verify.ring_elements(m)
    zero_set = frozenset({lit(m, "0,0;0,0")})
    assert not verify.is_prime_by_definition(m, zero_set, elems)


P61 = 2**61 - 1  # 3 mod 4, so x^2 + 1 is irreducible over F_P61


@pytest.mark.parametrize(
    "spec, generator, want",
    [
        (ModularSpec(2_251_799_813_687_339), "0", True),
        (ModularSpec(2**64), "2", True),
        (ModularSpec(2**64), "4", False),
        # x^16 + x^14 + x^13 + x^11 + 1 is irreducible over F_2
        (PolyQuotSpec(2, (1,) + (0,) * 10 + (1, 0, 1, 1, 0, 1)), "[0]", True),
        (PolyQuotSpec(P61, (1, 0, 1)), "[0]", True),
        (PolyQuotSpec(P61, (P61 - 1, 0, 1)), "[0]", False),  # (x - 1)(x + 1)
        (PolyQuotSpec(P61, (P61 - 1, 0, 1)), "[1, 1]", True),
        (MatrixSpec(2, ModularSpec(65536)), "0,0;0,0", False),
    ],
)
def test_prime_field_test_beyond_the_desk_cap(spec, generator, want):
    ring = make_ring(spec, 3)
    for backend in ("exact", "sampled"):
        p = provider(backend)
        v = ops.is_prime_ideal(ring, IdealSpec("two", (lit(ring, generator),)), p)
        assert (v.prime, v.trials, v.confidence) == (want, 0, 1.0)


def test_prime_refuses_a_characteristic_above_the_exact_bound():
    ring = make_ring(ModularSpec(2**89 - 1), 3)
    with pytest.raises(PreconditionError, match="not decided"):
        ops.is_prime_ideal(ring, IdealSpec("two", (lit(ring, "0"),)), provider())


def structure_tensor(basis, mul, p):
    """M[i][j] = coordinates of basis[i] * basis[j] over ``basis`` mod p."""
    width = len(basis[0])
    combos = {
        tuple(sum(c * b[t] for c, b in zip(cs, basis)) % p for t in range(width)): cs
        for cs in itertools.product(range(p), repeat=len(basis))
    }
    return tuple(tuple(combos[mul(x, y)] for y in basis) for x in basis)


def test_field_test_refuses_a_noncommutative_quotient():
    """In this basis of M_2(F_3) the cubes of the basis vectors are
    independent and fix a 1-dimensional space, so only the commutativity
    check tells the algebra from a field."""

    def mat_mul(x, y):
        a, b, c, d = x
        e, f, g, h = y
        return tuple(
            v % 3 for v in (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
        )

    basis = [(2, 2, 2, 1), (2, 2, 2, 0), (1, 1, 2, 0), (2, 0, 1, 1)]
    rep = SimpleNamespace(orders=(3,) * 4, tensor=structure_tensor(basis, mat_mul, 3))
    assert not _quotient_is_field(rep, LatticeBuilder((3,) * 4))

    def f9_mul(x, y):  # F_3[i]/(i^2 + 1), as (re, im)
        return ((x[0] * y[0] - x[1] * y[1]) % 3, (x[0] * y[1] + x[1] * y[0]) % 3)

    tensor = structure_tensor([(1, 1), (2, 0)], f9_mul, 3)
    rep = SimpleNamespace(orders=(3, 3), tensor=tensor)
    assert _quotient_is_field(rep, LatticeBuilder((3, 3)))


def test_prime_needs_two_sided_ideal():
    # M_2(Z_2) is simple, so the left ideal of E11 is not two-sided
    m = make_ring(MatrixSpec(2, ModularSpec(2)), 3)
    pm = provider()
    e11 = lit(m, "1,0;0,0")
    for side in ("left", "right"):
        with pytest.raises(PreconditionError):
            ops.is_prime_ideal(m, IdealSpec(side, (e11,)), pm)
    with pytest.raises(PreconditionError):  # two-sided, it is the whole ring
        ops.is_prime_ideal(m, IdealSpec("two", (e11,)), pm)


def test_inverse_times_element_is_identity():
    rng = random.Random(3)
    r = make_ring(ModularSpec(36), 2)
    p = provider()
    rep = ops.ring_representation(r, p)
    one = ops.multiplicative_identity(r, p, rep)
    units = verify.unit_table(r, verify.ring_elements(r))
    for u in sorted(units, key=lambda c: c.bits):
        assert ops.is_unit(r, u, p, rep)
        inv = ops.inverse(r, u, p, rep)
        assert r.verification.mul(u, inv) == one
        assert r.verification.mul(inv, u) == one


def test_ideal_equal_is_equivalence_relation():
    r = make_ring(ModularSpec(12), 4)
    p = provider()
    specs = [IdealSpec("left", (lit(r, str(g)),)) for g in (2, 10, 3, 4, 8, 0, 1, 5)]
    verdicts = {}
    for i, a in enumerate(specs):
        for j, b in enumerate(specs):
            verdicts[i, j] = ops.ideal_equal(r, a, b, p)
    n = len(specs)
    for i in range(n):
        assert verdicts[i, i]
        for j in range(n):
            assert verdicts[i, j] == verdicts[j, i]
            for k in range(n):
                if verdicts[i, j] and verdicts[j, k]:
                    assert verdicts[i, k]


def test_colon_contains_ideal():
    # x in I forces xJ inside I for two-sided I
    r = make_ring(ModularSpec(36), 4)
    p = provider()
    rep = ops.ring_representation(r, p)
    for gi, gj in [(4, 6), (9, 2), (0, 5), (12, 18)]:
        I = IdealSpec("two", (lit(r, str(gi)),))
        J = IdealSpec("two", (lit(r, str(gj)),))
        codes, basis = ops.colon_ideal(r, I, J, p, rep)
        colon_span = verify.additive_span(r, codes)
        i_closure = verify.ideal_closure(r, I.generators, "two")
        assert i_closure <= colon_span


def test_solve_linear_sound_and_complete_random():
    rng = random.Random(5)
    r = make_ring(ModularSpec(36), 6)
    p = provider()
    rep = ops.ring_representation(r, p)
    elems = sorted(verify.ring_elements(r), key=lambda c: c.bits)
    for _ in range(40):
        a, b = rng.choice(elems), rng.choice(elems)
        sols = verify.solve_linear_set(r, a, b, elems)
        got = ops.solve_linear(r, a, b, p, rep)
        if sols:
            assert got in sols
        else:
            assert got is None


def test_solve_linear_sound_and_complete_on_a_matrix_ring():
    # M_2(Z_4): a noncommutative ring where a*x = b has many solutions, so
    # the answer depends on which particular solution the solver reads off
    rng = random.Random(44)
    r = make_ring(MatrixSpec(2, ModularSpec(4)), 6)
    p = provider()
    rep = ops.ring_representation(r, p)
    elems = sorted(verify.ring_elements(r), key=lambda c: c.bits)
    solvable = 0
    for t in range(30):
        a = rng.choice(elems)
        # half the right-hand sides are products a*x, so half are solvable
        b = r.verification.mul(a, rng.choice(elems)) if t % 2 else rng.choice(elems)
        sols = verify.solve_linear_set(r, a, b, elems)
        got = ops.solve_linear(r, a, b, p, rep)
        if sols:
            assert got in sols
            solvable += 1
        else:
            assert got is None
    assert solvable >= 15


@pytest.mark.parametrize(
    "spec",
    [
        MatrixSpec(3, ModularSpec(2)),
        PolyQuotSpec(2, (1, 1, 0, 1) + (0,) * 12 + (1,)),  # x^16 + x^3 + x + 1
    ],
)
def test_multiplicative_identity_decodes_to_one(spec):
    r = make_ring(spec, 5)
    assert r._decode(ops.multiplicative_identity(r, provider())) == spec.one()
