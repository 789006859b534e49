import random
import re
import types
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from ringbox.blackbox import (
    ElementCode,
    MatrixSpec,
    ModularSpec,
    PolyQuotSpec,
    ProductSpec,
    format_element,
    make_ring,
    parse_element_literal,
    parse_ring_file,
    parse_spec_string,
)
from ringbox.verify import ring_elements
from polymul_reference import schoolbook_mul
from ringbox.errors import (
    DeskCapError,
    InvalidCodeError,
    ParseError,
    RingConstructionError,
)

Z12 = ModularSpec(12)
M2Z2 = MatrixSpec(2, ModularSpec(2))
F4 = PolyQuotSpec(2, (1, 1, 1))
Z2xZ9 = ProductSpec((ModularSpec(2), ModularSpec(9)))


def code_of(ring, literal):
    return parse_element_literal(ring, literal)


def test_make_ring_orders():
    r = make_ring(Z12, 7)
    assert len(ring_elements(r)) == 12
    assert r.width >= 4

    r = make_ring(M2Z2, 1)
    assert len(ring_elements(r)) == 16

    r = make_ring(Z2xZ9, 5)
    assert len(ring_elements(r)) == 18


def test_f4_has_no_zero_divisors():
    r = make_ring(F4, 3)
    elems = ring_elements(r)
    assert len(elems) == 4
    zero = code_of(r, "[0, 0]")
    nonzero = [e for e in elems if e != zero]
    for a in nonzero:
        for b in nonzero:
            assert r.verification.mul(a, b) != zero


def test_invalid_specs():
    with pytest.raises(RingConstructionError, match="n"):
        make_ring(ModularSpec(1), 0)
    with pytest.raises(RingConstructionError, match="monic"):
        make_ring(PolyQuotSpec(2, (1, 1, 2)), 0)
    with pytest.raises(RingConstructionError, match="prime"):
        make_ring(PolyQuotSpec(4, (1, 1, 1)), 0)
    with pytest.raises(RingConstructionError, match="k"):
        make_ring(MatrixSpec(0, ModularSpec(2)), 0)


def test_oracle_add_examples():
    r = make_ring(Z12, 11)
    assert r.add(code_of(r, "3"), code_of(r, "4")) == code_of(r, "7")
    assert r.add(code_of(r, "8"), code_of(r, "8")) == code_of(r, "4")
    m = make_ring(M2Z2, 2)
    e11 = code_of(m, "1,0;0,0")
    assert m.add(e11, e11) == code_of(m, "0,0;0,0")


def test_oracle_mul_examples():
    r = make_ring(Z12, 11)
    assert r.mul(code_of(r, "4"), code_of(r, "5")) == code_of(r, "8")
    f = make_ring(F4, 4)
    x = code_of(f, "[0, 1]")
    assert f.mul(x, x) == code_of(f, "[1, 1]")
    m = make_ring(M2Z2, 2)
    e11 = code_of(m, "1,0;0,0")
    e12 = code_of(m, "0,1;0,0")
    assert m.mul(e11, e12) == e12


def test_ledger_counts():
    r = make_ring(Z12, 1)
    a, b = code_of(r, "1"), code_of(r, "2")
    r.add(a, b)
    r.add(a, b)
    r.mul(a, b)
    assert r.ledger.snapshot() == (2, 1)
    r.unmetered.add(a, b)
    assert r.ledger.snapshot() == (2, 1)
    r.verification.add(a, b)
    assert r.ledger.snapshot() == (2, 1)
    assert r.verification_ledger.snapshot() == (1, 0)


def test_invalid_code_rejected():
    r = make_ring(Z12, 1)
    valid = ring_elements(r)
    # padded width guarantees non-element codes exist
    bad = next(
        ElementCode(bits, r.width)
        for bits in range(1 << r.width)
        if ElementCode(bits, r.width) not in valid
    )
    with pytest.raises(InvalidCodeError):
        r.add(bad, code_of(r, "1"))
    with pytest.raises(InvalidCodeError):
        r.mul(code_of(r, "1"), ElementCode(0, r.width + 1))


def test_decode_rejects_a_code_of_another_width():
    r = make_ring(Z12, 1)
    zero = r._zero_code()
    for code in (ElementCode(zero.bits, r.width + 1), ElementCode(zero.bits, r.width - 1)):
        with pytest.raises(InvalidCodeError):
            r._decode(code)
    with pytest.raises(InvalidCodeError):  # the same fields, not a code
        r._decode((zero.bits, r.width))


@given(st.integers(0, 1 << 70), st.integers(1, 72), st.integers(0, 1 << 70), st.integers(1, 72))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_codes_are_equal_iff_bits_and_width_are(b1, w1, b2, w2):
    for b, w in ((b1, w1), (b2, w1), (b1, w2)):
        x, y = ElementCode(b1, w1), ElementCode(b, w)
        same = (b, w) == (b1, w1)
        assert (x == y) is same and (x != y) is not same
        if same:
            assert hash(x) == hash(y)
            assert {x: 1}[y] == 1


def test_code_repr_is_its_bits_in_hex_padded_to_the_width():
    assert repr(ElementCode(0x2A, 8)) == "<code 2a>"
    assert repr(ElementCode(5, 9)) == "<code 005>"
    assert repr(ElementCode(0, 1)) == "<code 0>"
    assert repr((ElementCode(1, 4),)) == "(<code 1>,)"


def test_code_hash_and_equality_run_in_c():
    # every session memo is keyed on codes; a generated Python __hash__ or
    # __eq__ costs one interpreted call per lookup
    for name in ("__hash__", "__eq__"):
        assert not isinstance(getattr(ElementCode, name), types.FunctionType), name


_PRIMES = (2, 3, 5, 7)


@st.composite
def polyquot_operands(draw):
    """A polyquot spec (monic f of degree 1..12, often sparse) and two of
    its elements, also sparse."""
    p = draw(st.sampled_from(_PRIMES))
    d = draw(st.integers(1, 12))
    coeff = st.one_of(st.just(0), st.integers(0, p - 1))
    f = tuple(draw(st.lists(coeff, min_size=d, max_size=d))) + (1,)
    spec = PolyQuotSpec(p, f)
    a, b = (tuple(draw(st.lists(coeff, min_size=d, max_size=d))) for _ in range(2))
    return spec, a, b


@given(polyquot_operands())
@example((PolyQuotSpec(2, (0,) * 10 + (1,)), (1,) * 10, (0, 1) * 5))  # x^10
@example((PolyQuotSpec(2, (1, 1) + (0,) * 61 + (1,)), (1,) * 63, (1, 0, 1) * 21))
@example((PolyQuotSpec(5, (7, 0, 6)), (4, 9), (3, 3)))  # f beyond [0, p)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_polyquot_mul_matches_the_schoolbook_product(operands):
    spec, a, b = operands
    assert spec.mul(a, b) == schoolbook_mul(spec, a, b)
    assert spec.mul(b, a) == schoolbook_mul(spec, b, a)


def test_injectivity_and_determinism():
    for spec in (Z12, M2Z2, F4, Z2xZ9):
        r1 = make_ring(spec, 99)
        r2 = make_ring(spec, 99)
        assert r1.generators == r2.generators
        elems = sorted(ring_elements(r1), key=lambda c: c.bits)
        assert len(elems) == spec.order()
        for a in elems[:6]:
            for b in elems[:6]:
                assert r1.add(a, b) == r2.add(a, b)
                assert r1.mul(a, b) == r2.mul(a, b)
        r3 = make_ring(spec, 100)
        assert r3.generators != r1.generators or spec.order() <= 2


def test_ring_axioms_random_triples():
    rng = random.Random(2024)
    for spec in (Z12, M2Z2, F4, Z2xZ9):
        r = make_ring(spec, 5)
        elems = list(ring_elements(r))
        chan = r.verification
        for _ in range(250):
            a, b, c = (rng.choice(elems) for _ in range(3))
            assert chan.add(a, b) == chan.add(b, a)
            assert chan.add(chan.add(a, b), c) == chan.add(a, chan.add(b, c))
            assert chan.mul(chan.mul(a, b), c) == chan.mul(a, chan.mul(b, c))
            assert chan.mul(a, chan.add(b, c)) == chan.add(
                chan.mul(a, b), chan.mul(a, c)
            )
            assert chan.mul(chan.add(b, c), a) == chan.add(
                chan.mul(b, a), chan.mul(c, a)
            )


def test_desk_cap_refusal():
    r = make_ring(ModularSpec(1 << 21), 0)
    with pytest.raises(DeskCapError):
        ring_elements(r)


def test_parse_spec_strings():
    assert parse_spec_string("modular 12") == Z12
    assert parse_spec_string("matrix 2 over modular 2") == M2Z2
    assert parse_spec_string("polyquot 2 [1, 1, 1]") == F4
    assert parse_spec_string("product(modular 2, modular 9)") == Z2xZ9
    nested = parse_spec_string("product(modular 2, matrix 2 over modular 3)")
    assert nested.factors[1] == MatrixSpec(2, ModularSpec(3))
    with pytest.raises(ParseError):
        parse_spec_string("gadget 3")


def test_parse_ring_file():
    spec = parse_ring_file("ring.kind = modular\nring.n = 12\n")
    assert spec == Z12
    spec = parse_ring_file(
        "# a product ring\nring.kind = product\nring.factors = modular 2, modular 9\n"
    )
    assert spec == Z2xZ9
    spec = parse_ring_file("ring.kind = matrix\nring.k = 2\nring.base = modular 2\n")
    assert spec == M2Z2
    spec = parse_ring_file("ring.kind = polyquot\nring.p = 2\nring.f = 1, 1, 1\n")
    assert spec == F4
    with pytest.raises(ParseError):
        parse_ring_file("ring.kind = modular\n")


def test_literal_round_trip():
    for spec, lits in [
        (Z12, ["0", "7", "11"]),
        (M2Z2, ["1,0;0,1", "0,1;1,0"]),
        (F4, ["[1, 1]", "[0, 1]"]),
        (Z2xZ9, ["(1, 5)", "(0, 0)"]),
    ]:
        r = make_ring(spec, 3)
        for lit in lits:
            code = parse_element_literal(r, lit)
            assert parse_element_literal(r, format_element(r, code)) == code


def test_nested_matrix_literals_are_bracketed():
    # a matrix prints in brackets as a product factor or a matrix cell, and
    # as a,b;c,d at the top level
    for spec, want in [
        (M2Z2, "1,0;0,1"),
        (ProductSpec((ModularSpec(2), M2Z2)), "(1, [1,0;0,1])"),
        (MatrixSpec(2, M2Z2), "[1,0;0,1],[0,0;0,0];[0,0;0,0],[1,0;0,1]"),
        (MatrixSpec(2, F4), "[1, 0],[0, 0];[0, 0],[1, 0]"),
        (MatrixSpec(1, F4), "[1, 0]"),
    ]:
        r = make_ring(spec, 2)
        one = r._encode(spec.one())
        assert format_element(r, one) == want
        assert parse_element_literal(r, want) == one


def test_generators_generate():
    for spec in (
        Z12,
        M2Z2,
        F4,
        Z2xZ9,
        MatrixSpec(2, ModularSpec(4)),
        MatrixSpec(1, ModularSpec(6)),
        PolyQuotSpec(3, (1, 1)),
    ):
        r = make_ring(spec, 7)
        assert len(ring_elements(r)) == spec.order()


@given(st.integers(2, 64), st.data())
@settings(max_examples=80, deadline=None)
def test_modular_oracle_matches_construction(n, data):
    r = make_ring(ModularSpec(n), 3)
    a = data.draw(st.integers(0, n - 1))
    b = data.draw(st.integers(0, n - 1))
    ca = parse_element_literal(r, str(a))
    cb = parse_element_literal(r, str(b))
    assert r.add(ca, cb) == parse_element_literal(r, str((a + b) % n))
    assert r.mul(ca, cb) == parse_element_literal(r, str((a * b) % n))


# compact descriptions nested one level deep, every integer in [-3, 13];
# one-level nesting and at most three coefficients keep the rings small
_INT = st.integers(-3, 13).map(str)
_LEAF = st.one_of(
    st.builds("modular {}".format, _INT),
    st.builds(
        "polyquot {} [{}]".format, _INT, st.lists(_INT, max_size=3).map(", ".join)
    ),
)
_DESCRIPTION = st.one_of(
    _LEAF,
    st.lists(_LEAF, max_size=3).map(lambda fs: f"product({', '.join(fs)})"),
    st.builds("matrix {} over {}".format, _INT, _LEAF),
)


@given(_DESCRIPTION, st.integers(0, 60))
@example("matrix 2 over polyquot 0 [1, 1]", 60)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_fuzz_spec_strings_fail_only_as_documented(text, cut):
    # a prefix of a description is malformed input too
    for candidate in (text, text[:cut]):
        try:
            make_ring(parse_spec_string(candidate), 1)
        except (ParseError, RingConstructionError):
            pass


# element literals of modular, polyquot, product, matrix-over-product and
# product-with-matrix rings, with one well-formed literal each to splice
# malformed text into
_LITERAL_RINGS = [
    (make_ring(spec, 1), valid)
    for spec, valid in (
        (Z12, "7"),
        (F4, "[1, 1]"),
        (Z2xZ9, "(1, 5)"),
        (MatrixSpec(2, Z2xZ9), "(1, 2), (0, 3); (1, 1), (0, 8)"),
        (ProductSpec((ModularSpec(2), M2Z2)), "(1, [1,0;0,1])"),
    )
]


@given(st.text(alphabet="0123456789-+ ,;()[]xae", max_size=24), st.integers(0, 40))
@example("((1, 2), 3)", 0)
@example("(1, (2, 3)); (", 40)
@example("[1, , 2]", 3)
@example("", 0)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_fuzz_element_literals_fail_only_as_parse_errors(text, cut):
    for ring, valid in _LITERAL_RINGS:
        for candidate in (text, valid[:cut] + text + valid[cut:]):
            try:
                parse_element_literal(ring, candidate)
            except ParseError:
                pass


def test_code_bits_opacity_outside_blackbox():
    # no module except blackbox (construction) and cli (display) may touch
    # the bit content of an ElementCode
    src_dir = Path(__file__).resolve().parent.parent / "src" / "ringbox"
    for path in src_dir.glob("*.py"):
        if path.name in ("blackbox.py", "cli.py"):
            continue
        text = path.read_text()
        assert not re.search(r"\.bits\b", text), f"{path.name} inspects code bits"
