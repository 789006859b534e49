"""Finite rings hidden behind opaque element codes.

Concrete rings (integers mod n, direct products, square matrix rings, and
prime-field polynomial quotients) are built from a small description and then
wrapped in a seed-keyed injective encoding.  Downstream code sees only opaque
``ElementCode`` values plus two oracles (add, mul), a generator list, and a
query ledger.

Discipline: nothing outside this module (and the CLI, which decodes results
for display) may branch on the bit content of an ``ElementCode`` except to
compare two codes for equality or use them as dictionary keys.  The encoding
is a keyed bit permutation precisely so that leaking structure through code
bits is not possible by accident.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from math import gcd, lcm, prod
from typing import NamedTuple

from .errors import (
    InvalidCodeError,
    ParseError,
    PreconditionError,
    RingConstructionError,
)
from .intlinalg import is_prime

__all__ = [
    "DESK_CAP",
    "ElementCode",
    "RingSpec",
    "ModularSpec",
    "ProductSpec",
    "MatrixSpec",
    "PolyQuotSpec",
    "QueryLedger",
    "OracleChannel",
    "RingOracle",
    "make_ring",
    "parse_spec_string",
    "parse_ring_file",
    "parse_element_literal",
    "format_element",
]

DESK_CAP = 1 << 20


class ElementCode(NamedTuple):
    """Opaque fixed-width name of one ring element.  A named tuple, so that
    the hash and equality every code-keyed memo pays per lookup run in C;
    two codes are equal iff their bits and widths are."""

    bits: int
    width: int

    def __repr__(self):
        return f"<code {self.bits:0{(self.width + 3) // 4}x}>"


class RingSpec:
    """Description of a concrete finite ring; subclasses define the arithmetic
    on canonical element values and the additive group in coordinates.

    (R,+) is Z_{m_1} x ... x Z_{m_n} for m = ``additive_moduli()``;
    ``coords``/``from_coords`` convert between a value and its coordinate
    tuple (each c_i in [0, m_i)).  The order, the indexing of elements by
    [0, order) (mixed radix, first coordinate most significant) and additive
    orders all follow from the coordinates.
    """

    def validate(self):
        raise NotImplementedError

    def additive_moduli(self) -> tuple[int, ...]:
        raise NotImplementedError

    def coords(self, a) -> tuple[int, ...]:
        raise NotImplementedError

    def from_coords(self, c):
        raise NotImplementedError

    @cached_property
    def _moduli(self) -> tuple[int, ...]:
        return tuple(self.additive_moduli())

    def order(self) -> int:
        return prod(self._moduli)

    def index_of(self, a) -> int:
        idx = 0
        for c, m in zip(self.coords(a), self._moduli):
            idx = idx * m + c
        return idx

    def element_at(self, idx: int):
        out = []
        for m in reversed(self._moduli):
            idx, c = divmod(idx, m)
            out.append(c)
        return self.from_coords(out[::-1])

    def additive_order(self, a) -> int:
        return lcm(*(m // gcd(m, c) for c, m in zip(self.coords(a), self._moduli)))

    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def generator_values(self) -> list:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError

    def parse_literal(self, text: str):
        raise NotImplementedError

    def format_value(self, a) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class ModularSpec(RingSpec):
    n: int

    def validate(self):
        if self.n < 2:
            raise RingConstructionError(f"modular: n must be >= 2, got n={self.n}")

    def additive_moduli(self):
        return (self.n,)

    def coords(self, a):
        return (a,)

    def from_coords(self, c):
        return c[0]

    def zero(self):
        return 0

    def one(self):
        return 1

    def add(self, a, b):
        return (a + b) % self.n

    def mul(self, a, b):
        return (a * b) % self.n

    def generator_values(self):
        return [1]

    def describe(self):
        return f"modular {self.n}"

    def parse_literal(self, text):
        try:
            v = int(text.strip())
        except ValueError:
            raise ParseError(f"expected an integer literal, got {text!r}") from None
        return v % self.n

    def format_value(self, a):
        return str(a)


@dataclass(frozen=True)
class ProductSpec(RingSpec):
    factors: tuple

    def validate(self):
        if len(self.factors) < 2:
            raise RingConstructionError("product: needs at least two factors")
        for f in self.factors:
            f.validate()

    def additive_moduli(self):
        return tuple(m for f in self.factors for m in f._moduli)

    def coords(self, a):
        return tuple(c for f, x in zip(self.factors, a) for c in f.coords(x))

    def from_coords(self, c):
        out, at = [], 0
        for f in self.factors:
            n = len(f._moduli)
            out.append(f.from_coords(c[at : at + n]))
            at += n
        return tuple(out)

    def zero(self):
        return tuple(f.zero() for f in self.factors)

    def one(self):
        return tuple(f.one() for f in self.factors)

    def add(self, a, b):
        return tuple(f.add(x, y) for f, x, y in zip(self.factors, a, b))

    def mul(self, a, b):
        return tuple(f.mul(x, y) for f, x, y in zip(self.factors, a, b))

    def generator_values(self):
        gens = []
        for i, f in enumerate(self.factors):
            for g in f.generator_values():
                tup = tuple(
                    g if j == i else h.zero() for j, h in enumerate(self.factors)
                )
                gens.append(tup)
        gens.append(self.one())
        return gens

    def describe(self):
        inner = ", ".join(f.describe() for f in self.factors)
        return f"product({inner})"

    def parse_literal(self, text):
        text = text.strip()
        if not (text.startswith("(") and text.endswith(")")):
            raise ParseError(f"product literal must be a (tuple), got {text!r}")
        parts = _split_top_level(text[1:-1], ",")
        if len(parts) != len(self.factors):
            raise ParseError(
                f"product literal has {len(parts)} components, expected {len(self.factors)}"
            )
        return tuple(f.parse_literal(p) for f, p in zip(self.factors, parts))

    def format_value(self, a):
        return "(" + ", ".join(_format_nested(f, x) for f, x in zip(self.factors, a)) + ")"


@dataclass(frozen=True)
class MatrixSpec(RingSpec):
    k: int
    base: RingSpec

    def validate(self):
        if self.k < 1:
            raise RingConstructionError(f"matrix: k must be >= 1, got k={self.k}")
        self.base.validate()

    def additive_moduli(self):
        return self.base._moduli * (self.k * self.k)

    def coords(self, a):
        return tuple(c for row in a for x in row for c in self.base.coords(x))

    def from_coords(self, c):
        k, n = self.k, len(self.base._moduli)
        flat = [self.base.from_coords(c[i * n : (i + 1) * n]) for i in range(k * k)]
        return tuple(tuple(flat[i * k : (i + 1) * k]) for i in range(k))

    def zero(self):
        z = self.base.zero()
        return tuple((z,) * self.k for _ in range(self.k))

    def one(self):
        z, o = self.base.zero(), self.base.one()
        return tuple(
            tuple(o if i == j else z for j in range(self.k)) for i in range(self.k)
        )

    def add(self, a, b):
        return tuple(
            tuple(self.base.add(x, y) for x, y in zip(ra, rb))
            for ra, rb in zip(a, b)
        )

    def mul(self, a, b):
        k = self.k
        out = []
        for i in range(k):
            row = []
            for j in range(k):
                acc = self.base.zero()
                for t in range(k):
                    acc = self.base.add(acc, self.base.mul(a[i][t], b[t][j]))
                row.append(acc)
            out.append(tuple(row))
        return tuple(out)

    def generator_values(self):
        if self.k == 1:
            return [((g,),) for g in self.base.generator_values()]
        z = self.base.zero()
        o = self.base.one()
        cycle = tuple(
            tuple(o if j == (i + 1) % self.k else z for j in range(self.k))
            for i in range(self.k)
        )
        gens = [cycle]
        for g in self.base.generator_values():
            gens.append(
                tuple(
                    tuple(g if i == 0 and j == 0 else z for j in range(self.k))
                    for i in range(self.k)
                )
            )
        return gens

    def describe(self):
        return f"matrix {self.k} over {self.base.describe()}"

    def parse_literal(self, text):
        text = text.strip()
        if _enclosed(text):  # nested, or a 1 x 1 matrix's polyquot cell
            try:
                return self._parse_rows(text[1:-1])
            except ParseError:
                if self.k > 1:
                    raise
        return self._parse_rows(text)

    def _parse_rows(self, text):
        rows = _split_top_level(text, ";")
        if len(rows) != self.k:
            raise ParseError(f"matrix literal has {len(rows)} rows, expected {self.k}")
        out = []
        for r in rows:
            cells = _split_top_level(r, ",")
            if len(cells) != self.k:
                raise ParseError(
                    f"matrix row has {len(cells)} entries, expected {self.k}"
                )
            out.append(tuple(self.base.parse_literal(c) for c in cells))
        return tuple(out)

    def format_value(self, a):
        return ";".join(",".join(_format_nested(self.base, x) for x in row) for row in a)


@dataclass(frozen=True)
class PolyQuotSpec(RingSpec):
    """Z_p[x] modulo a monic polynomial f (coefficients low-to-high, f[-1]=1)."""

    p: int
    f: tuple

    def validate(self):
        try:
            prime = is_prime(self.p)
        except PreconditionError as exc:
            raise RingConstructionError(f"polyquot: {exc}") from None
        if not prime:
            raise RingConstructionError(f"polyquot: p must be prime, got p={self.p}")
        if len(self.f) < 2:
            raise RingConstructionError("polyquot: f must have degree >= 1")
        if self.f[-1] % self.p != 1:
            raise RingConstructionError(f"polyquot: f must be monic, got f={list(self.f)}")

    @property
    def deg(self):
        return len(self.f) - 1

    def additive_moduli(self):
        return (self.p,) * self.deg

    # coordinates run high-to-low, so the leading coefficient is most significant
    def coords(self, a):
        return tuple(reversed(a))

    def from_coords(self, c):
        return tuple(reversed(c))

    def zero(self):
        return (0,) * self.deg

    def one(self):
        return (1,) + (0,) * (self.deg - 1)

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    @cached_property
    def _reducer(self) -> tuple[tuple[int, int], ...]:
        """(j, f_j) for the nonzero coefficients of f below its lead: x^d is
        -sum_j f_j x^j modulo f."""
        return tuple((j, c) for j, c in enumerate(self.f[:-1]) if c % self.p)

    def mul(self, a, b):
        """Schoolbook product over the nonzero coefficients of both factors,
        reduced from the top through f's nonzero terms only."""
        d, p = self.deg, self.p
        conv = [0] * (2 * d - 1)
        terms = [(j, y) for j, y in enumerate(b) if y]
        for i, x in enumerate(a):
            if x:
                for j, y in terms:
                    conv[i + j] += x * y
        reducer = self._reducer
        for i in range(2 * d - 2, d - 1, -1):
            c = conv[i] % p
            if c:
                for j, fj in reducer:
                    conv[i - d + j] -= c * fj
        return tuple(v % p for v in conv[:d])

    def generator_values(self):
        gens = [self.one()]
        if self.deg >= 2:
            gens.append((0, 1) + (0,) * (self.deg - 2))
        else:
            gens.append(((-self.f[0]) % self.p,))
        return gens

    def describe(self):
        return f"polyquot {self.p} {list(self.f)}"

    def parse_literal(self, text):
        text = text.strip()
        if not (text.startswith("[") and text.endswith("]")):
            raise ParseError(f"polyquot literal must be [c0, c1, ...], got {text!r}")
        body = text[1:-1].strip()
        coeffs = (
            [_parse_int(c, "polyquot coefficient") for c in body.split(",")]
            if body
            else []
        )
        if len(coeffs) > self.deg:
            # reduce higher powers through f
            acc = self.zero()
            xpow = self.one()
            xgen = self.generator_values()[1]
            for c in coeffs:
                term = tuple((c * v) % self.p for v in xpow)
                acc = self.add(acc, term)
                xpow = self.mul(xpow, xgen)
            return acc
        coeffs += [0] * (self.deg - len(coeffs))
        return tuple(c % self.p for c in coeffs)

    def format_value(self, a):
        return "[" + ", ".join(str(c) for c in a) + "]"


def _format_nested(spec: RingSpec, a) -> str:
    """The literal of a as a product factor or a matrix cell: a matrix's in brackets."""
    text = spec.format_value(a)
    return f"[{text}]" if isinstance(spec, MatrixSpec) else text


def _enclosed(text: str) -> bool:
    """Whether one bracket pair encloses all of text."""
    depths = accumulate((ch in "([") - (ch in ")]") for ch in text[1:-1])
    return text[:1] == "[" and text[-1:] == "]" and min(depths, default=0) >= 0


def _split_top_level(text: str, sep: str) -> list[str]:
    """Split on sep outside any (), [] nesting."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return [p.strip() for p in parts]


# -- seed-keyed code permutation ---------------------------------------------

_MASK64 = (1 << 64) - 1


def _mix64(x: int) -> int:
    x &= _MASK64
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


class _KeyedPermutation:
    """Feistel-style keyed bijection on b-bit strings (b >= 2)."""

    ROUNDS = 6

    def __init__(self, width: int, key_material: bytes):
        self.width = width
        digest = hashlib.blake2b(key_material, digest_size=8 * self.ROUNDS).digest()
        self._keys = [
            int.from_bytes(digest[8 * i : 8 * (i + 1)], "little")
            for i in range(self.ROUNDS)
        ]
        lo = width // 2
        hi = width - lo
        self._schedule = []
        for _ in range(self.ROUNDS):
            self._schedule.append((hi, lo))
            hi, lo = lo, hi

    def forward(self, x: int) -> int:
        for rk, (hi_bits, lo_bits) in zip(self._keys, self._schedule):
            hi = x >> lo_bits
            lo = x & ((1 << lo_bits) - 1)
            f = _mix64(rk ^ lo) & ((1 << hi_bits) - 1)
            x = (lo << hi_bits) | (hi ^ f)
        return x

    def backward(self, y: int) -> int:
        for rk, (hi_bits, lo_bits) in zip(
            reversed(self._keys), reversed(self._schedule)
        ):
            lo = y >> hi_bits
            mixed = y & ((1 << hi_bits) - 1)
            f = _mix64(rk ^ lo) & ((1 << hi_bits) - 1)
            y = ((mixed ^ f) << lo_bits) | lo
        return y


# -- oracle -------------------------------------------------------------------


@dataclass
class QueryLedger:
    """Counts oracle invocations; monotone."""

    add_count: int = 0
    mul_count: int = 0

    def total(self) -> int:
        return self.add_count + self.mul_count

    def snapshot(self) -> tuple[int, int]:
        return (self.add_count, self.mul_count)


class OracleChannel:
    """View of a ring's add/mul bound to its verification ledger or to none;
    metered queries go through ``RingOracle.add``/``mul`` alone."""

    __slots__ = ("_ring", "_ledger")

    def __init__(self, ring: "RingOracle", ledger: QueryLedger | None):
        self._ring = ring
        self._ledger = ledger

    def add(self, a: ElementCode, b: ElementCode) -> ElementCode:
        out = self._ring._raw_add(a, b)
        if self._ledger is not None:
            self._ledger.add_count += 1
        return out

    def mul(self, a: ElementCode, b: ElementCode) -> ElementCode:
        out = self._ring._raw_mul(a, b)
        if self._ledger is not None:
            self._ledger.mul_count += 1
        return out


class RingOracle:
    """Black-box access to a constructed ring.

    ``add``/``mul`` are the metered oracles, the one route onto ``ledger``
    (metered sums take the ring itself as their channel).  ``unmetered`` is
    the channel the quantum-subroutine simulation layer uses (a stand-in
    quantum device's internal queries are not algorithm queries).
    ``verification`` carries its own ledger, for brute-force ground truth.

    Methods prefixed with an underscore expose the hidden construction; they
    exist for the simulation cheat layer, brute-force verification, and CLI
    literal decoding only.
    """

    def __init__(self, spec: RingSpec, seed: int):
        spec.validate()
        self.spec = spec
        self.seed = seed
        size = spec.order()
        self._size = size
        self.width = max(1, (size - 1).bit_length()) + 2
        key = f"{spec.describe()}|{seed}".encode()
        self._perm = _KeyedPermutation(self.width, key)
        self.ledger = QueryLedger()
        self.verification_ledger = QueryLedger()
        self._key = (spec.describe(), seed)
        # desk-scale rings memoize the code permutation (pure speedup)
        self._memo = size <= (1 << 16)
        self._enc_cache: dict = {}
        self._dec_cache: dict = {}
        seen = []
        for g in spec.generator_values():
            code = self._encode(g)
            if code not in seen:
                seen.append(code)
        self.generators = tuple(seen)

    # construction-side access (cheat layer / verification / CLI only)

    def _encode(self, value) -> ElementCode:
        if self._memo:
            code = self._enc_cache.get(value)
            if code is None:
                code = ElementCode(
                    self._perm.forward(self.spec.index_of(value)), self.width
                )
                self._enc_cache[value] = code
                self._dec_cache[code.bits] = value
            return code
        return ElementCode(self._perm.forward(self.spec.index_of(value)), self.width)

    def _decode(self, code: ElementCode):
        if not isinstance(code, ElementCode) or code.width != self.width:
            raise InvalidCodeError(f"{code!r} is not a code of this ring")
        if self._memo:
            value = self._dec_cache.get(code.bits)
            if value is not None:
                return value
        if not 0 <= code.bits < (1 << self.width):
            raise InvalidCodeError(f"{code!r} is outside the code space")
        idx = self._perm.backward(code.bits)
        if idx >= self._size:
            raise InvalidCodeError(f"{code!r} does not name a ring element")
        value = self.spec.element_at(idx)
        if self._memo:
            self._dec_cache[code.bits] = value
            self._enc_cache[value] = ElementCode(code.bits, self.width)
        return value

    def _zero_code(self) -> ElementCode:
        return self._encode(self.spec.zero())

    def _additive_order(self, code: ElementCode) -> int:
        return self.spec.additive_order(self._decode(code))

    def _coords(self, code: ElementCode) -> tuple[int, ...]:
        """Additive coordinates of the element, over ``spec.additive_moduli()``."""
        return self.spec.coords(self._decode(code))

    def _ring_size(self) -> int:
        return self._size

    def _raw_add(self, a, b):
        return self._encode(self.spec.add(self._decode(a), self._decode(b)))

    def _raw_mul(self, a, b):
        return self._encode(self.spec.mul(self._decode(a), self._decode(b)))

    # metered oracle interface

    def add(self, a: ElementCode, b: ElementCode) -> ElementCode:
        out = self._raw_add(a, b)
        self.ledger.add_count += 1
        return out

    def mul(self, a: ElementCode, b: ElementCode) -> ElementCode:
        out = self._raw_mul(a, b)
        self.ledger.mul_count += 1
        return out

    @property
    def unmetered(self) -> OracleChannel:
        return OracleChannel(self, None)

    @property
    def verification(self) -> OracleChannel:
        return OracleChannel(self, self.verification_ledger)

    def __repr__(self):
        return f"RingOracle({self.spec.describe()!r}, seed={self.seed})"


def make_ring(spec: RingSpec, seed: int) -> RingOracle:
    """Construct a metered black-box oracle for the described ring."""
    return RingOracle(spec, seed)


# -- text formats --------------------------------------------------------------

_SPEC_TOKEN = re.compile(r"\s*(\(|\)|\[[^\]]*\]|,|[^\s(),]+)")


def _tokenize_spec(text: str) -> list[str]:
    tokens, pos = [], 0
    while pos < len(text):
        m = _SPEC_TOKEN.match(text, pos)
        if not m:
            raise ParseError(f"cannot tokenize ring description at {text[pos:]!r}")
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


def parse_spec_string(text: str) -> RingSpec:
    """Parse a compact ring description.

    Grammar::

        modular N
        product(SPEC, SPEC, ...)
        matrix K over SPEC
        polyquot P [c0, c1, ...]
    """
    tokens = _tokenize_spec(text)
    spec, rest = _parse_spec_tokens(tokens)
    if rest:
        raise ParseError(f"trailing tokens in ring description: {rest}")
    spec.validate()
    return spec


def _parse_spec_tokens(tokens: list[str]) -> tuple[RingSpec, list[str]]:
    if not tokens:
        raise ParseError("empty ring description")
    head, rest = tokens[0], tokens[1:]
    if head == "modular":
        if not rest:
            raise ParseError("modular: missing n")
        return ModularSpec(_parse_int(rest[0], "modular n")), rest[1:]
    if head == "product":
        if not rest or rest[0] != "(":
            raise ParseError("product: expected '('")
        rest = rest[1:]
        factors = []
        while True:
            spec, rest = _parse_spec_tokens(rest)
            factors.append(spec)
            if not rest:
                raise ParseError("product: missing ')'")
            if rest[0] == ",":
                rest = rest[1:]
                continue
            if rest[0] == ")":
                return ProductSpec(tuple(factors)), rest[1:]
            raise ParseError(f"product: unexpected token {rest[0]!r}")
    if head == "matrix":
        if len(rest) < 3 or rest[1] != "over":
            raise ParseError("matrix: expected 'matrix K over SPEC'")
        k = _parse_int(rest[0], "matrix k")
        spec, remaining = _parse_spec_tokens(rest[2:])
        return MatrixSpec(k, spec), remaining
    if head == "polyquot":
        if len(rest) < 2 or not rest[1].startswith("["):
            raise ParseError("polyquot: expected 'polyquot P [c0, c1, ...]'")
        p = _parse_int(rest[0], "polyquot p")
        # checked before the coefficients are reduced mod p; validate() tests
        # primality once the whole description has parsed
        if p < 2:
            raise RingConstructionError(f"polyquot: p must be prime, got p={p}")
        body = rest[1][1:-1].strip()
        coeffs = tuple(
            _parse_int(c.strip(), "polyquot coefficient") % p
            for c in body.split(",")
            if c.strip()
        )
        return PolyQuotSpec(p, coeffs), rest[2:]
    raise ParseError(f"unknown ring kind {head!r}")


def _parse_int(tok: str, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ParseError(f"{what}: expected an integer, got {tok!r}") from None


# ring.kind -> (compact form of parse_spec_string, keys filling its fields)
_RING_FILE_KINDS = {
    "modular": ("modular {}", ("ring.n",)),
    "product": ("product({})", ("ring.factors",)),
    "matrix": ("matrix {} over {}", ("ring.k", "ring.base")),
    "polyquot": ("polyquot {} [{}]", ("ring.p", "ring.f")),
}


def parse_ring_file(text: str) -> RingSpec:
    """Parse the key=value ring description format.

    Keys: ring.kind, then ring.n | ring.factors | ring.k + ring.base |
    ring.p + ring.f.  The values fill the kind's compact form of
    :func:`parse_spec_string`: factor lists and base values are compact
    descriptions, ring.f is a coefficient list low-to-high.  A repeated key,
    or a key other than ring.kind and the kind's own, is a ParseError.
    """
    fields = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"expected key = value, got {line!r}")
        key, val = line.split("=", 1)
        key = key.strip().lower()
        if key in fields:
            raise ParseError(f"repeated key {key}")
        fields[key] = val.strip()
    kind = fields.get("ring.kind")
    if kind is None:
        raise ParseError("missing ring.kind")
    kind = kind.lower()
    if kind not in _RING_FILE_KINDS:
        raise ParseError(f"unknown ring.kind {kind!r}")
    form, keys = _RING_FILE_KINDS[kind]
    for key in keys:
        if key not in fields:
            raise ParseError(f"{kind}: missing {key}")
    for key in fields:
        if key != "ring.kind" and key not in keys:
            raise ParseError(f"{kind}: unexpected key {key}")
    return parse_spec_string(form.format(*(fields[key] for key in keys)))


def parse_element_literal(ring: RingOracle, text: str) -> ElementCode:
    """Construction-native literal -> code (CLI input path)."""
    return ring._encode(ring.spec.parse_literal(text))


def format_element(ring: RingOracle, code: ElementCode) -> str:
    """Code -> construction-native literal (CLI output path)."""
    return ring.spec.format_value(ring._decode(code))
