"""Quantum-subroutine layer: overlap decisions, hidden-subgroup sampling,
order finding, uniform subgroup sampling.

Two backends share one interface.  The *exact* backend answers from ground
truth: lattice algebra over the additive coordinates of the ring
construction, so no answer walks a subgroup element by element.  The
subgroup A spanned by generators g_j is the lattice L_A spanned by
coords(g_j) and the moduli m_i e_i, so |A| = prod(m_i) / det(L_A) and
|A∩B| = |A||B| / |A+B|; two cosets meet exactly when the difference of their
offsets lies in L_A + L_B.  Spans are memoized per provider, and a new
generator tuple extends the span of its longest memoized prefix.  A decision
on nested tuples (one a prefix of the other) reads only the shorter span's
lattice L_A: the cosets coincide iff the extra generators and the offset
difference lie in L_A.  The overlap of nested tuples takes L_A + L_B as the
longer span's lattice; a decision computes it only for the sampled shots of
cosets that differ.
A span's stacked Hermite form (``intlinalg.stacked_lattice``, the only
builder of such forms) extends its parent's in the same way, by one column
per generator past the prefix; its tail rows are seeded with D e_j, D the
lcm of the moduli, so every lattice here is a ``LatticeBuilder`` of full
rank whose entries stay below D.  Hidden subgroups are kernels of additive
maps, read off one Hermite form: a generator tuple's relation lattice off
its span's stacked form (``intlinalg.kernel_columns``), and a batch of
element decompositions' map off the basis span's memoized form (one
preimage per element, with the basis images the span stores).  The solver
returns the canonical Hermite columns of the hidden subgroup.  A map
additive by construction (the ring's coordinates, and the intersection,
colon and annihilator labels of ``ringops``) is then certified without a
random draw: every vector the solver adds to the moduli maps into the
target, and the moduli lie in the kernel: s_j post(g_j) lies in the target
for each generator g_j whose order nothing else certified (each element of
a map over a basis, every generator otherwise).  Any other map (the hom
kernel's, or any other caller-supplied ``post``) is spot-checked by random
rounds of oracle evaluations.  The *sampled* backend consults the same ground truth
internally but exposes only measurement-shaped data: swap-test shots with
the correct Bernoulli law, characters drawn uniformly from the annihilator
dual as mixed-radix combinations of its Hermite columns (diag(m) H^{-T} for
the hidden lattice L's triangular Hermite columns H, read off by
back-substitution).  A solve builds characters, reducing them to at most l
Hermite rows (l the hiding map's dimension), only until the rows'
determinant reaches big^l / det(L) (big the lcm of the moduli): the rows
then span the whole scaled dual, whose kernel is L, so L is the answer.
The rest of its batch is charged and builds nothing; the random stream is
advanced past it by the getrandbits draws its randrange calls would make,
and past an overlap-1 decision's shots, which all read 0, by their 64 bits
each in one draw.  Both advance it exactly as the draws they stand for;
they rest on how CPython's Random spends its Mersenne Twister words, which
the stream pin tests guard.  A batch that never reaches the span gives the
kernel of its rows (the dual of the row lattice, by the same
back-substitution) lifted over the moduli.  Period-finding outcomes are
concentrated near multiples of q/c and followed by continued-fraction
reconstruction; each additive order is found once per provider.
Consumers are written against the sample interface and never receive the
hidden structure directly.

All ground-truth queries run on the ring's unmetered channel: a stand-in
quantum device's internal oracle calls are not classical algorithm queries.
A uniform sample sum_j c_j h_j makes none: it is summed in the construction's
coordinates and encoded once.
Metered sums of codes with a session go through ``PrimitiveProvider.combine``,
which keeps each code's doubling table [h, 2h, 4h, ...] per ring and extends
it only through the metered ``ring.add``: each code is doubled once per session,
and a sum then costs one add per set bit of its coefficients, less one.
``combine_codes`` is the one routine that sums codes; without a table it
doubles each term afresh.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, lcm, log, prod, sqrt
from operator import mod
from random import Random

from .blackbox import DESK_CAP, ElementCode, RingOracle
from .errors import (
    HidingContractError,
    LowConfidenceError,
    MembershipError,
    PreconditionError,
)
from .intlinalg import (
    LatticeBuilder,
    kernel_columns,
    preimage,
    stacked_lattice,
)

__all__ = [
    "ProviderConfig",
    "SubgroupDescriptor",
    "HidingFunction",
    "CharacterSample",
    "PrimitiveProvider",
    "combine_codes",
    "fork_seed",
]

# character sample: one dual vector y with y_j in Z_{s_j}
CharacterSample = tuple[int, ...]


def fork_seed(seed: int, label: str) -> int:
    digest = hashlib.blake2b(f"{seed}|{label}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def _skip_randranges(rng: Random, radices, rounds: int) -> None:
    """Advance ``rng`` exactly as ``rounds`` passes of ``rng.randrange(r)``
    over the radices would, without forming the values.

    For r > 0, CPython's randrange(r) is ``_randbelow_with_getrandbits``:
    it draws getrandbits(r.bit_length()) until the value falls below r.
    The same draws are made here directly, without randrange's argument
    handling and its two Python frames per call.  The stream pin tests
    guard this reading of CPython's draws."""
    getrandbits = rng.getrandbits
    for r in radices * rounds:
        k = r.bit_length()
        while getrandbits(k) >= r:
            pass


# swap-test shots per overlap estimate, and the least number per decision
SWAP_SAMPLES = 48
_SPOT_CHECKS = 6  # random lattice vectors checked per map not additive by construction


@dataclass(frozen=True)
class ProviderConfig:
    """Backend selection and error budget."""

    backend: str = "exact"  # "exact" | "sampled"
    epsilon: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if self.backend not in ("exact", "sampled"):
            raise ValueError(f"unknown backend {self.backend!r}")
        if not 0 < self.epsilon < 1:
            raise ValueError("epsilon must lie in (0, 1)")


@dataclass(frozen=True)
class SubgroupDescriptor:
    """A subgroup of (R,+) given by generators, optionally shifted to a coset.

    ``basis`` carries the invariant-factor structure once computed; uniform
    sampling requires it.
    """

    ring: RingOracle
    generators: tuple[ElementCode, ...]
    offset: ElementCode | None = None
    basis: object | None = None  # InvariantFactorBasis, once known


@dataclass(frozen=True)
class HidingFunction:
    """Function on Z_{s_1} x ... x Z_{s_l} that is constant and distinct on
    cosets of a hidden subgroup.

    Every hiding map used here has the shape z -> post(sum_j z_j * g_j)
    modulo ``target``: ``post`` is an additive map from element codes into
    Z^p and ``target`` a lattice in Z^p, so the hidden subgroup is the
    kernel.  Both default to the ring's own coordinates (labels are then
    the elements themselves).  ``solve_ahsp`` answers with the kernel's
    canonical Hermite columns over Z^l; ``moduli`` is their ambient torus,
    and the caller's own record of it.

    ``additive`` marks a ``post`` that is additive by construction: the
    default (the ring's coordinates, used by ``abelian``) and the label maps
    ``ringops`` builds from span coordinates and ring multiplication
    (intersection, colon, annihilator).  The ground truth certifies those
    deterministically from the generators' images: each vector it adds to
    the hidden lattice maps into the target, and a wrong modulus is caught.
    Any other ``post`` (the hom kernel's caller-supplied map included) is
    spot-checked by evaluating the map on random oracle elements, which is
    what catches a ``post`` that is not additive.

    ``over_basis`` is the element count t of a map with the default
    ``post`` whose combo generators are t elements x_1..x_t followed by an
    independent basis h_1..h_l, of orders moduli[t:] (``abelian``'s batched
    element decomposition).  Its kernel is the moduli plus (e_j; -n(x_j)),
    n(x) the coordinates of x on the basis span, so the ground truth reads
    it off that span's memoized stacked form instead of building one over
    all t + l generators.  A map with the default ``post`` and no elements
    is a relation lattice (``present_group``): its kernel is read off the
    stacked form of the generators' own memoized span.
    """

    ring: RingOracle
    moduli: tuple[int, ...]
    combo_generators: tuple[ElementCode, ...]
    post: object = None  # callable code -> coordinate vector, additive mod target
    target: LatticeBuilder | None = None
    name: str = ""
    additive: bool = False
    over_basis: int = 0
    _relations: bool = field(default=False, init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.moduli) != len(self.combo_generators):
            raise PreconditionError("a hiding map needs one modulus per combo generator")
        if any(s < 1 for s in self.moduli):
            raise PreconditionError("hiding moduli must be positive")
        if (self.post is None) != (self.target is None):
            raise PreconditionError("a hiding map needs both post and target")
        if not 0 <= self.over_basis <= len(self.moduli):
            raise PreconditionError("a hiding map's element count must lie in [0, len(moduli)]")
        if self.over_basis and self.post is not None:
            raise PreconditionError("a hiding map over a basis takes the default post")
        if self.post is None:
            object.__setattr__(self, "post", self.ring._coords)
            object.__setattr__(self, "target", _moduli_lattice(self.ring))
            object.__setattr__(self, "additive", True)
            object.__setattr__(self, "_relations", not self.over_basis)

    def label_of(self, code: ElementCode):
        return self.target.reduce(self.post(code))

    def evaluate(self, z) -> object:
        """Label at coordinate vector z, through the oracle (the spot check
        of a hiding map that is not additive by construction)."""
        coeffs = [zj % sj for zj, sj in zip(z, self.moduli)]
        chan, zero = self.ring.unmetered, self.ring._zero_code()
        return self.label_of(combine_codes(chan, self.combo_generators, coeffs, zero))


def _moduli_lattice(ring: RingOracle) -> LatticeBuilder:
    return LatticeBuilder(ring.spec._moduli)


def _dual(columns, moduli) -> tuple[tuple[int, ...], ...]:
    """HNF columns of {z in Z^l : sum_j h_j z_j / m_j in Z for every h in L},
    for the canonical columns H of a full-rank lattice L holding every
    m_j e_j: the columns of diag(m) H^{-T}, read off by back-substitution
    (Micciancio & Goldwasser, Complexity of Lattice Problems, 2002, ch. 1).
    H is triangular with pivot product P = det(L).  For each c, H^T y = P e_c
    is solved bottom-up, each y_i pushed into the entries left of the pivot
    on row i of H as soon as it is known; every division is exact, because
    P H^{-T} is integral."""
    l = len(moduli)
    pivots = [col[r] for r, col in enumerate(columns)]
    total = prod(pivots)
    # row i of H left of its pivot, as (column, entry) pairs
    rows = [[(r, col[i]) for r, col in enumerate(columns[:i]) if col[i]] for i in range(l)]
    dual = LatticeBuilder(moduli)
    for c in reversed(range(l)):  # the longest first: fewer rewrites
        # until its turn, y[i] holds sum_{k > i} H[k][i] y_k - P [i = c]
        y = [0] * l
        y[c] = -total
        for i in range(c, -1, -1):
            if y[i]:
                y[i] = -y[i] // pivots[i]
                for r, h in rows[i]:
                    y[r] += h * y[i]
        dual.add([m * v // total for m, v in zip(moduli, y)])
    return dual.basis_columns()


def _annihilator(vectors, moduli, full: int = 0) -> tuple[tuple[int, ...], ...] | None:
    """HNF columns of {z in Z^l : sum_j y_j z_j / m_j in Z for every y}.

    The vectors, scaled by big / m_j (big = lcm(moduli)), are first reduced
    to the at most l Hermite rows of their row lattice modulo big: same
    kernel; their entries stay below big.  That kernel is the dual of the
    row lattice over the moduli (big, ..., big).  None as soon as the rows'
    determinant is ``full``: before the first insert (the dual of L = Z^l
    is {0}), or after a growing one; the vectors are then read no further."""
    big = lcm(*moduli)
    rows = LatticeBuilder([big] * len(moduli))
    if rows.determinant() == full:
        return None
    for y in vectors:
        if rows.add([v * (big // m) for v, m in zip(y, moduli)]):
            if rows.determinant() == full:
                return None
    return _dual(rows.basis_columns(), [big] * len(moduli))


def _reconstruct(characters, moduli, hidden: LatticeBuilder) -> tuple[tuple[int, ...], ...]:
    """Canonical Hermite columns of the characters' joint kernel.  The
    characters annihilate the hidden lattice, so their scaled rows span a
    sublattice of its scaled dual, whose determinant is big^l / det(hidden);
    once the rows reach it they span the whole dual, whose kernel is
    ``hidden``.  A batch that never does takes the kernel of its rows, which
    holds every m_j e_j: its Hermite form modulo big is the moduli's."""
    dual_det = lcm(*moduli) ** len(moduli) // hidden.determinant()
    kernel = _annihilator(characters, moduli, dual_det)
    return hidden.basis_columns() if kernel is None else kernel


def _broken(hiding: HidingFunction, fault: str) -> HidingContractError:
    return HidingContractError(f"hiding {hiding.name or '<anonymous>'} {fault}")


def _in_target(hiding: HidingFunction):
    """Membership test of the hiding map's target: entrywise modulo the
    ring's moduli for the default ``post`` (a map over a basis or a relation
    lattice), whose target is their lattice; the target's own otherwise."""
    if not (hiding.over_basis or hiding._relations):
        return hiding.target.contains
    moduli = hiding.ring.spec._moduli
    return lambda label: not any(map(mod, label, moduli))


def _certify(hiding: HidingFunction, images, vectors):
    """Raise HidingContractError unless every vector v lies in the kernel:
    sum_j (v_j mod s_j) images[j], images[j] = post(g_j), is in the target."""
    inside = _in_target(hiding)
    for vec in vectors:
        label = [0] * hiding.target.dim
        for v, s, image in zip(vec, hiding.moduli, images):
            n = v % s
            if n:
                label = [a + n * b for a, b in zip(label, image)]
        if not inside(label):
            raise _broken(hiding, "is not constant on cosets")


class _Span:
    """Subgroup of (R,+) spanned by a generator tuple, in the spec's
    additive coordinates: the lattice L of coords(g_j) over the moduli, and
    its order.  A span extends ``parent``, the span of a prefix of its
    generators (the moduli lattice alone when None): it copies the parent's
    lattice and images and adds only the coordinates of the generators past
    the prefix.  The stacked Hermite form of the coords(g_j) over the
    moduli (its heads span L, its tails track the combination, and its
    zero-head columns are the generators' relation lattice) is built on
    first use by one ``stacked_lattice`` call: over the parent's form when
    the parent has one (one new column per generator past the prefix), over
    the moduli lattice otherwise.  Overlaps read only L."""

    def __init__(self, ring: RingOracle, gens, parent: "_Span | None" = None):
        self.dim = len(ring.spec._moduli)
        if parent is None:
            self._images, self.lattice = [], _moduli_lattice(ring)
        else:
            self._images, self.lattice = list(parent._images), parent.lattice.padded(0)
        for g in gens[len(self._images):]:
            image = ring._coords(g)
            self._images.append(image)
            self.lattice.add(image)
        self.order = ring._ring_size() // self.lattice.determinant()
        self._parent = parent
        self._stacked = None

    def stacked(self, ring: RingOracle) -> LatticeBuilder:
        """The Hermite form over Z^(dim + k) of the columns (m_i e_i; 0) and
        (coords(g_j); e_j), k the generator count."""
        if self._stacked is None:
            parent = self._parent
            if parent is not None and parent._stacked is not None:
                base, done = parent._stacked, len(parent._images)
            else:
                base, done = _moduli_lattice(ring), 0
            self._stacked = stacked_lattice(self._images, base, done)
        return self._stacked

    def combination(self, ring: RingOracle, image):
        """Some n with sum_j n_j coords(g_j) = image modulo the moduli, or
        None when the element of those coordinates lies outside the span."""
        return preimage(self.stacked(ring), self.dim, image)

    def coordinates(self, ring: RingOracle, code: ElementCode, orders):
        """n with code = sum_j n_j g_j and 0 <= n_j < orders[j], for
        independent generators of the given orders."""
        n = self.combination(ring, ring._coords(code))
        if n is None:
            raise MembershipError("element lies outside the ambient basis span")
        return tuple(v % s for v, s in zip(n, orders))


def _coordinate_sum(ring: RingOracle, codes, coeffs) -> ElementCode:
    """sum_j coeffs[j] * codes[j] in the construction's additive coordinates,
    reduced modulo the moduli and encoded once: the ground truth's sum, on
    no oracle channel (``combine_codes`` sums through one)."""
    moduli = ring.spec._moduli
    total = [0] * len(moduli)
    for c, code in zip(coeffs, codes):
        if c:
            total = [t + c * v for t, v in zip(total, ring._coords(code))]
    return ring._encode(ring.spec.from_coords([t % m for t, m in zip(total, moduli)]))


def _double_and_add(op, code: ElementCode, k: int) -> ElementCode:
    """code^k for k >= 1 under the channel's ``mul``, by square-and-multiply
    (sums of codes are ``combine_codes``)."""
    if k < 1:
        raise ValueError("double-and-add needs k >= 1")
    acc = None
    base = code
    while k:
        if k & 1:
            acc = base if acc is None else op(acc, base)
        k >>= 1
        if k:
            base = op(base, base)
    return acc


def combine_codes(
    chan, codes, coeffs, zero: ElementCode | None = None, powers: dict | None = None
) -> ElementCode:
    """sum_j coeffs[j] * codes[j] through ``chan.add`` (a channel, or the
    ring itself for metered adds), as one add per set bit b of each
    coefficient of the table entry 2^b * codes[j].

    ``powers`` maps a code h to its doubling table [h, 2h, 4h, ...], which
    is extended through ``chan`` only as far as a coefficient needs (fixed-
    base doubling; Straus, Amer. Math. Monthly 1964; Yao, SIAM J. Comput.
    1976).  Without it every term starts a table of its own, so a sum makes
    sum_j (bit_length(c_j) - 1) doublings and sum_j popcount(c_j) - 1 adds;
    over a warm table only the adds remain.  A coefficient of 0 or 1 needs
    no table.  A session's tables are ``PrimitiveProvider.combine``'s, on
    the metered oracle alone.  The empty combination needs an explicit
    zero code.
    """
    acc = None
    for c, code in zip(coeffs, codes):
        if c <= 1:  # no table: the term is zero or the code itself
            if c < 0:
                raise ValueError("combine_codes needs coefficients >= 0")
            if c:
                acc = code if acc is None else chan.add(acc, code)
            continue
        table = [code] if powers is None else powers.setdefault(code, [code])
        b = 0
        while c:
            if c & 1:
                while len(table) <= b:
                    table.append(chan.add(table[-1], table[-1]))
                acc = table[b] if acc is None else chan.add(acc, table[b])
            c >>= 1
            b += 1
    if acc is None:
        if zero is None:
            raise PreconditionError("empty combination without a zero code")
        return zero
    return acc


class PrimitiveProvider:
    """One seeded provider per task; fork for concurrent/derived streams."""

    def __init__(self, config: ProviderConfig):
        self.config = config
        self.rng = Random(fork_seed(config.seed, "provider"))
        self.stats = {"decisions": 0, "characters": 0, "orders": 0, "samples": 0}
        # session memos, keyed per ring: spans of generator tuples, additive
        # orders, group and element decompositions (abelian), ideal
        # accumulations and multiplication tensors (idealcore), the metered
        # doubling tables of ``combine``, and the zero (ringops)
        self._spans: dict = {}
        self.orders: dict = {}
        self.groups: dict = {}
        self.decomp_memo: dict = {}
        self.accumulations: dict = {}
        self.tensors: dict = {}
        self.doublings: dict = {}
        self.zeros: dict = {}

    def fork(self, label: str) -> "PrimitiveProvider":
        cfg = ProviderConfig(
            backend=self.config.backend,
            epsilon=self.config.epsilon,
            seed=fork_seed(self.config.seed, label),
        )
        return PrimitiveProvider(cfg)

    @property
    def sampled(self) -> bool:
        return self.config.backend == "sampled"

    def _decision_shots(self) -> int:
        # false acceptance of "overlap 1" when the true overlap is <= 1/2 has
        # per-shot probability at most (1+1/4)/2 = 5/8
        need = ceil(log(1.0 / self.config.epsilon) / log(8.0 / 5.0))
        return max(SWAP_SAMPLES, need)

    def combine(self, ring: RingOracle, codes, coeffs) -> ElementCode:
        """sum_j coeffs[j] * codes[j] through the ring's metered ``add``,
        over the session's doubling tables (``doublings``, per ring): each
        code is doubled once per session, so a sum over known codes costs
        one add per set bit of its coefficients, less one.  The tables are
        bound to the ring itself here, and only here, so no code made on
        the unmetered simulation channel enters a metered sum."""
        powers = self.doublings.setdefault(ring._key, {})
        return combine_codes(ring, codes, coeffs, None, powers)

    # ---- lattice algebra over descriptors (ground truth) ----

    def _span(self, ring: RingOracle, gens) -> _Span:
        """The memoized span of a generator tuple.  A new span extends the
        span of its longest memoized non-empty prefix, or the moduli lattice
        when it has none."""
        key = (ring._key, gens)
        span = self._spans.get(key)
        if span is None:
            parent = None
            for cut in range(len(gens) - 1, 0, -1):
                prefix = self._spans.get((ring._key, gens[:cut]))
                if prefix is not None:
                    parent = prefix
                    break
            span = self._spans[key] = _Span(ring, gens, parent)
        return span

    @staticmethod
    def _offset_difference(a: SubgroupDescriptor, b: SubgroupDescriptor) -> list[int]:
        """coords(a.offset) - coords(b.offset), an absent offset counting as
        zero, for two descriptors of one ring."""
        if a.ring is not b.ring:
            raise PreconditionError("descriptors live in different rings")
        ring = a.ring
        offset = [0] * len(ring.spec._moduli)
        for off, sign in ((a.offset, 1), (b.offset, -1)):
            if off is not None:
                offset = [u + sign * v for u, v in zip(offset, ring._coords(off))]
        return offset

    def _exact_overlap(self, a: SubgroupDescriptor, b: SubgroupDescriptor) -> Fraction:
        offset = self._offset_difference(a, b)
        ring = a.ring
        ga, gb = a.generators, b.generators
        sa = self._span(ring, ga)
        sb = self._span(ring, gb)
        # nested generator tuples: L_A + L_B is the longer span's lattice
        if gb[: len(ga)] == ga:
            total = sb.lattice
        elif ga[: len(gb)] == gb:
            total = sa.lattice
        else:
            total = sa.lattice.padded(0)
            for col in sb.lattice.basis_columns():
                total.add(col)
        if not total.contains(offset):
            return Fraction(0)
        meet = sa.order * sb.order * total.determinant() // ring._ring_size()
        return Fraction(meet, max(sa.order, sb.order))

    # ---- swap-test interface ----

    def swap_shots(self, overlap: Fraction, shots: int) -> int:
        """Simulated swap-test shots; returns the count of 0 outcomes.

        One shot reads 0 with probability (1 + c^2) / 2.
        """
        p0 = float((1 + overlap * overlap) / 2)
        return sum(1 for _ in range(shots) if self.rng.random() < p0)

    def coset_overlap(self, a: SubgroupDescriptor, b: SubgroupDescriptor) -> float:
        """Overlap |A∩B| / max(|A|,|B|) of two coset states."""
        c = self._exact_overlap(a, b)
        if not self.sampled:
            return float(c)
        zeros = self.swap_shots(c, SWAP_SAMPLES)
        return sqrt(max(0.0, 2.0 * zeros / SWAP_SAMPLES - 1.0))

    def _nested_equal(self, a: SubgroupDescriptor, b: SubgroupDescriptor) -> bool | None:
        """Whether two cosets whose generator tuples nest coincide, or None
        when neither tuple extends the other.  With A the shorter tuple's
        span, A lies in B, so A = B iff every extra generator of the longer
        tuple lies in L_A, and the cosets then meet iff the offset
        difference lies in L_A too: ``contains`` on the shorter span's
        lattice alone, and no span is built for the longer tuple."""
        short, long = a.generators, b.generators
        if len(short) > len(long):
            short, long = long, short
        if long[: len(short)] != short:
            return None
        offset = self._offset_difference(a, b)
        ring = a.ring
        contains = self._span(ring, short).lattice.contains
        return contains(offset) and all(contains(ring._coords(g)) for g in long[len(short) :])

    def is_subset_decision(self, a: SubgroupDescriptor, b: SubgroupDescriptor) -> bool:
        """True iff the two coset states coincide (overlap exactly 1).

        When one generator tuple extends the other (every accumulation
        containment test, B + r*B against B, and every membership test, x + B
        against B), equality is read off the shorter span's lattice
        (``_nested_equal``); the overlap itself is computed only for
        unrelated tuples, and for the shots of a sampled decision whose
        cosets differ.

        Under the sampled backend a single ancilla-1 shot certifies overlap
        < 1; accepting after t all-zero shots errs with probability <=
        (5/8)^t when the true overlap is at most 1/2.  At overlap exactly 1
        every shot reads 0, so the stream is advanced by the shots' 64 bits
        each (two 32-bit words per ``random()`` call) in one draw, exactly
        as the shots would advance it.
        """
        self.stats["decisions"] += 1
        equal = self._nested_equal(a, b)
        if equal is None or (self.sampled and not equal):
            c = self._exact_overlap(a, b)
            equal = c == 1
        if not self.sampled:
            return equal
        if equal:
            self.rng.getrandbits(64 * self._decision_shots())
            return True
        p0 = float((1 + c * c) / 2)
        for _ in range(self._decision_shots()):
            if self.rng.random() >= p0:
                return False
        return True

    def membership(self, x: ElementCode, sub: SubgroupDescriptor) -> bool:
        """Swap-test membership: compare |B> against |x+B>."""
        coset = SubgroupDescriptor(sub.ring, sub.generators, offset=x)
        return self.is_subset_decision(coset, sub)

    # ---- hidden subgroup machinery ----

    def _spot_check(self, hiding: HidingFunction, lattice: LatticeBuilder):
        """Check random lattice vectors h against a map that is not additive
        by construction: label(z) = label(z + h), through the oracle."""
        k = len(hiding.moduli)
        cols = lattice.basis_columns()
        for _ in range(_SPOT_CHECKS):
            z = tuple(self.rng.randrange(s) for s in hiding.moduli)
            h = [0] * k
            for col in cols:
                c = self.rng.randrange(0, 3)
                if c:
                    h = [a + c * b for a, b in zip(h, col)]
            zh = tuple((a + b) % s for a, b, s in zip(z, h, hiding.moduli))
            if hiding.evaluate(z) != hiding.evaluate(zh):
                raise _broken(hiding, "is not constant on cosets")

    def _hidden_subgroup_exact(self, hiding: HidingFunction) -> LatticeBuilder:
        """The hidden subgroup's lattice over Z^l (relations and s_j e_j):
        the kernel of z -> sum_j z_j post(g_j) modulo the target.  A map
        over a basis reads it, and the basis images, off the basis span when
        every element lies in the span; the canonical Hermite form is the
        one the stacked route gives.  A relation lattice reads the stacked
        form and the images off its generators' span.

        A map additive by construction is certified, drawing nothing: each
        vector added to the moduli maps into the target, and s_j post(g_j)
        lies in the target for each generator whose order is not certified
        yet.  Both tests are entrywise modulo the ring's moduli for the
        default ``post``, whose target is their lattice.  Any other map is
        spot-checked through the oracle."""
        ring, gens, target = hiding.ring, hiding.combo_generators, hiding.target
        t = hiding.over_basis
        lattice = LatticeBuilder(hiding.moduli)
        if t:
            span = self._span(ring, gens[t:])
            images = [ring._coords(x) for x in gens[:t]]
            ns = [span.combination(ring, image) for image in images]
        if t and None not in ns:
            # x_j = sum_i n_ji h_i puts (e_j; -n_j) in the kernel
            added = [
                tuple(int(i == j) for i in range(t)) + tuple(-v for v in n)
                for j, n in enumerate(ns)
            ]
            # the basis orders are certified (group decomposition, or a
            # hidden subgroup's torus orders), not the elements'
            unchecked = images
            images = images + span._images
        else:
            if hiding._relations:  # the span stores the images and the form
                span = self._span(ring, gens)
                images, stacked = span._images, span.stacked(ring)
            else:
                images = [hiding.post(g) for g in gens]
                stacked = stacked_lattice(images, target)
            added = kernel_columns(stacked, target.dim)
            unchecked = images
        for vec in added:
            lattice.add(vec)
        if not hiding.additive:
            self._spot_check(hiding, lattice)
            return lattice
        inside = _in_target(hiding)
        if not all(inside([s * v for v in image]) for s, image in zip(hiding.moduli, unchecked)):
            raise _broken(hiding, "does not vanish on its moduli")
        _certify(hiding, images, added)
        return lattice

    def sample_hidden_subgroup_characters(
        self, hiding: HidingFunction, batch: int, hidden: LatticeBuilder | None = None
    ) -> list[CharacterSample]:
        """Independent uniform samples from the character group annihilating
        the hidden subgroup: sum_i c_i b_i mod m over the dual's triangular
        Hermite columns b_i (``_dual``), of pivots d_i | m_i, with c_i
        uniform in [0, m_i / d_i) (a mixed-radix draw; Cohen, GTM 138,
        2.4.3).  Every call draws the whole batch and is charged for it.

        ``hidden`` is the hidden subgroup's lattice L when the solve already
        holds it.  Then a character is built only while the scaled rows of
        those built so far fall short of the dual (``_annihilator`` with
        full = big^l / det(L)); the rest of the batch builds nothing, and
        only the characters built are returned.  A character drawn after the
        rows span the dual cannot change their joint kernel.  The stream is
        advanced past the rest exactly as its ``randrange`` draws would
        advance it (``_skip_randranges``, which rests on CPython's randrange
        and is pinned by the stream tests), so later draws are unchanged."""
        moduli = hiding.moduli
        solving = hidden is not None
        if not solving:
            hidden = self._hidden_subgroup_exact(hiding)
        dual = _dual(hidden.basis_columns(), moduli)
        radices = [
            (col, m // col[i]) for i, (col, m) in enumerate(zip(dual, moduli)) if col[i] != m
        ]
        randrange = self.rng.randrange

        def character():
            y = [0] * len(moduli)
            for col, radix in radices:
                c = randrange(radix)
                if c:
                    y = [a + c * b for a, b in zip(y, col)]
            return tuple(a % s for a, s in zip(y, moduli))

        self.stats["characters"] += batch
        if not solving:
            return [character() for _ in range(batch)]
        out = []

        def built():
            for _ in range(batch):
                out.append(character())
                yield out[-1]

        _annihilator(built(), moduli, lcm(*moduli) ** len(moduli) // hidden.determinant())
        # the rest of the batch: drawn, not built
        _skip_randranges(self.rng, [radix for _, radix in radices], batch - len(out))
        return out

    def solve_ahsp(self, hiding: HidingFunction) -> tuple[tuple[int, ...], ...]:
        """The hidden subgroup, as the canonical Hermite columns of its lift
        to Z^l (which contains every s_j e_j).

        Exact backend: certain.  Sampled backend: reconstructed from a batch
        of sampled characters.  The sampler builds them until their scaled
        rows span the whole dual, and then the answer is the hidden lattice
        the ground truth drew them over; a batch that never spans it is
        built whole, and gives the joint kernel of its rows lifted over the
        moduli (``_reconstruct``).  The batch size makes the failure
        probability negligible against the configured epsilon.
        """
        hidden = self._hidden_subgroup_exact(hiding)
        if not self.sampled:
            return hidden.basis_columns()
        moduli = hiding.moduli
        batch = len(moduli) + max(32, ceil(log(1.0 / self.config.epsilon, 2)) + 8)
        built = self.sample_hidden_subgroup_characters(hiding, batch, hidden)
        if len(built) < batch:  # the sampler stopped building at the span
            return hidden.basis_columns()
        return _reconstruct(built, moduli, hidden)

    # ---- order finding ----

    def _period_estimates(self, period: int, bound: int):
        """Running lcm, over at most 64 rounds, of the denominators that
        continued fractions (bounded by ``bound``) read off sampled outcomes
        y = round(j*q/period), j uniform and q > bound^2.  The lcm divides
        the period; each finder certifies it with its own check."""
        q = 1 << (bound * bound).bit_length()  # smallest power of two > bound^2
        acc = 1
        for _ in range(64):
            j = self.rng.randrange(period)
            y = (2 * j * q + period) // (2 * period)  # round(j*q/period)
            acc = lcm(acc, Fraction(y % q, q).limit_denominator(bound).denominator)
            yield acc

    def find_additive_order(self, ring: RingOracle, a: ElementCode) -> int:
        """Smallest c >= 1 with c*a = 0.

        The sampled backend runs period finding on c (``_period_estimates``)
        and certifies each round's lcm, as acc*a + a = a through the metered
        addition oracle (``combine``), when it differs from the last one
        checked.
        Orders are memoized in ``orders`` under (ring key, code): a repeat
        call makes no draw and no query.
        """
        c = self.orders.get((ring._key, a))
        if c is not None:
            return c
        self.stats["orders"] += 1
        c = ring._additive_order(a)
        if self.sampled and c > 1:
            checked = None
            for acc in self._period_estimates(c, c):
                # acc divides c; acc*a = 0 certifies acc = c.  An lcm that did
                # not grow failed its check already: the oracle is a function
                if acc != checked:
                    checked = acc
                    if ring.add(self.combine(ring, (a,), (acc,)), a) == a:
                        break
            else:
                raise LowConfidenceError("additive order did not stabilize")
        self.orders[(ring._key, a)] = c
        return c

    def find_multiplicative_order_in_quotient(
        self, ring: RingOracle, label_of, size: int, r: ElementCode
    ):
        """Period of the power sequence of r's image in a quotient of the
        ring, or None when the sequence has a preperiod (image not
        invertible).

        ``label_of`` maps a code to its canonical coset label and ``size`` is
        the number of cosets.  The walk multiplies through the unmetered
        channel; the sampled backend runs period finding with outcomes
        bounded by ``size`` and certifies r^(period+1) = r through the
        metered multiplication oracle.
        """
        self.stats["orders"] += 1
        start = label_of(r)
        if start == label_of(ring._zero_code()):
            raise PreconditionError("element lies in the ideal")
        if size > DESK_CAP:  # the power walk below is O(|R/I|)
            raise PreconditionError(
                "multiplicative order needs a quotient within the desk cap"
            )
        seen = {}
        code = r
        k = 1
        while True:
            lab = label_of(code)
            if lab in seen:
                first = seen[lab]
                period = k - first
                if first > 1:
                    return None  # eventually periodic only
                break
            seen[lab] = k
            code = ring.unmetered.mul(code, r)
            k += 1
        if not self.sampled:
            return period
        for acc in self._period_estimates(period, size):
            if acc == period:
                p = _double_and_add(ring.mul, r, acc + 1)
                if label_of(p) == start:
                    return acc
        raise LowConfidenceError("multiplicative order did not stabilize")

    # ---- uniform subgroup sampling ----

    def sample_uniform(self, sub: SubgroupDescriptor):
        """(element, coefficient vector) uniform over the subgroup; the
        coefficients decompose the element over the descriptor's basis.  The
        element sum_j c_j h_j is the ground truth's: summed in the
        construction's coordinates and encoded once (``_coordinate_sum``),
        with no oracle call."""
        basis = sub.basis
        if basis is None:
            raise PreconditionError("sample_uniform needs a computed basis")
        self.stats["samples"] += 1
        coeffs = tuple(self.rng.randrange(s) for s in basis.s)
        return _coordinate_sum(sub.ring, basis.h, coeffs), coeffs

    # ---- coordinate spans (cheat-layer service for decomposition) ----

    def span_coordinates(self, ring: RingOracle, basis):
        """Map code -> coordinate tuple over an invariant-factor basis: the
        linear map from spec coordinates to basis coordinates, read off the
        basis' span lattice (computed once per basis).  Raises
        MembershipError for an element outside the span."""
        span = self._span(ring, basis.h)
        return lambda code: span.coordinates(ring, code, basis.s)
