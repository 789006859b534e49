"""Derived ring operations on top of basis representations.

Equality, membership, units and inverses, intersections, colon ideals,
annihilators, orders, identities, linear equations, homomorphism tests, and
the primality test for two-sided ideals.  Everything consumes the primitive
layer through swap-test decisions, hidden-subgroup solving, and order
finding; quotient-ring arithmetic runs on canonical coset labels with
products taken on representatives through the multiplication oracle.  An op
that reads a hidden subgroup (intersection, colon, annihilator, kernel) takes
its invariant-factor basis from that one solve's torus orders.  The
default primality test is classical: a field test over F_p on the ideal's
coordinate lattice and the multiplication tensor.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, log

from .abelian import (
    InvariantFactorBasis,
    _basis_descriptor,
    decompose_elements,
    ideal_lattice,
)
from .blackbox import ElementCode, RingOracle
from .errors import (
    HidingContractError,
    LowConfidenceError,
    PreconditionError,
)
from .idealcore import (
    BasisRepresentation,
    IdealSpec,
    ScaledSum,
    accumulate_additive_generators,
    find_basis_representation,
    representation_from_additive,
)
from .intlinalg import (
    LatticeBuilder,
    euler_phi,
    invariant_factors,
    is_prime,
    solve_modular,
    subgroup_of_torus,
)
from .qsim import HidingFunction, PrimitiveProvider, _double_and_add, _moduli_lattice

__all__ = [
    "HomomorphismOracle",
    "PrimalityVerdict",
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
    "PRIME_TRIAL_CONSTANT",
]

PRIME_TRIAL_CONSTANT = 6
_HOM_SPOT_CHECKS = 8  # random product pairs checked per homomorphism


@dataclass(frozen=True)
class HomomorphismOracle:
    """Black box for a ring homomorphism; ``mapping`` sends codes of the
    domain to codes of the codomain."""

    domain: RingOracle
    codomain: RingOracle
    mapping: object  # callable ElementCode -> ElementCode
    name: str = ""

    def __call__(self, code: ElementCode) -> ElementCode:
        return self.mapping(code)


@dataclass(frozen=True)
class PrimalityVerdict:
    prime: bool
    trials: int
    confidence: float  # lower bound on the verdict being correct

    @property
    def verdict(self) -> str:
        return "prime" if self.prime else "not-prime"


def ring_representation(ring: RingOracle, provider: PrimitiveProvider) -> BasisRepresentation:
    """Basis representation of the ring itself (a ring is an ideal in itself,
    generated by its own generator list)."""
    return find_basis_representation(
        ring, IdealSpec("left", ring.generators), provider
    )


def ideal_equal(
    ring: RingOracle, i_spec: IdealSpec, j_spec: IdealSpec, provider: PrimitiveProvider
) -> bool:
    """Swap-test equality of two ideals' uniform states."""
    i_acc = accumulate_additive_generators(ring, i_spec, provider)
    j_acc = accumulate_additive_generators(ring, j_spec, provider)
    return provider.is_subset_decision(
        _basis_descriptor(ring, i_acc.basis), _basis_descriptor(ring, j_acc.basis)
    )


def ideal_contains(
    ring: RingOracle, i_spec: IdealSpec, x: ElementCode, provider: PrimitiveProvider
) -> bool:
    """Swap test of the ideal state against its coset through x."""
    i_acc = accumulate_additive_generators(ring, i_spec, provider)
    return provider.membership(x, _basis_descriptor(ring, i_acc.basis))


def is_unit(
    ring: RingOracle,
    r: ElementCode,
    provider: PrimitiveProvider,
    ring_rep: BasisRepresentation | None = None,
) -> bool:
    """r is a unit iff the left ideal it generates is the whole ring; decided
    by one swap test between the two states."""
    ring_rep = ring_rep or ring_representation(ring, provider)
    rr = accumulate_additive_generators(ring, IdealSpec("left", (r,)), provider)
    return provider.is_subset_decision(
        _basis_descriptor(ring, rr.basis), _basis_descriptor(ring, ring_rep.basis)
    )


def inverse(
    ring: RingOracle,
    r: ElementCode,
    provider: PrimitiveProvider,
    ring_rep: BasisRepresentation | None = None,
) -> ElementCode:
    """Multiplicative inverse through order finding: r^(c-1) for the
    multiplicative order c of r.  Codes name elements, so they serve as
    the coset labels of R/0."""
    ring_rep = ring_rep or ring_representation(ring, provider)
    if not is_unit(ring, r, provider, ring_rep):
        raise PreconditionError("element is not a unit")
    c = provider.find_multiplicative_order_in_quotient(
        ring, lambda code: code, ring_rep.order(), r
    )
    if c is None:
        raise PreconditionError("element is not a unit")
    if c == 1:  # r * r = r forces r to be the identity
        return r
    return _double_and_add(ring.mul, r, c - 1)


def _label_map(coords, lattice: LatticeBuilder, maps, additive: bool):
    """(post, target, additive) of the hiding label x -> (coords(f(x)) for f
    in maps), each block reduced modulo ``lattice``; additive when every f
    is, and ``additive`` says that every f is so by construction."""

    def post(code):
        return tuple(c for f in maps for c in coords(f(code)))

    copies, dim = len(maps), lattice.dim
    columns = lattice.basis_columns()
    target = LatticeBuilder((lattice.modulus,) * (dim * copies))
    for b in range(copies):
        for col in columns:
            target.add((0,) * (b * dim) + col + (0,) * ((copies - b - 1) * dim))
    return post, target, additive


def _hidden_entries(ring, rep, label, name, provider):
    """(code, provenance) generators of the subgroup of (rep,+) hidden by
    ``label`` (a (post, target, additive) triple), composed over ``rep``'s
    basis and provenance (a representation or an accumulation), and their
    invariant-factor basis: the generators are independent with the torus
    orders, so it is the identity change of basis.  The zero entry and the
    empty basis when the subgroup is trivial."""
    post, target, additive = label
    hiding = HidingFunction(
        ring=ring,
        moduli=rep.basis.s,
        combo_generators=rep.basis.h,
        post=post,
        target=target,
        name=name,
        additive=additive,
    )
    gens, orders = subgroup_of_torus(provider.solve_ahsp(hiding), rep.basis.s)
    entries = [
        (
            provider.combine(ring, rep.basis.h, vec),
            ScaledSum.over(vec, rep.provenance),
        )
        for vec in gens
    ]
    if not entries:  # the zero entry, over no generator
        zero = additive_identity(ring, provider)
        return [(zero, ScaledSum((), ()))], InvariantFactorBasis((), (), (), ((),))
    eye = tuple(tuple(int(i == j) for j in range(len(gens))) for i in range(len(gens)))
    return entries, InvariantFactorBasis(tuple(c for c, _ in entries), orders, eye, eye)


def ideal_intersection(
    ring: RingOracle,
    i_spec: IdealSpec,
    j_spec: IdealSpec,
    provider: PrimitiveProvider,
    ring_rep: BasisRepresentation | None = None,
) -> BasisRepresentation:
    """Basis representation of I∩J.

    The coset label of (sum_j z_j h_j^I) + J hides the subgroup of (I,+)
    that lands inside J.
    """
    ring_rep = ring_rep or ring_representation(ring, provider)
    acc_i = accumulate_additive_generators(ring, i_spec, provider)
    acc_j = accumulate_additive_generators(ring, j_spec, provider)
    lat_j = ideal_lattice(ring, acc_j.codes, ring_rep.basis, provider)
    span = provider.span_coordinates(ring, ring_rep.basis)
    label = _label_map(span, lat_j, [lambda x: x], additive=True)
    entries, basis = _hidden_entries(ring, acc_i, label, "intersection", provider)
    return representation_from_additive(ring, entries, provider, basis)


def colon_ideal(
    ring: RingOracle,
    i_spec: IdealSpec,
    j_spec: IdealSpec,
    provider: PrimitiveProvider,
    ring_rep: BasisRepresentation | None = None,
):
    """Additive generating set of (I:J) = {x : xJ inside I}.

    The hiding map sends x to the tuple of coset labels of x*b + I over J's
    additive generators b; using additive generators keeps the kernel equal
    to (I:J) in noncommutative rings too.
    """
    ring_rep = ring_rep or ring_representation(ring, provider)
    acc_i = accumulate_additive_generators(ring, i_spec, provider)
    acc_j = accumulate_additive_generators(ring, j_spec, provider)
    lat_i = ideal_lattice(ring, acc_i.codes, ring_rep.basis, provider)
    span = provider.span_coordinates(ring, ring_rep.basis)
    mul = ring.unmetered.mul
    maps = [lambda x, b=b: mul(x, b) for b in acc_j.codes]
    label = _label_map(span, lat_i, maps, additive=True)
    entries, basis = _hidden_entries(ring, ring_rep, label, "colon", provider)
    return tuple(c for c, _ in entries), basis


def annihilator(
    ring: RingOracle,
    s_elems,
    side: str,
    provider: PrimitiveProvider,
    ring_rep: BasisRepresentation | None = None,
):
    """Additive generating set of the one-sided annihilator of ``s_elems``."""
    if side not in ("left", "right"):
        raise PreconditionError("annihilator side must be 'left' or 'right'")
    ring_rep = ring_rep or ring_representation(ring, provider)
    mul = ring.unmetered.mul
    if side == "left":
        maps = [lambda x, s=s: mul(x, s) for s in s_elems]
    else:
        maps = [lambda x, s=s: mul(s, x) for s in s_elems]
    label = _label_map(ring._coords, _moduli_lattice(ring), maps, additive=True)
    entries, basis = _hidden_entries(ring, ring_rep, label, "annihilator", provider)
    return tuple(c for c, _ in entries), basis


def ideal_order(ring: RingOracle, i_spec: IdealSpec, provider: PrimitiveProvider) -> int:
    """Product of the invariant-factor orders of (I,+)."""
    return accumulate_additive_generators(ring, i_spec, provider).basis.order()


def ring_order(
    ring: RingOracle,
    provider: PrimitiveProvider,
    ring_rep: BasisRepresentation | None = None,
) -> int:
    ring_rep = ring_rep or ring_representation(ring, provider)
    return ring_rep.order()


def _left_products(tensor, x):
    """Entry j: the coordinates of x h_j over the basis h, from x's
    coordinates over h, as sum_k x_k M[k][j] for the multiplication tensor
    M (M[k][j] the coordinates of h_k h_j)."""
    r = range(len(tensor))
    return [[sum(x[k] * tensor[k][j][i] for k in r) for i in r] for j in r]


def solve_linear(
    ring: RingOracle,
    a: ElementCode,
    b: ElementCode,
    provider: PrimitiveProvider,
    ring_rep: BasisRepresentation | None = None,
) -> ElementCode | None:
    """Some x with a*x = b, or None when no solution exists.

    Decomposing a and b over the ring basis turns the equation into modular
    linear conditions through the multiplication tensor, solved exactly by
    ``solve_modular``.
    """
    ring_rep = ring_rep or ring_representation(ring, provider)
    basis = ring_rep.basis
    a_coords, b_coords = decompose_elements(ring, (a, b), basis, provider)
    if not basis.s:
        return None
    x = solve_modular(_left_products(ring_rep.tensor, a_coords), b_coords, basis.s)
    if x is None:
        return None
    if not any(x):
        out = additive_identity(ring, provider)
    else:
        out = provider.combine(ring, basis.h, x)
    if ring.mul(a, out) != b:
        raise LowConfidenceError("linear solution failed the oracle check")
    return out


def multiplicative_identity(
    ring: RingOracle,
    provider: PrimitiveProvider,
    ring_rep: BasisRepresentation | None = None,
) -> ElementCode:
    """Identity element from the tensor: the coordinates e_i satisfy
    sum_i e_i M[i][j][k] = delta_jk modulo s_k for all j, k."""
    ring_rep = ring_rep or ring_representation(ring, provider)
    basis = ring_rep.basis
    s = basis.s
    l = len(s)
    if l == 0:
        raise PreconditionError("the trivial ring has no usable identity system")
    # column i: the coordinates of h_i*h_j over every j, i.e. tensor[i] flattened
    columns = [[v for row in ring_rep.tensor[i] for v in row] for i in range(l)]
    rhs = [int(j == k) for j in range(l) for k in range(l)]
    coords = solve_modular(columns, rhs, s * l)
    if coords is None or not any(coords):
        raise PreconditionError("no multiplicative identity in the spanned set")
    e = provider.combine(ring, basis.h, coords)
    for g in ring.generators:
        if ring.mul(e, g) != g or ring.mul(g, e) != g:
            raise LowConfidenceError("identity candidate failed the oracle check")
    return e


def additive_identity(ring: RingOracle, provider: PrimitiveProvider) -> ElementCode:
    """Zero as c*r for the additive order c of any element r, found once per
    provider and ring (``provider.zeros``)."""
    zero = provider.zeros.get(ring._key)
    if zero is None:
        r = ring.generators[0]
        c = provider.find_additive_order(ring, r)
        zero = r if c == 1 else provider.combine(ring, (r,), (c,))
        provider.zeros[ring._key] = zero
    return zero


def additive_inverse(
    ring: RingOracle, x: ElementCode, provider: PrimitiveProvider
) -> ElementCode:
    """-x as (c-1)*x for the additive order c of x."""
    c = provider.find_additive_order(ring, x)
    if c == 1:
        return x
    return provider.combine(ring, (x,), (c - 1,))


def _spot_check_hom(rho: HomomorphismOracle, provider: PrimitiveProvider):
    dom, cod = rho.domain, rho.codomain
    dchan, cchan = dom.unmetered, cod.unmetered
    gens = dom.generators
    rng = provider.rng
    pool = list(gens)
    for _ in range(16):
        x = rng.choice(pool)
        y = rng.choice(pool)
        pool.append(dchan.add(x, y) if rng.random() < 0.5 else dchan.mul(x, y))
    for _ in range(_HOM_SPOT_CHECKS):
        a = rng.choice(pool)
        b = rng.choice(pool)
        if rho(dchan.add(a, b)) != cchan.add(rho(a), rho(b)):
            raise HidingContractError(f"{rho.name or 'map'} is not additive")
        if rho(dchan.mul(a, b)) != cchan.mul(rho(a), rho(b)):
            raise HidingContractError(f"{rho.name or 'map'} is not multiplicative")


def hom_kernel(
    rho: HomomorphismOracle,
    provider: PrimitiveProvider,
    domain_rep: BasisRepresentation | None = None,
):
    """Additive generating set of the kernel (the hidden subgroup of the
    label map x -> rho(x) on (R,+))."""
    _spot_check_hom(rho, provider)
    ring = rho.domain
    domain_rep = domain_rep or ring_representation(ring, provider)
    cod = rho.codomain
    # rho is the caller's map: its spot check walks the oracle
    label = _label_map(cod._coords, _moduli_lattice(cod), [rho.mapping], additive=False)
    entries, basis = _hidden_entries(ring, domain_rep, label, "hom-kernel", provider)
    return tuple(c for c, _ in entries), basis


def is_injective(
    rho: HomomorphismOracle,
    provider: PrimitiveProvider,
    domain_rep: BasisRepresentation | None = None,
) -> bool:
    _, basis = hom_kernel(rho, provider, domain_rep)
    return basis.order() == 1


def is_surjective(
    rho: HomomorphismOracle,
    provider: PrimitiveProvider,
    codomain_rep: BasisRepresentation | None = None,
) -> bool:
    """Compare the order of the ring generated by the generator images with
    the codomain's order."""
    _spot_check_hom(rho, provider)
    images = tuple(rho(g) for g in rho.domain.generators)
    image_rep = find_basis_representation(
        rho.codomain,
        IdealSpec("left", images),
        provider,
        ring_generators=images,
    )
    codomain_rep = codomain_rep or ring_representation(rho.codomain, provider)
    return image_rep.order() == codomain_rep.order()


def _quotient_is_field(ring_rep: BasisRepresentation, lat: LatticeBuilder) -> bool:
    """Whether S = Z^l / ``lat``, multiplied through ``ring_rep.tensor``, is a
    field, by exact linear algebra over F_p (Berlekamp's subalgebra; Ronyai,
    "Computing the structure of finite algebras", J. Symb. Comput. 1990).

    S is a field iff its invariant factors all equal one prime p, it is
    commutative, the Frobenius map x -> x^p is injective (S has no
    nilpotents), and {x : x^p = x} has dimension 1 (the number of field
    factors of a reduced commutative F_p-algebra).  A noncommutative S is not
    a finite domain (Wedderburn).  F_p ranks are read off the Hermite form:
    pZ^k plus the columns of a k x k matrix of rank r has index p^(k-r).
    """
    l = len(ring_rep.orders)
    orders, to_original, from_original = invariant_factors(lat.basis_columns(), l)
    p, k = orders[0], len(orders)
    if any(o != p for o in orders) or not is_prime(p):
        return False

    def project(w):  # coordinates over h -> coordinates over S's basis u
        return tuple(
            sum(w[m] * from_original[m][c] for m in range(l)) % p for c in range(k)
        )

    # left[a][t] = u_a h_t over h; table[a][b] = u_a u_b over u
    left = [_left_products(ring_rep.tensor, u) for u in to_original]
    table = [
        [
            project([sum(v[t] * left[a][t][m] for t in range(l)) for m in range(l)])
            for v in to_original
        ]
        for a in range(k)
    ]
    if any(table[a][b] != table[b][a] for a in range(k) for b in range(a)):
        return False

    def mul(x, y):
        out = [0] * k
        for a, xa in enumerate(x):
            for b, yb in enumerate(y):
                if xa and yb:
                    for c, v in enumerate(table[a][b]):
                        out[c] += xa * yb * v
        return tuple(v % p for v in out)

    unit = [tuple(int(a == c) for c in range(k)) for a in range(k)]
    frob = [_double_and_add(mul, e, p) for e in unit]
    image = LatticeBuilder((p,) * k)
    fixed = LatticeBuilder((p,) * k)
    for a in range(k):
        image.add(frob[a])
        fixed.add(tuple(f - e for f, e in zip(frob[a], unit[a])))
    return image.determinant() == 1 and fixed.determinant() == p


def is_prime_ideal(
    ring: RingOracle,
    i_spec: IdealSpec,
    provider: PrimitiveProvider,
    ring_rep: BasisRepresentation | None = None,
    use_period_finding: bool = False,
) -> PrimalityVerdict:
    """Primality of a two-sided ideal I: whether S = R/I is a domain, which
    for a finite ring means a field.

    The default path decides it exactly from I's coordinate lattice and the
    multiplication tensor (``_quotient_is_field``): after the accumulation
    and the lattice it makes no oracle query, no decision and no random
    draw, and its verdict has trials 0 and confidence 1.  With
    ``use_period_finding`` the paper's witness loop runs instead: draw
    uniform elements r (discarding those in I); if simulated period finding
    gives some r the multiplicative order |S|-1 then every nonzero element of
    S is invertible, S is a field, and I is certifiably prime.  After
    ceil(c0 * ln|S| * ln(1/eps)) witnessless trials the verdict is not-prime
    with the reported confidence.  Order finding walks S, so that path is
    capped at the desk cap.
    """
    if i_spec.side != "two":
        raise PreconditionError("primality is defined for two-sided ideals")
    ring_rep = ring_rep or ring_representation(ring, provider)
    acc_i = accumulate_additive_generators(ring, i_spec, provider)
    size_r = ring_rep.order()
    size_i = acc_i.basis.order()
    if size_i == size_r:
        raise PreconditionError("the ideal is the whole ring")
    lat = ideal_lattice(ring, acc_i.codes, ring_rep.basis, provider)
    if not use_period_finding:
        return PrimalityVerdict(_quotient_is_field(ring_rep, lat), 0, 1.0)
    eps = provider.config.epsilon
    d = size_r // size_i
    coords = provider.span_coordinates(ring, ring_rep.basis)
    label_of = lambda code: lat.reduce(coords(code))
    size = lat.determinant()
    i_desc = _basis_descriptor(ring, acc_i.basis)
    r_desc = _basis_descriptor(ring, ring_rep.basis)
    trials = max(1, ceil(PRIME_TRIAL_CONSTANT * log(max(d, 2)) * log(1.0 / eps)))
    effective = 0
    for t in range(trials):
        r = None
        for _ in range(64):
            cand, _ = provider.sample_uniform(r_desc)
            if not provider.membership(cand, i_desc):
                r = cand
                break
        if r is None:
            continue
        effective += 1
        c = provider.find_multiplicative_order_in_quotient(ring, label_of, size, r)
        if c == d - 1:
            return PrimalityVerdict(True, t + 1, 1.0)
    if d == 2:
        p_hit = 1.0  # the only nonzero residue is the identity
    else:
        p_hit = euler_phi(d - 1) / (d - 1)
    confidence = 1.0 - (1.0 - p_hit) ** effective if effective else 0.0
    return PrimalityVerdict(False, trials, confidence)
