"""Finite abelian group structure over black-box ring elements.

Given additive generators, this module finds the invariant-factor form of the
group they span (additive orders, hidden-subgroup relation finding, Smith
reduction), decomposes individual elements over such a basis, and builds
the coordinate lattice of an ideal over the ambient basis; reducing an
element's coordinates modulo that lattice gives its canonical coset label.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, log2, prod

from .blackbox import ElementCode, RingOracle
from .errors import LowConfidenceError, MembershipError, PreconditionError
from .intlinalg import LatticeBuilder, egcd, invariant_factors
from .qsim import (
    HidingFunction,
    PrimitiveProvider,
    SubgroupDescriptor,
    combine_codes,
)

__all__ = [
    "AbelianPresentation",
    "InvariantFactorBasis",
    "present_group",
    "decompose_group",
    "decompose_element",
    "ideal_lattice",
    "combine_codes",
]


@dataclass(frozen=True)
class AbelianPresentation:
    """Generators with their additive orders and the lattice of relations
    among them (canonical column Hermite basis)."""

    generators: tuple[ElementCode, ...]
    orders: tuple[int, ...]
    relation_lattice: tuple[tuple[int, ...], ...]

    def group_order(self) -> int:
        # the group is Z^k modulo the relation lattice, so its order is the
        # lattice index in Z^k
        if not self.orders:
            return 1
        lat = LatticeBuilder(len(self.orders), seed_moduli=self.orders)
        for col in self.relation_lattice:
            lat.add(col)
        return lat.determinant()


@dataclass(frozen=True)
class InvariantFactorBasis:
    """Independent generators h_1..h_l with orders s_1 | s_2 | ... | s_l.

    to_original[i] expresses h_i over the input generators; from_original[j]
    expresses input generator j over the h_i (entries reduced mod orders).
    """

    h: tuple[ElementCode, ...]
    s: tuple[int, ...]
    to_original: tuple[tuple[int, ...], ...]
    from_original: tuple[tuple[int, ...], ...]

    def order(self) -> int:
        return prod(self.s)


def present_group(
    ring: RingOracle, gens, provider: PrimitiveProvider
) -> AbelianPresentation:
    """Orders plus relation lattice of a generator list.

    The relation lattice is the hidden subgroup of z -> code(sum_j z_j g_j)
    on Z_{s_1} x ... x Z_{s_k}.
    """
    gens = tuple(gens)
    if not gens:
        raise PreconditionError("present_group needs at least one generator")
    orders = tuple(provider.find_additive_order(ring, g) for g in gens)
    hiding = HidingFunction(
        ring=ring, moduli=orders, combo_generators=gens, name="relation-lattice"
    )
    hidden = provider.solve_ahsp(hiding)
    return AbelianPresentation(gens, orders, hidden.lattice)


def decompose_group(
    ring: RingOracle, gens, provider: PrimitiveProvider
) -> InvariantFactorBasis:
    """Invariant-factor basis of the group additively generated by ``gens``.

    Smith reduction of the relation lattice gives the change of basis; unit
    factors are dropped and the surviving orders ascend, each dividing the
    next.

    The result is memoized in ``provider.groups`` under (ring key, gens): a
    repeat call returns the stored basis and makes no oracle query, order
    finding, hidden-subgroup solve or random draw.
    """
    key = (ring._key, tuple(gens))
    done = provider.groups.get(key)
    if done is not None:
        return done
    pres = present_group(ring, gens, provider)
    k = len(pres.generators)
    orders, to_orig, from_orig = invariant_factors(pres.relation_lattice, k)
    if 0 in orders:
        raise PreconditionError("generators do not span a finite group")
    to_orig = tuple(
        tuple(c % o for c, o in zip(coeffs, pres.orders)) for coeffs in to_orig
    )
    h = tuple(combine_codes(ring.metered, pres.generators, c) for c in to_orig)
    done = provider.groups[key] = InvariantFactorBasis(h, orders, to_orig, from_orig)
    return done


def _basis_descriptor(ring: RingOracle, basis: InvariantFactorBasis) -> SubgroupDescriptor:
    return SubgroupDescriptor(ring, basis.h, basis=basis)


def decompose_element(
    ring: RingOracle,
    x: ElementCode,
    basis: InvariantFactorBasis,
    provider: PrimitiveProvider,
) -> tuple[int, ...]:
    """Coefficients n with x = sum_j n_j h_j and 0 <= n_j < s_j.

    Solves the hidden-subgroup instance on Z_{s_1} x ... x Z_{s_l} x Z_s,
    s the additive order of x, whose kernel is the cyclic subgroup generated
    by the coefficient vector extended by -1; a combination with unit last
    coordinate reads off the coefficients.  Answers are memoized per basis.
    """
    memo = provider.decomp_memo.setdefault((ring._key, basis.h, basis.s), {})
    hit = memo.get(x)
    if hit is not None:
        return hit
    desc = _basis_descriptor(ring, basis)
    if not provider.membership(x, desc):
        raise MembershipError("element lies outside the spanned group")
    l = len(basis.s)
    if l == 0:
        memo[x] = ()
        return ()
    s = provider.find_additive_order(ring, x)
    retries = 1 if not provider.sampled else ceil(log2(1.0 / provider.config.epsilon)) + 2
    chan = ring.metered
    for _ in range(retries):
        vec = _decompose_via_hidden_cycle(ring, x, basis, s, provider)
        if vec is None:
            continue
        if any(vec):
            ok = combine_codes(chan, basis.h, vec) == x
        else:
            ok = chan.add(x, basis.h[0]) == basis.h[0]  # x must be the zero element
        if ok:
            memo[x] = vec
            return vec
    raise LowConfidenceError("element decomposition did not verify")


def _decompose_via_hidden_cycle(ring, x, basis, s, provider):
    l = len(basis.s)
    if s == 1:  # x is the additive identity
        return (0,) * l
    hiding = HidingFunction(
        ring=ring,
        moduli=basis.s + (s,),
        combo_generators=basis.h + (x,),
        name="element-decomposition",
        over_basis=True,
    )
    hidden = provider.solve_ahsp(hiding)
    # combine lattice generators into one with last coordinate 1 (mod s)
    g = s
    acc = None
    for col in hidden.lattice:
        m = col[l] % s
        if m == 0:
            continue
        gg, u, v = egcd(g, m)
        if acc is None:
            acc = [v * t for t in col]
        else:
            acc = [u * a + v * t for a, t in zip(acc, col)]
        g = gg
        if g == 1:
            break
    if acc is None or g != 1:
        return None
    # (acc_1..acc_l, 1) lies in the kernel: x = -sum acc_j h_j
    return tuple((-a) % sj for a, sj in zip(acc[:l], basis.s))


def ideal_lattice(
    ring: RingOracle,
    members,
    ring_basis: InvariantFactorBasis,
    provider: PrimitiveProvider,
) -> LatticeBuilder:
    """Coordinate lattice (over the ambient basis) spanned by ``members``
    plus the ambient order relations."""
    lat = LatticeBuilder(len(ring_basis.s), seed_moduli=ring_basis.s)
    for m in members:
        lat.add(decompose_element(ring, m, ring_basis, provider))
    return lat

