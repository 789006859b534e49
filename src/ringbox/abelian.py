"""Finite abelian group structure over black-box ring elements.

Given additive generators, this module finds the invariant-factor form of the
group they span (additive orders, hidden-subgroup relation finding, Smith
reduction), decomposes elements over such a basis (a batch of them per
hidden-subgroup solve), and builds the coordinate lattice of an ideal over
the ambient basis; reducing an element's coordinates modulo that lattice
gives its canonical coset label.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, log2, prod

from .blackbox import ElementCode, RingOracle
from .errors import HidingContractError, LowConfidenceError, MembershipError, PreconditionError
from .intlinalg import LatticeBuilder, invariant_factors
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
    "decompose_elements",
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
    return AbelianPresentation(gens, orders, provider.solve_ahsp(hiding))


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
    to_orig = tuple(
        tuple(c % o for c, o in zip(coeffs, pres.orders)) for coeffs in to_orig
    )
    h = tuple(provider.combine(ring, pres.generators, c) for c in to_orig)
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
    """Coefficients n with x = sum_j n_j h_j and 0 <= n_j < s_j: a batch of
    one for ``decompose_elements``."""
    return decompose_elements(ring, (x,), basis, provider)[0]


def decompose_elements(
    ring: RingOracle,
    xs,
    basis: InvariantFactorBasis,
    provider: PrimitiveProvider,
) -> tuple[tuple[int, ...], ...]:
    """The coefficients of ``decompose_element`` for each x in ``xs``.

    Each element not yet memoized passes a membership decision before any
    solve (MembershipError for the first outsider, ``index`` its place in
    ``xs``).  One hidden-subgroup instance on Z_e^t x Z_{s_1} x ... x Z_{s_l},
    e = max s_i, covers the t pending elements: e kills every member, and
    the kernel of (z, y) -> sum_j z_j x_j + sum_i y_i h_i has one canonical
    Hermite column (e_j; w_j) per element, x_j = -sum_i w_ji h_i (Cheung &
    Mosca, quant-ph/0101004).  Each answer is verified by its combination
    through the metered oracle, over the session's doubling tables of the
    basis (``provider.combine``: one add per set bit once the tables are
    warm); the sampled backend solves the unverified ones again.  Answers
    are memoized per basis.
    """
    xs = tuple(xs)  # read twice: the pending elements, then the answers
    memo = provider.decomp_memo.setdefault((ring._key, basis.h, basis.s), {})
    pending = list(dict.fromkeys(x for x in xs if x not in memo))
    desc = _basis_descriptor(ring, basis)
    for x in pending:
        if not provider.membership(x, desc):
            exc = MembershipError("element lies outside the spanned group")
            exc.index = xs.index(x)
            raise exc
    if not basis.s:  # the trivial group: every member is zero
        memo.update(dict.fromkeys(pending, ()))
        pending = []
    retries = 1 if not provider.sampled else ceil(log2(1.0 / provider.config.epsilon)) + 2
    for _ in range(retries):
        if not pending:
            break
        t = len(pending)
        hiding = HidingFunction(
            ring=ring,
            moduli=(max(basis.s),) * t + basis.s,
            combo_generators=tuple(pending) + basis.h,
            name="element-decomposition",
            over_basis=t,
        )
        try:
            columns = provider.solve_ahsp(hiding)
        except HidingContractError as exc:  # some e x_j != 0: a wrong accept
            raise LowConfidenceError("a non-member passed its membership test") from exc
        for j, x in enumerate(pending):
            if columns[j][:t] != tuple(int(i == j) for i in range(t)):
                continue  # no kernel vector (e_j; w): x stays pending
            vec = tuple((-w) % sj for w, sj in zip(columns[j][t:], basis.s))
            if any(vec):
                ok = provider.combine(ring, basis.h, vec) == x
            else:
                ok = ring.add(x, basis.h[0]) == basis.h[0]  # x must be the zero element
            if ok:
                memo[x] = vec
        pending = [x for x in pending if x not in memo]
    if pending:
        raise LowConfidenceError("element decomposition did not verify")
    return tuple(memo[x] for x in xs)


def ideal_lattice(
    ring: RingOracle,
    members,
    ring_basis: InvariantFactorBasis,
    provider: PrimitiveProvider,
) -> LatticeBuilder:
    """Coordinate lattice (over the ambient basis) spanned by ``members``
    plus the ambient order relations."""
    lat = LatticeBuilder(ring_basis.s)
    for vec in decompose_elements(ring, members, ring_basis, provider):
        lat.add(vec)
    return lat

