"""Additive-generator accumulation and basis representations of ideals.

Starting from ideal generators, the accumulation loop grows an additive
generating set: for each ring generator r it swap-tests whether r*B lies in
B, as the equality of B + r*B with B; on a rejection it draws uniform
elements of r*B until one fails the membership swap test and adjoins it.  A
full scan in which every containment test accepts certifies that B is closed
under multiplication, hence equals the ideal.  A rejection is certain (the
swap test errs only by accepting), so a rejected entry whose draws all stay
in B raises LowConfidenceError rather than being skipped.  Each adjoined
element at least doubles the generated group, so the number of
augmentations is at most log2 of the ideal order.

B's generators G are the first basis, then the adjoined elements.  Each
scan entry keeps products whose span together with B holds r times the
prefix of G it has covered, and on a visit multiplies only the elements of
G past that prefix, or the current basis when that is shorter.  r*B is
spanned by r*G and every product lies in r*B, so the joined group is
B + r*B and every decision is the one of the full test.  Each entry thus
makes at most one product per element of G: at most len(plan) * (l0 +
rounds) products, l0 the first basis' length, plus one per draw, and no
visit makes more products than the basis is long.

A provider accumulates each ideal once: the result is kept in its session
memo ``accumulations``, keyed by ring, ideal spec and ring generators, and
shared by every later caller (hence immutable).

Every accumulated element carries a provenance expression over the original
ideal generators (integer scaling, sums, and one-sided products with ring
generators); re-evaluating the expression through the oracles reproduces the
element's code exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, log2

from .abelian import (
    InvariantFactorBasis,
    _basis_descriptor,
    decompose_element,
    decompose_elements,
    decompose_group,
)
from .blackbox import ElementCode, RingOracle
from .errors import (
    ClosureError,
    LowConfidenceError,
    MembershipError,
    PreconditionError,
)
from .qsim import PrimitiveProvider, SubgroupDescriptor, combine_codes

__all__ = [
    "IdealSpec",
    "Provenance",
    "GenRef",
    "ScaledSum",
    "SideProduct",
    "AccumulationResult",
    "BasisRepresentation",
    "accumulate_additive_generators",
    "find_basis_representation",
    "representation_from_additive",
    "multiplication_tensor",
    "membership_witness",
]

SIDES = ("left", "right", "two")


@dataclass(frozen=True)
class IdealSpec:
    """An ideal given by generators and a sidedness."""

    side: str
    generators: tuple[ElementCode, ...]

    def __post_init__(self):
        if self.side not in SIDES:
            raise PreconditionError(f"side must be one of {SIDES}, got {self.side!r}")
        if not self.generators:
            raise PreconditionError("an ideal spec needs at least one generator")


class Provenance:
    """Formal expression over the original ideal generators."""

    def evaluate(self, chan, ideal_gens, ring_gens, zero: ElementCode) -> ElementCode:
        raise NotImplementedError

    def to_json(self):
        raise NotImplementedError


@dataclass(frozen=True)
class GenRef(Provenance):
    index: int

    def evaluate(self, chan, ideal_gens, ring_gens, zero):
        return ideal_gens[self.index]

    def to_json(self):
        return {"op": "gen", "index": self.index}

    def __str__(self):
        return f"i{self.index + 1}"


@dataclass(frozen=True)
class ScaledSum(Provenance):
    """sum_j coeff_j * term_j with integer coefficients >= 0."""

    coeffs: tuple[int, ...]
    terms: tuple[Provenance, ...]

    @classmethod
    def over(cls, coeffs, terms) -> "ScaledSum":
        """The sum of coeffs[j] * terms[j], zero coefficients dropped."""
        kept = [(c, t) for c, t in zip(coeffs, terms) if c]
        return cls(tuple(c for c, _ in kept), tuple(t for _, t in kept))

    def evaluate(self, chan, ideal_gens, ring_gens, zero):
        codes = [t.evaluate(chan, ideal_gens, ring_gens, zero) for t in self.terms]
        return combine_codes(chan, codes, self.coeffs, zero=zero)

    def to_json(self):
        return {
            "op": "sum",
            "coeffs": list(self.coeffs),
            "terms": [t.to_json() for t in self.terms],
        }

    def __str__(self):
        parts = [
            f"{c}*{t}" if c != 1 else str(t)
            for c, t in zip(self.coeffs, self.terms)
            if c != 0
        ]
        return "(" + " + ".join(parts) + ")" if parts else "0"


@dataclass(frozen=True)
class SideProduct(Provenance):
    """Product of a ring generator with a sub-expression, on one side."""

    side: str  # "left": r * expr, "right": expr * r
    ring_gen_index: int
    inner: Provenance

    def evaluate(self, chan, ideal_gens, ring_gens, zero):
        val = self.inner.evaluate(chan, ideal_gens, ring_gens, zero)
        r = ring_gens[self.ring_gen_index]
        return chan.mul(r, val) if self.side == "left" else chan.mul(val, r)

    def to_json(self):
        return {
            "op": "lmul" if self.side == "left" else "rmul",
            "ring_gen": self.ring_gen_index,
            "inner": self.inner.to_json(),
        }

    def __str__(self):
        r = f"r{self.ring_gen_index + 1}"
        return f"{r}*{self.inner}" if self.side == "left" else f"{self.inner}*{r}"


@dataclass(frozen=True)
class AccumulationResult:
    """Additive generators of (I,+) with provenance and loop telemetry."""

    entries: tuple[tuple[ElementCode, Provenance], ...]
    basis: InvariantFactorBasis
    rounds: int
    sizes: tuple[int, ...]  # group order after the initial set and each augmentation
    decisions: int

    @property
    def codes(self) -> tuple[ElementCode, ...]:
        return tuple(c for c, _ in self.entries)

    @property
    def provenance(self) -> tuple[Provenance, ...]:
        """Each basis generator's provenance over the original ideal
        generators."""
        return _basis_provenance(self.entries, self.basis)


@dataclass(frozen=True)
class BasisRepresentation:
    """Invariant-factor generators, their orders, the multiplication tensor
    M[i][j][k] with h_i h_j = sum_k M[i][j][k] h_k, and per-generator
    provenance over the original ideal generators."""

    basis: InvariantFactorBasis
    tensor: tuple[tuple[tuple[int, ...], ...], ...]
    provenance: tuple[Provenance, ...]
    trace: AccumulationResult | None = None

    @property
    def orders(self) -> tuple[int, ...]:
        return self.basis.s

    def order(self) -> int:
        return self.basis.order()


def _mul_side(ring: RingOracle, side: str, r: ElementCode, x: ElementCode) -> ElementCode:
    return ring.mul(r, x) if side == "left" else ring.mul(x, r)


def _scan_plan(ring: RingOracle, side: str, ring_generators):
    gens = tuple(ring_generators) if ring_generators is not None else ring.generators
    sides = ("left", "right") if side == "two" else (side,)
    return [(s, i) for i in range(len(gens)) for s in sides], gens


def accumulate_additive_generators(
    ring: RingOracle,
    ideal: IdealSpec,
    provider: PrimitiveProvider,
    ring_generators=None,
) -> AccumulationResult:
    """Grow the ideal generators into an additive generating set of (I,+).

    Scan order over the ring generators is fixed and restarts after every
    augmentation.  Each scan entry (side, r) is one containment swap test:
    the overlap of B + r*B with B is |B| / |B + r*B|, at most 1/2 unless
    r*B lies in B.  After a rejection each uniform draw r*x escapes B with
    probability at least 1/2, so the draws are capped at
    ceil(log2(1/epsilon)) + 4; exhausting the cap raises LowConfidenceError.

    B is generated by the list G of the first basis h, then each adjoined
    element.  Each entry keeps a product list P and a prefix length c with
    r*G[:c] inside B + span(P) and P inside r*B.  A visit multiplies r by
    G[c:] and appends the products to P, or, when the current basis is
    shorter than G[c:], sets P to r times the basis; either way c becomes
    len(G), so B + span(P) = B + r*B, and the test joins B with P.  Every
    overlap, decision and draw is therefore the one of a test joining B
    with r times the whole basis.  An accept empties P: r*B then lies in
    B.  An augmentation keeps both invariants, since B only grows.
    Termination: a complete scan in which every containment test accepts.
    Then r*B lies in B for every (side, r) of the plan, so B, which holds
    the ideal generators and lies in the ideal, is closed under the plan's
    one-sided products: it is the ideal.

    The result is memoized in ``provider.accumulations`` under (ring key,
    ideal, ring generators): a repeat call returns the stored result and
    makes no oracle query, decision or random draw.
    """
    plan, ring_gens = _scan_plan(ring, ideal.side, ring_generators)
    key = (ring._key, ideal, ring_gens)
    done = provider.accumulations.get(key)
    if done is not None:
        return done
    entries: list[tuple[ElementCode, Provenance]] = [
        (code, GenRef(i)) for i, code in enumerate(ideal.generators)
    ]
    basis = decompose_group(ring, [c for c, _ in entries], provider)
    sizes = [basis.order()]
    rounds = 0
    cap = ceil(log2(1.0 / provider.config.epsilon)) + 4
    decisions_before = provider.stats["decisions"]
    gens = list(basis.h)  # G: the first basis, then each adjoined element
    # per entry: B + span(pending) holds r*G[:covered], and pending lies in r*B
    covered = [0] * len(plan)
    pending = [[] for _ in plan]
    while True:
        for e, (side, gi) in enumerate(plan):
            r = ring_gens[gi]
            todo = gens[covered[e]:]
            if len(todo) <= len(basis.h):
                pending[e] += [_mul_side(ring, side, r, g) for g in todo]
            else:  # the current basis is shorter, and r*B is its products' span
                pending[e] = [_mul_side(ring, side, r, h) for h in basis.h]
            covered[e] = len(gens)
            b_desc = _basis_descriptor(ring, basis)
            # so B + span(pending) is B + r*B; members of basis.h or G add
            # nothing, and an r fixing every element (r = 1, say) joins B's
            # own generators, whose span is memoized
            fresh = tuple(c for c in pending[e] if c not in basis.h and c not in gens)
            joined = SubgroupDescriptor(ring, basis.h + fresh)
            if provider.is_subset_decision(joined, b_desc):
                pending[e] = []  # r*B lies in B
                continue
            for _ in range(cap):
                x, coeffs = provider.sample_uniform(b_desc)
                cand = _mul_side(ring, side, r, x)
                if provider.membership(cand, b_desc):
                    continue
                prov = _compose_provenance(side, gi, coeffs, basis, entries)
                entries.append((cand, prov))
                gens.append(cand)
                basis = decompose_group(ring, [c for c, _ in entries], provider)
                sizes.append(basis.order())
                rounds += 1
                break
            else:
                # the rejection is certain, so B is not closed
                raise LowConfidenceError(
                    f"{cap} draws from r*B all fell in B, which r*B leaves"
                )
            break  # augmented: rescan from the start
        else:
            break  # every containment test accepted
    done = provider.accumulations[key] = AccumulationResult(
        entries=tuple(entries),
        basis=basis,
        rounds=rounds,
        sizes=tuple(sizes),
        decisions=provider.stats["decisions"] - decisions_before,
    )
    return done


def _compose_provenance(side, ring_gen_index, coeffs, basis, entries):
    """Provenance of r * (sum_t coeffs_t h_t) over the accumulated entries."""
    # express the sampled element over the entry list through to_original
    entry_coeffs = [0] * len(entries)
    for t, c in enumerate(coeffs):
        if c == 0:
            continue
        for j, w in enumerate(basis.to_original[t]):
            entry_coeffs[j] += c * w
    inner = ScaledSum.over(entry_coeffs, [prov for _, prov in entries])
    return SideProduct(side, ring_gen_index, inner)


def multiplication_tensor(
    ring: RingOracle,
    basis: InvariantFactorBasis,
    provider: PrimitiveProvider,
):
    """M[i][j][k] in [0, s_k) with h_i h_j = sum_k M[i][j][k] h_k.

    One oracle multiplication per (i, j) pair and one batch of element
    decompositions per row i; a product falling outside the span means the
    basis is not multiplicatively closed.  The tensor is memoized in
    ``provider.tensors`` under (ring key, basis): a repeat call returns it
    and makes no oracle query, decision or random draw.
    """
    key = (ring._key, basis.h, basis.s)
    done = provider.tensors.get(key)
    if done is not None:
        return done
    tensor = []
    for i, hi in enumerate(basis.h):
        products = [ring.mul(hi, hj) for hj in basis.h]
        try:
            tensor.append(decompose_elements(ring, products, basis, provider))
        except MembershipError as exc:
            raise ClosureError(
                f"h_{i + 1} * h_{exc.index + 1} escapes the span; "
                "the basis does not span a multiplicatively closed set"
            ) from exc
    done = provider.tensors[key] = tuple(tensor)
    return done


def representation_from_additive(
    ring: RingOracle,
    entries,
    provider: PrimitiveProvider,
    basis: InvariantFactorBasis,
    trace: AccumulationResult | None = None,
) -> BasisRepresentation:
    """Basis representation of the multiplicatively closed set additively
    generated by ``entries`` (pairs of code and provenance), over their
    invariant-factor ``basis``."""
    tensor = multiplication_tensor(ring, basis, provider)
    return BasisRepresentation(basis, tensor, _basis_provenance(entries, basis), trace)


def _basis_provenance(entries, basis: InvariantFactorBasis) -> tuple[Provenance, ...]:
    """Provenance of each h_i, read off to_original over the entries'."""
    terms = [prov for _, prov in entries]
    return tuple(ScaledSum.over(row, terms) for row in basis.to_original)


def find_basis_representation(
    ring: RingOracle,
    ideal: IdealSpec,
    provider: PrimitiveProvider,
    ring_generators=None,
) -> BasisRepresentation:
    """Accumulate additive generators, then attach orders, tensor, and
    provenance (composed recursively through the accumulation steps)."""
    trace = accumulate_additive_generators(ring, ideal, provider, ring_generators)
    return representation_from_additive(
        ring, trace.entries, provider, basis=trace.basis, trace=trace
    )


def membership_witness(
    ring: RingOracle,
    r: ElementCode,
    basisrep: BasisRepresentation,
    provider: PrimitiveProvider,
) -> Provenance:
    """Expression for a member r over the original ideal generators."""
    basis = basisrep.basis
    if not provider.membership(r, _basis_descriptor(ring, basis)):
        raise MembershipError("element is not in the ideal")
    coords = decompose_element(ring, r, basis, provider)
    return ScaledSum.over(coords, basisrep.provenance)
