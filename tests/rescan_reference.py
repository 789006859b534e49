"""Reference accumulation for checking ``idealcore.accumulate_additive_generators``:
the loop that multiplies every ring generator by the whole current basis at
every scan entry, and rescans from the start after each augmentation.  It
makes the same decisions and draws as the library's loop, with more oracle
products; it neither reads nor fills the provider's accumulation memo."""

from math import ceil, log2

from ringbox.abelian import _basis_descriptor, decompose_group
from ringbox.errors import LowConfidenceError
from ringbox.idealcore import (
    AccumulationResult,
    GenRef,
    _compose_provenance,
    _mul_side,
    _scan_plan,
)
from ringbox.qsim import SubgroupDescriptor


def rescan_accumulate(ring, ideal, provider, ring_generators=None) -> AccumulationResult:
    plan, ring_gens = _scan_plan(ring, ideal.side, ring_generators)
    entries = [(code, GenRef(i)) for i, code in enumerate(ideal.generators)]
    basis = decompose_group(ring, [c for c, _ in entries], provider)
    sizes = [basis.order()]
    rounds = 0
    cap = ceil(log2(1.0 / provider.config.epsilon)) + 4
    decisions_before = provider.stats["decisions"]
    while True:
        for side, gi in plan:
            r = ring_gens[gi]
            scaled = tuple(_mul_side(ring, side, r, h) for h in basis.h)
            b_desc = _basis_descriptor(ring, basis)
            fresh = tuple(c for c in scaled if c not in basis.h)
            joined = SubgroupDescriptor(ring, basis.h + fresh)
            if provider.is_subset_decision(joined, b_desc):
                continue
            for _ in range(cap):
                x, coeffs = provider.sample_uniform(b_desc)
                cand = _mul_side(ring, side, r, x)
                if provider.membership(cand, b_desc):
                    continue
                prov = _compose_provenance(side, gi, coeffs, basis, entries)
                entries.append((cand, prov))
                basis = decompose_group(ring, [c for c, _ in entries], provider)
                sizes.append(basis.order())
                rounds += 1
                break
            else:
                raise LowConfidenceError("every draw from r*B fell in B")
            break  # augmented: rescan from the start
        else:
            break  # every containment test accepted
    return AccumulationResult(
        entries=tuple(entries),
        basis=basis,
        rounds=rounds,
        sizes=tuple(sizes),
        decisions=provider.stats["decisions"] - decisions_before,
    )
