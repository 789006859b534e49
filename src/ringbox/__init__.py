"""Ideal arithmetic in finite black-box rings.

Rings are reached only through opaque element codes plus addition and
multiplication oracles.  The package finds additive basis representations of
ideals (invariant-factor generators, orders, multiplication tensor,
provenance) and builds the derived toolbox on top: equality, membership and
witnesses, units and inverses, intersections, colon ideals, annihilators,
orders, identities, linear equations, homomorphism tests, and primality of
two-sided ideals.  Quantum subroutines are replaced by a pluggable provider
with an exact backend and a measurement-statistics-faithful sampled backend.
"""

from .blackbox import (
    DESK_CAP,
    ElementCode,
    MatrixSpec,
    ModularSpec,
    PolyQuotSpec,
    ProductSpec,
    QueryLedger,
    RingOracle,
    RingSpec,
    format_element,
    make_ring,
    parse_element_literal,
    parse_ring_file,
    parse_spec_string,
)
from .idealcore import (
    BasisRepresentation,
    IdealSpec,
    accumulate_additive_generators,
    find_basis_representation,
    membership_witness,
    multiplication_tensor,
)
from .qsim import (
    CharacterSample,
    HidingFunction,
    PrimitiveProvider,
    ProviderConfig,
    SubgroupDescriptor,
)
from .abelian import (
    AbelianPresentation,
    InvariantFactorBasis,
    decompose_element,
    decompose_elements,
    decompose_group,
    present_group,
)
from .verify import ring_elements

__version__ = "0.1.0"
