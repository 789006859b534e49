"""Exception types shared across the package."""


class RingBoxError(Exception):
    """Base class for all ringbox errors."""


class RingConstructionError(RingBoxError):
    """A ring description is invalid (names the offending field)."""


class InvalidCodeError(RingBoxError):
    """An element code is not in the image of the encoding."""


class DeskCapError(RingBoxError):
    """A brute-force path was requested on a ring above the desk-scale cap."""


class DimensionError(RingBoxError):
    """Matrix/vector dimensions are inconsistent."""


class MembershipError(RingBoxError):
    """An element lies outside the group/ideal it was claimed to belong to."""


class ClosureError(RingBoxError):
    """A generating set does not span a multiplicatively closed set."""


class HidingContractError(RingBoxError):
    """A hiding function is not constant-and-distinct on cosets."""


class PreconditionError(RingBoxError):
    """An operation was called outside its stated preconditions."""


class LowConfidenceError(RingBoxError):
    """A randomized procedure could not reach its confidence target (a
    sampled-backend estimate, or accumulation draws that all stayed in B)."""


class ParseError(RingBoxError):
    """Malformed ring description or element literal."""


class VerificationError(RingBoxError):
    """Cross-check against brute force diverged (--verify hard failure)."""
