"""Brute-force ground truth for desk-scale rings.

Everything here works by exhaustive enumeration over the verification
channel, independent of the hidden-subgroup/Smith machinery, so it can sit on
the other side of a cross-check.
"""

from __future__ import annotations

from .blackbox import DESK_CAP, ElementCode, RingOracle
from .errors import DeskCapError

__all__ = [
    "ring_elements",
    "additive_span",
    "ideal_closure",
    "find_zero",
    "find_one",
    "unit_table",
    "is_prime_by_definition",
    "colon_set",
    "annihilator_set",
    "solve_linear_set",
]


def ring_elements(ring: RingOracle) -> frozenset:
    """All element codes: the two-sided ideal the ring generators generate.

    Refuses rings above the desk cap.
    """
    if ring._ring_size() > DESK_CAP:
        raise DeskCapError(
            f"ring order {ring._ring_size()} exceeds desk-scale cap {DESK_CAP}"
        )
    return ideal_closure(ring, ring.generators, "two")


def _additive_closure(chan, gens: list) -> set:
    seen = set(gens)
    frontier = list(gens)
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = chan.add(x, g)
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


def additive_span(ring: RingOracle, gens) -> frozenset:
    """Subgroup of (R,+) generated by ``gens`` (empty input not allowed)."""
    return frozenset(_additive_closure(ring.verification, list(gens)))


def ideal_closure(ring: RingOracle, gens, side: str) -> frozenset:
    """Smallest set containing ``gens`` closed under addition and one- or
    two-sided multiplication by every ring element.

    Forms products only of the span's additive generators: ``gens``, and
    each product that extends the span.  By distributivity the span is
    closed under the ring generators once every additive generator's
    products lie in it.  A product outside the span extends the span by its
    multiples and joins the generators that wait their turn.
    """
    chan = ring.verification
    span = _additive_closure(chan, list(gens))
    pending = list(gens)
    while pending:
        x = pending.pop()
        for r in ring.generators:
            for c in _products(chan, r, x, side):
                if c not in span:
                    _extend(chan, span, c)
                    pending.append(c)
    return frozenset(span)


def _extend(chan, span: set, g):
    """Grow the group ``span`` in place to span + <g>, one coset span + k*g
    at a time until k*g falls in it."""
    base = list(span)
    step = g
    while step not in span:
        span.update(chan.add(x, step) for x in base)
        step = chan.add(step, g)


def _products(chan, r, x, side) -> list:
    out = []
    if side in ("left", "two"):
        out.append(chan.mul(r, x))
    if side in ("right", "two"):
        out.append(chan.mul(x, r))
    return out


def find_zero(ring: RingOracle, elements) -> ElementCode:
    chan = ring.verification
    probe = next(iter(elements))
    for z in elements:
        if chan.add(probe, z) == probe:
            return z
    raise AssertionError("no additive identity found")


def find_one(ring: RingOracle, elements) -> ElementCode | None:
    chan = ring.verification
    for e in elements:
        if all(chan.mul(e, x) == x and chan.mul(x, e) == x for x in elements):
            return e
    return None


def unit_table(ring: RingOracle, elements) -> dict:
    """unit -> inverse, from the full multiplication table."""
    chan = ring.verification
    one = find_one(ring, elements)
    table = {}
    for r in elements:
        for x in elements:
            if chan.mul(r, x) == one and chan.mul(x, r) == one:
                table[r] = x
                break
    return table


def is_prime_by_definition(ring: RingOracle, ideal_set, elements) -> bool:
    """Prime iff a*b in I forces a in I or b in I (two-sided ideals)."""
    chan = ring.verification
    outside = [x for x in elements if x not in ideal_set]
    for a in outside:
        for b in outside:
            if chan.mul(a, b) in ideal_set:
                return False
    return True


def colon_set(ring: RingOracle, ideal_set, j_set, elements) -> frozenset:
    """{x : x * j in I for every j in J} over the full set J."""
    chan = ring.verification
    out = []
    for x in elements:
        if all(chan.mul(x, j) in ideal_set for j in j_set):
            out.append(x)
    return frozenset(out)


def annihilator_set(ring: RingOracle, s_elems, side, elements) -> frozenset:
    chan = ring.verification
    zero = find_zero(ring, elements)
    out = []
    for x in elements:
        if side == "left":
            ok = all(chan.mul(x, s) == zero for s in s_elems)
        else:
            ok = all(chan.mul(s, x) == zero for s in s_elems)
        if ok:
            out.append(x)
    return frozenset(out)


def solve_linear_set(ring: RingOracle, a, b, elements) -> frozenset:
    chan = ring.verification
    return frozenset(x for x in elements if chan.mul(a, x) == b)
