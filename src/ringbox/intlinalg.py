"""Exact integer linear algebra: Hermite and Smith forms and linear solvers.

The incremental Hermite form (``LatticeBuilder``) computes the kernel and
image lattices the package uses.  Every one of them contains the torus
relations s_j e_j of its positive moduli, so a builder is made from its
moduli alone: it has full rank from the start and keeps its entries modulo
D = lcm(moduli), the Hermite normal form modulo D of Domich, Kannan and
Trotter (Math. Oper. Res. 1987; Cohen, GTM 138, 2.4.2), so no entry grows
with the rank or the number of columns added.  This module alone builds and
reads the stacked form, the columns (t; 0) over a target lattice and
(image_j; e_j), its tail rows seeded with the target's D:
``stacked_lattice`` is its one builder (from scratch, or extending a stacked
form of a prefix of the images by one column per new image), and
``preimage`` (a particular solution: ``solve_modular``, span coordinates)
and ``kernel_columns`` (the zero-head columns: ``subgroup_of_torus``'s
relation lattice, the hidden subgroups of ``qsim``) are its only readers.
The solvers take lists of columns, one entry per modulus.
``IntMatrix`` is the Smith form's type; the Smith form serves only
``invariant_factors``: the group decomposition, the field test and
``subgroup_of_torus`` (a hidden subgroup's generators for ``ringops``;
sampled characters are drawn over Hermite columns).  A relation lattice
that is already a diagonal divisor chain is its own Smith form, and
``invariant_factors`` reads it without one.

``is_prime`` (deterministic Miller-Rabin) serves the ring validation and the
field test behind ``prime``; ``factorize`` and ``euler_phi`` (trial division)
serve only the desk-capped period-finding prime test.

Everything here is arbitrary-precision and deterministic.  Smith pivots are
chosen smallest-in-absolute-value (ties broken by lowest row, then column) to
damp coefficient growth; no asymptotic optimality is attempted.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm, prod

from .errors import DimensionError, PreconditionError

__all__ = [
    "IntMatrix",
    "SNFResult",
    "smith_normal_form",
    "solve_modular",
    "LatticeBuilder",
    "stacked_lattice",
    "preimage",
    "invariant_factors",
    "subgroup_of_torus",
    "egcd",
    "MILLER_RABIN_BOUND",
    "is_prime",
    "factorize",
    "euler_phi",
]


def egcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# the least strong pseudoprime to every base above (Sorenson and Webster 2017)
MILLER_RABIN_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin on the prime bases up to 41, exact for
    n < MILLER_RABIN_BOUND (about 3.3e24); larger n raise PreconditionError
    rather than get a guessed answer."""
    if n < 2:
        return False
    for p in MILLER_RABIN_BASES:
        if n % p == 0:
            return n == p
    if n >= MILLER_RABIN_BOUND:
        raise PreconditionError(
            f"primality of {n} is not decided above {MILLER_RABIN_BOUND}"
        )
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division, O(sqrt(n)); only the
    desk-capped period-finding prime test (through ``euler_phi``) uses it."""
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def euler_phi(n: int) -> int:
    phi = 1
    for p, e in factorize(n).items():
        phi *= (p - 1) * p ** (e - 1)
    return phi


@dataclass(frozen=True)
class IntMatrix:
    """Dense integer matrix, row-major entries."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise DimensionError(
                f"entry count {len(self.entries)} != {self.rows}x{self.cols}"
            )

    @classmethod
    def from_rows(cls, rows) -> "IntMatrix":
        rows = [list(r) for r in rows]
        n_rows = len(rows)
        n_cols = len(rows[0]) if rows else 0
        if any(len(r) != n_cols for r in rows):
            raise DimensionError("ragged rows")
        return cls(n_rows, n_cols, tuple(v for r in rows for v in r))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, (0,) * (rows * cols))

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> tuple[int, ...]:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]


@dataclass(frozen=True)
class SNFResult:
    """U*A*V = D with U, V unimodular and D diagonal, d_1 | d_2 | ...

    u_inv is the exact inverse of U, tracked during reduction.
    """

    U: IntMatrix
    D: IntMatrix
    V: IntMatrix
    u_inv: IntMatrix

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.D.at(i, i) for i in range(min(self.D.rows, self.D.cols)))


def smith_normal_form(a: IntMatrix) -> SNFResult:
    """Diagonalize over Z by unimodular row/column operations."""
    m, n = a.rows, a.cols
    M = a.to_rows()
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    Ui = [row[:] for row in U]
    V = [[int(i == j) for j in range(n)] for i in range(n)]

    def row_add(i, j, k):  # row_i += k*row_j
        Mi, Mj = M[i], M[j]
        for c in range(n):
            Mi[c] += k * Mj[c]
        Uii, Ujj = U[i], U[j]
        for c in range(m):
            Uii[c] += k * Ujj[c]
        for r in range(m):  # inverse: col_j -= k*col_i
            Ui[r][j] -= k * Ui[r][i]

    def row_swap(i, j):
        M[i], M[j] = M[j], M[i]
        U[i], U[j] = U[j], U[i]
        for r in range(m):
            Ui[r][i], Ui[r][j] = Ui[r][j], Ui[r][i]

    def row_neg(i):
        M[i] = [-v for v in M[i]]
        U[i] = [-v for v in U[i]]
        for r in range(m):
            Ui[r][i] = -Ui[r][i]

    def col_add(j, i, k):  # col_j += k*col_i
        for r in range(m):
            M[r][j] += k * M[r][i]
        for r in range(n):
            V[r][j] += k * V[r][i]

    def col_swap(i, j):
        for r in range(m):
            M[r][i], M[r][j] = M[r][j], M[r][i]
        for r in range(n):
            V[r][i], V[r][j] = V[r][j], V[r][i]

    def smallest_nonzero(t):
        best = None
        for i in range(t, m):
            Mi = M[i]
            for j in range(t, n):
                v = Mi[j]
                if v and (best is None or abs(v) < best[0]):
                    best = (abs(v), i, j)
        return best

    t = 0
    while t < min(m, n):
        best = smallest_nonzero(t)
        if best is None:
            break
        while True:
            # always pivot on the smallest entry of the working submatrix
            _, bi, bj = best
            if bi != t:
                row_swap(t, bi)
            if bj != t:
                col_swap(t, bj)
            if M[t][t] < 0:
                row_neg(t)
            p = M[t][t]
            clean = True
            for i in range(t + 1, m):
                if M[i][t]:
                    q = M[i][t] // p
                    if q:
                        row_add(i, t, -q)
                    if M[i][t]:  # remainder in (0, p), next pass pivots on it
                        clean = False
            for j in range(t + 1, n):
                if M[t][j]:
                    q = M[t][j] // p
                    if q:
                        col_add(j, t, -q)
                    if M[t][j]:
                        clean = False
            if clean:
                offender = None
                for i in range(t + 1, m):
                    Mi = M[i]
                    for j in range(t + 1, n):
                        if Mi[j] % p:
                            offender = i
                            break
                    if offender is not None:
                        break
                if offender is None:
                    break
                row_add(t, offender, 1)
            best = smallest_nonzero(t)
        t += 1

    def wrap(rows, cols):
        return IntMatrix(len(rows), cols, tuple(v for row in rows for v in row))

    return SNFResult(U=wrap(U, m), D=wrap(M, n), V=wrap(V, n), u_inv=wrap(Ui, m))


class LatticeBuilder:
    """Incremental column Hermite form of a lattice L in Z^k, k = len(moduli),
    that contains every s_r e_r for the positive ``moduli`` s_r.

    Row r always holds one basis column with its pivot on row r (zeros above
    it), s_r e_r to start with, so L has full rank and its determinant is the
    product of the pivots.  With D = lcm(moduli) = ``modulus``, D Z^k lies
    in L and D e_t is spanned by the columns of rows >= t, so every entry
    below a pivot may be reduced modulo D: ``add`` keeps them all in [0, D)
    (the Hermite normal form modulo D of Domich, Kannan and Trotter, Math.
    Oper. Res. 1987; Cohen, GTM 138, 2.4.2), and no entry grows with the
    number of columns added.  ``basis_columns`` returns the canonical form
    (pivots dividing D, entries beside a pivot reduced into [0, pivot)),
    which does not depend on the order the columns came in.
    """

    def __init__(self, moduli):
        moduli = tuple(moduli)
        if min(moduli, default=1) < 1:
            raise PreconditionError("lattice moduli must be positive")
        self.dim = dim = len(moduli)
        self.modulus = lcm(*moduli)
        self._pivots = [[0] * dim for _ in moduli]
        for r, s in enumerate(moduli):
            self._pivots[r][r] = s

    def padded(self, extra: int) -> "LatticeBuilder":
        """An independent builder over Z^(dim + extra) of the lattice times
        D Z^extra: every pivot gains ``extra`` zero tail entries and keeps
        its row, and the new rows hold D (``padded(0)`` is a copy)."""
        twin = object.__new__(LatticeBuilder)  # no moduli to check or lcm to take
        twin.dim, twin.modulus = self.dim + extra, self.modulus
        tail = [0] * extra
        twin._pivots = [piv + tail for piv in self._pivots]
        for r in range(self.dim, twin.dim):
            row = [0] * twin.dim
            row[r] = self.modulus
            twin._pivots.append(row)
        return twin

    def _residues(self, vec) -> list[int]:
        D = self.modulus
        v = [t % D for t in vec]
        if len(v) != self.dim:
            raise DimensionError("vector length != dim")
        return v

    def add(self, vec) -> bool:
        """Insert a vector; returns True if the lattice grew."""
        D = self.modulus
        v = self._residues(vec)
        changed = False
        for r, piv in enumerate(self._pivots):
            vr = v[r]
            if vr == 0:
                continue
            pr = piv[r]
            if vr % pr == 0:
                q = vr // pr
                v = [(t - q * p) % D for t, p in zip(v, piv)]
            else:
                g, x, y = egcd(pr, vr)
                self._pivots[r] = [(x * p + y * t) % D for p, t in zip(piv, v)]
                v = [((pr // g) * t - (vr // g) * p) % D for t, p in zip(v, piv)]
                changed = True
        return changed

    def _canonicalize(self):
        D = self.modulus
        pivots = self._pivots
        for r, piv in enumerate(pivots):
            pr, tail = piv[r], piv[r:]
            for other in pivots[:r]:
                q = other[r] // pr
                if q:
                    # from row r on: the entry at r drops into [0, pr)
                    other[r:] = [(a - q * b) % D for a, b in zip(other[r:], tail)]

    def basis_columns(self) -> tuple[tuple[int, ...], ...]:
        self._canonicalize()
        return tuple(map(tuple, self._pivots))

    def reduce(self, vec) -> tuple[int, ...]:
        """Canonical residue of vec modulo the lattice: entry r in [0, pivot r)."""
        D = self.modulus
        v = self._residues(vec)
        for r, piv in enumerate(self._pivots):
            q = v[r] // piv[r]
            if q:
                v = [(a - q * b) % D for a, b in zip(v, piv)]
        return tuple(v)

    def contains(self, vec) -> bool:
        """True iff vec lies in the lattice: walking the rows in order, each
        nonzero entry must be divisible by its row's pivot (pivots vanish
        above their own row, so a later pivot never changes it)."""
        D = self.modulus
        v = self._residues(vec)
        for r, piv in enumerate(self._pivots):
            vr = v[r]
            if vr:
                q, rem = divmod(vr, piv[r])
                if rem:
                    return False
                v = [(a - q * b) % D for a, b in zip(v, piv)]
        return True

    def determinant(self) -> int:
        """Index of the lattice in Z^dim: the product of the pivots."""
        return prod(piv[r] for r, piv in enumerate(self._pivots))


def stacked_lattice(images, target: LatticeBuilder, done: int = 0) -> LatticeBuilder:
    """Hermite form over Z^(p+k), k = len(images), of the columns (t; 0)
    for the target's basis columns t in Z^p and (images[j]; e_j).  Its
    columns with a zero head span the kernel {z : sum_j z_j images[j] in
    target}; the heads of the others span the image lattice plus the target.
    The new tail rows hold D e_j, D the target's modulus: D images[j] lies
    in the target, so (0; D e_j) is in the lattice anyway.

    ``done`` counts the images whose columns the target already holds: a
    stacked form of images[:done] grows by one column per further image."""
    k = len(images)
    lat = target.padded(k - done)
    for j in range(done, k):
        lat.add(tuple(images[j]) + tuple(int(i == j) for i in range(k)))
    return lat


def preimage(stacked: LatticeBuilder, head: int, vec) -> tuple[int, ...] | None:
    """Some z with sum_j z_j images[j] - vec in the target, read off
    ``stacked = stacked_lattice(images, target)`` with ``head = target.dim``:
    (vec; 0) reduces to (0; -z), or None when its head does not vanish (vec
    lies outside the image lattice plus the target)."""
    rest = stacked.reduce(tuple(vec) + (0,) * (stacked.dim - head))
    if any(rest[:head]):
        return None
    return tuple(-v for v in rest[head:])


def kernel_columns(stacked: LatticeBuilder, head: int) -> tuple[tuple[int, ...], ...]:
    """The kernel's canonical Hermite basis, read off ``stacked =
    stacked_lattice(images, target)`` with ``head = target.dim``: the tails
    of the canonical columns whose head vanishes."""
    return tuple(col[head:] for col in stacked.basis_columns() if not any(col[:head]))


def solve_modular(columns, b, moduli) -> tuple[int, ...] | None:
    """Solve sum_j x_j columns[j] = b modulo the moduli, row by row (one
    entry per modulus in b and in each column).

    The preimage of b under the columns stacked over the moduli; each x_j is
    canonicalized into [0, effective modulus of column j).
    """
    columns, b, moduli = list(columns), tuple(b), tuple(moduli)
    if len(b) != len(moduli):
        raise DimensionError("rhs length != moduli length")
    x = preimage(stacked_lattice(columns, LatticeBuilder(moduli)), len(moduli), b)
    if x is None:
        return None
    effective = (lcm(1, *(s // gcd(s, c) for s, c in zip(moduli, col))) for col in columns)
    return tuple(xj % eff for xj, eff in zip(x, effective))


def _is_divisor_chain(columns) -> bool:
    """Whether the j-th of the k columns is d_j e_j, 0 < d_1 | d_2 | ..."""
    k, prev = len(columns), 1
    for j, col in enumerate(columns):
        d = col[j]
        if d <= 0 or d % prev or col.count(0) != k - 1:
            return False
        prev = d
    return True


def invariant_factors(relations, k: int):
    """Invariant-factor form of the finite group Z^k / L, for a full-rank
    lattice L spanned by the columns ``relations`` (the callers pass L's k
    canonical Hermite columns).

    Returns (orders, to_original, from_original): ascending orders
    o_1 | o_2 | ... with unit factors dropped; to_original[i] is the i-th
    new generator over the standard basis; from_original[j] expresses e_j
    over the new generators, entry t reduced modulo o_t.  One Smith form
    U*A*V = D of the relation matrix A gives all three: the new
    generators are columns of U^-1, e_j's coordinates are column j of U.

    When the k columns are already diagonal with positive pivots
    d_1 | d_2 | ... (most relation lattices the package meets), the Smith
    form makes no operation on them, U = V = I: the answer is read off
    directly, the unit vectors of the kept indices both ways.
    """
    if len(relations) == k and _is_divisor_chain(relations):
        kept = [j for j, col in enumerate(relations) if col[j] != 1]
        return (
            tuple(relations[j][j] for j in kept),
            tuple(tuple(int(i == j) for i in range(k)) for j in kept),
            tuple(tuple(int(i == j) for i in kept) for j in range(k)),
        )
    rel = IntMatrix.from_rows([[col[i] for col in relations] for i in range(k)])
    snf = smith_normal_form(rel)
    d = snf.diagonal()  # k nonzero entries: L has full rank
    kept = [i for i in range(k) if d[i] != 1]
    orders = tuple(d[i] for i in kept)
    to_original = tuple(snf.u_inv.col(i) for i in kept)
    from_original = tuple(
        tuple(snf.U.at(i, j) % o for i, o in zip(kept, orders)) for j in range(k)
    )
    return orders, to_original, from_original


def subgroup_of_torus(gens, moduli) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Independent generators and ascending orders of the subgroup of
    Z_{m_1} x ... x Z_{m_k} generated by ``gens`` (integer vectors, reduced
    modulo the moduli here; zero vectors are dropped).

    Returns (new_gens, orders) with orders o_1 | o_2 | ... and the subgroup
    equal to the direct sum of the cyclic groups generated by new_gens.
    """
    moduli = tuple(moduli)
    k = len(moduli)
    if any(len(g) != k for g in gens):
        raise DimensionError("generator length != moduli length")
    gens = [tuple(t % m for t, m in zip(g, moduli)) for g in gens]
    gens = [g for g in gens if any(g)]
    if not gens:
        return (), ()
    # the relation lattice {z : sum_j z_j gens[j] = 0 modulo the moduli}
    relations = kernel_columns(stacked_lattice(gens, LatticeBuilder(moduli)), k)
    orders, to_original, _ = invariant_factors(relations, len(gens))
    new_gens = tuple(
        tuple(
            sum(c * g[r] for c, g in zip(coeffs, gens)) % moduli[r] for r in range(k)
        )
        for coeffs in to_original
    )
    return new_gens, orders
