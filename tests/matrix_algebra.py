"""Dense integer matrix algebra for checking ``ringbox.intlinalg`` results:
identities, columns, products, matrix-vector products, the diagonal test,
the kernel of columns modulo moduli, and an unbounded reference Hermite
form."""

from ringbox.errors import DimensionError
from ringbox.intlinalg import IntMatrix, LatticeBuilder, kernel_columns, stacked_lattice


def identity(n: int) -> IntMatrix:
    return IntMatrix(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))


def columns(a: IntMatrix) -> list[tuple[int, ...]]:
    """The matrix as the column list the modular solvers take."""
    return [a.col(j) for j in range(a.cols)]


def kernel_mod(cols, moduli) -> tuple[tuple[int, ...], ...]:
    """Canonical Hermite basis of {z : sum_j z_j cols[j] = 0 modulo the
    moduli, row by row}: the kernel columns of cols stacked over the moduli."""
    moduli = tuple(moduli)
    return kernel_columns(stacked_lattice(list(cols), LatticeBuilder(moduli)), len(moduli))


def matmul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if a.cols != b.rows:
        raise DimensionError("matmul shape mismatch")
    return IntMatrix(
        a.rows,
        b.cols,
        tuple(
            sum(a.at(i, k) * b.at(k, j) for k in range(a.cols))
            for i in range(a.rows)
            for j in range(b.cols)
        ),
    )


def apply(a: IntMatrix, vec) -> tuple[int, ...]:
    vec = tuple(vec)
    if len(vec) != a.cols:
        raise DimensionError("vector length mismatch")
    return tuple(sum(a.at(i, k) * vec[k] for k in range(a.cols)) for i in range(a.rows))


def is_diagonal(a: IntMatrix) -> bool:
    return all(a.at(i, j) == 0 for i in range(a.rows) for j in range(a.cols) if i != j)


def _egcd(a: int, b: int) -> tuple[int, int, int]:
    if b == 0:
        return (abs(a), 1 if a >= 0 else -1, 0)
    g, x, y = _egcd(b, a % b)
    return g, y, x - (a // b) * y


class ReferenceHermite:
    """Plain column Hermite form of the lattice spanned by the columns added
    to it, with no modulus: entries are reduced only when a query asks for
    the canonical form.  A reference for ``intlinalg.LatticeBuilder``."""

    def __init__(self, dim: int):
        self.dim = dim
        self.pivots: dict[int, list[int]] = {}

    def add(self, vec) -> None:
        v = list(vec)
        for r in range(self.dim):
            if v[r] == 0:
                continue
            piv = self.pivots.get(r)
            if piv is None:
                self.pivots[r] = v if v[r] > 0 else [-t for t in v]
                return
            g, x, y = _egcd(piv[r], v[r])
            a, b = piv[r] // g, v[r] // g
            self.pivots[r] = [x * p + y * t for p, t in zip(piv, v)]
            v = [a * t - b * p for p, t in zip(piv, v)]

    def basis_columns(self) -> tuple[tuple[int, ...], ...]:
        rows = sorted(self.pivots)
        for r in rows:
            piv = self.pivots[r]
            for r2 in rows:
                if r2 < r:
                    other = self.pivots[r2]
                    q = other[r] // piv[r]
                    self.pivots[r2] = [a - q * b for a, b in zip(other, piv)]
        return tuple(tuple(self.pivots[r]) for r in rows)

    def reduce(self, vec) -> tuple[int, ...]:
        v = list(vec)
        for col in self.basis_columns():
            r = next(i for i, t in enumerate(col) if t)
            q = v[r] // col[r]
            v = [a - q * b for a, b in zip(v, col)]
        return tuple(v)

    def contains(self, vec) -> bool:
        return not any(self.reduce(vec))

    def determinant(self) -> int:
        """The index in Z^dim, 0 short of full rank."""
        if len(self.pivots) < self.dim:
            return 0
        out = 1
        for r, piv in self.pivots.items():
            out *= piv[r]
        return out
