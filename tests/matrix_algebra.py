"""Dense integer matrix algebra for checking ``ringbox.intlinalg`` results:
identities, columns, products, matrix-vector products and the diagonal
test."""

from ringbox.errors import DimensionError
from ringbox.intlinalg import IntMatrix


def identity(n: int) -> IntMatrix:
    return IntMatrix(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))


def columns(a: IntMatrix) -> list[tuple[int, ...]]:
    """The matrix as the column list the modular solvers take."""
    return [a.col(j) for j in range(a.cols)]


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
