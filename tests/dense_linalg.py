"""Dense exact linear algebra over Fraction, the tests' slow oracle for the
sparse kernel in glsuper.ratlinalg and the helpers of the dense gl(1|1)
resolution in dense_gl11.  Matrices are lists of row lists."""

from __future__ import annotations

from fractions import Fraction

from glsuper.ratlinalg import Matrix, SparseCols, rref, zeros

Vector = list[Fraction]


def mat_vec(a: Matrix, v: Vector) -> Vector:
    out = [Fraction(0)] * len(a)
    for i, row in enumerate(a):
        acc = Fraction(0)
        for x, y in zip(row, v):
            if x and y:
                acc += x * y
        out[i] = acc
    return out


def is_zero(a: Matrix) -> bool:
    return all(not x for row in a for x in row)


def rank(a: Matrix) -> int:
    if not a or not a[0]:
        return 0
    return len(rref(a)[1])


def nullspace(a: Matrix) -> list[Vector]:
    """Basis of the right kernel, one vector per free column."""
    if not a:
        return []
    cols = len(a[0])
    reduced, pivots = rref(a)
    pivot_set = set(pivots)
    basis = []
    for free in range(cols):
        if free in pivot_set:
            continue
        vec = [Fraction(0)] * cols
        vec[free] = Fraction(1)
        for r, p in enumerate(pivots):
            vec[p] = -reduced[r][free]
        basis.append(vec)
    return basis


def solve(a: Matrix, b: Matrix) -> Matrix:
    """Solve a @ X = b exactly; raises ValueError if inconsistent.

    When the system is underdetermined the free variables are set to zero.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    bcols = len(b[0]) if b else 0
    aug = [list(ra) + list(rb) for ra, rb in zip(a, b)]
    reduced, pivots = rref(aug)
    for r in range(len(pivots), rows):
        if any(reduced[r][cols:]):
            if all(not x for x in reduced[r][:cols]):
                raise ValueError("inconsistent linear system")
    for p in pivots:
        if p >= cols:
            raise ValueError("inconsistent linear system")
    x = zeros(cols, bcols)
    for r, p in enumerate(pivots):
        for j in range(bcols):
            x[p][j] = reduced[r][cols + j]
    return x


def columns_of(a: Matrix) -> list[Vector]:
    if not a:
        return []
    return [list(col) for col in zip(*a)]


def to_dense(cols: SparseCols, rows: int) -> Matrix:
    mat = zeros(rows, len(cols))
    for j, col in enumerate(cols):
        for i, val in col.items():
            mat[i][j] = Fraction(val)
    return mat
