"""Small exact linear algebra kernel over Fraction.

Dense matrices are lists of row lists whose entries are ints or Fractions;
all results are exact.  Multiplication skips zero entries.  Module actions
use the sparse column layout below instead, because representation matrices
are very sparse and mostly integral.
"""

from __future__ import annotations

import math
from fractions import Fraction

Matrix = list[list[Fraction]]
Vector = list[Fraction]


def zeros(rows: int, cols: int) -> Matrix:
    return [[Fraction(0)] * cols for _ in range(rows)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    rows, inner = len(a), len(b)
    cols = len(b[0]) if b else 0
    out = zeros(rows, cols)
    for i in range(rows):
        ai = a[i]
        oi = out[i]
        for k in range(inner):
            aik = ai[k]
            if not aik:
                continue
            bk = b[k]
            for j in range(cols):
                bkj = bk[j]
                if bkj:
                    oi[j] += aik * bkj
    return out


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


def rref(a: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and pivot column indices."""
    mat = [[Fraction(x) for x in row] for row in a]
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, rows) if mat[i][c]), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = Fraction(1) / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(rows):
            if i != r and mat[i][c]:
                factor = mat[i][c]
                mat[i] = [x - factor * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return mat, pivots


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


# column-major sparse helpers: cols[j] maps row index to a nonzero entry,
# an int when the entry is integral and a Fraction otherwise

SparseCols = list[dict[int, int | Fraction]]


def exact(value: int | Fraction) -> int | Fraction:
    """The entry as an int when it is integral, else as a Fraction."""
    return value.numerator if value.denominator == 1 else value


def to_dense(cols: SparseCols, rows: int) -> Matrix:
    mat = zeros(rows, len(cols))
    for j, col in enumerate(cols):
        for i, val in col.items():
            mat[i][j] = Fraction(val)
    return mat


def sparse_mul(a_cols: SparseCols, b_cols: SparseCols) -> SparseCols:
    out: SparseCols = [dict() for _ in b_cols]
    for j, bc in enumerate(b_cols):
        oj = out[j]
        for k, bkj in bc.items():
            for i, aik in a_cols[k].items():
                v = oj.get(i, 0) + aik * bkj
                if v:
                    oj[i] = v
                elif i in oj:
                    del oj[i]
    return out


def sparse_add_scaled(terms: list[tuple[SparseCols, int]], ncols: int) -> SparseCols:
    out: SparseCols = [dict() for _ in range(ncols)]
    for cols, coeff in terms:
        for j, col in enumerate(cols):
            oj = out[j]
            for i, val in col.items():
                v = oj.get(i, 0) + coeff * val
                if v:
                    oj[i] = v
                elif i in oj:
                    del oj[i]
    return out


def sparse_rank(cols: SparseCols) -> int:
    """Rank by fraction-free elimination on sparse columns.

    Each column is scaled to integers and reduced against the pivot columns
    found so far.  A pivot column is keyed by its lowest row index, and a
    reduction step cancels that row, so the lowest row of the column being
    reduced strictly rises until it is zero or opens a new pivot.  Removing
    the content after each step keeps the integers small.
    """
    pivots: dict[int, dict[int, int]] = {}
    for col in cols:
        scale = math.lcm(*(val.denominator for val in col.values()))
        vec = {i: int(val * scale) for i, val in col.items() if val}
        while vec:
            low = min(vec)
            pivot = pivots.get(low)
            if pivot is None:
                pivots[low] = vec
                break
            a, b = pivot[low], vec[low]
            g = math.gcd(a, b)
            a, b = a // g, b // g
            out = {i: a * val for i, val in vec.items()} if a != 1 else dict(vec)
            for i, val in pivot.items():
                v = out.get(i, 0) - b * val
                if v:
                    out[i] = v
                else:
                    del out[i]
            content = math.gcd(*out.values())
            vec = {i: val // content for i, val in out.items()} if content > 1 else out
    return len(pivots)
