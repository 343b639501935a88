"""Small exact linear algebra kernel.

Matrices use the sparse column layout below, with integer entries wherever
they are integral: sparse products, and one fraction-free elimination,
`sparse_pivots`, for ranks, pivot columns and the relations among columns
(kernels and solves).  A Fraction is built, and `fractions` (which loads
`decimal`) imported, only where a value is non-integral: in
`sparse_relations` for a relation entry that does not divide, and in the
dense routines, so integral work such as the gl(1|1) resolutions loads
neither.  The dense `rref`, `zeros` and `mat_mul` have no caller in the
package (tests/test_lint.py keeps it so); they stay for the tests' dense
oracle, tests/dense_linalg.py, and because `perfbench/tracer.py` patches
`rref` and `mat_mul` by name.
"""

from __future__ import annotations

import math

Matrix = list[list["Fraction"]]


def zeros(rows: int, cols: int) -> Matrix:
    from fractions import Fraction

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


def rref(a: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and pivot column indices."""
    from fractions import Fraction

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


# column-major sparse helpers: cols[j] maps row index to a nonzero entry,
# an int when the entry is integral and a Fraction otherwise

SparseCols = list[dict[int, "int | Fraction"]]


def exact(value: int | Fraction) -> int | Fraction:
    """The entry as an int when it is integral, else as a Fraction."""
    return value.numerator if value.denominator == 1 else value


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


def sparse_pivots(cols: SparseCols) -> dict[int, dict[int, int]]:
    """Pivot columns of a fraction-free elimination, keyed by lowest row index.

    Each column is scaled to integers and reduced against the pivot columns
    found so far.  A pivot column is keyed by its lowest row index, and a
    reduction step cancels that row, so the lowest row of the column being
    reduced strictly rises until it is zero or opens a new pivot.  Removing
    the content after each step keeps the integers small.  The keys are the
    leading row indices of the column span, the pivot columns of the
    reduced row echelon form of the columns taken as rows.
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
    return pivots


def sparse_rank(cols: SparseCols) -> int:
    return len(sparse_pivots(cols))


def sparse_relations(cols: SparseCols) -> tuple[int, dict[int, dict[int, int | Fraction]]]:
    """Rank of the columns, and the relation of each column j dependent on earlier ones.

    With top the largest row index in use, column j gets one tag entry 1 at
    row top + len(cols) - j, and sparse_pivots runs on the tagged columns.  A pivot keyed at
    a real row counts towards the rank.  A dependent column reduces to a
    combination of its own tag and the tags of earlier pivot columns, so it
    is keyed at its own tag; scaled to 1 there it is the relation 1 at j
    minus the coordinates of column j on the earlier pivot columns: the
    kernel vector of the reduced row echelon form for the free column j.
    """
    top = max(map(max, filter(None, cols)), default=-1)
    end = top + len(cols)
    pivots = sparse_pivots([{**col, end - j: 1} for j, col in enumerate(cols)])
    relations: dict[int, dict[int, int | Fraction]] = {}
    for low, vec in pivots.items():
        if low > top:
            # v / p as exact() gives it, without building a Fraction for an int
            p = vec[low]
            relation = relations[end - low] = {}
            for i, v in vec.items():
                if v % p == 0:
                    relation[end - i] = v // p
                else:
                    from fractions import Fraction  # only here: gl(1|1) relations are integral

                    relation[end - i] = Fraction(v, p)
    return len(pivots) - len(relations), relations
