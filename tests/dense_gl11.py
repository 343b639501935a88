"""Dense gl(1|1) minimal resolution, the tests' slow oracle for the
weight-graded one in glsuper.oracle.gl11: global Fraction elimination over
the whole kernel at every degree, about d^4 work to depth d."""

from __future__ import annotations

from fractions import Fraction

from dense_linalg import (
    columns_of,
    is_zero,
    mat_vec,
    nullspace,
    rank as mat_rank,
    solve,
    to_dense,
)
from glsuper.errors import DomainError, ResourceLimitError
from glsuper.oracle.gl11 import (
    MAX_DEPTH,
    _P_WEIGHT_OFFSETS,
    _X_COLS,
    _Y_COLS,
    ResolutionTrace,
    _tile,
    gl11_kac,
    gl11_simple,
)
from glsuper.ratlinalg import Matrix, mat_mul


def _head_representatives(weights: list[int], x: Matrix, y: Matrix) -> list[tuple[int, int]]:
    """Standard basis indices spanning N / (xN + yN), one pair (weight, index) each."""
    reps: list[tuple[int, int]] = []
    image_cols = columns_of(x) + columns_of(y)
    for w in sorted(set(weights)):
        rows = [i for i, wt in enumerate(weights) if wt == w]
        basis: list[list[Fraction]] = []

        def reduce_against(vec: list[Fraction]) -> list[Fraction]:
            for b in basis:
                pivot = next(i for i, v in enumerate(b) if v)
                if vec[pivot]:
                    factor = vec[pivot] / b[pivot]
                    vec = [v - factor * bv for v, bv in zip(vec, b)]
            return vec

        for col in image_cols:
            vec = reduce_against([col[i] for i in rows])
            if any(vec):
                basis.append(vec)
        for pos, row_idx in enumerate(rows):
            probe = [Fraction(0)] * len(rows)
            probe[pos] = Fraction(1)
            vec = reduce_against(probe)
            if any(vec):
                basis.append(vec)
                reps.append((w, row_idx))
    return reps


def _restrict(mat: Matrix, rows: list[int], cols: list[int]) -> Matrix:
    return [[mat[i][j] for j in cols] for i in rows]


def gl11_minimal_resolution(kind: str, lam: int, depth: int) -> ResolutionTrace:
    """Minimal projective resolution of Kac(lam) or Simple(lam) to the given depth."""
    if depth > MAX_DEPTH:
        raise ResourceLimitError(f"depth {depth} exceeds {MAX_DEPTH}")
    if depth < 0:
        raise DomainError("depth must be nonnegative")
    if kind == "kac":
        target = gl11_kac(lam)
    elif kind == "simple":
        target = gl11_simple(lam)
    else:
        raise DomainError(f"unknown resolution target {kind!r}")

    diag = target.weight_diagonal()
    weights = [entry[0] for entry in diag]
    x = to_dense(target.action(1, 2), target.dim)
    y = to_dense(target.action(2, 1), target.dim)

    degrees: list[dict[int, int]] = []
    prev_embed: Matrix | None = None
    prev_boundary: Matrix | None = None
    for _d in range(depth + 1):
        reps = _head_representatives(weights, x, y)
        head: dict[int, int] = {}
        for w, _idx in reps:
            head[w] = head.get(w, 0) + 1
        degrees.append(head)
        if not reps:
            continue

        # one projective cover per head vector; columns are images of (1, y, x, yx)
        x_cols = columns_of(x)
        y_cols = columns_of(y)
        phi_cols: list[list[Fraction]] = []
        p_weights: list[int] = []
        for w, idx in reps:
            v = [Fraction(0)] * len(weights)
            v[idx] = Fraction(1)
            yv = list(y_cols[idx])
            xv = list(x_cols[idx])
            yxv = mat_vec(y, xv)
            phi_cols.extend([v, yv, xv, yxv])
            p_weights.extend(w + o for o in _P_WEIGHT_OFFSETS)
        phi = [[phi_cols[j][i] for j in range(len(phi_cols))] for i in range(len(weights))]
        assert mat_rank(phi) == len(weights), "projective cover fails to surject"

        boundary = phi if prev_embed is None else mat_mul(prev_embed, phi)
        if prev_boundary is not None:
            assert is_zero(mat_mul(prev_boundary, boundary)), "boundary composition is nonzero"
        prev_boundary = boundary

        # kernel, weight block by weight block, to keep the basis homogeneous
        dim_p = len(p_weights)
        kernel_cols: list[list[Fraction]] = []
        kernel_weights: list[int] = []
        for w in sorted(set(p_weights)):
            cols_idx = [j for j, wt in enumerate(p_weights) if wt == w]
            rows_idx = [i for i, wt in enumerate(weights) if wt == w]
            sub = _restrict(phi, rows_idx, cols_idx)
            if not rows_idx:
                sub = [[Fraction(0)] * len(cols_idx)]
            for vec in nullspace(sub):
                full = [Fraction(0)] * dim_p
                for j, val in zip(cols_idx, vec):
                    full[j] = val
                kernel_cols.append(full)
                kernel_weights.append(w)
        assert len(kernel_weights) == dim_p - mat_rank(phi), "kernel dimension mismatch"

        x_p = to_dense(_tile(_X_COLS, len(reps)), dim_p)
        y_p = to_dense(_tile(_Y_COLS, len(reps)), dim_p)

        embed = [[kernel_cols[j][i] for j in range(len(kernel_cols))] for i in range(dim_p)]
        if kernel_cols:
            x = solve(embed, mat_mul(x_p, embed))
            y = solve(embed, mat_mul(y_p, embed))
        else:
            x = []
            y = []
        weights = kernel_weights
        prev_embed = embed

    return ResolutionTrace(f"{kind}({lam})", depth, tuple(degrees))
