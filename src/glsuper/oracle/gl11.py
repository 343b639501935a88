"""Minimal projective resolutions in the principal block of gl(1|1).

Modules in the block are weight-graded with one-dimensional simples L(w) and
four-dimensional projective covers P(w).  A resolution step computes the
head of the current kernel (the cokernel of the odd action), covers each
head vector by one projective, lifts the surjection by exact linear algebra,
and recurses on the new kernel.  Minimality is structural: each projective
covers exactly one head vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from ..errors import DomainError, ResourceLimitError
from ..ratlinalg import (
    Matrix,
    SparseCols,
    columns_of,
    is_zero,
    mat_mul,
    mat_vec,
    nullspace,
    rank as mat_rank,
    solve,
    to_dense,
)
from ..weights import SuperParams
from .modules import MatrixModule

GL11 = SuperParams(1, 1)
MAX_DEPTH = 25

# odd action columns shared by every projective cover P(w),
# on the ordered basis (1, y, x, yx) tensor the weight-w line
_X_COLS = ({2: 1}, {3: -1}, {}, {})
_Y_COLS = ({1: 1}, {}, {3: 1}, {})
_P_WEIGHT_OFFSETS = (0, -1, 1, 0)


def _tile(pattern: tuple[dict[int, int], ...], copies: int) -> SparseCols:
    """Block-diagonal sum of copies of a 4 x 4 pattern."""
    return [{4 * s + i: v for i, v in col.items()} for s in range(copies) for col in pattern]


def _weight_module(
    diag: list[int], x: SparseCols, y: SparseCols, parity: tuple[int, ...]
) -> MatrixModule:
    e11 = [{i: w} if w else {} for i, w in enumerate(diag)]
    e22 = [{i: -w} if w else {} for i, w in enumerate(diag)]
    return MatrixModule(GL11, len(diag), {(1, 1): e11, (2, 2): e22, (1, 2): x, (2, 1): y}, parity)


def gl11_projective(lam: int) -> MatrixModule:
    """P(lam): four dimensional, head and socle L(lam), middle layer L(lam-1) + L(lam+1)."""
    weights = [lam + o for o in _P_WEIGHT_OFFSETS]
    return _weight_module(weights, _tile(_X_COLS, 1), _tile(_Y_COLS, 1), (0, 1, 1, 0))


def gl11_kac(lam: int) -> MatrixModule:
    """K(lam): two dimensional with head L(lam) and socle L(lam-1)."""
    return _weight_module([lam, lam - 1], [{}, {}], [{1: 1}, {}], (0, 1))


def gl11_simple(lam: int) -> MatrixModule:
    return _weight_module([lam], [{}], [{}], (0,))


@dataclass(frozen=True)
class ResolutionTrace:
    """Multiset of projective covers per degree of a minimal resolution."""

    target: str
    depth: int
    degrees: tuple[dict[int, int], ...]

    def multiplicity(self, d: int, weight: int) -> int:
        return self.degrees[d].get(weight, 0)

    def total(self, d: int, weighting: str = "dimP") -> int:
        count = sum(self.degrees[d].values())
        if weighting == "dimP":
            return 4 * count
        if weighting == "unit":
            return count
        raise DomainError(f"unknown weighting {weighting!r}")

    def to_json(self) -> list[dict]:
        return [
            {
                "degree": d,
                "summands": [
                    {"weight": w, "multiplicity": c} for w, c in sorted(self.degrees[d].items())
                ],
                "total_dim": self.total(d),
            }
            for d in range(self.depth + 1)
        ]


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


def gl11_ext(trace: ResolutionTrace, mu: int, d: int) -> int:
    """dim Ext^d(target, L(mu)) = multiplicity of P(mu) in degree d of the resolution."""
    if d > trace.depth:
        raise DomainError(f"resolution computed to depth {trace.depth} < {d}")
    if d < 0:
        raise DomainError("degree must be nonnegative")
    return trace.multiplicity(d, mu)


def kl_poly_gl11(lam: int, mu: int) -> list[int]:
    """Naive Kazhdan-Lusztig polynomial of the pair in the gl(1|1) principal block.

    Coefficients ascending in q; the empty list is the zero polynomial.
    Asserts the structural constraints: constant term one when nonzero,
    degree at most dim g_{-1} = 1, and value at one bounded by 1! = 1.
    """
    if mu - lam > MAX_DEPTH:
        raise ResourceLimitError(
            f"pair separation {mu - lam} needs resolution depth beyond {MAX_DEPTH}"
        )
    depth = min(MAX_DEPTH, max(2, mu - lam + 2))
    trace = gl11_minimal_resolution("kac", lam, depth)
    coeffs: dict[int, int] = {}
    for n in range(depth + 1):
        mult = trace.multiplicity(n, mu)
        if mult:
            exponent = (mu - lam) - n  # l is the identity on this block
            assert exponent >= 0, "negative exponent in KL polynomial"
            coeffs[exponent] = coeffs.get(exponent, 0) + mult
    if not coeffs:
        return []
    poly = [0] * (max(coeffs) + 1)
    for e, c in coeffs.items():
        poly[e] = c
    assert poly[0] == 1, "constant term must be one"
    assert len(poly) - 1 <= 1, "degree exceeds dim g_{-1}"
    assert sum(poly) <= 1, "coefficient sum exceeds k!"
    return poly


@dataclass(frozen=True)
class GrowthFit:
    """Measured polynomial rate of a resolution: rounded rate and the raw slope."""

    rate: int
    slope: float


def measured_growth(trace: ResolutionTrace, weighting: str = "dimP") -> GrowthFit:
    """Least-squares slope of log(total dim) vs log(degree) over the top half of degrees.

    The measured rate of growth is slope + 1 rounded to the nearest integer,
    matching the convention that constants have rate one.
    """
    lo = max(1, trace.depth // 2)
    points = [
        (math.log(d), math.log(trace.total(d, weighting)))
        for d in range(lo, trace.depth + 1)
        if trace.total(d, weighting) > 0
    ]
    if not points:
        return GrowthFit(0, 0.0)
    if len(points) == 1:
        return GrowthFit(1, 0.0)
    mean_x = sum(p[0] for p in points) / len(points)
    mean_y = sum(p[1] for p in points) / len(points)
    sxx = sum((p[0] - mean_x) ** 2 for p in points)
    sxy = sum((p[0] - mean_x) * (p[1] - mean_y) for p in points)
    slope = sxy / sxx
    return GrowthFit(int(math.floor(slope + 0.5)) + 1, slope)
