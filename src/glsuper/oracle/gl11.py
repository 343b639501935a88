"""Minimal projective resolutions in the principal block of gl(1|1).

Modules in the block are weight-graded with one-dimensional simples L(w) and
four-dimensional projective covers P(w); the odd unit x = E12 raises the
weight by one and y = E21 lowers it by one.  A resolution step computes the
head of the current kernel (the cokernel of the odd action), covers each
head vector by one projective, and takes the kernel of the cover with the
induced x and y on it.  Every step works one weight space at a time, so it
only ever eliminates the few columns of a single weight, with the one
elimination of ratlinalg: `sparse_pivots` for heads, `sparse_relations` for
kernels.  Minimality is structural: each projective covers exactly one head
vector.

The block is translation invariant, so one resolution of K(0) serves every
Kazhdan-Lusztig polynomial: K(lam) resolves as K(0) shifted by lam.
"""

from __future__ import annotations

import functools
import math

from .._record import Record
from ..errors import DomainError, InternalCheckError, ResourceLimitError, is_int
from ..ratlinalg import SparseCols, sparse_mul, sparse_pivots, sparse_rank, sparse_relations
from ..weights import SuperParams
from . import modules

GL11 = SuperParams(1, 1)
MAX_DEPTH = 25

# odd action columns shared by every projective cover P(w),
# on the ordered basis (1, y, x, yx) tensor the weight-w line
_X_COLS = ({2: 1}, {3: -1}, {}, {})
_Y_COLS = ({1: 1}, {}, {3: 1}, {})
_P_WEIGHT_OFFSETS = (0, -1, 1, 0)

# K(lam) and L(lam), which a resolution starts from: weight offsets from lam, x and y columns
_TARGETS = {"kac": ((0, -1), ({}, {}), ({1: 1}, {})), "simple": ((0,), ({},), ({},))}


def _tile(pattern: tuple[dict[int, int], ...], copies: int) -> SparseCols:
    """Block-diagonal sum of copies of a 4 x 4 pattern."""
    return [{4 * s + i: v for i, v in col.items()} for s in range(copies) for col in pattern]


def _weight_module(lam: int, offsets: tuple[int, ...], x, y) -> modules.MatrixModule:
    """Basis vectors of weights lam + offsets, odd where the offset is; x and y are copied."""
    diag = [lam + o for o in offsets]
    e11 = [{i: w} if w else {} for i, w in enumerate(diag)]
    e22 = [{i: -w} if w else {} for i, w in enumerate(diag)]
    units = {(1, 1): e11, (2, 2): e22, (1, 2): x, (2, 1): y}
    # flatten builds fresh lists, so an edited module reaches no later one
    actions = {unit: modules.flatten(cols) for unit, cols in units.items()}
    return modules.MatrixModule(GL11, len(diag), actions, tuple(o % 2 for o in offsets))


def _require_weights(*weights: int) -> None:
    if not all(map(is_int, weights)):
        raise DomainError(f"gl(1|1) weights must be integers, got {', '.join(map(repr, weights))}")


def gl11_projective(lam: int) -> modules.MatrixModule:
    """P(lam): four dimensional, head and socle L(lam), middle layer L(lam-1) + L(lam+1)."""
    return _weight_module(lam, _P_WEIGHT_OFFSETS, _X_COLS, _Y_COLS)


def gl11_kac(lam: int) -> modules.MatrixModule:
    """K(lam): two dimensional with head L(lam) and socle L(lam-1)."""
    return _weight_module(lam, *_TARGETS["kac"])


def gl11_simple(lam: int) -> modules.MatrixModule:
    return _weight_module(lam, *_TARGETS["simple"])


class ResolutionTrace(Record):
    """Multiset of projective covers per degree of a minimal resolution."""

    __slots__ = ("target", "depth", "degrees")

    def _degree(self, d: int) -> dict[int, int]:
        """Covers of degree d, refused unless the resolution was computed to it."""
        if not 0 <= d <= self.depth:
            raise DomainError(
                "degree must be nonnegative" if d < 0 else f"resolution computed to depth {self.depth} < {d}"
            )
        return self.degrees[d]

    def multiplicity(self, d: int, weight: int) -> int:
        return self._degree(d).get(weight, 0)

    def total(self, d: int, weighting: str = "dimP") -> int:
        count = sum(self._degree(d).values())
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


def _by_weight(weights: list[int]) -> dict[int, list[int]]:
    blocks: dict[int, list[int]] = {}
    for i, w in enumerate(weights):
        blocks.setdefault(w, []).append(i)
    return blocks


def _check_graded(
    name: str, cols: SparseCols, source: list[int], target: list[int], shift: int
) -> None:
    """Column j maps the weight source[j] into the weight source[j] + shift of the target."""
    for j, col in enumerate(cols):
        w = source[j]
        if any(target[i] != w + shift for i in col):
            raise InternalCheckError(f"{name} does not map weight {w} to {w + shift}")


def _head(blocks: dict[int, list[int]], x: SparseCols, y: SparseCols) -> list[tuple[int, int]]:
    """Basis indices spanning N / (xN + yN), one pair (weight, index) each.

    In weight w the image is spanned by x of weight w - 1 and y of weight
    w + 1; the basis vectors off the leading rows of its pivot columns
    complete it to the whole weight space.
    """
    reps: list[tuple[int, int]] = []
    for w in sorted(blocks):
        image = [x[j] for j in blocks.get(w - 1, ())] + [y[j] for j in blocks.get(w + 1, ())]
        pivots = sparse_pivots(image)
        reps.extend((w, i) for i in blocks[w] if i not in pivots)
    return reps


def _cover(x: SparseCols, y: SparseCols, reps: list[tuple[int, int]]) -> SparseCols:
    """Columns of the cover of N by one P(w) per head vector: images of (1, y, x, yx)."""
    yx = sparse_mul(y, [x[i] for _w, i in reps])
    cols: SparseCols = []
    for (_w, i), yxv in zip(reps, yx):
        cols.extend(({i: 1}, y[i], x[i], yxv))
    return cols


def _kernel(
    phi: SparseCols, p_weights: list[int], blocks: dict[int, list[int]]
) -> tuple[SparseCols, list[int], dict[int, int]]:
    """Kernel basis of the cover, weight by weight, one vector per free column.

    Returns the basis as columns in P, their weights, and for each free
    column of P the index of its basis vector: a kernel vector's
    coordinates are its entries at the free columns.
    """
    p_blocks = _by_weight(p_weights)
    embed: SparseCols = []
    kernel_weights: list[int] = []
    coordinate: dict[int, int] = {}
    for w in sorted(p_blocks.keys() | blocks.keys()):
        cols = p_blocks.get(w, [])
        rank, relations = sparse_relations([phi[j] for j in cols])
        if rank != len(blocks.get(w, ())):
            raise InternalCheckError(f"projective cover fails to surject onto weight {w}")
        for free, vec in relations.items():
            coordinate[cols[free]] = len(embed)
            embed.append({cols[j]: v for j, v in vec.items()})
            kernel_weights.append(w)
    return embed, kernel_weights, coordinate


def _induced(
    name: str, action: SparseCols, embed: SparseCols, coordinate: dict[int, int]
) -> SparseCols:
    """The action of P restricted to the kernel, in the kernel basis.

    Reading coordinates off the free columns is exact only for vectors of
    the kernel, so mapping the result back to P checks that it is one.
    """
    image = sparse_mul(action, embed)
    induced = [{coordinate[i]: v for i, v in col.items() if i in coordinate} for col in image]
    if sparse_mul(embed, induced) != image:
        raise InternalCheckError(f"the kernel is not stable under {name}")
    return induced


def gl11_minimal_resolution(kind: str, lam: int, depth: int) -> ResolutionTrace:
    """Minimal projective resolution of Kac(lam) or Simple(lam) to the given depth."""
    if depth > MAX_DEPTH:
        raise ResourceLimitError(f"depth {depth} exceeds MAX_DEPTH = {MAX_DEPTH}")
    if depth < 0:
        raise DomainError("depth must be nonnegative")
    if kind not in _TARGETS:
        raise DomainError(f"unknown resolution target {kind!r}")
    _require_weights(lam)
    offsets, x, y = _TARGETS[kind]
    weights = [lam + o for o in offsets]

    degrees: list[dict[int, int]] = []
    prev_embed: SparseCols | None = None
    prev_boundary: SparseCols | None = None
    for _d in range(depth + 1):
        _check_graded("x", x, weights, weights, 1)
        _check_graded("y", y, weights, weights, -1)
        blocks = _by_weight(weights)
        reps = _head(blocks, x, y)
        head: dict[int, int] = {}
        for w, _idx in reps:
            head[w] = head.get(w, 0) + 1
        degrees.append(head)

        phi = _cover(x, y, reps)
        p_weights = [w + o for w, _idx in reps for o in _P_WEIGHT_OFFSETS]
        _check_graded("the cover", phi, p_weights, weights, 0)

        boundary = phi if prev_embed is None else sparse_mul(prev_embed, phi)
        if prev_boundary is not None and any(sparse_mul(prev_boundary, boundary)):
            raise InternalCheckError("boundary composition is nonzero")
        prev_boundary = boundary

        embed, weights, coordinate = _kernel(phi, p_weights, blocks)
        # the rank of all of phi at once checks the split into weight spaces
        if len(embed) != len(p_weights) - sparse_rank(phi):
            raise InternalCheckError("kernel dimension mismatch")
        x = _induced("x", _tile(_X_COLS, len(reps)), embed, coordinate)
        y = _induced("y", _tile(_Y_COLS, len(reps)), embed, coordinate)
        prev_embed = embed

    return ResolutionTrace(f"{kind}({lam})", depth, tuple(degrees))


def gl11_ext(trace: ResolutionTrace, mu: int, d: int) -> int:
    """dim Ext^d(target, L(mu)) = multiplicity of P(mu) in degree d of the resolution."""
    return trace.multiplicity(d, mu)


@functools.cache
def _kac_trace() -> ResolutionTrace:
    """Resolution of K(0) to full depth; the block is translation invariant,
    so the multiplicity of P(mu) in degree n for K(lam) is that of P(mu - lam)."""
    return gl11_minimal_resolution("kac", 0, MAX_DEPTH)


def kl_poly_gl11(lam: int, mu: int) -> list[int]:
    """Naive Kazhdan-Lusztig polynomial of the pair in the gl(1|1) principal block.

    Coefficients ascending in q; the empty list is the zero polynomial.
    Checks the structural constraints: constant term one when nonzero,
    degree at most dim g_{-1} = 1, and value at one bounded by 1! = 1.
    """
    _require_weights(lam, mu)
    sep = mu - lam
    if sep > MAX_DEPTH:
        raise ResourceLimitError(
            f"pair separation {sep} needs resolution depth beyond MAX_DEPTH = {MAX_DEPTH}"
        )
    depth = min(MAX_DEPTH, max(2, sep + 2))
    trace = _kac_trace()
    mults = [trace._degree(n).get(sep, 0) for n in range(depth + 1)]
    found = [n for n, c in enumerate(mults) if c]
    # P(sep) in degree n adds to q^(sep - n), as l is the identity on this block,
    # so poly[e] is mults[sep - e], down to the lowest degree holding P(sep)
    if found and found[-1] > sep:
        raise InternalCheckError("negative exponent in KL polynomial")
    poly = mults[found[0] : sep + 1][::-1] if found else []
    if poly and poly[0] != 1:
        raise InternalCheckError("constant term must be one")
    if len(poly) - 1 > 1:
        raise InternalCheckError("degree exceeds dim g_{-1}")
    if sum(poly) > 1:
        raise InternalCheckError("coefficient sum exceeds k!")
    return poly


class GrowthFit(Record):
    """Measured polynomial rate of a resolution: rounded rate and the raw slope."""

    __slots__ = ("rate", "slope")


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
