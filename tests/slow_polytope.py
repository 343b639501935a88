"""Slow oracles for glsuper.polytope, the package's earlier implementations kept
unchanged as references: the enumerator that walks every b coordinate and then
filters by sum and parity (now the count's walk, with the last b and the last
two a read off per leaf), the count-only lattice kernel that loops over every b
coordinate, the last one included (now summed in closed form), the vertex
solve by dense row reduction of [coeffs | rhs] (now a sparse column relation),
and the fit that interpolated every residue class of each candidate period by
Newton divided differences over Fractions and then checked the remaining
samples (now an integer window test, and one interpolation per class of the
period that passes it)."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from glsuper.errors import DegenerateCaseError, DomainError, FitError, ResourceLimitError
from glsuper.polytope import (
    ENUM_MAX_D,
    ENUM_MAX_K,
    QuasiPolynomial,
    _check_count_k,
    _system,
    eval_poly,
    polytope_denominator,
)
from glsuper.ratlinalg import rref


def enumerate_lattice_points(k: int, d: int) -> list[tuple[int, ...]]:
    """All integer points of the d-dilated polytope, lexicographically sorted.

    The box bound [-d, 0]^{2k} follows from the constraints: the a_i are
    <= a_1 <= 0 and sum(a) = (sum(b) - d)/2 >= -d, so each a_i >= sum(a); the
    b_i are negative with sum(b) = d + 2 sum(a) >= -d, so each b_i >= sum(b).
    Enumeration walks coordinates in order with interval pruning.
    """
    if k < 2:
        raise DegenerateCaseError("lattice enumeration needs k >= 2; see k1_degenerate_point()")
    if d < 1:
        raise DomainError("dilation must be positive")
    if k > ENUM_MAX_K or d > ENUM_MAX_D:
        raise ResourceLimitError(
            f"(k={k}, d={d}) exceeds (ENUM_MAX_K, ENUM_MAX_D) = ({ENUM_MAX_K}, {ENUM_MAX_D})"
        )

    gap = Fraction(d, 2 * k * k)
    min_step = math.ceil(gap)  # integer b-gaps must be >= ceil(d/2k^2)
    points: list[tuple[int, ...]] = []

    def extend_a(b: tuple[int, ...], prefix: tuple[int, ...], remaining_sum: int) -> None:
        filled = len(prefix)
        if filled == k:
            if remaining_sum == 0:
                points.append(b + prefix)
            return
        upper = min(prefix[-1] if prefix else 0, b[filled])
        left = k - filled - 1
        # each later entry lies in [-d, a_current]
        lo = max(-d, remaining_sum - left * upper if left else remaining_sum)
        for a_val in range(lo, upper + 1):
            rest = remaining_sum - a_val
            if rest > left * a_val or rest < -left * d:
                continue
            extend_a(b, prefix + (a_val,), rest)

    def extend_b(prefix: tuple[int, ...]) -> None:
        filled = len(prefix)
        if filled == k:
            total_b = sum(prefix)
            if total_b < -d or (total_b - d) % 2:
                return
            extend_a(prefix, (), (total_b - d) // 2)
            return
        upper = prefix[-1] - min_step if prefix else -min_step
        for b_val in range(-d, upper + 1):
            extend_b(prefix + (b_val,))

    extend_b(())
    points.sort()
    return points


def count_lattice_points(k: int, d: int) -> int:
    """The number of integer points of the d-dilated polytope, none of them built.

    The b coordinates are walked as in enumerate_lattice_points; the last one
    steps by 2 from -d - sum(b_1..b_{k-1}), which keeps exactly the b with
    sum(b) >= -d and sum(b) - d even.  For each b this counts the weakly
    decreasing a with a_v <= b_v, a_1 <= 0 and sum(a) = (sum(b) - d)/2: a loop
    over a_1..a_{k-2}, then the last two in closed form.  The bound a_v >= -d
    holds without a check, since every a_v <= 0 and sum(a) >= -d.
    """
    _check_count_k(k)
    if d < 1:
        raise DomainError("dilation must be positive")
    if d > ENUM_MAX_D:
        raise ResourceLimitError(f"d={d} exceeds ENUM_MAX_D = {ENUM_MAX_D}")

    min_step = -(-d // (2 * k * k))
    b = [0] * k

    def count_a(v: int, a_prev: int, rest: int) -> int:
        # weakly decreasing a_v..a_{k-1} (0-based), each <= a_prev and <= b_v, summing to rest
        if v == k - 2:
            # a_v = x and a_{k-1} = rest - x need rest - x <= x and rest - x <= b_{k-1}
            return max(0, min(a_prev, b[v]) - max(-(-rest // 2), rest - b[v + 1]) + 1)
        # a_v is the largest of the k - v entries left, so at least their mean
        return sum(
            count_a(v + 1, a, rest - a)
            for a in range(-(-rest // (k - v)), min(a_prev, b[v]) + 1)
        )

    def walk_b(v: int, total_b: int) -> int:
        upper = b[v - 1] - min_step if v else -min_step
        found = 0
        if v < k - 1:
            for value in range(-d, upper + 1):
                b[v] = value
                found += walk_b(v + 1, total_b + value)
            return found
        # sum(b) = -d + 2 * excess, so sum(a) = excess - d
        for excess, value in enumerate(range(-d - total_b, upper + 1, 2)):
            b[v] = value
            found += count_a(0, 0, excess - d)
        return found

    return walk_b(0, 0)


def vertices(k: int) -> tuple[tuple[Fraction, ...], ...]:
    """Exact vertex set of the d=1 polytope, by facet-subset enumeration.

    The equalities and each subset of inequalities made tight, dim rows in
    all, form one augmented system [coeffs | rhs].  It has a unique solution
    exactly when its echelon form has a pivot in every coefficient column,
    and the solution is then its last column.
    """
    poly = _system(k)
    dim = poly.dim_ambient
    eq_rows = [list(c) + [r] for c, r in poly.equalities]
    ineq_rows = [list(c) + [r] for c, r in poly.inequalities]
    found = set()
    for subset in itertools.combinations(range(len(ineq_rows)), dim - len(eq_rows)):
        reduced, pivots = rref(eq_rows + [ineq_rows[i] for i in subset])
        if len(pivots) < dim or dim in pivots:
            continue
        point = tuple(row[dim] for row in reduced)
        if poly.satisfies(point):
            found.add(point)
    return tuple(sorted(found))


def interpolate(points: list[tuple[int, int]]) -> tuple[Fraction, ...]:
    """Ascending coefficients of the polynomial of degree len(points) - 1
    through the points (distinct d), by Newton divided differences."""
    xs = [d for d, _ in points]
    diffs = [Fraction(c) for _, c in points]
    for level in range(1, len(points)):
        for i in range(len(points) - 1, level - 1, -1):
            diffs[i] = (diffs[i] - diffs[i - 1]) / (xs[i] - xs[i - level])
    # expand diffs[0] + (d - x_0)(diffs[1] + (d - x_1)(diffs[2] + ...)) from the inside out
    coeffs = [diffs[-1]]
    for x, c in zip(reversed(xs[:-1]), reversed(diffs[:-1])):
        coeffs = [u - x * v for u, v in zip([Fraction(0)] + coeffs, coeffs + [Fraction(0)])]
        coeffs[0] += c
    return tuple(coeffs)


def fit_quasipolynomial(counts: dict[int, int], k: int) -> QuasiPolynomial:
    """Least consistent period with exact per-residue interpolation.

    Each residue class of each candidate period needs 2k samples plus at
    least one more to check; it is interpolated through its first 2k samples,
    and every remaining sample must be reproduced exactly.
    """
    if k < 2:
        raise DomainError("quasipolynomial fitting needs k >= 2")
    needed = 2 * k
    ds = sorted(counts)
    for period in range(1, polytope_denominator(k) + 1):
        classes: list[list[tuple[int, int]]] = [[] for _ in range(period)]
        for d in ds:
            classes[d % period].append((d, counts[d]))
        if any(len(pts) <= needed for pts in classes):
            continue
        polys = []
        for pts in classes:
            coeffs = interpolate(pts[:needed])
            if any(eval_poly(coeffs, d) != c for d, c in pts[needed:]):
                break
            polys.append(coeffs)
        else:
            if len({p[-1] for p in polys}) == 1 and polys[0][-1] > 0:
                return QuasiPolynomial(period, tuple(polys))
    raise FitError(f"no consistent period <= {polytope_denominator(k)} found")
