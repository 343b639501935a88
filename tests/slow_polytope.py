"""Slow oracles for glsuper.polytope, the package's earlier implementations kept
unchanged as references: the count-only lattice kernel that loops over every b
coordinate, the last one included (now summed in closed form), and the vertex
solve by dense row reduction of [coeffs | rhs] (now a sparse column relation)."""

from __future__ import annotations

import itertools
from fractions import Fraction

from glsuper.errors import DomainError, ResourceLimitError
from glsuper.polytope import ENUM_MAX_D, _check_count_k, _system
from glsuper.ratlinalg import rref


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
