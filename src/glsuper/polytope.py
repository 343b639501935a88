"""The rational polytope behind the simple-module lower bound.

Variables are (b_1, ..., b_k, a_1, ..., a_k).  At dilation d the system is

    sum(b) - 2*sum(a) = d
    b_u - b_{u+1} >= d/(2k^2)   (u = 1..k-1)
    b_1 <= -d/(2k^2)
    a_u - a_{u+1} >= 0
    a_1 <= 0
    0 <= sum(b) - sum(a) <= d
    a_v <= b_v               (v = 1..k)

Every constraint is homogeneous of degree one in (d, x), so the d-system is
the d-fold dilation of the d=1 polytope.  Lattice points are enumerated
exactly, or counted without being listed; the count is fitted by an Ehrhart
quasipolynomial with exact rational interpolation, and the coefficient-wise
minimum of the constituents gives the lower-bound polynomial Q.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Iterable, Mapping, Sequence

from .errors import (
    DegenerateCaseError,
    DomainError,
    FitError,
    InternalCheckError,
    ResourceLimitError,
)
from .ratlinalg import sparse_relations

ENUM_MAX_K = 3
ENUM_MAX_D = 200
# count_lattice_points(k, d) makes about d^(2k-3) / _CALL_DIVISOR[k] _clipped_sum
# calls: d/3.0 to d/3.4 (k=2) and d^3/102 to d^3/148 (k=3) for d = 50..200, and
# summed over d = 1..D, D >= 30, the prediction is 8% under to 13% over the count.
# A step is one call.  Counting k=3 at d = 1..128 (592,709 predicted steps) takes
# about 4.9 s on 2 CPUs with Python 3.11, a sixth of a 60 s limit on a host
# running at half that speed.
COUNT_MAX_STEPS = 600_000
_CALL_DIVISOR = {2: 3, 3: 115}

LinearCondition = tuple[tuple[Fraction, ...], Fraction]


@dataclass(frozen=True)
class RationalPolytope:
    """Exact H-representation; inequalities read coeffs . x >= rhs."""

    dim_ambient: int
    equalities: tuple[LinearCondition, ...]
    inequalities: tuple[LinearCondition, ...]

    def satisfies(self, point: Sequence, dilation: int = 1, strict: bool = False) -> bool:
        """Membership of point in the dilation-fold dilated polytope.

        With strict=True the inequalities must hold strictly (interior test);
        the equalities always hold exactly.
        """
        if len(point) != self.dim_ambient:
            raise DomainError(f"point has {len(point)} coordinates, expected {self.dim_ambient}")
        x = [Fraction(c) for c in point]
        for coeffs, rhs in self.equalities:
            if sum(c * v for c, v in zip(coeffs, x)) != rhs * dilation:
                return False
        for coeffs, rhs in self.inequalities:
            lhs = sum(c * v for c, v in zip(coeffs, x))
            if lhs < rhs * dilation or (strict and lhs == rhs * dilation):
                return False
        return True


def _unit(k: int, index: int, value) -> list[Fraction]:
    row = [Fraction(0)] * (2 * k)
    row[index] = Fraction(value)
    return row


def _system(k: int) -> RationalPolytope:
    gap = Fraction(1, 2 * k * k)
    eq_row = [Fraction(1)] * k + [Fraction(-2)] * k
    ineqs: list[LinearCondition] = []
    for u in range(k - 1):
        row = _unit(k, u, 1)
        row[u + 1] = Fraction(-1)
        ineqs.append((tuple(row), gap))
    ineqs.append((tuple(_unit(k, 0, -1)), gap))
    for u in range(k - 1):
        row = _unit(k, k + u, 1)
        row[k + u + 1] = Fraction(-1)
        ineqs.append((tuple(row), Fraction(0)))
    ineqs.append((tuple(_unit(k, k, -1)), Fraction(0)))
    diff_row = [Fraction(1)] * k + [Fraction(-1)] * k
    ineqs.append((tuple(diff_row), Fraction(0)))
    ineqs.append((tuple(-c for c in diff_row), Fraction(-1)))
    for v in range(k):
        row = _unit(k, v, 1)
        row[k + v] = Fraction(-1)
        ineqs.append((tuple(row), Fraction(0)))
    return RationalPolytope(2 * k, ((tuple(eq_row), Fraction(1)),), tuple(ineqs))


def build_polytope(k: int) -> RationalPolytope:
    """H-representation at d=1: one equality and 3k+2 inequalities."""
    if k < 2:
        raise DegenerateCaseError(
            "the polytope degenerates for k=1; use k1_degenerate_point()"
        )
    return _system(k)


def interior_witness(k: int) -> tuple[Fraction, ...]:
    """The explicit interior point with delta = 3/5 and delta' = (7k-13)/20."""
    if k < 2:
        raise DegenerateCaseError("interior witness needs k >= 2")
    delta = Fraction(3, 5)
    delta_prime = Fraction(7 * k - 13, 20)
    kk = Fraction(k * k)
    b = [-(1 + (i + 1) * delta) / kk for i in range(k)]
    a = [-(1 + (i + 1) * delta + delta_prime) / kk for i in range(k)]
    point = tuple(b + a)
    poly = build_polytope(k)
    if sum(point[:k]) - 2 * sum(point[k:]) != 1:
        raise InternalCheckError("witness misses the equality")
    if not poly.satisfies(point, strict=True):
        raise InternalCheckError("witness is not interior")
    return point


def k1_degenerate_point() -> tuple[int, int]:
    """The single point (-1, -1) the k=1 polytope collapses to."""
    point = (-1, -1)
    if not _system(1).satisfies(point):
        raise InternalCheckError("(-1, -1) is not a point of the k=1 system")
    return point


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


def _check_count_k(k: int) -> None:
    if k < 2:
        raise DegenerateCaseError("lattice counting needs k >= 2; see k1_degenerate_point()")
    if k > ENUM_MAX_K:
        raise ResourceLimitError(f"k={k} exceeds ENUM_MAX_K = {ENUM_MAX_K}")


def _clipped_sum(P: int, R: int, D: int, lo: int, hi: int) -> int:
    """Sum over e = lo..hi of max(0, min(P - ceil((e - D)/2), e + R)): with e = D + 2t - r
    (r = 0, 1) the ceiling is t, and the minimum is D + R - r + 2t up to
    t = (P - D + r - R) // 3, then P - t; both series are clipped at 0."""
    total = 0
    for r in (0, 1):
        t_lo, t_hi, t_c = (lo - D + r + 1) // 2, (hi - D + r) // 2, (P - D + r - R) // 3
        first, last = max(t_lo, (2 - D - R + r) // 2), min(t_hi, t_c)
        total += max(0, last - first + 1) * (D + R - r + first + last)
        first, last = max(t_lo, t_c + 1), min(t_hi, P - 1)
        total += max(0, last - first + 1) * (2 * P - first - last) // 2
    return total


@cache
def count_lattice_points(k: int, d: int) -> int:
    """The number of integer points of the d-dilated polytope, none of them built.

    The b are walked as in enumerate_lattice_points up to b_k = -d - sum(b_1..b_{k-1}) + 2e,
    e >= 0: exactly the b with sum(b) >= -d and sum(b) - d even.  The weakly decreasing
    a with a_v <= b_v, a_1 <= 0 and sum(a) = e - d are counted by a loop over a_1..a_{k-2},
    each at least the mean of the entries left, then one _clipped_sum over e for the last
    two.  The bound a_v >= -d holds unchecked: every a_v <= 0 and sum(a) >= -d.
    """
    _check_count_k(k)
    if d < 1:
        raise DomainError("dilation must be positive")
    if d > ENUM_MAX_D:
        raise ResourceLimitError(f"d={d} exceeds ENUM_MAX_D = {ENUM_MAX_D}")

    min_step = -(-d // (2 * k * k))

    def count_a(b: tuple, v: int, a_prev: int, sum_a: int, total_b: int, e_max: int) -> int:
        # weakly decreasing a_v..a_{k-1} (0-based), each <= a_prev and <= b_v, summing
        # to e - d - sum_a, for e = 0..e_max
        top = min(a_prev, b[v])
        if v == k - 2:
            # a_v >= ceil((e - d - sum_a)/2), a_v >= total_b - sum_a - e (a_{k-1} <= b_{k-1})
            return _clipped_sum(top + 1, top + 1 - total_b + sum_a, d + sum_a, 0, e_max)
        return sum(
            count_a(b, v + 1, a, sum_a + a, total_b, min(e_max, (k - v) * a + d + sum_a))
            for a in range(-((d + sum_a) // (k - v)), top + 1)
        )

    def walk_b(b: tuple, total_b: int) -> int:
        upper = b[-1] - min_step if b else -min_step
        if len(b) == k - 1:
            e_max = (upper + d + total_b) // 2
            return count_a(b, 0, 0, 0, total_b, e_max) if e_max >= 0 else 0
        return sum(walk_b(b + (value,), total_b + value) for value in range(-d, upper + 1))

    return walk_b((), 0)


def check_count_cost(k: int, ds: Iterable[int]) -> None:
    """Reject counting k at the dilations ds before any work if it would cost too much.

    Raises what count_lattice_points raises for k, and ResourceLimitError when
    the predicted number of _clipped_sum calls exceeds COUNT_MAX_STEPS.
    """
    _check_count_k(k)
    ds = list(ds)
    steps = sum(d ** (2 * k - 3) for d in ds) // _CALL_DIVISOR[k]
    if steps > COUNT_MAX_STEPS:
        raise ResourceLimitError(
            f"counting k={k} at {len(ds)} dilations up to d={max(ds)} predicts "
            f"{steps} steps, over the bound {COUNT_MAX_STEPS}"
        )


def brute_force_count(k: int, d: int) -> int:
    """Independent oracle: scan the full box [-d, 0]^{2k} (small d only)."""
    if d > 8 or k > 3:
        raise ResourceLimitError("box scan is for small d only")
    poly = _system(k)
    count = 0

    def rec(prefix: tuple[int, ...]) -> None:
        nonlocal count
        if len(prefix) == 2 * k:
            if poly.satisfies(prefix, dilation=d):
                count += 1
            return
        for v in range(-d, 1):
            rec(prefix + (v,))

    rec(())
    return count


@dataclass(frozen=True)
class QuasiPolynomial:
    """One degree <= 2k-1 polynomial per residue class; coefficients ascending."""

    period: int
    polys: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        if len(self.polys) != self.period:
            raise InternalCheckError(f"{len(self.polys)} constituents for period {self.period}")
        leading = {p[-1] for p in self.polys}
        if len(leading) != 1 or next(iter(leading)) <= 0:
            raise InternalCheckError("constituents must share one positive leading coefficient")

    @property
    def degree(self) -> int:
        return len(self.polys[0]) - 1

    @property
    def leading_coefficient(self) -> Fraction:
        return self.polys[0][-1]

    def value(self, d: int) -> Fraction:
        return eval_poly(self.polys[d % self.period], d)

    def to_json(self) -> dict:
        return {
            "period": self.period,
            "coefficients": [[str(c) for c in poly] for poly in self.polys],
        }


@cache
def vertices(k: int) -> tuple[tuple[Fraction, ...], ...]:
    """Exact vertex set of the d=1 polytope, by facet-subset enumeration.

    The equalities and each subset of inequalities made tight, dim rows in
    all, form one system A x = b.  It has a unique solution exactly when the
    columns of A and then b have rank dim with b dependent, and the solution
    is then minus the relation of b: b = sum x_c A_c.
    """
    poly = _system(k)
    dim = poly.dim_ambient
    found = set()
    for subset in itertools.combinations(poly.inequalities, dim - len(poly.equalities)):
        rows = [(*coeffs, rhs) for coeffs, rhs in poly.equalities + subset]
        # the columns of A, then b
        cols = [{r: row[c] for r, row in enumerate(rows) if row[c]} for c in range(dim + 1)]
        rank, relations = sparse_relations(cols)
        if rank < dim or dim not in relations:
            continue
        point = tuple(-Fraction(relations[dim].get(c, 0)) for c in range(dim))
        if poly.satisfies(point):
            found.add(point)
    return tuple(sorted(found))


@cache
def polytope_denominator(k: int) -> int:
    """lcm of the vertex coordinate denominators; the Ehrhart period divides it."""
    den = 1
    for vertex in vertices(k):
        for c in vertex:
            den = math.lcm(den, c.denominator)
    return den


def _interpolate(points: list[tuple[int, int]]) -> tuple[Fraction, ...]:
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


def fit_quasipolynomial(counts: Mapping[int, int], k: int) -> QuasiPolynomial:
    """Least consistent period with exact per-residue interpolation.

    The period search is bounded by the lcm of the polytope's vertex
    denominators, which the Ehrhart period divides.  Each residue class is
    interpolated through its first 2k samples and every remaining sample
    must be reproduced exactly; any residual rules the period out, so the
    smaller candidate periods face the most validation points.
    """
    if k < 2:
        raise DomainError("quasipolynomial fitting needs k >= 2")
    degree = 2 * k - 1
    needed = degree + 1
    ds = sorted(counts)
    for period in range(1, polytope_denominator(k) + 1):
        classes: dict[int, list[tuple[int, int]]] = {r: [] for r in range(period)}
        for d in ds:
            classes[d % period].append((d, counts[d]))
        if any(len(pts) < needed for pts in classes.values()):
            continue
        polys = []
        consistent = True
        for r in range(period):
            pts = classes[r]
            coeffs = _interpolate(pts[:needed])
            for d, c in pts[needed:]:
                if eval_poly(coeffs, d) != c:
                    consistent = False
                    break
            if not consistent:
                break
            polys.append(coeffs)
        if not consistent:
            continue
        leading = {p[-1] for p in polys}
        if len(leading) != 1 or next(iter(leading)) <= 0:
            continue
        return QuasiPolynomial(period, tuple(polys))
    raise FitError(f"no consistent period <= {polytope_denominator(k)} found")


def lower_bound_poly(q: QuasiPolynomial) -> tuple[Fraction, ...]:
    """Coefficient-wise minimum of the constituents; same degree and leading term."""
    return tuple(min(poly[j] for poly in q.polys) for j in range(q.degree + 1))


def eval_poly(coeffs: Iterable[Fraction], d: int) -> Fraction:
    acc = Fraction(0)
    for c in reversed(list(coeffs)):
        acc = acc * d + c
    return acc
