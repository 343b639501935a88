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
the d-fold dilation of the d=1 polytope.  One walk over the lattice points,
_walk, lists them or counts them without building any; the count is fitted by
an Ehrhart quasipolynomial with exact rational interpolation, and the
coefficient-wise minimum of the constituents gives the lower-bound polynomial Q.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from operator import mul, neg, sub
from typing import Callable, Iterable, Mapping, Sequence

from ._record import Record
from .errors import (
    DegenerateCaseError,
    DomainError,
    FitError,
    InternalCheckError,
    ResourceLimitError,
    is_int,
    require_int,
)
from .ratlinalg import sparse_relations

ENUM_MAX_K = 3
ENUM_MAX_D = 200
# enumerate_lattice_points lists at most this many points, counted first.  build_S
# takes 35 to 56 us and 0.5 KB per point on 2 CPUs with Python 3.11, so the bound is
# about 4 s, a fifteenth of the 60 s limit of one benchmark op; k = 3, d = 200
# (6,336,824 points) took 5.7 s and about 1 GB to list alone.
ENUM_MAX_POINTS = 70_000
# count_lattice_points(k, d) makes about d^(2k-3) / _CALL_DIVISOR[k] _clipped_sum
# calls: d/3.0 to d/3.4 (k=2) and d^3/102 to d^3/148 (k=3) for d = 50..200, and
# summed over d = 1..D, D >= 30, the prediction is 8% under to 13% over the count.
# A step is one call.  Counting k=3 at d = 1..128 (592,709 predicted steps) takes
# 0.8 to 1.3 s of CPU on 2 CPUs with Python 3.11, a twentieth of a 60 s limit even
# on a host running at half that speed.
COUNT_MAX_STEPS = 600_000
_CALL_DIVISOR = {2: 3, 3: 115}
# vertices(k) solves one tight system per choice of 2k-1 of the 3k+2
# inequalities, C(3k+2, 2k-1) in all, at 0.3 to 0.5 ms each on 2 CPUs with
# Python 3.11: k = 5 (24,310 systems) took 7 to 13 s; k = 6 would solve 167,960
VERTEX_MAX_SYSTEMS = 25_000

LinearCondition = tuple[tuple[int, ...], int | Fraction]


class RationalPolytope(Record):
    """Exact H-representation; inequalities read coeffs . x >= rhs."""

    __slots__ = ("dim_ambient", "equalities", "inequalities")

    def satisfies(self, point: Sequence, dilation: int = 1, strict: bool = False) -> bool:
        """Membership of point, exact int or Fraction coordinates, in the
        dilation-fold dilated polytope.

        With strict=True the inequalities must hold strictly (interior test);
        the equalities always hold exactly.
        """
        if len(point) != self.dim_ambient:
            raise DomainError(f"point has {len(point)} coordinates, expected {self.dim_ambient}")
        for coeffs, rhs in self.equalities:
            if sum(map(mul, coeffs, point)) != rhs * dilation:
                return False
        for coeffs, rhs in self.inequalities:
            lhs = sum(map(mul, coeffs, point))
            if lhs < rhs * dilation or (strict and lhs == rhs * dilation):
                return False
        return True


def _system(k: int) -> RationalPolytope:
    if k < 1:
        raise DomainError(f"the polytope needs k >= 1, got k={k}")
    gap = Fraction(1, 2 * k * k)
    unit = [tuple(int(i == j) for j in range(2 * k)) for i in range(2 * k)]

    def minus(i: int, j: int) -> tuple[int, ...]:
        return tuple(map(sub, unit[i], unit[j]))

    diff_row = (1,) * k + (-1,) * k
    ineqs: list[LinearCondition] = [(minus(u, u + 1), gap) for u in range(k - 1)]
    ineqs.append((tuple(map(neg, unit[0])), gap))
    ineqs += [(minus(k + u, k + u + 1), 0) for u in range(k - 1)]
    ineqs.append((tuple(map(neg, unit[k])), 0))
    ineqs += [(diff_row, 0), (tuple(map(neg, diff_row)), -1)]
    ineqs += [(minus(v, k + v), 0) for v in range(k)]
    return RationalPolytope(2 * k, (((1,) * k + (-2,) * k, 1),), tuple(ineqs))


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
    if not build_polytope(k).satisfies(point, strict=True):
        raise InternalCheckError("witness is not interior")
    return point


def k1_degenerate_point() -> tuple[int, int]:
    """(-1, -1), the one lattice point of the k=1 polytope at d = 1.

    The k=1 polytope is the segment from (-1, -1) to (-1/2, -3/4), not a
    point: (-1, -1) lies in no other dilation, and from d = 4 on the d-fold
    dilation holds more than one lattice point.
    """
    point = (-1, -1)
    if not _system(1).satisfies(point):
        raise InternalCheckError("(-1, -1) is not a point of the k=1 system")
    return point


def _walk(k: int, d: int, visit: Callable[..., int]) -> int:
    """The sum over the leaves of visit(b, a, top, sum(b), sum(a), e_max).

    b = b_1..b_{k-1} has each b_u in -d..b_{u-1} - ceil(d/2k^2), and b_k = 2e - d -
    sum(b) keeps its gap for e = 0..e_max: e >= 0 gives exactly the full b summing to
    at least -d with the parity of d, so every b_u >= -d, as all are negative.  The
    last walked b, b_{k-1}, starts at its first value with e_max >= 0, the larger of
    -d and -floor((d + b_1 + .. + b_{k-2} - ceil(d/2k^2))/2), so no leaf is empty for
    want of an e; the walk reaches the same leaves with the same arguments.  a =
    a_1..a_{k-2} starts the weakly decreasing a with a_v <= b_v and a_1 <= 0 that sum
    to e - d, each at least the mean of the entries left and lowering e_max to what
    they can sum to; top = min(a_{k-2}, b_{k-1}) bounds a_{k-1} (a_0 = 0).  a_v >= -d
    holds unchecked: every a_v <= 0 and e - d >= -d.  walk_a takes visit's arguments,
    top bounding the next a, and hands its last a to visit.
    """
    min_step = -(-d // (2 * k * k))

    def walk_a(b: tuple, a: tuple, top: int, sum_b: int, sum_a: int, e_max: int) -> int:
        v, left = len(a), k - len(a)
        step = walk_a if v < k - 3 else visit
        return sum(
            step(b, a + (x,), min(x, b[v + 1]), sum_b, sum_a + x, min(e_max, left * x + d + sum_a))
            for x in range(-((d + sum_a) // left), top + 1)
        )

    def walk_b(b: tuple, sum_b: int) -> int:
        upper = b[-1] - min_step if b else -min_step
        if len(b) < k - 1:
            low = -d if len(b) < k - 2 else max(-d, -((d + sum_b - min_step) // 2))
            return sum(walk_b(b + (value,), sum_b + value) for value in range(low, upper + 1))
        e_max = (upper + d + sum_b) // 2
        return (walk_a if k > 2 else visit)(b, (), min(0, b[0]), sum_b, 0, e_max)

    return walk_b((), 0)


def enumerate_lattice_points(k: int, d: int) -> list[tuple[int, ...]]:
    """All integer points of the d-dilated polytope, lexicographically sorted.

    Refuses more than ENUM_MAX_POINTS points, counted before any is listed.
    At each leaf of _walk and each e, a_{k-1} runs up to top from the larger of
    ceil(rest/2) (a_k <= a_{k-1}) and rest - b_k (a_k <= b_k), rest = a_{k-1} + a_k.
    """
    require_int("k", k)
    require_int("d", d)
    if k < 2:
        raise DegenerateCaseError("lattice enumeration needs k >= 2; see k1_degenerate_point()")
    if d < 1:
        raise DomainError("dilation must be positive")
    if k > ENUM_MAX_K or d > ENUM_MAX_D:
        raise ResourceLimitError(
            f"(k={k}, d={d}) exceeds (ENUM_MAX_K, ENUM_MAX_D) = ({ENUM_MAX_K}, {ENUM_MAX_D})"
        )
    total = count_lattice_points(k, d)
    if total > ENUM_MAX_POINTS:
        raise ResourceLimitError(
            f"(k={k}, d={d}) has {total} points, over the bound ENUM_MAX_POINTS = {ENUM_MAX_POINTS}"
        )
    points: list[tuple[int, ...]] = []

    def visit(b: tuple, a: tuple, top: int, sum_b: int, sum_a: int, e_max: int) -> int:
        for e in range(e_max + 1):
            last_b, rest = 2 * e - d - sum_b, e - d - sum_a
            low = max(-(-rest // 2), rest - last_b)
            points.extend((*b, last_b, *a, x, rest - x) for x in range(low, top + 1))
        return 0

    _walk(k, d, visit)
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
        # plain comparisons: max() and min() calls cost three times as much here
        first = (2 - D - R + r) // 2
        if first < t_lo:
            first = t_lo
        last = t_c if t_c < t_hi else t_hi
        if first <= last:
            total += (last - first + 1) * (D + R - r + first + last)
        first = t_c + 1 if t_c >= t_lo else t_lo
        last = P - 1 if P <= t_hi else t_hi
        if first <= last:
            total += (last - first + 1) * (2 * P - first - last) // 2
    return total


# typed: 2.0 and True must reach the checks, not the entries of 2 and 1
@lru_cache(maxsize=None, typed=True)
def count_lattice_points(k: int, d: int) -> int:
    """The number of integer points of the d-dilated polytope, none of them built.

    At each leaf of _walk, one _clipped_sum over e counts the a_{k-1} that
    enumerate_lattice_points lists there.
    """
    require_int("k", k)
    require_int("d", d)
    _check_count_k(k)
    if d < 1:
        raise DomainError("dilation must be positive")
    if d > ENUM_MAX_D:
        raise ResourceLimitError(f"d={d} exceeds ENUM_MAX_D = {ENUM_MAX_D}")

    def visit(b: tuple, a: tuple, top: int, sum_b: int, sum_a: int, e_max: int) -> int:
        return _clipped_sum(top + 1, top + 1 - sum_b + sum_a, d + sum_a, 0, e_max)

    return _walk(k, d, visit)


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
    """Independent oracle: scan the full box [-d, 0]^{2k} (d <= 8, k <= 3 only)."""
    if d < 1:
        raise DomainError("dilation must be positive")
    if d > 8 or k > 3:
        raise ResourceLimitError(f"box scan of (k={k}, d={d}) exceeds the bound d <= 8, k <= 3")
    poly = _system(k)
    return sum(poly.satisfies(point, dilation=d) for point in itertools.product(range(-d, 1), repeat=2 * k))


class QuasiPolynomial(Record):
    """One degree <= 2k-1 polynomial per residue class; coefficients ascending."""

    __slots__ = ("period", "polys")

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


@lru_cache(maxsize=None, typed=True)
def vertices(k: int) -> tuple[tuple[Fraction, ...], ...]:
    """Exact vertex set of the d=1 polytope, by facet-subset enumeration.

    The equalities and each subset of inequalities made tight, dim rows in
    all, form one system A x = b.  It has a unique solution exactly when the
    columns of A and then b have rank dim with b dependent, and the solution
    is then minus the relation of b: b = sum x_c A_c.
    """
    require_int("k", k)
    # the count grows with k, so past k = 9 the count at 9 stands in for the
    # count at k, which takes 0.8 s to work out at k = 10^5 and has too many
    # digits to print from about k = 5,200 on; _system refuses k < 1
    j = max(1, min(k, 9))
    systems = math.comb(3 * j + 2, 2 * j - 1)
    if systems > VERTEX_MAX_SYSTEMS:
        raise ResourceLimitError(
            f"vertices(k={k}) would solve {'more than ' if k > j else ''}{systems} tight systems, "
            f"over the bound VERTEX_MAX_SYSTEMS = {VERTEX_MAX_SYSTEMS}"
        )
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
        # the system is homogeneous: x lies in P exactly when L x lies in L P
        scale = math.lcm(*(c.denominator for c in point))
        if poly.satisfies([c.numerator * (scale // c.denominator) for c in point], dilation=scale):
            found.add(point)
    return tuple(sorted(found))


def polytope_denominator(k: int) -> int:
    """lcm of the vertex coordinate denominators; the Ehrhart period divides it."""
    return math.lcm(*(c.denominator for vertex in vertices(k) for c in vertex))


def _lagrange_weights(xs: Sequence[int]) -> tuple[int, list[int]]:
    """(L, [L / w_j]) for the distinct xs, w_j = prod over i != j of (x_j - x_i)
    and L the lcm of the w_j: the Lagrange basis over one integer denominator."""
    dens = [math.prod(x - y for y in xs if y != x) for x in xs]
    scale = math.lcm(*dens)
    return scale, [scale // w for w in dens]


def _interpolate(points: list[tuple[int, int]]) -> tuple[Fraction, ...]:
    """Ascending coefficients of the polynomial of degree len(points) - 1
    through the points (distinct d), by Lagrange's formula over one integer
    denominator: one Fraction per coefficient."""
    xs = [d for d, _ in points]
    scale, weights = _lagrange_weights(xs)
    # prod of (d - x), then each basis numerator prod over i != j by synthetic division
    full = [1]
    for x in xs:
        full = [u - x * v for u, v in zip([0] + full, full + [0])]
    numer = [0] * len(xs)
    for x, (_, c), w in zip(xs, points, weights):
        carry, factor = 0, c * w
        for j in range(len(xs), 0, -1):
            carry = full[j] + x * carry
            numer[j - 1] += factor * carry
    return tuple(Fraction(c, scale) for c in numer)


def _fits(ds: list[int], counts: Mapping[int, int], degree: int) -> bool:
    """Whether one polynomial of the degree passes through every (d, counts[d]):
    the top divided difference of each degree + 2 consecutive samples, scaled
    to an integer, is 0."""
    for start in range(len(ds) - degree - 1):
        window = ds[start:start + degree + 2]
        if sum(counts[d] * w for d, w in zip(window, _lagrange_weights(window)[1])):
            return False
    return True


def fit_quasipolynomial(counts: Mapping[int, int], k: int) -> QuasiPolynomial:
    """Least consistent period with exact per-residue interpolation.

    The period search is bounded by the lcm of the polytope's vertex
    denominators, which the Ehrhart period divides.  A period stands when each
    residue class holds at least 2k + 1 samples (2k and a holdout) and one
    polynomial of degree 2k-1 passes through all of them (an integer test); any
    residual rules it out, so the smaller candidate periods face the most
    validation points.  Each class of a period that stands is interpolated through
    its first 2k samples, and the constituents must share a positive leading coefficient.
    """
    require_int("k", k)
    if not all(map(is_int, itertools.chain(counts, counts.values()))):
        raise DomainError("dilations and counts must be integers")
    if k < 2:
        raise DomainError("quasipolynomial fitting needs k >= 2")
    degree = 2 * k - 1
    ds = sorted(counts)
    for period in range(1, polytope_denominator(k) + 1):
        classes: list[list[int]] = [[] for _ in range(period)]
        for d in ds:
            classes[d % period].append(d)
        if any(len(c) <= degree + 1 for c in classes):
            continue
        if all(_fits(c, counts, degree) for c in classes):
            polys = [_interpolate([(d, counts[d]) for d in c[:degree + 1]]) for c in classes]
            if len({p[-1] for p in polys}) == 1 and polys[0][-1] > 0:
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
