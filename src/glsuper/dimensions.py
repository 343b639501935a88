"""Dimension formulas, partition counts, and Ext-degree bookkeeping.

The Weyl dimension formula is evaluated in exact integers, as one numerator
and one denominator product, and a gate checks that their quotient is a
positive integer; ``oracle.gt`` shares this one formula.  The Cauchy
decomposition of the symmetric powers of the dual odd part for gl(k|k)
serves as the independent oracle against the closed-form Hom-space
criterion ``kac_ext_trivial``.
"""

from __future__ import annotations

from typing import Iterator

from ._record import Record
from .errors import DomainError, InternalCheckError, ParameterError, ResourceLimitError, require_int
from .weights import (
    SuperParams,
    Weight,
    bruhat_leq_principal,
    is_principal_block_gl_kk,
    length,
    naive_length,
    require_dominant,
)

CAUCHY_MAX_K = 4
CAUCHY_MAX_D = 30

# partitions_at_most_k_parts(i, k) takes i * min(i, k) steps and a row of i + 1
# ints; measured on 2 CPUs with Python 3.11 at 0.10 to 0.19 s for 2,000,000
# steps ((20000, 100), (1414, 1414), (2000000, 1)).  Cauchy-sized arguments
# (i <= CAUCHY_MAX_D, k <= CAUCHY_MAX_K) take at most 120.
PARTITIONS_MAX_WORK = 2_000_000

# weyl_dim_gl on r entries multiplies F = r(r-1)/2 factors of at most b bits
# into one numerator that grows by b bits a factor, so it takes about
# F^2 * b * max(b, 64) steps: linear in the numerator's size while a factor
# fits a machine word, about quadratic in b beyond.  Measured on 2 CPUs with
# Python 3.11 at 1.0e12 to 2.4e12 steps per second: gl(300) with entries in
# -6..6 (1.2e12 steps) 0.89 s, gl(400) (3.7e12) 2.8 s, gl(150) with 40-digit
# entries (2.2e12) 2.3 s, gl(20) with 4,000-digit entries (6.4e12) 3.5 s.
# The bound admits about 4 s at the slowest rate.
WEYL_MAX_WORK = 4 * 10**12


class DimBound(Record):
    """Bracket 2^{dim g_1bar} * dim L0 >= dim P >= dim L0 for a projective cover."""

    __slots__ = ("lower", "upper")

    def __post_init__(self) -> None:
        if not 1 <= self.lower <= self.upper:
            raise ParameterError("need 1 <= lower <= upper")

    def contains(self, value: int) -> bool:
        return self.lower <= value <= self.upper


class ExtDegreeWindow(Record):
    """Admissible Ext degrees d = base + b with b in {0, ..., width = mn}."""

    __slots__ = ("base", "width")

    def admissible(self, d: int) -> bool:
        return d >= 0 and self.base <= d <= self.base + self.width


def weyl_dim_gl(hw: tuple[int, ...]) -> int:
    """Weyl dimension formula for gl(r): prod (l_i - l_j)/(j - i) with l = hw + staircase."""
    r = len(hw)
    num = den = 1
    for i in range(r):
        for j in range(i + 1, r):
            num *= hw[i] - hw[j] + j - i
            den *= j - i
    value, rem = divmod(num, den)
    if rem or value <= 0:
        from fractions import Fraction  # only here: classify need not import it

        raise InternalCheckError(
            f"Weyl dimension of {hw} is {Fraction(num, den)}, not a positive integer"
        )
    return value


def weyl_work_gl(hw: tuple[int, ...]) -> int:
    """Predicted steps of weyl_dim_gl(hw), F^2 * b * max(b, 64) with F = r(r-1)/2 factors."""
    r = len(hw)
    # every factor hw[i] - hw[j] + j - i is at most this in absolute value
    bits = (max(hw, default=0) - min(hw, default=0) + r - 1).bit_length()
    return (r * (r - 1) // 2) ** 2 * bits * max(bits, 64)


def weyl_work(mu: Weight) -> int:
    """Predicted steps of weyl_dim_g0(mu), the sum over its factors gl(m) and gl(n)."""
    m = mu.params.m
    return weyl_work_gl(mu.coeffs[:m]) + weyl_work_gl(mu.coeffs[m:])


def check_weyl_work(work: int) -> None:
    """Refuse Weyl formulas predicted to take more than WEYL_MAX_WORK steps in all."""
    if work > WEYL_MAX_WORK:
        raise ResourceLimitError(
            f"the Weyl dimension formulas would take {work} predicted steps, "
            f"over the bound WEYL_MAX_WORK = {WEYL_MAX_WORK}"
        )


def weyl_dim_g0(mu: Weight) -> int:
    """Dimension of the simple gl(m) x gl(n) module with highest weight mu; a
    Weyl formula over WEYL_MAX_WORK is refused before it runs."""
    check_weyl_work(weyl_work(mu))
    require_dominant(mu)
    m = mu.params.m
    return weyl_dim_gl(mu.coeffs[:m]) * weyl_dim_gl(mu.coeffs[m:])


def projective_dim_bounds(mu: Weight) -> DimBound:
    lower = weyl_dim_g0(mu)
    return DimBound(lower, (1 << (2 * mu.params.m * mu.params.n)) * lower)


def proj_growth_exponent(params: SuperParams, k: int) -> int:
    """Exponent (m+n-k-1)k bounding dimensions of projectives along a resolution."""
    require_int("k", k)
    if not 0 <= k <= params.n:
        raise DomainError(f"atypicality {k} out of range 0..{params.n}")
    return (params.m + params.n - k - 1) * k


def partitions_at_most_k_parts(i: int, k: int) -> int:
    """Number of partitions of i into at most k parts.

    Bottom-up p(j, parts) = p(j, parts-1) + p(j-parts, parts), so the cost is
    O(i * min(i, k)), since no partition of i has more than i parts, and
    independent of the call order.  Work over PARTITIONS_MAX_WORK is refused.
    """
    require_int("i", i)
    require_int("k", k)
    if i < 0 or k < 0:
        raise DomainError("arguments must be nonnegative")
    work = i * max(min(i, k), 1)
    if work > PARTITIONS_MAX_WORK:
        raise ResourceLimitError(
            f"partitions of {i} into at most {k} parts take {work} steps, "
            f"over the bound PARTITIONS_MAX_WORK = {PARTITIONS_MAX_WORK}"
        )
    k = min(i, k)
    row = [1] + [0] * i
    for parts in range(1, k + 1):
        for j in range(parts, i + 1):
            row[j] += row[j - parts]
    return row[i]


def iter_partitions_at_most(i: int, k: int) -> Iterator[tuple[int, ...]]:
    """Partitions of i with at most k parts, padded to length k, lexicographic descending.

    Not a generator itself, so a non-integer is refused at the call."""
    require_int("i", i)
    require_int("k", k)

    def rec(remaining: int, parts_left: int, bound: int) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield (0,) * parts_left
            return
        if parts_left == 0:
            return
        top = min(bound, remaining)
        for first in range(top, 0, -1):
            for rest in rec(remaining - first, parts_left - 1, first):
                yield (first,) + rest

    return rec(i, k, i)


def ext_degree_window(lam: Weight, mu: Weight) -> ExtDegreeWindow:
    require_dominant(lam)
    require_dominant(mu)
    width = lam.params.m * lam.params.n
    return ExtDegreeWindow(naive_length(mu) - naive_length(lam) - width, width)


def ext_degree_constraint(lam: Weight, mu: Weight, d: int) -> bool:
    """Necessary condition -d = |lam| - |mu| + b with b in {0, ..., mn} for
    Ext^d(K(lam), L(mu)) != 0, from the Kac module K(lam).

    It does not bound Ext from the simple module L(lam): in gl(1|1) the
    resolution of L(0) has P(-1) in degree 1, outside the window.
    """
    if d < 0:
        raise DomainError("degree must be nonnegative")
    return ext_degree_window(lam, mu).admissible(d)


def cauchy_symmetric_decomposition(params: SuperParams, d: int) -> list[Weight]:
    """g0-highest weights of S^d(g_1^*) for gl(k|k), one per partition of d into <= k parts.

    The dual odd part is the tensor of the dual standard with the standard
    module, so the Cauchy identity yields the summand (-tau_k, ..., -tau_1 |
    tau_1, ..., tau_k) with multiplicity one for each such partition tau.
    """
    require_int("d", d)
    if params.m != params.n:
        raise DomainError("Cauchy decomposition is implemented for gl(k|k) only")
    k = params.n
    if k > CAUCHY_MAX_K or d > CAUCHY_MAX_D:
        raise ResourceLimitError(
            f"requested (k={k}, d={d}) beyond (CAUCHY_MAX_K, CAUCHY_MAX_D) = ({CAUCHY_MAX_K}, {CAUCHY_MAX_D})"
        )
    if d < 0:
        raise DomainError("degree must be nonnegative")
    out = []
    for tau in iter_partitions_at_most(d, k):
        first = tuple(-tau[k - 1 - i] for i in range(k))
        out.append(Weight(params, first + tau))
    return out


def cauchy_multiplicity(sigma: Weight, d: int) -> int:
    """Multiplicity of L0(sigma) in S^d(g_1^*); 0 or 1 by the Cauchy identity."""
    return sum(1 for w in cauchy_symmetric_decomposition(sigma.params, d) if w == sigma)


def kac_ext_trivial(sigma: Weight, d: int) -> int:
    """dim Hom_{g0}(L0(sigma), S^d(g_1^*)) for sigma in the principal block of gl(k|k).

    Equals 1 exactly when sigma precedes 0 in the coordinate Bruhat order and
    d = -length(sigma); this is what makes the Ext groups from Kac modules to
    the trivial module one dimensional.
    """
    require_int("d", d)
    if d < 0:
        raise DomainError("degree must be nonnegative")
    if not is_principal_block_gl_kk(sigma):
        raise DomainError("sigma must lie in the principal block of a gl(k|k)")
    zero = Weight.zero(sigma.params)
    return int(bruhat_leq_principal(sigma, zero) and d == -length(sigma))
