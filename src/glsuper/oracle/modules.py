"""Explicit matrix realizations of gl(m|n) modules and odd rank-variety tests.

A module is a dict of exact sparse matrices, one per matrix unit E_{ij},
together with a parity label per basis vector.  Each matrix is stored as
sparse columns (column j maps row i to a nonzero entry), with int entries
wherever they are integral.  Kac modules are built on the exterior algebra
of one odd side tensored with a Gelfand-Tsetlin model of the even simple
module.  Every unit x follows one straightening rule, x (w ^ r) = [x, w] r +
(-1)^{|x|} w ^ (x r), which reads columns built before: [x, w] is 0 for x on
the wedge side, a wedge unit for even x and an even unit for the opposite
odd side, and r has fewer exterior factors.
Every constructed module is validated by one pass of gt.check_super_brackets
over each unit's entries: its layout, its Z2 grading and the full set of
superbracket relations.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from fractions import Fraction

from .._record import Record
from ..dimensions import weyl_dim_g0
from ..errors import DomainError, InternalCheckError, ParameterError, ResourceLimitError
from ..ratlinalg import SparseCols, exact, sparse_add_scaled, sparse_mul, sparse_rank
from ..weights import SuperParams, Weight, require_dominant
from .gt import (
    Unit,
    basis_weights,
    check_super_brackets,
    gl_simple,
    super_bracket_units,
    unit_parity,
)

# Building a Kac module and checking its brackets takes about
# (m+n)^3 * dim * b steps, b the bit length of the even part's dimension:
# the check multiplies (m+n)^2 pairs of matrix units, the nonzeros per
# column summed over all units grow like m+n, and larger Gelfand-Tsetlin
# models carry larger denominators, so the check scales to larger integers.
# Measured on 2 CPUs with Python 3.11 at up to 1.9 us per step: gl(4|3) K(0),
# 1,404,928 steps, 2.3 s; gl(6|2) K(0), 2,097,152 steps, 3.9 s; gl(3|1)
# K(11,5,0|0), 1,257,984 steps, 0.5 s; gl(11|1) K(0), 3,538,944 steps,
# 4.4 s; gl(3|1) K(25,12,0|0), 15,095,808 steps, 7.8 s.  At the slowest rate
# the bound is about 4 s, a fifteenth of the 60 s limit of one benchmark op.
KAC_MAX_COST = 2_100_000

OddElement = tuple[tuple[Unit, int], ...]


class MatrixModule(Record, frozen=False):
    """Finite-dimensional gl(m|n)-module given by sparse columns per unit E_{ij}."""

    __slots__ = ("params", "dim", "actions", "parity")

    def __post_init__(self) -> None:
        expected_units = {(i, j) for i in range(1, self.params.rank + 1) for j in range(1, self.params.rank + 1)}
        if set(self.actions) != expected_units:
            raise ParameterError("actions must cover every matrix unit")
        if len(self.parity) != self.dim:
            raise ParameterError("parity labels must match the dimension")
        self.check_brackets()

    def action(self, i: int, j: int) -> SparseCols:
        return self.actions[(i, j)]

    def check_brackets(self) -> None:
        """The layout, the Z2 grading by the parity labels and the exact
        superbrackets [E_ab, E_cd] over all generator pairs, in one pass."""
        check_super_brackets(self.actions, self.dim, self.params.m, self.parity)

    def weight_diagonal(self) -> list[tuple[int, ...]]:
        """Per basis vector, the eigenvalue tuple of the diagonal units E_ii."""
        weights = basis_weights(self.actions)
        if weights is None:
            raise DomainError("Cartan action is not diagonal")
        out = []
        for entry in weights:
            if any(v != int(v) for v in entry):
                raise InternalCheckError(f"weight {entry} is not integral")
            out.append(tuple(int(v) for v in entry))
        return out


def direct_sum(a: MatrixModule, b: MatrixModule) -> MatrixModule:
    if a.params != b.params:
        raise ParameterError("summands must share parameters")
    actions = {
        unit: cols + [{a.dim + i: v for i, v in col.items()} for col in b.actions[unit]]
        for unit, cols in a.actions.items()
    }
    return MatrixModule(a.params, a.dim + b.dim, actions, a.parity + b.parity)


def _g0_unit_cols(params: SuperParams, left_rep, right_rep, unit: Unit) -> SparseCols:
    """Column-sparse action of an even unit on the tensor basis p*dimB + q."""
    m = params.m
    dim_b = right_rep.dim
    cells = [(p, q) for p in range(left_rep.dim) for q in range(dim_b)]
    a, b = unit
    if a <= m and b <= m:
        factor = left_rep.actions[(a, b)]
        return [{p2 * dim_b + q: v for p2, v in factor[p].items()} for p, q in cells]
    if a > m and b > m:
        factor = right_rep.actions[(a - m, b - m)]
        return [{p * dim_b + q2: v for q2, v in factor[q].items()} for p, q in cells]
    raise ParameterError(f"{unit} is not an even unit")


def kac_cost(lam: Weight) -> tuple[int, int]:
    """Dimension of K(lam) and its predicted build and bracket-check cost."""
    m, n = lam.params.m, lam.params.n
    dim_l0 = weyl_dim_g0(lam)
    dim = (1 << (m * n)) * dim_l0
    return dim, (m + n) ** 3 * dim * dim_l0.bit_length()


def _induced_module(lam: Weight, side: int) -> MatrixModule:
    """Kac module (side=+1, exterior algebra on g_{-1}) or its mirror (side=-1)."""
    if side not in (1, -1):
        raise ParameterError("side must be +1 or -1")
    require_dominant(lam)
    params = lam.params
    m, n = params.m, params.n
    nodd = m * n
    dim, cost = kac_cost(lam)
    if cost > KAC_MAX_COST:
        raise ResourceLimitError(
            f"gl({m}|{n}) module of dimension {dim}: predicted cost {cost} exceeds {KAC_MAX_COST}"
        )
    dim_l0 = dim >> nodd
    left_rep = gl_simple(m, lam.coeffs[:m])
    right_rep = gl_simple(n, lam.coeffs[m:])

    lower = [(m + j, i) for j in range(1, n + 1) for i in range(1, m + 1)]
    upper = [(i, m + j) for j in range(1, n + 1) for i in range(1, m + 1)]
    wedge_units, straight_units = (lower, upper) if side == 1 else (upper, lower)

    subsets = [
        s
        for size in range(nodd + 1)
        for s in itertools.combinations(range(nodd), size)
    ]
    subset_index = {s: i for i, s in enumerate(subsets)}

    even_units = [(a, b) for a in range(1, m + 1) for b in range(1, m + 1)]
    even_units += [(a, b) for a in range(m + 1, m + n + 1) for b in range(m + 1, m + n + 1)]

    # wedge_into[s][t]: index of subset s with t added, and the sign of moving w_t into place
    wedge_into = [
        {t: (subset_index[tuple(sorted(s + (t,)))], (-1) ** sum(r < t for r in s))
         for t in range(nodd) if t not in s}
        for s in subsets
    ]

    # x (w_head ^ rest) = [x, w_head] rest + (-1)^{|x|} w_head ^ (x rest) on the basis
    # vector (head, rest..., u).  [x, w_head] is 0 for a wedge unit x, a wedge unit
    # for even x and an even unit for straight x, built before x; subsets grow, so
    # x rest is built too.  On 1 ^ u a wedge unit w_t gives w_t ^ u, a straight
    # unit 0, and an even unit its action on L0.
    action_cols: dict[Unit, SparseCols] = {}
    for x_unit in wedge_units + even_units + straight_units:
        if x_unit in wedge_units:
            single = subset_index[(wedge_units.index(x_unit),)]
            x_sign, bracket_side, cols = -1, even_units, [{single * dim_l0 + u: 1} for u in range(dim_l0)]
        elif x_unit in straight_units:
            x_sign, bracket_side, cols = -1, even_units, [dict() for _ in range(dim_l0)]
        else:
            x_sign, bracket_side, cols = 1, wedge_units, _g0_unit_cols(params, left_rep, right_rep, x_unit)
        brackets = [super_bracket_units(m, x_unit, gen) for gen in wedge_units]
        for gen, terms in zip(wedge_units, brackets):
            if any(unit not in bracket_side for unit, _ in terms):
                raise InternalCheckError(f"[{x_unit}, {gen}] leaves the units built before {x_unit}")
        for subset in subsets[1:]:
            head, rest_idx = subset[0], subset_index[subset[1:]]
            bracket_cols = [(action_cols[unit], coeff) for unit, coeff in brackets[head]]
            for u in range(dim_l0):
                rest_col = rest_idx * dim_l0 + u
                out: dict[int, int | Fraction] = defaultdict(int)
                for unit_cols, coeff in bracket_cols:
                    for key, val in unit_cols[rest_col].items():
                        out[key] += coeff * val
                for key, val in cols[rest_col].items():
                    into = wedge_into[key // dim_l0]
                    if head in into:
                        target, sign = into[head]
                        out[target * dim_l0 + key % dim_l0] += x_sign * sign * val
                # sums of fractions may come out integral; columns stay exact
                cols.append({key: exact(v) for key, v in out.items() if v})
        action_cols[x_unit] = cols

    parity = tuple(len(subsets[idx // dim_l0]) % 2 for idx in range(dim))
    return MatrixModule(params, dim, action_cols, parity)


def trivial_module(params: SuperParams) -> MatrixModule:
    """The one-dimensional module with every unit acting by zero."""
    units = {
        (i, j): [{}]
        for i in range(1, params.rank + 1)
        for j in range(1, params.rank + 1)
    }
    return MatrixModule(params, 1, units, (0,))


def kac_module(lam: Weight) -> MatrixModule:
    """K(lam) on the exterior algebra of g_{-1} tensored with the even simple module."""
    return _induced_module(lam, 1)


def dual_kac_module(lam: Weight) -> MatrixModule:
    """The dual Kac module with socle L(lam), as the mirror induced construction.

    Inducing from the opposite parabolic realizes the coinduced module only
    after the one-dimensional twist by the top exterior power of g_{+1}
    (weight (n, ..., n | -m, ..., -m)); without it the result would sit at
    the shifted highest weight and, for m != n, in a different block.
    """
    params = lam.params
    top_odd = Weight(params, (params.n,) * params.m + (-params.m,) * params.n)
    return _induced_module(lam - top_odd, -1)


def element_matrix(module: MatrixModule, element: OddElement) -> SparseCols:
    """Sparse columns of a linear combination of odd units."""
    terms = []
    for unit, coeff in element:
        if not unit_parity(module.params.m, unit):
            raise DomainError(f"{unit} is not an odd unit")
        terms.append((module.actions[unit], coeff))
    return sparse_add_scaled(terms, module.dim)


def rank_element(module: MatrixModule, element: OddElement) -> int:
    return sparse_rank(element_matrix(module, element))


def odd_projectivity_test(module: MatrixModule, element: OddElement) -> bool:
    """Freeness over the two-dimensional algebra generated by a square-zero odd element.

    The matrix X of the element must satisfy X^2 = 0; the module is free (=
    projective) over C[X]/(X^2) exactly when rank(X) is half the dimension.
    """
    x = element_matrix(module, element)
    if any(sparse_mul(x, x)):
        raise DomainError("element does not square to zero on this module")
    return 2 * sparse_rank(x) == module.dim


def _odd_element(params: SuperParams, side: int, r: int, reverse: bool) -> OddElement:
    """E_{i_1,m+1} + ... + E_{i_r,m+r} (or its transpose), i_t = m - t + 1 if reverse else t."""
    if not 0 <= r <= params.n:
        raise DomainError(f"rank {r} out of range 0..{params.n}")
    if side not in (1, -1):
        raise ParameterError("side must be +1 or -1")
    units = [(params.m - t + 1 if reverse else t, params.m + t) for t in range(1, r + 1)]
    return tuple((unit if side == 1 else unit[::-1], 1) for unit in units)


def standard_rank_element(params: SuperParams, side: int, r: int) -> OddElement:
    """The rank-r orbit representative E_{1,m+1} + ... + E_{r,m+r} (or its transpose)."""
    return _odd_element(params, side, r, reverse=False)


def f_odd_element(params: SuperParams, side: int, r: int) -> OddElement:
    """Rank-r element of the detecting subalgebra: antidiagonal units E_{m-t+1, m+t}."""
    return _odd_element(params, side, r, reverse=True)


def rank_variety(module: MatrixModule, side: int) -> int:
    """Largest r whose rank-r representative fails the freeness test.

    The support variety in g_{+-1} is closed and stable under the even group,
    and the orbit closures form a chain, so testing one representative per
    rank determines it: the variety is the closure of the rank-r_max orbit.
    """
    for r in range(module.params.n, -1, -1):
        if not odd_projectivity_test(module, standard_rank_element(module.params, side, r)):
            return r
    return 0


def trivial_summand_check(lam: Weight) -> bool:
    """True iff K(lam) over gl(k|k) is non-free over the full-rank odd element."""
    params = lam.params
    if params.m != params.n:
        raise DomainError("trivial summand check applies to gl(k|k)")
    module = kac_module(lam)
    return not odd_projectivity_test(module, standard_rank_element(params, 1, params.n))


def matrix_to_csv(cols: SparseCols) -> str:
    """Dense CSV of a square matrix given by sparse columns, with exact rational entries."""
    bad = next((i for col in cols for i in col if not 0 <= i < len(cols)), None)
    if bad is not None:
        raise ParameterError(f"row index {bad} outside 0..{len(cols) - 1}")
    lines = [",".join(str(col.get(i, 0)) for col in cols) for i in range(len(cols))]
    return "\n".join(lines) + "\n"
