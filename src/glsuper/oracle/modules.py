"""Explicit matrix realizations of gl(m|n) modules and odd rank-variety tests.

A module is a dict of exact sparse matrices, one per matrix unit E_{ij},
together with a parity label per basis vector.  Each matrix is stored as
sparse columns (column j maps row i to a nonzero entry), with int entries
wherever they are integral.  Kac modules are built on the exterior algebra
of one odd side tensored with a Gelfand-Tsetlin model of the even simple
module; the opposite odd side acts by straightening the generator past the
exterior factors, which terminates because the odd sides are abelian.
Every constructed module is validated against the full set of superbracket
relations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from ..dimensions import weyl_dim_g0
from ..errors import DomainError, InternalCheckError, ParameterError, ResourceLimitError
from ..ratlinalg import SparseCols, exact, sparse_add_scaled, sparse_mul, sparse_rank
from ..weights import SuperParams, Weight, require_dominant
from .gt import (
    Unit,
    check_super_brackets,
    gl_simple,
    super_bracket_units,
    unit_parity,
)

# Building a Kac module and checking its brackets takes about
# (m+n)^3 * dim * b steps, b the bit length of the even part's dimension:
# the check multiplies (m+n)^2 pairs of matrix units, the nonzeros per
# column summed over all units grow like m+n, and larger Gelfand-Tsetlin
# models carry fractions with larger denominators.  Measured on 2 CPUs with
# Python 3.11 at up to 14 us per step: gl(4|3) K(0), 1,404,928 steps, 14.2 s;
# gl(6|2) K(0), 2,097,152 steps, 20.6 s; gl(3|1) K(11,5,0|0), 1,257,984
# steps, 4.4 s; gl(11|1) K(0), 3,538,944 steps, 27.7 s; gl(3|1)
# K(25,12,0|0), 15,095,808 steps, 60 s.  At the slowest rate the bound is
# about 29 s, under half the 60 s limit of one benchmark op.
KAC_MAX_COST = 2_100_000

OddElement = tuple[tuple[Unit, int], ...]


@dataclass
class MatrixModule:
    """Finite-dimensional gl(m|n)-module given by sparse columns per unit E_{ij}."""

    params: SuperParams
    dim: int
    actions: dict[Unit, SparseCols]
    parity: tuple[int, ...]

    def __post_init__(self) -> None:
        expected_units = {(i, j) for i in range(1, self.params.rank + 1) for j in range(1, self.params.rank + 1)}
        if set(self.actions) != expected_units:
            raise ParameterError("actions must cover every matrix unit")
        if len(self.parity) != self.dim:
            raise ParameterError("parity labels must match the dimension")
        self._check_parity()
        self.check_brackets()

    def action(self, i: int, j: int) -> SparseCols:
        return self.actions[(i, j)]

    def _check_parity(self) -> None:
        # odd units flip the Z2 label of a basis vector, even units preserve it
        for unit, cols in self.actions.items():
            if len(cols) != self.dim:
                raise ParameterError(f"{unit} must have {self.dim} columns")
            flip = unit_parity(self.params.m, unit)
            for j, col in enumerate(cols):
                for i, val in col.items():
                    if not 0 <= i < self.dim:
                        raise ParameterError(f"{unit} has row index {i} outside 0..{self.dim - 1}")
                    if val and (self.parity[i] + self.parity[j]) % 2 != flip:
                        raise InternalCheckError(f"{unit} breaks the parity grading at ({i}, {j})")

    def check_brackets(self) -> None:
        """Exact superbracket check [E_ab, E_cd] over all generator pairs."""
        check_super_brackets(self.actions, self.dim, self.params.m)

    def weight_diagonal(self) -> list[tuple[int, ...]]:
        """Per basis vector, the eigenvalue tuple of the diagonal units E_ii."""
        diags = []
        for s in range(1, self.params.rank + 1):
            diag = []
            for j, col in enumerate(self.actions[(s, s)]):
                if any(i != j and val for i, val in col.items()):
                    raise DomainError("Cartan action is not diagonal")
                diag.append(col.get(j, 0))
            diags.append(diag)
        out = []
        for entry in zip(*diags):
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
    dim = left_rep.dim * dim_b
    cols: SparseCols = [dict() for _ in range(dim)]
    a, b = unit
    if a <= m and b <= m:
        factor = left_rep.actions[(a, b)]
        for p in range(left_rep.dim):
            for q in range(dim_b):
                cols[p * dim_b + q] = {p2 * dim_b + q: v for p2, v in factor[p].items()}
    elif a > m and b > m:
        factor = right_rep.actions[(a - m, b - m)]
        for p in range(left_rep.dim):
            for q in range(dim_b):
                cols[p * dim_b + q] = {p * dim_b + q2: v for q2, v in factor[q].items()}
    else:
        raise ParameterError(f"{unit} is not an even unit")
    return cols


def kac_cost(lam: Weight) -> tuple[int, int]:
    """Dimension of K(lam) and its predicted build and bracket-check cost."""
    m, n = lam.params.m, lam.params.n
    dim_l0 = weyl_dim_g0(lam)
    dim = (1 << (m * n)) * dim_l0
    return dim, (m + n) ** 3 * dim * dim_l0.bit_length()


def _induced_module(lam: Weight, side: int) -> MatrixModule:
    """Kac module (side=+1, exterior algebra on g_{-1}) or its mirror (side=-1)."""
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

    if side == 1:
        wedge_units = [(m + j, i) for j in range(1, n + 1) for i in range(1, m + 1)]
        straight_units = [(i, m + j) for j in range(1, n + 1) for i in range(1, m + 1)]
    elif side == -1:
        wedge_units = [(i, m + j) for j in range(1, n + 1) for i in range(1, m + 1)]
        straight_units = [(m + j, i) for j in range(1, n + 1) for i in range(1, m + 1)]
    else:
        raise ParameterError("side must be +1 or -1")
    wedge_index = {u: t for t, u in enumerate(wedge_units)}

    subsets = [
        s
        for size in range(nodd + 1)
        for s in itertools.combinations(range(nodd), size)
    ]
    subset_index = {s: i for i, s in enumerate(subsets)}

    def flat(s_idx: int, u: int) -> int:
        return s_idx * dim_l0 + u

    even_units = [(a, b) for a in range(1, m + 1) for b in range(1, m + 1)]
    even_units += [(a, b) for a in range(m + 1, m + n + 1) for b in range(m + 1, m + n + 1)]
    l0_cols = {unit: _g0_unit_cols(params, left_rep, right_rep, unit) for unit in even_units}

    adj: dict[Unit, list[list[tuple[int, int]]]] = {}
    for unit in even_units:
        table = []
        for gen in wedge_units:
            terms = []
            for target, coeff in super_bracket_units(m, unit, gen):
                t2 = wedge_index.get(target)
                if t2 is None:
                    raise InternalCheckError(f"[{unit}, {gen}] leaves the wedge side")
                terms.append((t2, coeff))
            table.append(terms)
        adj[unit] = table

    def wedge_sign(subset: tuple[int, ...], t: int) -> int:
        return -1 if sum(1 for r in subset if r < t) % 2 else 1

    def even_on_basis(unit: Unit, subset: tuple[int, ...], u: int) -> dict[int, int | Fraction]:
        s_idx = subset_index[subset]
        out = {flat(s_idx, u2): val for u2, val in l0_cols[unit][u].items()}
        for pos, t in enumerate(subset):
            rest = subset[:pos] + subset[pos + 1 :]
            for t2, coeff in adj[unit][t]:
                if t2 in rest:
                    continue
                sign = (-1) ** pos * wedge_sign(rest, t2)
                new_subset = tuple(sorted(rest + (t2,)))
                key = flat(subset_index[new_subset], u)
                v = out.get(key, 0) + sign * coeff
                if v:
                    out[key] = v
                elif key in out:
                    del out[key]
        return out

    action_cols: dict[Unit, SparseCols] = {}
    for unit in even_units:
        cols: SparseCols = [dict() for _ in range(dim)]
        for s_idx, subset in enumerate(subsets):
            for u in range(dim_l0):
                cols[flat(s_idx, u)] = even_on_basis(unit, subset, u)
        action_cols[unit] = cols

    for t, unit in enumerate(wedge_units):
        cols = [dict() for _ in range(dim)]
        for s_idx, subset in enumerate(subsets):
            if t in subset:
                continue
            target = subset_index[tuple(sorted(subset + (t,)))]
            sign = wedge_sign(subset, t)
            for u in range(dim_l0):
                cols[flat(s_idx, u)] = {flat(target, u): sign}
        action_cols[unit] = cols

    def apply_straight(x_unit: Unit, subset: tuple[int, ...], u: int) -> dict[int, int | Fraction]:
        if not subset:
            return {}
        head, rest = subset[0], subset[1:]
        out: dict[int, int | Fraction] = {}
        for g0_unit, coeff in super_bracket_units(m, x_unit, wedge_units[head]):
            for key, val in even_on_basis(g0_unit, rest, u).items():
                v = out.get(key, 0) + coeff * val
                if v:
                    out[key] = v
                elif key in out:
                    del out[key]
        for key, val in apply_straight(x_unit, rest, u).items():
            s2_idx, u2 = divmod(key, dim_l0)
            subset2 = subsets[s2_idx]
            if head in subset2:
                continue
            sign = wedge_sign(subset2, head)
            key2 = flat(subset_index[tuple(sorted(subset2 + (head,)))], u2)
            v = out.get(key2, 0) - sign * val
            if v:
                out[key2] = v
            elif key2 in out:
                del out[key2]
        return out

    for unit in straight_units:
        cols = [dict() for _ in range(dim)]
        for s_idx, subset in enumerate(subsets):
            for u in range(dim_l0):
                cols[flat(s_idx, u)] = apply_straight(unit, subset, u)
        action_cols[unit] = cols

    actions = {
        unit: [{i: exact(v) for i, v in col.items()} for col in cols]
        for unit, cols in action_cols.items()
    }
    parity = tuple(len(subsets[idx // dim_l0]) % 2 for idx in range(dim))
    return MatrixModule(params, dim, actions, parity)


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


def standard_rank_element(params: SuperParams, side: int, r: int) -> OddElement:
    """The rank-r orbit representative E_{1,m+1} + ... + E_{r,m+r} (or its transpose)."""
    if not 0 <= r <= params.n:
        raise DomainError(f"rank {r} out of range 0..{params.n}")
    if side == 1:
        return tuple(((t, params.m + t), 1) for t in range(1, r + 1))
    if side == -1:
        return tuple(((params.m + t, t), 1) for t in range(1, r + 1))
    raise ParameterError("side must be +1 or -1")


def f_odd_element(params: SuperParams, side: int, r: int) -> OddElement:
    """Rank-r element of the detecting subalgebra: antidiagonal units E_{m-t+1, m+t}."""
    if not 0 <= r <= params.n:
        raise DomainError(f"rank {r} out of range 0..{params.n}")
    if side == 1:
        return tuple(((params.m - t + 1, params.m + t), 1) for t in range(1, r + 1))
    if side == -1:
        return tuple(((params.m + t, params.m - t + 1), 1) for t in range(1, r + 1))
    raise ParameterError("side must be +1 or -1")


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
    lines = [",".join(str(col.get(i, 0)) for col in cols) for i in range(len(cols))]
    return "\n".join(lines) + "\n"
