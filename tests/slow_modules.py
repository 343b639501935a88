"""Slow oracles for glsuper.oracle: the superbracket check by sparse matrix
products per pair, and the Kac-module construction that straightens the
odd generators recursively.  Both are the package's earlier implementations,
kept unchanged as references for the integer bracket check and the
column-reading construction."""

from __future__ import annotations

import itertools
from fractions import Fraction

from glsuper.errors import InternalCheckError, ParameterError
from glsuper.oracle.gt import Unit, gl_simple, super_bracket_units, unit_parity
from glsuper.ratlinalg import SparseCols, exact, sparse_add_scaled, sparse_mul
from glsuper.weights import SuperParams, Weight, require_dominant


def check_super_brackets(actions: dict[Unit, SparseCols], dim: int, m: int) -> None:
    """Exact superbracket relation XY - (-1)^{|X||Y|} YX = [X, Y] for every pair of units.

    Each unordered pair is checked once: swapping X and Y multiplies both
    sides of the relation by -(-1)^{|X||Y|}, so the reversed relation holds
    exactly when this one does.
    """
    units = sorted(actions)
    for pos, left in enumerate(units):
        for right in units[pos:]:
            sign = -1 if unit_parity(m, left) and unit_parity(m, right) else 1
            terms = [(actions[u], c) for u, c in super_bracket_units(m, left, right)]
            xy = sparse_mul(actions[left], actions[right])
            yx = sparse_mul(actions[right], actions[left]) if right != left else xy
            # compared as XY = sign * YX + [X, Y], so most pairs need no addition
            expected = yx if sign == 1 and not terms else sparse_add_scaled([(yx, sign)] + terms, dim)
            if xy != expected:
                raise InternalCheckError(f"bracket relation fails for {left}, {right}")


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


def induced_actions(lam: Weight, side: int) -> tuple[dict[Unit, SparseCols], tuple[int, ...]]:
    """Actions and parity of the Kac module (side=+1) or its mirror (side=-1), unchecked."""
    require_dominant(lam)
    params = lam.params
    m, n = params.m, params.n
    nodd = m * n
    left_rep = gl_simple(m, lam.coeffs[:m])
    right_rep = gl_simple(n, lam.coeffs[m:])
    dim_l0 = left_rep.dim * right_rep.dim
    dim = dim_l0 << nodd

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
    return actions, parity


def dual_induced_actions(lam: Weight) -> tuple[dict[Unit, SparseCols], tuple[int, ...]]:
    """The mirror construction at lam shifted by the top exterior power of g_{+1}."""
    params = lam.params
    top_odd = Weight(params, (params.n,) * params.m + (-params.m,) * params.n)
    return induced_actions(lam - top_odd, -1)
