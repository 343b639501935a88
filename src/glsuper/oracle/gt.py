"""Gelfand-Tsetlin realization of simple gl(r) modules with rational matrix entries.

Basis vectors are the interlacing triangular patterns over the highest
weight; the generator action uses the rational (non-orthonormal)
normalization, so every matrix entry is exact: an int when integral, a
Fraction otherwise, stored in sparse columns.  Targets that
leave the pattern lattice are dropped, which is consistent because the
numerators vanish on the boundary in the raising direction and the dropped
lowering terms correspond to the zero vector.

check_super_brackets is the one check that sparse actions make a
supermodule: layout, Z2 grading and exact superbrackets, on weight-packed
columns when the actions are weight graded and by sparse products otherwise.
"""

from __future__ import annotations

import math
from collections import defaultdict
from fractions import Fraction
from itertools import accumulate, chain, count, product, repeat
from operator import add, attrgetter, eq, lshift, mul, neg, sub, xor

from .._record import Record
from ..dimensions import check_weyl_work, weyl_dim_gl, weyl_work_gl
from ..errors import DomainError, InternalCheckError, ParameterError, ResourceLimitError, is_int
from ..ratlinalg import SparseCols, exact, sparse_add_scaled, sparse_mul

GT_MAX_DIM = 10_000
BRACKET_CHECK_MAX_DIM = 400

Unit = tuple[int, int]


def unit_parity(m: int, unit: Unit) -> int:
    """Z2 degree of E_ij in gl(m|n): odd iff exactly one index exceeds m (gl(r) is m = r)."""
    i, j = unit
    return int((i <= m) != (j <= m))


def super_bracket_units(m: int, left: Unit, right: Unit) -> list[tuple[Unit, int]]:
    """[E_ab, E_cd] = delta_bc E_ad - (-1)^{parities} delta_da E_cb as unit terms."""
    (a, b), (c, d) = left, right
    sign = -1 if unit_parity(m, left) and unit_parity(m, right) else 1
    terms: list[tuple[Unit, int]] = []
    if b == c:
        terms.append(((a, d), 1))
    if d == a:
        terms.append(((c, b), -sign))
    return terms


def _relations(m: int, units: list[Unit]):
    """The superbracket relations to check over units, in order: (X, Y, (-1)^{|X||Y|},
    [X, Y] as unit terms) once per unordered pair X <= Y, and (X, X) only for odd X,
    since for even X the relation XX - XX = [X, X] = 0 holds trivially."""
    for pos, left in enumerate(units):
        for right in units[pos:]:
            sign = -1 if unit_parity(m, left) and unit_parity(m, right) else 1
            if right != left or sign == -1:
                yield left, right, sign, super_bracket_units(m, left, right)


def basis_weights(actions: dict[Unit, SparseCols]) -> list[tuple[int | Fraction, ...]] | None:
    """Per basis vector, its eigenvalues under the diagonal units E_ss in order of s
    (an empty tuple each when there is no E_ss).

    None when some E_ss has a nonzero entry off the diagonal.
    """
    diags = []
    for unit in sorted(u for u in actions if u[0] == u[1]):
        cols = actions[unit]
        if any(i != j and val for j, col in enumerate(cols) for i, val in col.items()):
            return None
        diags.append(map(dict.get, cols, count(), repeat(0)))
    return list(zip(*diags)) if diags else [()] * len(next(iter(actions.values()), ()))


def check_super_brackets(actions: dict[Unit, SparseCols], dim: int, m: int, parity) -> None:
    """Refuse actions unless they make a supermodule graded by the labels parity.

    From each unit's entries, flattened once, it refuses in turn a malformed
    layout (ParameterError), a unit that breaks the Z2 grading, and a failing
    relation XY - (-1)^{|X||Y|} YX = [X, Y] (both InternalCheckError).

    Each unordered pair is checked once: swapping X and Y multiplies both
    sides of the relation by -(-1)^{|X||Y|}, so the reversed relation holds
    exactly when this one does.  The check runs in integers: with D the lcm
    of all entry denominators and X' = D X, the relation holds exactly when
    X'Y' - (-1)^{|X||Y|} Y'X' - D [X, Y]' = 0, which is D^2 times it.

    Graded actions (see _weight_slots) need no product for a pair with a
    diagonal unit H = E_ss: for X = E_ab, (HX - XH - [H, X])[i, j] = (h_i -
    h_j - delta_sa + delta_sb) X[i, j] vanishes by the grading, and diagonal
    units commute.  Every other pair is checked on packed columns: column j
    of X' becomes the int sum of X'[i, j] 2^(W pos(i)), pos(i) the index of
    i inside its weight space, so column j of X'Y' is the sum of Y'[k, j]
    times packed column k of X'.  All entries of column j of the difference
    lie in one weight space, so each has a slot of its own.  A product
    entry sums over one weight space, so each entry of the difference is at
    most B = 2 S top^2 + 2 D top in absolute value, S the largest weight
    space dimension and top the largest scaled entry.  With W =
    B.bit_length() + 1 a packed column is zero exactly when its entries are:
    if c is its lowest nonzero entry, in slot p, the sum is 2^(W p) (c + 2^W
    q) for an int q, and 0 < |c| < 2^W.  Other actions are checked pair by
    pair with sparse products of the scaled columns, in _check_by_products.
    """
    # per unit, its entries in column order: rows, columns, values, and where each column ends
    flat = {}
    for unit, cols in actions.items():
        if len(cols) != dim:
            raise ParameterError(f"{unit} must have {dim} columns")
        rows = list(chain.from_iterable(cols))
        if rows and not 0 <= min(rows) <= max(rows) < dim:
            bad = next(i for i in rows if not 0 <= i < dim)
            raise ParameterError(f"{unit} has row index {bad} outside 0..{dim - 1}")
        col_of = list(chain.from_iterable(map(repeat, range(dim), map(len, cols))))
        flat[unit] = rows, col_of, list(chain.from_iterable(map(dict.values, cols))), list(accumulate(map(len, cols)))
    bits = [label % 2 for label in parity]
    for unit, (rows, col_of, vals, _) in flat.items():
        flip = unit_parity(m, unit)
        # entry (i, j) needs bits[i] ^ bits[j] == flip; a failing unit is read for its first nonzero one
        if not all(map(eq, map(xor, map(bits.__getitem__, rows), map(bits.__getitem__, col_of)), repeat(flip))):
            for i, j, val in zip(rows, col_of, vals):
                if val and bits[i] ^ bits[j] != flip:
                    raise InternalCheckError(f"{unit} breaks the parity grading at ({i}, {j})")
    slots = _weight_slots(actions, flat)
    entries = chain.from_iterable(vals for _, _, vals, _ in flat.values())
    scale = math.lcm(*set(map(attrgetter("denominator"), entries)))
    flat = {
        unit: (rows, col_of, [val.numerator * (scale // val.denominator) for val in vals], ends)
        for unit, (rows, col_of, vals, ends) in flat.items()
    }
    if slots is None:
        _check_by_products(flat, dim, m, scale)
        return
    top = max((max(map(abs, vals), default=0) for _, _, vals, _ in flat.values()), default=0)
    width = (2 * (max(slots, default=0) + 1) * top * top + 2 * scale * top).bit_length() + 1
    shifts = [width * slot for slot in slots]

    def running_sums(terms, ends: list[int]) -> list[int]:
        """Per column j, the sum of the terms of columns 0..j."""
        acc = list(accumulate(terms, initial=0))
        return list(map(acc.__getitem__, ends))

    # per unit, its packed columns, and their running sums times D for the
    # [X, Y] side of a relation
    packed, bracket_sums = {}, {}
    for unit, (rows, _, vals, ends) in flat.items():
        sums = running_sums(map(lshift, vals, map(shifts.__getitem__, rows)), ends)
        packed[unit] = list(map(sub, sums, [0] + sums[:-1]))
        bracket_sums[unit] = list(map(mul, repeat(scale), sums))

    # columns are compared through their running sums, which agree for every
    # j exactly when the columns do
    def packed_product(left: Unit, right: Unit) -> list[int]:
        """Running sums of the packed columns of left' right'."""
        rows, _, vals, ends = flat[right]
        return running_sums(map(mul, vals, map(packed[left].__getitem__, rows)), ends)

    for left, right, sign, terms in _relations(m, [unit for unit in sorted(actions) if unit[0] != unit[1]]):
        lhs = packed_product(left, right)
        rhs = lhs if right == left else packed_product(right, left)
        if sign == -1:
            rhs = map(neg, rhs)
        for unit, coeff in terms:  # coeff is 1 or -1
            rhs = map(add if coeff == 1 else sub, rhs, bracket_sums[unit])
        if lhs != list(rhs):
            raise InternalCheckError(f"bracket relation fails for {left}, {right}")


def _weight_slots(actions: dict[Unit, SparseCols], flat: dict[Unit, tuple[list, list, list, list]]) -> list[int] | None:
    """Each basis vector's index inside its weight space, or None unless the actions are graded.

    Graded means that every E_ss acts diagonally with integral eigenvalues,
    read by basis_weights, and that every unit E_ab maps each basis vector of
    weight mu into the span of those of weight mu + e_a - e_b.
    """
    weights = basis_weights(actions)
    if weights is None or not set(map(type, chain.from_iterable(weights))) <= {int}:
        return None
    diagonal = sorted(u for u in flat if u[0] == u[1])
    # weight w has key sum(w_s base^t), t the position of s among the diagonal
    # units; base exceeds twice every |w_s| + 1, so keys of weights and of
    # their shifts by e_a - e_b are equal only for equal vectors
    base = 2 * max(map(abs, chain.from_iterable(weights)), default=0) + 3
    power = {s: base ** t for t, (s, _) in enumerate(diagonal)}
    keys = [sum(map(mul, w, power.values())) for w in weights]
    for (a, b), (rows, col_of, _, _) in flat.items():
        targets = map(add, map(keys.__getitem__, col_of), repeat(power.get(a, 0) - power.get(b, 0)))
        if not all(map(eq, map(keys.__getitem__, rows), targets)):
            return None
    spaces: dict[int, int] = defaultdict(int)
    slots = []
    for key in keys:
        slots.append(spaces[key])
        spaces[key] += 1
    return slots


def _check_by_products(flat: dict[Unit, tuple[list, list, list, list]], dim: int, m: int, scale: int) -> None:
    """check_super_brackets for any actions: X'Y' = (-1)^{|X||Y|} Y'X' + D [X, Y]'
    per pair, by sparse products of the columns scaled by D."""
    scaled = {
        unit: [dict(zip(rows[start:end], vals[start:end])) for start, end in zip([0, *ends], ends)]
        for unit, (rows, _, vals, ends) in flat.items()
    }
    for left, right, sign, terms in _relations(m, sorted(flat)):
        xy = sparse_mul(scaled[left], scaled[right])
        yx = xy if right == left else sparse_mul(scaled[right], scaled[left])
        terms = [(scaled[unit], scale * coeff) for unit, coeff in terms]
        # products and sums keep no zero entries, so columns compare as dicts
        if xy != (yx if sign == 1 and not terms else sparse_add_scaled([(yx, sign), *terms], dim)):
            raise InternalCheckError(f"bracket relation fails for {left}, {right}")


class GTPattern(Record):
    """Rows of lengths r, r-1, ..., 1, top row first, consecutive rows interlacing."""

    __slots__ = ("rows",)

    def __post_init__(self) -> None:
        r = len(self.rows)
        for t, row in enumerate(self.rows):
            if len(row) != r - t:
                raise DomainError("rows must have lengths r, r-1, ..., 1")
        for upper, lower in zip(self.rows, self.rows[1:]):
            for i, low in enumerate(lower):
                if not upper[i] >= low >= upper[i + 1]:
                    raise DomainError(f"rows {upper} and {lower} do not interlace")

    def row_of_length(self, k: int) -> tuple[int, ...]:
        return self.rows[len(self.rows) - k]


def _interlacing_rows(upper: tuple[int, ...]) -> list[tuple[int, ...]]:
    ranges = [range(upper[i + 1], upper[i] + 1) for i in range(len(upper) - 1)]
    return [tuple(vals) for vals in product(*ranges)]


def gt_patterns(top: tuple[int, ...]) -> list[GTPattern]:
    """All patterns with the given top row, in a fixed deterministic order;
    raises ResourceLimitError above GT_MAX_DIM patterns, before building any."""
    top = tuple(top)
    if not all(map(is_int, top)):
        raise DomainError(f"top row {top} must hold integers")
    if any(top[i] < top[i + 1] for i in range(len(top) - 1)):
        raise DomainError(f"top row {top} is not weakly decreasing")
    check_weyl_work(weyl_work_gl(top))
    dim = weyl_dim_gl(top)
    if dim > GT_MAX_DIM:
        raise ResourceLimitError(f"dimension {dim} exceeds GT_MAX_DIM = {GT_MAX_DIM}")
    stacks = [(top,)]
    while len(stacks[0][-1]) > 1:
        stacks = [
            stack + (nxt,) for stack in stacks for nxt in _interlacing_rows(stack[-1])
        ]
    if len(stacks) != dim:
        raise InternalCheckError(f"{len(stacks)} patterns for Weyl dimension {dim}")
    return [GTPattern(stack) for stack in stacks]


class GlRep(Record):
    """A simple gl(r) module: pattern basis plus sparse columns for every unit E_{ij}."""

    __slots__ = ("r", "highest_weight", "patterns", "actions")

    @property
    def dim(self) -> int:
        return len(self.patterns)

    def check_brackets(self) -> None:
        """[E_ab, E_cd] = delta_bc E_ad - delta_da E_cb, exactly, on all unit pairs."""
        check_super_brackets(self.actions, self.dim, self.r, (0,) * self.dim)


def _l_value(row: tuple[int, ...], i: int) -> int:
    # shifted entries l_i = lambda_i - i + 1 (strictly decreasing along a row)
    return row[i - 1] - i + 1


def gl_simple(r: int, highest_weight: tuple[int, ...]) -> GlRep:
    """Simple gl(r) module on GT patterns; raises ResourceLimitError above desk scale."""
    hw = tuple(highest_weight)
    if len(hw) != r:
        raise DomainError(f"expected {r} coordinates, got {len(hw)}")
    patterns = gt_patterns(hw)
    dim = len(patterns)
    # the patterns over hw are exactly the interlacing ones, and a bump leaves the
    # top row alone, so a bumped pattern is one exactly when its rows are a key here
    index = {p.rows: i for i, p in enumerate(patterns)}
    actions: dict[Unit, SparseCols] = {}

    for k in range(1, r + 1):
        cols: SparseCols = []
        for col, p in enumerate(patterns):
            total = sum(p.row_of_length(k))
            if k > 1:
                total -= sum(p.row_of_length(k - 1))
            cols.append({col: total} if total else {})
        actions[(k, k)] = cols

    for k in range(1, r):
        raise_cols: SparseCols = [dict() for _ in range(dim)]
        lower_cols: SparseCols = [dict() for _ in range(dim)]
        for col, p in enumerate(patterns):
            row_k = p.row_of_length(k)
            above, below = p.rows[: r - k], p.rows[r - k + 1:]
            row_down = p.row_of_length(k - 1) if k > 1 else ()
            # E_{k,k+1} bumps entry i up against the row above, E_{k+1,k} down against the row below
            bumps = ((1, p.row_of_length(k + 1), raise_cols, -1), (-1, row_down, lower_cols, 1))
            for i in range(1, k + 1):
                li = _l_value(row_k, i)
                denom = math.prod(li - _l_value(row_k, j) for j in range(1, k + 1) if j != i)
                for step, other, cols, sign in bumps:
                    bumped = row_k[: i - 1] + (row_k[i - 1] + step,) + row_k[i:]
                    target = index.get(above + (bumped,) + below)
                    if target is not None:
                        numer = math.prod(li - _l_value(other, j) for j in range(1, len(other) + 1))
                        if numer:
                            cols[col][target] = exact(Fraction(sign * numer, denom))
        actions[(k, k + 1)] = raise_cols
        actions[(k + 1, k)] = lower_cols

    def commutator(a: SparseCols, b: SparseCols) -> SparseCols:
        cols = sparse_add_scaled([(sparse_mul(a, b), 1), (sparse_mul(b, a), -1)], dim)
        return [{i: exact(v) for i, v in col.items()} for col in cols]

    # remaining units by bracketing outward from the superdiagonals
    for offset in range(2, r):
        for i in range(1, r - offset + 1):
            j = i + offset
            actions[(i, j)] = commutator(actions[(i, j - 1)], actions[(j - 1, j)])
            actions[(j, i)] = commutator(actions[(j, j - 1)], actions[(j - 1, i)])
    rep = GlRep(r, hw, tuple(patterns), actions)
    if dim <= BRACKET_CHECK_MAX_DIM:
        rep.check_brackets()
    return rep
