import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glsuper.ratlinalg import (
    exact,
    mat_mul,
    mat_vec,
    nullspace,
    rank,
    rref,
    solve,
    sparse_mul,
    sparse_rank,
    to_dense,
)


def random_matrix(rng, rows, cols, density=0.7):
    return [
        [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < density else Fraction(0)
         for _ in range(cols)]
        for _ in range(rows)
    ]


def random_cols(rng, rows, cols, density):
    return [
        {i: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for i in range(rows) if rng.random() < density}
        for _ in range(cols)
    ]


def test_rref_identity():
    eye = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    reduced, pivots = rref(eye)
    assert reduced == eye and pivots == [0, 1, 2]


def test_rank_and_nullity_add_up():
    rng = random.Random(41)
    for _ in range(25):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        mat = random_matrix(rng, rows, cols)
        r = rank(mat)
        kernel = nullspace(mat)
        assert r + len(kernel) == cols
        for vec in kernel:
            assert all(v == 0 for v in mat_vec(mat, vec))


def test_solve_round_trip():
    rng = random.Random(43)
    for _ in range(25):
        n = rng.randint(1, 5)
        mat = random_matrix(rng, n + 1, n, density=0.9)
        if rank(mat) < n:
            continue
        x_true = [[Fraction(rng.randint(-3, 3))] for _ in range(n)]
        rhs = mat_mul(mat, x_true)
        assert solve(mat, rhs) == x_true


def test_solve_detects_inconsistency():
    mat = [[Fraction(1)], [Fraction(1)]]
    rhs = [[Fraction(1)], [Fraction(2)]]
    with pytest.raises(ValueError):
        solve(mat, rhs)


def test_sparse_mul_matches_dense():
    rng = random.Random(47)
    for _ in range(15):
        n = rng.randint(1, 6)
        a = random_cols(rng, n, n, density=0.4)
        b = random_cols(rng, n, n, density=0.4)
        dense = mat_mul(to_dense(a, n), to_dense(b, n))
        assert to_dense(sparse_mul(a, b), n) == dense


def test_exact_prefers_int():
    assert type(exact(Fraction(6, 3))) is int and exact(Fraction(6, 3)) == 2
    assert exact(Fraction(1, 2)) == Fraction(1, 2)
    assert type(exact(-5)) is int


# entries as the module layout stores them: ints, and Fractions that may be fractional
_entries = st.one_of(st.integers(-6, 6), st.fractions(min_value=-6, max_value=6, max_denominator=4))


@st.composite
def _sparse_matrices(draw):
    rows = draw(st.integers(1, 7))
    cols = draw(st.integers(0, 7))
    matrix = [
        {i: v for i, v in draw(st.dictionaries(st.integers(0, rows - 1), _entries, max_size=rows)).items() if v}
        for _ in range(cols)
    ]
    # rank-deficient cases: append combinations of the drawn columns
    for _ in range(draw(st.integers(0, 3)) if matrix else 0):
        a, b = draw(st.sampled_from(matrix)), draw(st.sampled_from(matrix))
        ca, cb = draw(_entries), draw(_entries)
        combo = {i: ca * a.get(i, 0) + cb * b.get(i, 0) for i in set(a) | set(b)}
        matrix.append({i: v for i, v in combo.items() if v})
    return rows, matrix


@settings(max_examples=200, deadline=None)
@given(_sparse_matrices())
def test_sparse_rank_matches_dense_rref(case):
    rows, matrix = case
    dense = to_dense(matrix, rows)
    assert sparse_rank(matrix) == len(rref(dense)[1])


def test_sparse_rank_zero_and_repeated_columns():
    assert sparse_rank([]) == 0
    assert sparse_rank([{}, {}, {}]) == 0
    col = {0: Fraction(1, 2), 3: Fraction(-2, 3)}
    assert sparse_rank([col, {}, dict(col), {i: 6 * v for i, v in col.items()}]) == 1
