import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import glsuper
from dense_linalg import mat_vec, nullspace, rank, solve, to_dense
from glsuper.ratlinalg import (
    exact, mat_mul, rref, sparse_mul, sparse_pivots, sparse_rank, sparse_relations,
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
    # the pivot keys are the leading indices of the span: the rref pivot
    # columns of the same vectors taken as rows
    as_rows = [[col.get(i, 0) for i in range(rows)] for col in matrix]
    assert set(sparse_pivots(matrix)) == set(rref(as_rows)[1])


def test_sparse_rank_zero_and_repeated_columns():
    assert sparse_rank([]) == 0
    assert sparse_rank([{}, {}, {}]) == 0
    col = {0: Fraction(1, 2), 3: Fraction(-2, 3)}
    assert sparse_rank([col, {}, dict(col), {i: 6 * v for i, v in col.items()}]) == 1


def _dense_relations(matrix, rows):
    """{free column: its rref kernel vector}, entries as `exact` makes them."""
    dense = to_dense(matrix, rows)
    pivots = set(rref(dense)[1])
    free = [j for j in range(len(matrix)) if j not in pivots]
    kernel = ({i: exact(v) for i, v in enumerate(vec) if v} for vec in nullspace(dense))
    return dict(zip(free, kernel, strict=True))


def _typed(relations):
    return {j: {i: (type(v), v) for i, v in vec.items()} for j, vec in relations.items()}


@settings(max_examples=200, deadline=None)
@given(_sparse_matrices())
def test_sparse_relations_match_dense_nullspace(case):
    rows, matrix = case
    rank_, relations = sparse_relations(matrix)
    assert rank_ == rank(to_dense(matrix, rows))
    assert _typed(relations) == _typed(_dense_relations(matrix, rows))
    for j, vec in relations.items():
        # a relation combines column j with earlier columns only, and vanishes
        assert max(vec) == j and vec[j] == 1
        assert sparse_mul(matrix, [vec]) == [{}]


def test_sparse_relations_explicit_cases():
    assert sparse_relations([]) == (0, {})
    # zero columns are each their own relation
    assert sparse_relations([{}, {}]) == (0, {0: {0: 1}, 1: {1: 1}})
    # every column after the first is a multiple of it
    col = {0: Fraction(1, 2), 3: Fraction(-2, 3)}
    rank_, relations = sparse_relations([col, {i: 6 * v for i, v in col.items()}, dict(col)])
    assert rank_ == 1 and relations == {1: {0: -6, 1: 1}, 2: {0: -1, 2: 1}}
    assert all(type(v) is int for vec in relations.values() for v in vec.values())
    # Fraction coordinates: (1, 1) = 1/2 (2, 0) + 1/3 (0, 3)
    cols = [{0: 2}, {1: 3}, {0: 1, 1: 1}]
    assert sparse_relations(cols) == (2, {2: {0: Fraction(-1, 2), 1: Fraction(-1, 3), 2: 1}})
    _, relations = sparse_relations([{0: Fraction(2, 3)}, {0: Fraction(1, 3)}])
    assert relations == {1: {0: Fraction(-1, 2), 1: 1}}
    assert type(relations[1][0]) is Fraction and type(relations[1][1]) is int


# each runs in a fresh interpreter, where nothing has imported fractions yet
INTEGRAL_FIRST = """
import sys
from glsuper import ratlinalg
ratlinalg.sparse_pivots
print("fractions" in sys.modules or "decimal" in sys.modules)
_, relations = ratlinalg.sparse_relations([{0: 1}, {0: 2, 1: 1}, {1: 3}, {0: 1, 1: -1}])
print(relations, all(type(v) is int for vec in relations.values() for v in vec.values()))
print("fractions" in sys.modules or "decimal" in sys.modules)
print(ratlinalg.sparse_relations([{0: 2, 1: -4}, {0: -3, 1: 6}, {2: 1}, {0: 1, 1: -2, 2: 5}]))
print(ratlinalg.sparse_relations([{0: 2}, {0: 3}, {0: -5, 1: 7}, {1: 2}]))
"""
DENSE_FIRST = """
from glsuper import ratlinalg
print(ratlinalg.zeros(1, 2), ratlinalg.rref([[2, 1], [4, 3]]), ratlinalg.mat_mul([[1, 2]], [[3], [4]]))
"""


@pytest.mark.parametrize(
    "script, expected",
    [
        (INTEGRAL_FIRST, [
            "False",
            "{2: {2: 1, 1: -3, 0: 6}, 3: {3: 1, 0: -3, 1: 1}} True",
            "False",
            # the parent's values and order, which built every entry as a Fraction first
            "(2, {1: {1: 1, 0: Fraction(3, 2)}, 3: {3: 1, 0: Fraction(-1, 2), 2: -5}})",
            "(2, {1: {1: 1, 0: Fraction(-3, 2)}, 3: {3: 1, 2: Fraction(-2, 7), 0: Fraction(-5, 7)}})",
        ]),
        (DENSE_FIRST, [
            "[[Fraction(0, 1), Fraction(0, 1)]] ([[Fraction(1, 1), Fraction(0, 1)], "
            "[Fraction(0, 1), Fraction(1, 1)]], [0, 1]) [[Fraction(11, 1)]]",
        ]),
    ],
    ids=["sparse", "dense"],
)
def test_fractions_load_only_for_a_non_integral_value(script, expected):
    env = {**os.environ, "PYTHONPATH": str(Path(glsuper.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == expected
