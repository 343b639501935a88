"""Systematic bridges between the closed-form layer and the matrix oracles."""

import itertools
import math

import pytest

from glsuper.errors import DomainError
from glsuper.invariants import ModuleKind, rank_orbit_closure_dim, variety_dims
from glsuper.oracle import dual_kac_module, kac_module, rank_variety
from glsuper.weights import SuperParams, Weight

CASES = [
    (SuperParams(1, 1), (0, 0)),
    (SuperParams(1, 1), (2, -2)),
    (SuperParams(1, 1), (1, 0)),      # typical
    (SuperParams(2, 1), (0, 0, 0)),
    (SuperParams(2, 1), (1, 1, 0)),   # typical
    (SuperParams(2, 1), (2, 0, -1)),
    (SuperParams(2, 2), (0, 0, 0, 0)),
    (SuperParams(2, 2), (1, 0, 0, -1)),
    (SuperParams(2, 2), (2, 0, 0, -1)),
    (SuperParams(3, 2), (0, 0, 0, 0, 0)),
    (SuperParams(3, 3), (0,) * 6),      # atypicality 3, dim 512
]


@pytest.mark.parametrize("params,coeffs", CASES)
def test_rank_varieties_match_invariant_report(params, coeffs):
    w = Weight(params, coeffs)
    kac = kac_module(w)
    report = variety_dims(ModuleKind.KAC, w)
    assert rank_variety(kac, 1) == report.dim_rank_plus
    assert rank_variety(kac, -1) == report.dim_rank_minus
    assert rank_orbit_closure_dim(params, rank_variety(kac, 1)) == report.dim_X


@pytest.mark.parametrize("params,coeffs", CASES)
def test_dual_rank_varieties_match_invariant_report(params, coeffs):
    w = Weight(params, coeffs)
    dual = dual_kac_module(w)
    report = variety_dims(ModuleKind.DUAL_KAC, w)
    assert rank_variety(dual, 1) == report.dim_rank_plus
    assert rank_variety(dual, -1) == report.dim_rank_minus


def test_kac_module_requires_dominant():
    with pytest.raises(DomainError):
        kac_module(Weight(SuperParams(2, 1), (0, 1, 0)))


def count_low_rank_matrices(m, n, r, q):
    """Brute-force count of m x n matrices over F_q with rank <= r."""

    def rank_mod(rows):
        rows = [list(row) for row in rows]
        rank = 0
        col = 0
        while rank < len(rows) and col < n:
            pivot = next((i for i in range(rank, len(rows)) if rows[i][col] % q), None)
            if pivot is None:
                col += 1
                continue
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            inv = pow(rows[rank][col], q - 2, q)
            rows[rank] = [(v * inv) % q for v in rows[rank]]
            for i in range(len(rows)):
                if i != rank and rows[i][col] % q:
                    factor = rows[i][col]
                    rows[i] = [(a - factor * b) % q for a, b in zip(rows[i], rows[rank])]
            rank += 1
            col += 1
        return rank

    count = 0
    for flat in itertools.product(range(q), repeat=m * n):
        rows = [flat[i * n : (i + 1) * n] for i in range(m)]
        if rank_mod(rows) <= r:
            count += 1
    return count


@pytest.mark.parametrize(
    "m,n,r",
    [(2, 1, 0), (2, 1, 1), (2, 2, 1), (2, 2, 2), (3, 2, 1), (3, 2, 2)],
)
def test_rank_orbit_dim_against_point_count_oracle(m, n, r):
    # the dimension of the rank <= r locus is the leading q-exponent of its
    # point count over F_q; estimate it from two primes and compare
    params = SuperParams(m, n)
    expected = rank_orbit_closure_dim(params, r)
    for q in (3, 5):
        count = count_low_rank_matrices(m, n, r, q)
        estimate = round(math.log(count) / math.log(q))
        assert estimate == expected, (q, count)
