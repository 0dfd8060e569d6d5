"""Exact rank kernels, checked against an independent oracle."""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from rncurves import linalg
from rncurves.linalg import (
    integerize_rows,
    invert,
    nullspace,
    rank,
    rref,
    solve_right,
)

F = Fraction


def random_matrix(rnd, rows, cols, force_deficient=False):
    m = [
        [F(rnd.randrange(-9, 10), rnd.randrange(1, 4)) for _ in range(cols)]
        for _ in range(rows)
    ]
    if force_deficient and rows >= 2:
        m[-1] = [3 * x for x in m[0]]
    return m


def test_rank_frozen_cases():
    assert rank([], 4) == 0
    assert rank([[F(0), F(0)]], 2) == 0
    assert rank([[F(1), F(2)], [F(2), F(4)]], 2) == 1
    assert rank([[F(1), F(0), F(5)], [F(0), F(1), F(7)]], 3) == 2
    # 4x4 Vandermonde at 1,2,3,4 is invertible
    v = [[F(a) ** k for k in range(4)] for a in (1, 2, 3, 4)]
    assert rank(v, 4) == 4


def test_rank_matches_sympy_on_random_matrices():
    rnd = random.Random(20240814)
    for trial in range(60):
        rows = rnd.randrange(1, 8)
        cols = rnd.randrange(1, 8)
        m = random_matrix(rnd, rows, cols, force_deficient=(trial % 3 == 0))
        assert rank(m, cols) == sympy.Matrix(m).rank()


@given(st.integers(2, 5), st.integers(2, 5), st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_rank_bounds_and_transpose_invariance(rows, cols, seed):
    rnd = random.Random(seed)
    m = random_matrix(rnd, rows, cols)
    r = rank(m, cols)
    assert 0 <= r <= min(rows, cols)
    mt = [[m[i][j] for i in range(rows)] for j in range(cols)]
    assert rank(mt, rows) == r


def test_integerize_preserves_rank():
    rnd = random.Random(3)
    for _ in range(20):
        m = random_matrix(rnd, 4, 5)
        ints = integerize_rows(m)
        assert all(all(x.denominator == 1 for x in row) for row in ints)
        assert rank(ints, 5) == rank(m, 5)


def test_rref_pivots_and_idempotence():
    rnd = random.Random(11)
    for _ in range(20):
        m = random_matrix(rnd, 4, 6, force_deficient=True)
        reduced, pivots = rref(m, 6)
        assert len(reduced) == len(pivots) == rank(m, 6)
        for i, p in enumerate(pivots):
            assert reduced[i][p] == 1
            assert all(reduced[j][p] == 0 for j in range(len(reduced)) if j != i)
        again, again_pivots = rref(reduced, 6)
        assert again == reduced and again_pivots == list(pivots)


def test_nullspace_vectors_annihilate_rows():
    rnd = random.Random(5)
    for _ in range(20):
        rows = rnd.randrange(1, 5)
        cols = rnd.randrange(1, 6)
        m = random_matrix(rnd, rows, cols)
        basis = nullspace(m, cols)
        assert len(basis) == cols - rank(m, cols)
        for v in basis:
            for row in m:
                assert sum(a * b for a, b in zip(row, v)) == 0


def test_solve_right_and_invert_round_trip():
    rnd = random.Random(13)
    for _ in range(10):
        n = rnd.randrange(2, 6)
        while True:
            m = random_matrix(rnd, n, n)
            if rank(m, n) == n:
                break
        inv = invert(m, n)
        for i in range(n):
            for j in range(n):
                s = sum(m[i][k] * inv[k][j] for k in range(n))
                assert s == (1 if i == j else 0)
        b = [F(rnd.randrange(-5, 6)) for _ in range(n)]
        x = solve_right(m, b, n)
        for i in range(n):
            assert sum(m[i][k] * x[k] for k in range(n)) == b[i]


def test_prescreen_prime_is_prime():
    assert sympy.isprime(linalg._PRESCREEN_PRIME)


def test_rank_with_huge_entries_stays_exact():
    # Fraction-free elimination must not overflow or lose precision.
    big = F(10**40 + 1)
    m = [[big, big + 1], [big + 2, big + 3]]
    assert rank(m, 2) == 2
    m2 = [[big, big], [big, big]]
    assert rank(m2, 2) == 1
