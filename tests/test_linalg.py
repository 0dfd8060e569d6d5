"""Exact matrix kernels, checked against sympy as an independent oracle."""

import random
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import GF, ZZ
from sympy.polys.matrices import DomainMatrix

from rncurves import linalg
from rncurves.exactgeom import LinearSubspace
from rncurves.linalg import (
    integerize,
    invert,
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
        ints = [integerize(row) for row in m]
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
    # the kernel of m is the set of forms cutting out its row space
    rnd = random.Random(5)
    for _ in range(20):
        rows = rnd.randrange(1, 5)
        cols = rnd.randrange(1, 6)
        m = random_matrix(rnd, rows, cols)
        basis = LinearSubspace.from_rows(cols - 1, m).equations()
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
    p = linalg._PRESCREEN_PRIME
    assert sympy.isprime(p)
    # the lifting product b^-1 (R mod p) sums up to _KERNEL_MAX_RANK terms below (p-1)**2
    assert p < 2**26
    assert linalg._KERNEL_MAX_RANK * (p - 1) ** 2 < 2**63


def test_rank_with_huge_entries_stays_exact():
    # Fraction-free elimination must not overflow or lose precision.
    big = F(10**40 + 1)
    m = [[big, big + 1], [big + 2, big + 3]]
    assert rank(m, 2) == 2
    m2 = [[big, big], [big, big]]
    assert rank(m2, 2) == 1


BIG = 10**30

# Small integers, small fractions, zeros and integers of over 30 digits.
ENTRY = st.one_of(
    st.just(0),
    st.integers(-9, 9),
    st.fractions(-20, 20, max_denominator=9),
    st.tuples(st.sampled_from((-1, 1)), st.integers(BIG, 10**35)).map(lambda t: t[0] * t[1]),
)


@st.composite
def matrices(draw, max_rows=6, max_cols=6):
    rows = draw(st.integers(0, max_rows))
    cols = draw(st.integers(0, max_cols))
    m = [[draw(ENTRY) for _ in range(cols)] for _ in range(rows)]
    if rows >= 3 and draw(st.booleans()):
        a, b = draw(ENTRY), draw(ENTRY)
        m[-1] = [a * x + b * y for x, y in zip(m[0], m[1])]
    return m, cols


def to_sympy(m, cols):
    return sympy.Matrix(len(m), cols, [sympy.Rational(F(x).numerator, F(x).denominator) for r in m for x in r])


def from_sympy(row):
    return tuple(F(int(x.p), int(x.q)) for x in row)


def big(rnd):
    return rnd.choice((-1, 1)) * rnd.randrange(BIG, 10**35)


_rnd = random.Random(29)


@given(matrices())
@example(([], 3))  # no rows
@example(([[], [], []], 0))  # no columns
@example(([[0, 0, 0], [0, 0, 0]], 3))  # zero rows only
@example(([[big(_rnd), big(_rnd)] for _ in range(7)], 2))  # tall
@example(([[big(_rnd) for _ in range(7)] for _ in range(2)], 7))  # wide
@settings(max_examples=80, deadline=None)
def test_rref_matches_sympy(case):
    m, cols = case
    red, pivots = rref(m, cols)
    want, want_pivots = to_sympy(m, cols).rref()
    assert pivots == list(want_pivots)
    assert red == [from_sympy(want.row(i)) for i in range(len(want_pivots))]
    assert all(type(x) is F for r in red for x in r)


@given(st.integers(1, 7), st.integers(1, 7), st.integers(1, 6), st.integers(0, 2**32))
@settings(max_examples=30, deadline=None)
def test_rank_of_a_low_rank_product_matches_sympy(rows, cols, inner, seed):
    rnd = random.Random(seed)
    inner = min(inner, rows, cols)
    u = [[big(rnd) for _ in range(inner)] for _ in range(rows)]
    v = [[big(rnd) for _ in range(cols)] for _ in range(inner)]
    m = [[sum(a * b for a, b in zip(r, c)) for c in zip(*v)] for r in u]
    assert rank(m, cols) == to_sympy(m, cols).rank()


@st.composite
def square_systems(draw):
    n = draw(st.integers(1, 5))
    m = [[draw(ENTRY) for _ in range(n)] for _ in range(n)]
    if n >= 2 and draw(st.booleans()):
        m[-1] = [2 * x - y for x, y in zip(m[0], m[1])]
    return n, m, [draw(ENTRY) for _ in range(n)]


@given(square_systems())
@settings(max_examples=60, deadline=None)
def test_invert_and_solve_right_match_sympy(system):
    n, m, b = system
    a = to_sympy(m, n)
    x = solve_right(m, b, n)
    inv = invert(m, n)
    if a.rank() == n:
        assert inv == tuple(from_sympy(a.inv().row(i)) for i in range(n))
        assert x == from_sympy(a.LUsolve(to_sympy([[y] for y in b], 1)))
        return
    assert inv is None
    consistent = a.row_join(to_sympy([[y] for y in b], 1)).rank() == a.rank()
    assert (x is not None) == consistent
    if x is not None:
        assert list(a * to_sympy([[y] for y in x], 1)) == list(to_sympy([[y] for y in b], 1))


P = linalg._PRESCREEN_PRIME


def product(rnd, rows, cols, inner, bits):
    """A random ``rows x cols`` integer matrix ``U V`` of rank at most ``inner``."""
    u = [[rnd.randrange(-(2**bits), 2**bits) for _ in range(inner)] for _ in range(rows)]
    v = [[rnd.randrange(-(2**bits), 2**bits) for _ in range(cols)] for _ in range(inner)]
    return [[sum(a * b for a, b in zip(r, c)) for c in zip(*v)] for r in u]


@pytest.fixture
def bareiss_calls(monkeypatch):
    """The core matrices that reach the elimination fallback of rank()."""
    calls = []
    fallback = linalg._rank_bareiss

    def spy(rows, ncols):
        calls.append(len(rows))
        return fallback(rows, ncols)

    monkeypatch.setattr(linalg, "_rank_bareiss", spy)
    return calls


def no_bareiss(rows, ncols):
    raise AssertionError("the kernel certificate fell back to the elimination")


@given(st.integers(2, 9), st.integers(2, 9), st.integers(1, 8), st.integers(0, 2**32))
@example(9, 3, 2, 1)  # tall
@example(3, 9, 2, 2)  # wide
@settings(max_examples=40, deadline=None)
def test_kernel_certificate_ranks_low_rank_products(rows, cols, inner, seed):
    # Entries below 2**40 and rank below min(rows, cols): every rank is a
    # prescreen miss that the certificate settles without the elimination.
    inner = min(inner, rows - 1, cols - 1)
    m = product(random.Random(seed), rows, cols, inner, 17)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_rank_bareiss", no_bareiss)
        assert rank(m, cols) == to_sympy(m, cols).rank()


@pytest.mark.parametrize("seed", range(4))
def test_bad_prime_falls_back_and_stays_exact(seed, bareiss_calls):
    # U V + p E has rank 2 mod p but full rank over Q: the pivot block's
    # bordering minors are all divisible by p, so no kernel vector checks.
    rnd = random.Random(seed)
    low = product(rnd, 7, 5, 2, 10)
    m = [[x + P * rnd.randrange(-3, 4) for x in row] for row in low]
    assert linalg._rank_mod_int(m, P)[0] == 2
    assert rank(m, 5) == to_sympy(m, 5).rank() == 5
    assert bareiss_calls == [7]


def test_wrong_reconstruction_is_rejected_by_the_check(monkeypatch, bareiss_calls):
    reconstruct = linalg._reconstruct
    tampered = []

    def off_by_one(x, modulus):
        found = reconstruct(x, modulus)
        if found is None:
            return None
        tampered.append(modulus)
        den, nums = found
        return den, nums + 1

    monkeypatch.setattr(linalg, "_reconstruct", off_by_one)
    m = product(random.Random(7), 6, 5, 3, 12)
    assert rank(m, 5) == to_sympy(m, 5).rank() == 3
    assert tampered and bareiss_calls == [6]


def test_int64_guard(bareiss_calls):
    # rank 2 of 3 x 4, certified on the 4 x 3 transpose: (rank + 1) * max|A| < 2**62
    def matrix(top):
        r0, r1 = [top, 1, 2, 3], [0, 1, 1, 1]
        return [r0, r1, [a - b for a, b in zip(r0, r1)]]

    under, over = (2**62 - 1) // 3, 2**62 // 3 + 1
    assert rank(matrix(under), 4) == 2
    assert bareiss_calls == []
    assert rank(matrix(over), 4) == 2
    assert bareiss_calls == [3]
    m = product(random.Random(3), 5, 6, 3, 32)  # entries past 2**62
    assert rank(m, 6) == to_sympy(m, 6).rank() == 3
    assert bareiss_calls == [3, 5]


@given(matrices())
@settings(max_examples=40, deadline=None)
def test_prescreen_returns_a_block_nonsingular_mod_p(case):
    m, cols = case
    ints = [integerize(row) for row in m]
    r, prows, pcols = linalg._rank_mod_int(ints, P)
    assert r == len(prows) == len(pcols)
    assert r == DomainMatrix([[ZZ(x) for x in row] for row in ints], (len(ints), cols), ZZ).convert_to(GF(P)).rank()
    assert r == 0 or sympy.Matrix(r, r, [ints[i][j] for i in prows for j in pcols]).det() % P != 0


@pytest.mark.parametrize(
    "steps, checkpoints",
    [(1, [1]), (5, [5]), (8, [8]), (21, [8, 16, 21]), (32, [8, 16, 32])],
)
def test_lift_checkpoints_solve_the_system_mod_p_powers(steps, checkpoints):
    # entries up to 2**40 make the residual numerator wrap in uint64
    rnd = random.Random(steps)
    while True:
        b = [[rnd.randrange(-(2**40), 2**40) for _ in range(4)] for _ in range(4)]
        if sympy.Matrix(b).det() % P:
            break
    rhs = [[rnd.randrange(-(2**40), 2**40) for _ in range(3)] for _ in range(4)]
    exact_b, exact_rhs = np.array(b, dtype=object), np.array(rhs, dtype=object)
    seen = []
    for x, modulus in linalg._lift(np.array(b, dtype=np.int64), np.array(rhs, dtype=np.int64), P, steps):
        seen.append(modulus)
        assert not np.any((exact_b @ x - exact_rhs) % modulus)
    assert seen == [P**s for s in checkpoints]


SMALL = linalg._SMALL_CORE


def sparse_product(rows, cols, inner, seed):
    """``U V`` with rank at most ``inner``, many zero entries and some
    entries that are multiples of P, so pivots swap rows and skip columns."""
    rnd = random.Random(seed)

    def entry():
        return rnd.choice((0, 0, 0, 1, -1, P, rnd.randrange(-(2**40), 2**40)))

    u = [[entry() for _ in range(inner)] for _ in range(rows)]
    v = [[entry() for _ in range(cols)] for _ in range(inner)]
    return [[sum(a * b for a, b in zip(r, c)) for c in zip(*v)] for r in u]


# rows, cols and inner dimension near the bound, so the min side falls on both sides of it
NEAR_SMALL = st.integers(SMALL - 4, SMALL + 4)
SIZES = (NEAR_SMALL, NEAR_SMALL, st.integers(1, SMALL + 4), st.integers(0, 2**32))


@given(*SIZES)
@example(SMALL, SMALL + 3, SMALL - 2, 1)  # min side at the bound, rank-deficient
@example(SMALL + 1, SMALL + 2, SMALL - 1, 2)  # min side past the bound, rank-deficient
@example(SMALL + 2, SMALL + 1, SMALL + 1, 3)  # past the bound, full rank
@settings(max_examples=60, deadline=None)
def test_prescreen_kernels_return_the_same_pivots(rows, cols, inner, seed):
    m = sparse_product(rows, cols, min(inner, rows, cols), seed)
    found = []
    for bound in (0, rows + cols):  # every core to numpy, then every core to plain Python
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, "_SMALL_CORE", bound)
            found.append(linalg._rank_mod_int(m, P))
    assert found[0] == found[1]


@given(*SIZES)
@example(SMALL, SMALL + 3, SMALL - 2, 1)
@example(SMALL + 1, SMALL + 2, SMALL - 1, 2)
@settings(max_examples=30, deadline=None)
def test_rank_matches_sympy_on_both_sides_of_the_small_core_bound(rows, cols, inner, seed):
    m = sparse_product(rows, cols, min(inner, rows, cols), seed)
    want = DomainMatrix([[ZZ(x) for x in row] for row in m], (rows, cols), ZZ).convert_to(sympy.QQ).rank()
    assert rank(m, cols) == want
