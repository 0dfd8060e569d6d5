"""Weight vectors, configurations, condition matrices, Hilbert functions."""

import hashlib
import itertools
import random
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import expected_conditions, sample_projectivity, transformed, without
from rncurves.arrangements import (
    ConditionMatrix,
    Configuration,
    WeightVector,
    generic_hilbert,
    hilbert_function,
    ideal_dimension,
    monomials,
    sample_configuration,
    sample_fat_configuration,
    vanishing_conditions,
)
from rncurves import arrangements, defectivity, feasibility, linalg
from rncurves.defectivity import DefectQuery, defect_check
from rncurves.exactgeom import (
    LinearSubspace,
    ProjPoint,
    Rng,
    meet,
    sample_generic_subspace,
    span,
    standard_point,
)
from rncurves.feasibility import check_bezout
from rncurves.linalg import rank

F = Fraction

# The benchmark's closed-form Hilbert values (Alexander-Hirschowitz,
# Hartshorne-Hirschowitz); the module reads nothing of rncurves.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import oracles  # noqa: E402

sys.path.pop(0)


def coordinate_space(n, indices):
    return span([standard_point(n, i) for i in indices])


def monomial_oracle(n, a_idx, b_idx, d):
    """Hilbert data for a union of two coordinate subspaces, by counting
    monomials in the intersection of the two coordinate ideals."""
    a_set, b_set = set(a_idx), set(b_idx)
    ideal = 0
    for mono in itertools.combinations_with_replacement(range(n + 1), d):
        if any(v not in a_set for v in mono) and any(v not in b_set for v in mono):
            ideal += 1
    return comb(n + d, d) - ideal, ideal


# ---------------------------------------------------------------- weights


def test_weight_vector_invariants():
    w = WeightVector(5, (2, 1, 0, 1))
    assert w.total_intersection() == 2 * 1 + 1 * 2 + 1 * 4
    assert w.parameter_cost() == 2 * 1 * 4 + 1 * 2 * 3 + 1 * 4 * 1
    assert w.component_dims() == [0, 0, 1, 3]
    assert not w.is_zero()
    assert WeightVector(3, (0, 0)).is_zero()


def test_weight_vector_validation():
    with pytest.raises(ValueError):
        WeightVector(1, ())
    with pytest.raises(ValueError):
        WeightVector(4, (1, 2))  # needs length n-1
    with pytest.raises(ValueError):
        WeightVector(3, (-1, 0))


# ---------------------------------------------------------------- configurations


def test_sample_configuration_matches_weights_and_is_generic():
    w = WeightVector(4, (2, 2, 0))
    cfg = sample_configuration(w, Rng(77))
    assert cfg.is_reduced()
    dims = sorted(s.dim for s, _ in cfg.components)
    assert dims == [0, 0, 1, 1]
    # pairwise generic: two lines in P^4 are disjoint, points stay off lines
    spaces = [s for s, _ in cfg.components]
    for a, b in itertools.combinations(spaces, 2):
        assert meet(a, b).dim == max(-1, a.dim + b.dim - 4)


@given(st.integers(0, 2**32), st.integers(2, 5), st.integers(0, 4), st.integers(0, 4))
@settings(max_examples=40, deadline=None)
def test_pairwise_rank_check_agrees_with_meet(seed, n, ka, kb):
    rng = Rng(seed)
    a = sample_generic_subspace(n, min(ka, n - 1), rng)
    b = sample_generic_subspace(n, min(kb, n - 1), rng)
    # a pair through a common point of the two: special whenever it can be
    c = LinearSubspace.from_rows(n, a.basis[:1] + b.basis[1:])
    for x, y in ((a, b), (a, c), (b, c)):
        want = meet(x, y).dim == max(-1, x.dim + y.dim - n)
        assert arrangements._pairwise_generic([x, y], n) is want


def test_pairwise_rank_check_rejects_special_pairs():
    # two lines of P^3 through a common point
    l1 = LinearSubspace.from_rows(3, [(1, 2, 3, 4), (0, 1, 5, -2)])
    l2 = LinearSubspace.from_rows(3, [(1, 2, 3, 4), (7, 0, 1, 1)])
    assert meet(l1, l2).dim == 0
    assert not arrangements._pairwise_generic([l1, l2], 3)
    # two planes of P^4 meeting in a line, not just a point
    line = [(1, 0, 2, 0, 3), (0, 1, 0, -1, 4)]
    p1 = LinearSubspace.from_rows(4, line + [(5, 5, 1, 0, 0)])
    p2 = LinearSubspace.from_rows(4, line + [(0, 3, 0, 2, 9)])
    assert meet(p1, p2).dim == 1
    assert not arrangements._pairwise_generic([p1, p2], 4)
    # and the generic cases: skew lines of P^3, planes of P^4 meeting in a point
    l3 = LinearSubspace.from_rows(3, [(0, 0, 1, 0), (0, 0, 0, 1)])
    l4 = LinearSubspace.from_rows(3, [(1, 0, 0, 0), (0, 1, 0, 0)])
    p3 = LinearSubspace.from_rows(4, [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0)])
    p4 = LinearSubspace.from_rows(4, [(0, 0, 1, 0, 0), (0, 0, 0, 1, 0), (0, 0, 0, 0, 1)])
    assert arrangements._pairwise_generic([l3, l4], 3)
    assert arrangements._pairwise_generic([p3, p4], 4)
    assert not arrangements._pairwise_generic([l3, l4, l1, l2], 3)


def test_pairwise_check_decides_point_pairs_by_equality():
    # the oracle is sympy's rank of the stacked generators, over a seeded
    # grid of point-point, point-line and line-line pairs
    for n in range(2, 6):
        for seed in range(5):
            rng = Rng(1000 * n + seed)
            p = sample_generic_subspace(n, 0, rng.derive("p"))
            q = sample_generic_subspace(n, 0, rng.derive("q"))
            line = sample_generic_subspace(n, 1, rng.derive("line"))
            # the same point given two ways: sampled, and by a scaled generator
            again = span([ProjPoint(n, tuple(-3 * x for x in p.generators[0]))])
            through = LinearSubspace.from_rows(n, p.basis + line.basis[1:])
            assert through.dim == 1
            for x, y in ((p, q), (p, again), (q, again), (p, line), (p, through), (line, through)):
                want = sympy.Matrix(x.generators + y.generators).rank() == min(n + 1, x.dim + y.dim + 2)
                assert arrangements._pairwise_generic([x, y], n) is want
            assert not arrangements._pairwise_generic([p, again], n)
            assert arrangements._pairwise_generic([p, q], n)


P = linalg._PRESCREEN_PRIME


def exact_pairwise_generic(spaces, n):
    """The pairwise test as it was before the echelon mod p: two points by
    their canonical bases, any other pair by the exact rank of the stacked
    generators."""
    for i, a in enumerate(spaces):
        for b in spaces[i + 1 :]:
            if a.dim == b.dim == 0 < n:
                if a == b:
                    return False
            elif rank(a.generators + b.generators, n + 1) != min(n + 1, a.dim + b.dim + 2):
                return False
    return True


def drawn(n, *rows):
    """The subspace spanned by ``rows`` as a draw makes it: generators only."""
    return LinearSubspace(n, rows)


# Pairs whose stacked generators lose rank mod p, with the exact verdict.
SHORT_PAIRS = [
    # a line with a row that is 0 mod p, against a skew line and a line through one of its points
    (drawn(3, (P, -2 * P, 0, 3 * P), (1, 2, 3, 4)), drawn(3, (0, 0, 1, 0), (0, 0, 0, 1)), True),
    (drawn(3, (P, -2 * P, 0, 3 * P), (1, 2, 3, 4)), drawn(3, (1, 2, 3, 4), (0, 0, 1, 0)), False),
    # two points congruent mod p but distinct over Z, and one point given twice
    (drawn(2, (1, 2, 3)), drawn(2, (1, 2, 3 + P)), True),
    (drawn(2, (1, 2, 3)), drawn(2, (-2, -4, -6)), False),
    # a line whose leading 2x2 minor is p (its rows differ by p e_1), against a
    # skew line and a point on it
    (drawn(3, (1, 2, 3, 4), (1, 2 + P, 3, 4)), drawn(3, (0, 0, 1, 0), (0, 0, 0, 1)), True),
    (drawn(3, (1, 2, 3, 4), (1, 2 + P, 3, 4)), drawn(3, (2, 4 + P, 6, 8)), False),
]


@pytest.mark.parametrize("a, b, generic", SHORT_PAIRS)
def test_pairs_short_mod_p_are_decided_by_the_exact_rank(monkeypatch, a, b, generic):
    n = a.n
    cap = min(n + 1, a.dim + b.dim + 2)
    assert len(linalg.echelon_mod_p(b.generators, a.modular_echelon)[0]) < cap
    calls = []
    rank_ = linalg.rank
    monkeypatch.setattr(linalg, "rank", lambda rows, ncols: calls.append(len(rows)) or rank_(rows, ncols))
    assert arrangements._pairwise_generic([a, b], n) is generic
    assert calls == [len(a.generators) + len(b.generators)]
    assert (sympy.Matrix(a.generators + b.generators).rank() == cap) is generic
    assert exact_pairwise_generic([a, b], n) is generic


@pytest.mark.parametrize("mult, d", [(1, 2), (2, 2), (2, 3), (3, 2)])
def test_conditions_of_a_short_echelon_use_the_basis_pivots(mult, d):
    # rank 1 mod p: the normal columns come from the RREF basis, as before
    for line in (SHORT_PAIRS[0][0], SHORT_PAIRS[4][0]):
        assert len(line.modular_echelon[0]) == 1 and line.pivot_columns() == (0, 1)
        assert vanishing_conditions(line, mult, d) == sympy_conditions(line, mult, d)


@st.composite
def special_configurations(draw):
    """(n, generator rows of each space): two to four spaces of dimension
    at most 2 with small entries.  A row may be a combination of an earlier
    space's rows, which gives coincident points, points on lines and meeting
    lines, and may then be moved by p times a small row, which keeps it
    congruent mod p and makes it another row over Z."""
    n = draw(st.integers(1, 4))
    small = st.lists(st.integers(-2, 2), min_size=n + 1, max_size=n + 1)
    spaces = []
    for _ in range(draw(st.integers(2, 4))):
        k = draw(st.integers(0, min(2, n - 1)))
        rows = []
        for _ in range(k + 1):
            if spaces and draw(st.booleans()):
                other = draw(st.sampled_from(spaces))
                weights = draw(st.lists(st.integers(-2, 2), min_size=len(other), max_size=len(other)))
                row = [sum(w * g[j] for w, g in zip(weights, other)) for j in range(n + 1)]
            else:
                row = draw(small)
            if draw(st.integers(0, 3)) == 0:
                row = [x + P * y for x, y in zip(row, draw(small))]
            rows.append(tuple(row))
        assume(rank(rows, n + 1) == k + 1)
        spaces.append(tuple(rows))
    return n, spaces


@given(special_configurations())
@settings(max_examples=200, deadline=None)
def test_pairwise_check_decides_as_the_exact_ranks(case):
    n, rows = case
    spaces = [drawn(n, *r) for r in rows]
    assert arrangements._pairwise_generic(spaces, n) is exact_pairwise_generic(spaces, n)
    for i, a in enumerate(spaces):
        for b in spaces[i + 1 :]:
            assert arrangements._pairwise_generic([a, b], n) is exact_pairwise_generic([a, b], n)


def drawn_points(n, count, seed):
    """``count`` points of P^n drawn as the sampler draws them: their keys are distinct."""
    rng = Rng(seed)
    return [sample_generic_subspace(n, 0, rng.derive(i)) for i in range(count)]


def spy_pairwise(monkeypatch, spaces, n):
    """``_pairwise_generic(spaces, n)`` with the exact ranks it takes and its
    echelon extensions, as the generator stacks each was given."""
    ranks, extensions = [], []
    rank_, echelon_ = linalg.rank, linalg.echelon_mod_p

    def echelon_mod_p(rows, echelon=((), ())):
        if echelon != ((), ()):
            extensions.append(rows)
        return echelon_(rows, echelon)

    monkeypatch.setattr(linalg, "rank", lambda rows, ncols: ranks.append(rows) or rank_(rows, ncols))
    monkeypatch.setattr(linalg, "echelon_mod_p", echelon_mod_p)
    for s in spaces:
        s.modular_echelon  # cached before the spy counts
    return arrangements._pairwise_generic(spaces, n), ranks, extensions


def test_point_pairs_are_decided_by_their_keys(monkeypatch):
    n = 4
    points = drawn_points(n, 12, 1)
    for s in points:  # one row, scaled to a leading 1
        (pivot,), (key,) = s.modular_echelon
        assert key[pivot] == 1 and not any(key[:pivot])
    assert len({tuple(s.modular_echelon[1][0]) for s in points}) == 12
    line = sample_generic_subspace(n, 1, Rng(2))
    generic, ranks, extensions = spy_pairwise(monkeypatch, points + [line], n)
    assert generic and ranks == []
    # only the point-line pairs extend an echelon
    assert extensions == [line.generators] * 12


def test_a_point_pair_congruent_mod_p_takes_one_exact_rank(monkeypatch):
    n = 4
    points = drawn_points(n, 12, 3)
    p = points[5].generators[0]
    twin = drawn(n, p[:2] + (p[2] + P,) + p[3:])  # the same key, another point over Z
    assert twin.modular_echelon == points[5].modular_echelon
    generic, ranks, extensions = spy_pairwise(monkeypatch, points + [twin], n)
    assert generic
    assert ranks == [points[5].generators + twin.generators]  # the other 77 pairs are proved mod p
    assert len(extensions) == 13 * 12 // 2


def test_a_point_pair_equal_up_to_scale_is_not_generic(monkeypatch):
    n = 4
    points = drawn_points(n, 12, 4)
    again = drawn(n, tuple(-3 * x for x in points[7].generators[0]))
    generic, ranks, _ = spy_pairwise(monkeypatch, points + [again], n)
    assert not generic
    assert ranks == [points[7].generators + again.generators]


def test_a_point_zero_mod_p_sends_the_points_to_the_per_pair_loop(monkeypatch):
    n = 4
    points = drawn_points(n, 12, 5)
    zero = drawn(n, (P, -2 * P, 0, 3 * P, P))  # a point of P^4 with no key
    assert zero.modular_echelon == ((), [])
    generic, ranks, extensions = spy_pairwise(monkeypatch, [zero] + points, n)
    assert generic
    assert ranks == [zero.generators + s.generators for s in points]  # each pair with it is short mod p
    assert len(extensions) == 13 * 12 // 2


# Spaces whose full echelon mod p has other pivots than their RREF basis:
# p divides the leading minor, but not the minor on the modular pivots.
SHIFTED_PIVOTS = [drawn(2, (P, 1, 2)), drawn(3, (1, 0, 2, 3), (0, P, 5, 7))]


@pytest.mark.parametrize("space", SHIFTED_PIVOTS, ids=["point", "line"])
def test_conditions_keep_their_row_space_on_other_modular_pivots(space):
    n, k = space.n, space.dim
    assert space.modular_echelon[0] != space.pivot_columns() and len(space.modular_echelon[0]) == k + 1
    rnd = random.Random(n)
    for d in range(5):
        ncols = comb(n + d, d)
        block = [[rnd.randrange(-9, 10) for _ in range(ncols)] for _ in range(3)]
        for mult in (1, 2, 3):
            rows = vanishing_conditions(space, mult, d)
            on_basis = sympy_conditions(space, mult, d)  # normals off the RREF pivots
            assert (rows == on_basis) is (mult == 1 or d == 0)
            ranks = [sympy.Matrix(m).rank() for m in (rows, on_basis, rows + on_basis, rows + block, on_basis + block)]
            assert ranks[:3] == [expected_conditions(n, k, mult, d)] * 3
            assert ranks[3] == ranks[4]


def test_points_only_sample_configuration_makes_no_rank_call(monkeypatch):
    calls = []
    rank_ = linalg.rank
    monkeypatch.setattr(linalg, "rank", lambda rows, ncols: calls.append(len(rows)) or rank_(rows, ncols))
    cfg = sample_configuration(WeightVector(4, (6, 0, 0)), Rng(3))
    assert [s.dim for s, _ in cfg.components] == [0] * 6
    assert calls == []
    # a line among the points: every pair is settled by its rank mod p
    cfg = sample_configuration(WeightVector(4, (6, 1, 0)), Rng(3))
    assert [s.dim for s, _ in cfg.components] == [0] * 6 + [1]
    assert calls == []


def test_sample_configuration_is_deterministic():
    w = WeightVector(3, (1, 2))
    c1 = sample_configuration(w, Rng(5))
    c2 = sample_configuration(w, Rng(5))
    assert c1 == c2


# ---------------------------------------------------------------- conditions


def test_expected_conditions_frozen_values():
    assert expected_conditions(3, 0, 1, 2) == 1  # simple point
    assert expected_conditions(3, 0, 2, 4) == 4  # double point in P^3
    assert expected_conditions(3, 1, 1, 2) == 3  # line cuts quadrics in 3 conditions
    assert expected_conditions(3, 1, 3, 4) == 22  # triple line on quartics
    assert expected_conditions(5, 2, 1, 2) == 6  # plane vs quadrics in P^5
    # saturates once mult exceeds d+1: all degree-d monomials near the space
    assert expected_conditions(2, 0, 5, 2) == expected_conditions(2, 0, 3, 2) == 6


@given(
    st.integers(2, 4),
    st.integers(0, 2),
    st.integers(1, 3),
    st.integers(1, 3),
    st.integers(0, 2**32),
)
@settings(max_examples=25, deadline=None)
def test_vanishing_conditions_count_and_rank(n, k, mult, d, seed):
    if k > n - 1:
        return
    comp = sample_generic_subspace(n, k, Rng(seed))
    rows = vanishing_conditions(comp, mult, d)
    expected = expected_conditions(n, k, mult, d)
    assert len(rows) == expected
    # conditions of a single component are independent
    assert rank(rows, comb(n + d, d)) == expected


@pytest.mark.parametrize(
    "n, k, mult, d",
    [(2, 0, 2, 3), (3, 0, 3, 4), (3, 1, 1, 3), (3, 1, 2, 4), (4, 1, 2, 3), (4, 2, 1, 3), (5, 2, 2, 2)],
)
def test_vanishing_conditions_keep_their_row_space_across_generators(n, k, mult, d):
    ncols = comb(n + d, d)
    for seed in range(3):
        comp = sample_generic_subspace(n, k, Rng(seed))
        raw = vanishing_conditions(comp, mult, d)
        canonical = vanishing_conditions(LinearSubspace.from_rows(n, comp.basis), mult, d)
        assert all(type(x) is int for row in raw + canonical for x in row)
        expected = expected_conditions(n, k, mult, d)
        assert rank(raw, ncols) == rank(canonical, ncols) == rank(raw + canonical, ncols) == expected


def test_vanishing_conditions_annihilate_vanishing_forms():
    # quadrics through the line {x_2 = x_3 = 0} in P^3: x_2, x_3 divide
    line = coordinate_space(3, (0, 1))
    rows = vanishing_conditions(line, 1, 2)
    # coefficient vector of x_0 * x_2 in the shared monomial order
    monos = monomials(4, 2)
    vec = [F(0)] * len(monos)
    target = tuple(sorted((0, 2)))
    for i, m in enumerate(monos):
        if tuple(sorted(m)) == target:
            vec[i] = F(1)
    for row in rows:
        assert sum(a * b for a, b in zip(row, vec)) == 0


def lex_descending(nvars, degree):
    return sorted((m for m in itertools.product(range(degree + 1), repeat=nvars) if sum(m) == degree), reverse=True)


def sympy_conditions(comp, mult, d):
    """The condition rows by expanding every x^mu under x = y H with sympy.

    H stacks the component's generators and unit vectors on the non-pivot
    columns of its basis.  The rows are the coefficients of the y-monomials
    of normal degree < mult, ordered by normal degree, then normal monomial,
    then tangential monomial, each lex-descending."""
    n, k = comp.n, comp.dim
    ys = sympy.symbols(f"y0:{n + 1}")
    h = [list(g) for g in comp.generators]
    h += [[int(i == j) for i in range(n + 1)] for j in range(n + 1) if j not in comp.pivot_columns()]
    xs = [sum(ys[i] * h[i][j] for i in range(n + 1)) for j in range(n + 1)]
    columns = [
        sympy.Poly(sympy.expand(sympy.Mul(*(x**e for x, e in zip(xs, mu)))), *ys).as_dict()
        for mu in lex_descending(n + 1, d)
    ]
    rows = []
    for nd in range(min(mult, d + 1)):
        for normal in lex_descending(n - k, nd):
            for tang in lex_descending(k + 1, d - nd):
                rows.append(tuple(int(col.get(tang + normal, 0)) for col in columns))
    return rows


@pytest.mark.parametrize(
    "n, k, mult, d",
    [(2, 0, 1, 0), (3, 1, 2, 0), (3, 0, 2, 3), (3, 1, 3, 3), (3, 2, 2, 2), (4, 1, 4, 2), (4, 2, 2, 3), (4, 3, 6, 2)],
)
def test_vanishing_conditions_equal_the_sympy_expansion(n, k, mult, d):
    comp = sample_generic_subspace(n, k, Rng(7 * n + k))
    shifted = LinearSubspace.from_rows(n, [(0,) + g[1:] for g in comp.generators])
    assert shifted.pivot_columns()[0] > 0
    for space in (comp, shifted):
        rows = vanishing_conditions(space, mult, d)
        assert rows == sympy_conditions(space, mult, d)
        assert len(rows) == expected_conditions(n, k, mult, d)


def pinned_components():
    """(n, k, component) for n = 2..5 and k = 0..n-1: a seeded generic space
    with its raw integer generators, and the space its generators span once
    their first coordinate is zeroed (pivots not 0..k, primitive generators)."""
    for n in range(2, 6):
        for k in range(n):
            comp = sample_generic_subspace(n, k, Rng(100 * n + k))
            shifted = LinearSubspace.from_rows(n, [(0,) + g[1:] for g in comp.generators])
            assert shifted.dim == k and shifted.pivot_columns()[0] > 0
            yield n, k, comp
            yield n, k, shifted


# sha256 of the rows below, recorded from the truncated monomial-by-monomial
# expansion that preceded the closed form.  A change to any row, its order
# or its scaling changes the digest.
PINNED_ROWS_SHA256 = "fd9ccd72f61c10ce4c5cebea26d09294b99e633f82a63e1fd5244fe40711c20a"


def test_vanishing_conditions_rows_are_pinned():
    h = hashlib.sha256()
    for n, k, comp in pinned_components():
        for mult in range(1, 5):
            for d in range(5):
                h.update(repr((n, k, mult, d, vanishing_conditions(comp, mult, d))).encode())
    assert h.hexdigest() == PINNED_ROWS_SHA256


# ---------------------------------------------------------------- hilbert


def test_condition_matrix_blocks_cover_all_components():
    cfg = sample_configuration(WeightVector(3, (2, 1)), Rng(31))
    cm = ConditionMatrix.build(cfg, 2)
    assert cm.ncols == comb(3 + 2, 2)
    assert len(cm.blocks) == 3
    assert sum(len(b) for b in cm.blocks) == len(cm.rows)


def test_without_rejects_an_index_outside_the_components():
    cfg = sample_configuration(WeightVector(3, (2, 1)), Rng(31))
    cm = ConditionMatrix.build(cfg, 2)
    for index in (5, -1):
        with pytest.raises(IndexError):
            without(cfg, index)
        with pytest.raises(IndexError):
            cm.without(index)


# (n, weight counts, fat (dim, mult) spec) of the pinned condition matrices
PINNED_MATRIX_CASES = (
    (3, (2, 1), ((0, 2), (1, 1))),
    (3, (0, 3), ((1, 2), (0, 3))),
    (4, (1, 1, 1), ((0, 3), (1, 2), (2, 1))),
    (4, (3, 0, 1), ((2, 2), (0, 1), (0, 2))),
    (5, (2, 1, 1, 0), ((1, 2), (0, 2), (3, 1))),
    (5, (0, 0, 1, 2), ((2, 1), (2, 2))),
)


def test_condition_matrix_rows_are_pinned():
    # sha256 recorded before ConditionMatrix held one row block per component
    h = hashlib.sha256()
    for n, counts, spec in PINNED_MATRIX_CASES:
        for seed in range(2):
            configs = (
                sample_configuration(WeightVector(n, counts), Rng(seed)),
                sample_fat_configuration(n, spec, Rng(seed)),
            )
            for cfg in configs:
                for d in (1, 2, 3):
                    cm = ConditionMatrix.build(cfg, d)
                    h.update(repr(cm.rows).encode())
                    for i in range(len(cfg.components)):
                        h.update(repr(cm.without(i).rows).encode())
    assert h.hexdigest() == "fadd153da9d0ca90a989aeba577c79cc16ba82568d181fda614d09c0a093daff"


def test_condition_matrix_without_drops_one_block():
    cfg = sample_fat_configuration(4, ((0, 2), (1, 1), (0, 1), (2, 1)), Rng(17))
    cm = ConditionMatrix.build(cfg, 3)
    for idx in range(4):
        assert cm.without(idx) == ConditionMatrix.build(without(cfg, idx), 3)
    assert cm.without(0).without(0) == ConditionMatrix.build(without(without(cfg, 0), 0), 3)


def test_skew_lines_hilbert_matches_monomial_oracle():
    a = coordinate_space(3, (0, 1))
    b = coordinate_space(3, (2, 3))
    cfg = Configuration(3, ((a, 1), (b, 1)))
    for d in (2, 3):
        hf_oracle, ideal_oracle = monomial_oracle(3, (0, 1), (2, 3), d)
        assert hilbert_function(cfg, d) == hf_oracle
        assert ideal_dimension(cfg, d) == ideal_oracle
    assert hilbert_function(cfg, 2) == 6
    assert ideal_dimension(cfg, 3) == 12


def test_two_codim3_spaces_match_monomial_oracle():
    for n in (5, 6, 7, 8):
        a = coordinate_space(n, range(0, n - 2))
        b = coordinate_space(n, range(3, n + 1))
        cfg = Configuration(n, ((a, 1), (b, 1)))
        hf_oracle, _ = monomial_oracle(n, tuple(range(0, n - 2)), tuple(range(3, n + 1)), 2)
        assert hilbert_function(cfg, 2) == hf_oracle
        assert hf_oracle == (n * n + 3 * n - 16) // 2


def test_double_point_hilbert_frozen():
    pt = coordinate_space(3, (0,))
    cfg = Configuration(3, ((pt, 2),))
    assert hilbert_function(cfg, 2) == 4
    assert ideal_dimension(cfg, 2) == 6


def test_hilbert_function_is_projectively_invariant():
    cfg = sample_configuration(WeightVector(4, (1, 1, 1)), Rng(41))
    base = hilbert_function(cfg, 2)
    for k in range(5):
        g = sample_projectivity(4, Rng(1000 + k))
        assert hilbert_function(transformed(cfg, g), 2) == base


def _second_sample_loses_a_component(monkeypatch, module, name):
    """Wrap module.name so that its second call drops component 0."""
    real = getattr(module, name)
    calls = []

    def stub(*args, **kwargs):
        cfg = real(*args, **kwargs)
        calls.append(cfg)
        return without(cfg, 0) if len(calls) == 2 else cfg

    monkeypatch.setattr(module, name, stub)
    return calls


def test_seed_disagreement_reports_the_most_generic_sample(monkeypatch):
    # generic_hilbert: the maximal Hilbert value, flagged as not agreed
    agreed_hf, _ = generic_hilbert(3, ((0, 2), (1, 1)), 3, seed=0)
    calls = _second_sample_loses_a_component(monkeypatch, arrangements, "sample_fat_configuration")
    hf, ideal = generic_hilbert(3, ((0, 2), (1, 1)), 3, seed=0)
    assert len(calls) == 3
    assert hilbert_function(without(calls[1], 0), 3) < agreed_hf.value
    assert (hf.value, hf.agreed) == (agreed_hf.value, False)
    assert (ideal.value, ideal.agreed) == (comb(6, 3) - agreed_hf.value, False)

    # defect_check: the minimal ideal dimension, flagged as not agreed
    query = DefectQuery(1, 2)
    agreed_report = defect_check(query)
    _second_sample_loses_a_component(monkeypatch, defectivity, "_instance")
    report = defect_check(query)
    assert (report.actual, report.agreed) == (agreed_report.actual, False)
    assert report.actual == 4

    # check_bezout: a (d, k) whose samples disagree yields no certificate
    five_lines = WeightVector(4, (0, 5, 0))
    assert check_bezout(five_lines) is not None
    _second_sample_loses_a_component(monkeypatch, feasibility, "sample_configuration")
    assert check_bezout(five_lines) is None


def test_generic_hilbert_triple_seed_protocol():
    hf, ideal = generic_hilbert(5, ((2, 1), (2, 1)), 2, seed=0)
    assert hf.value == 12
    assert ideal.value == comb(7, 2) - 12
    assert hf.agreed and ideal.agreed
    assert len(hf.seeds) == 3 and len(set(hf.seeds)) == 3
    assert "generic-sample" in hf.caveats
    # deterministic given the seed
    again, _ = generic_hilbert(5, ((2, 1), (2, 1)), 2, seed=0)
    assert again == hf


def test_generic_hilbert_fat_spec():
    # a double point and a double line in P^3, quartics
    hf, ideal = generic_hilbert(3, ((0, 2), (1, 2)), 4, seed=3)
    assert hf.value == expected_conditions(3, 0, 2, 4) + expected_conditions(3, 1, 2, 4)
    assert hf.value + ideal.value == comb(3 + 4, 4)


def test_sample_fat_configuration_multiplicities():
    cfg = sample_fat_configuration(4, ((0, 2), (1, 3)), Rng(61))
    assert [(s.dim, m) for s, m in cfg.components] == [(0, 2), (1, 3)]
    assert not cfg.is_reduced()


# s double points around C(n+d,d)/(n+1): the grid holds the exceptions
# (2,4,5), (3,4,9) and (4,3,7).
AH_CASES = [
    (n, d, comb(n + d, d) // (n + 1) + off)
    for n, d in ((2, 3), (2, 4), (3, 3), (3, 4), (4, 3))
    for off in (-1, 0, 1)
]
HH_CASES = [(n, d, comb(n + d, d) // (d + 1) + off) for n, d in ((3, 2), (3, 3), (4, 2)) for off in (-1, 0, 1)]


@pytest.mark.parametrize("theorem, n, d, count", [("AH", *c) for c in AH_CASES] + [("HH", *c) for c in HH_CASES])
def test_generic_hilbert_matches_closed_forms(theorem, n, d, count):
    if theorem == "AH":
        spec, want = [(0, 2)] * count, oracles.ah_double_points(n, d, count)
    else:
        spec, want = [(1, 1)] * count, oracles.hh_lines(n, d, count)
    hf, ideal = generic_hilbert(n, spec, d, seed=0)
    assert (hf.value, hf.agreed) == (want, True)
    assert (ideal.value, ideal.agreed) == (comb(n + d, d) - want, True)
