"""Weight vectors, configurations, condition matrices, Hilbert functions."""

import itertools
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rncurves.arrangements import (
    ConditionMatrix,
    Configuration,
    WeightVector,
    expected_conditions,
    generic_hilbert,
    hilbert_function,
    ideal_dimension,
    sample_configuration,
    sample_fat_configuration,
    vanishing_conditions,
)
from rncurves import arrangements, defectivity, feasibility
from rncurves.defectivity import DefectQuery, defect_check
from rncurves.exactgeom import (
    LinearSubspace,
    Rng,
    meet,
    sample_projectivity,
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
    return LinearSubspace.from_points([standard_point(n, i) for i in indices])


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
    from rncurves.exactgeom import sample_generic_subspace

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
    from rncurves.exactgeom import sample_generic_subspace

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
    from rncurves.exactgeom import sample_generic_subspace

    ncols = comb(n + d, d)
    for seed in range(3):
        comp = sample_generic_subspace(n, k, Rng(seed))
        raw = vanishing_conditions(comp, mult, d)
        canonical = vanishing_conditions(LinearSubspace(n, comp.basis), mult, d)
        assert all(type(x) is int for row in raw + canonical for x in row)
        expected = expected_conditions(n, k, mult, d)
        assert rank(raw, ncols) == rank(canonical, ncols) == rank(raw + canonical, ncols) == expected


def test_vanishing_conditions_annihilate_vanishing_forms():
    # quadrics through the line {x_2 = x_3 = 0} in P^3: x_2, x_3 divide
    line = coordinate_space(3, (0, 1))
    rows = vanishing_conditions(line, 1, 2)
    # coefficient vector of x_0 * x_2 in the shared monomial order
    from rncurves.multiforms import monomials

    monos = monomials(4, 2)
    vec = [F(0)] * len(monos)
    target = tuple(sorted((0, 2)))
    for i, m in enumerate(monos):
        if tuple(sorted(m)) == target:
            vec[i] = F(1)
    for row in rows:
        assert sum(a * b for a, b in zip(row, vec)) == 0


# ---------------------------------------------------------------- hilbert


def test_condition_matrix_blocks_cover_all_components():
    cfg = sample_configuration(WeightVector(3, (2, 1)), Rng(31))
    cm = ConditionMatrix.build(cfg, 2)
    assert cm.ncols == comb(3 + 2, 2)
    assert len(cm.blocks) == 3
    covered = sum(end - start for _, start, end in cm.blocks)
    assert covered == len(cm.rows)


def test_condition_matrix_without_drops_one_block():
    cfg = sample_fat_configuration(4, ((0, 2), (1, 1), (0, 1), (2, 1)), Rng(17))
    cm = ConditionMatrix.build(cfg, 3)
    for idx in range(4):
        assert cm.without(idx) == ConditionMatrix.build(cfg.without(idx), 3)
    assert cm.without(0).without(0) == ConditionMatrix.build(cfg.without(0).without(0), 3)


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
        assert hilbert_function(cfg.transformed(g), 2) == base


def test_modular_backend_matches_exact_hilbert():
    # "modular" is a name accepted at the public edge; it selects the exact path
    spec = ((2, 1), (1, 2))
    for d in (1, 2):
        exact = generic_hilbert(5, spec, d, seed=51)
        assert generic_hilbert(5, spec, d, seed=51, backend="modular") == exact
    with pytest.raises(ValueError):
        generic_hilbert(5, spec, 2, seed=51, backend="sparse")


def _second_sample_loses_a_component(monkeypatch, module, name):
    """Wrap module.name so that its second call drops component 0."""
    real = getattr(module, name)
    calls = []

    def stub(*args, **kwargs):
        cfg = real(*args, **kwargs)
        calls.append(cfg)
        return cfg.without(0) if len(calls) == 2 else cfg

    monkeypatch.setattr(module, name, stub)
    return calls


def test_seed_disagreement_reports_the_most_generic_sample(monkeypatch):
    # generic_hilbert: the maximal Hilbert value, flagged as not agreed
    agreed_hf, _ = generic_hilbert(3, ((0, 2), (1, 1)), 3, seed=0)
    calls = _second_sample_loses_a_component(monkeypatch, arrangements, "sample_fat_configuration")
    hf, ideal = generic_hilbert(3, ((0, 2), (1, 1)), 3, seed=0)
    assert len(calls) == 3
    assert hilbert_function(calls[1].without(0), 3) < agreed_hf.value
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
