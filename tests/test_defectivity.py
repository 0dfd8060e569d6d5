"""Secant-defect reports for the quartic family of double points."""

import hashlib

import pytest

from rncurves import arrangements
from rncurves.defectivity import (
    DEGREE,
    DefectQuery,
    _instance,
    ambient_dim,
    base_ideal_dim,
    canonical_spaces,
    defect_check,
    defect_sweep,
    point_drop,
)
from rncurves.errors import BoundViolated, GenericityExhausted
from rncurves.exactgeom import meet
from rncurves.serialize import enc_config


def test_query_validation_and_arithmetic():
    with pytest.raises(BoundViolated):
        DefectQuery(0, 1)
    with pytest.raises(BoundViolated):
        DefectQuery(2, -1)
    # the sweep checks m itself: for m < 0 its range of s is empty
    for m in (0, -1):
        with pytest.raises(BoundViolated, match="m must be at least 1"):
            defect_sweep(m)
    q = DefectQuery(2, 5)
    assert q.n == 5
    assert base_ideal_dim(2) == 27
    assert point_drop(2) == 6
    assert q.expected_raw == 27 - 30 == -3
    assert q.expected == 0
    assert DefectQuery(3, 2).expected == 48 - 16 == 32
    assert DEGREE == 4


def test_base_dimension_matches_closed_form():
    # with no extra points the quartic ideal piece has dimension 3(m+1)^2
    for m in (1, 2):
        report = defect_check(DefectQuery(m, 0))
        assert report.actual == base_ideal_dim(m) == 3 * (m + 1) ** 2
        assert report.agreed
        assert not report.defective


def test_sweep_m1_frozen():
    reports = defect_sweep(1)
    assert [r.actual for r in reports] == [8, 4, 1, 0]
    assert [r.expected for r in reports] == [8, 4, 0, 0]
    assert [r.query.s for r in reports] == [1, 2, 3, 4]
    assert [r.defective for r in reports] == [False, False, True, False]
    assert all(r.agreed for r in reports)
    assert all(len(set(r.seeds)) == 3 for r in reports)


def test_sweep_m2_frozen():
    reports = defect_sweep(2)
    assert [r.actual for r in reports] == [21, 15, 9, 4, 1, 0]
    assert [r.defective for r in reports] == [False, False, False, True, True, False]
    assert all(r.agreed for r in reports)


def test_defective_range_and_square_values():
    # the defect shows up exactly for m+2 <= s <= 2m+1, where the actual
    # dimension is the square (2m+2-s)^2 instead of the expected count
    for m in (1, 2):
        for r in defect_sweep(m):
            s = r.query.s
            assert r.defective == (m + 2 <= s <= 2 * m + 1)
            if r.defective:
                assert r.actual == (2 * m + 2 - s) ** 2


def test_canonical_spaces_are_disjoint_coordinate_models():
    for m in (1, 2, 3):
        a, b = canonical_spaces(m)
        assert a.dim == b.dim == m - 1
        assert meet(a, b).dim == -1
        units = [tuple(int(j == i) for j in range(2 * m + 2)) for i in range(2 * m)]
        assert a.basis == tuple(units[:m]) and b.basis == tuple(units[m:])
        assert a.generators == tuple(units[:m]) and b.generators == tuple(units[m:])
        assert ambient_dim(m) == 2 * m + 1


def test_reports_are_deterministic():
    r1 = defect_check(DefectQuery(2, 4), seed=7)
    r2 = defect_check(DefectQuery(2, 4), seed=7)
    assert r1 == r2
    r3 = defect_check(DefectQuery(2, 4), seed=8)
    assert r3.seeds != r1.seeds
    assert r3.actual == r1.actual


def test_defect_points_resample_through_the_shared_loop(monkeypatch):
    # a pairwise test that accepts no draw exhausts the one resampling loop
    monkeypatch.setattr(arrangements, "_pairwise_generic", lambda spaces, n: False)
    with pytest.raises(GenericityExhausted, match=r"^no generic set of double points in P\^3$"):
        defect_check(DefectQuery(1, 2))


# sha256 of the sampled instances below, recorded while the points had a
# distinct-and-off-both-spaces test of their own: the shared pairwise test
# draws and accepts the same points.
PINNED_INSTANCES_SHA256 = "53efdcf684c2481757d9b348987550e67d3fd39d1274f264d31a9f2217988963"


def test_instances_are_pinned():
    h = hashlib.sha256()
    for m in (1, 2, 3):
        for s in range(2 * m + 3):
            for seed in range(3):
                h.update(repr((m, s, seed, enc_config(_instance(m, s, seed)))).encode())
    assert h.hexdigest() == PINNED_INSTANCES_SHA256
