"""Projective points, subspaces, projectivities, projections, seeded sampling."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rncurves import linalg
from rncurves.errors import FrameDegenerate, InCenter, NotComplementary
from rncurves.exactgeom import (
    DEFAULT_HEIGHT,
    LinearSubspace,
    ProjPoint,
    Projectivity,
    Rng,
    adapted_alignment,
    meet,
    project_from,
    projectivity_from_frames,
    sample_generic_subspace,
    sample_point,
    sample_point_on,
    sample_projectivity,
    span,
    stable_mix,
    standard_frame,
    standard_point,
    unit_point,
)

F = Fraction


# ---------------------------------------------------------------- seeding


def test_stable_mix_is_deterministic_and_sensitive():
    a = stable_mix("tag", 3, (1, 2))
    assert a == stable_mix("tag", 3, (1, 2))
    assert a != stable_mix("tag", 3, (1, 3))
    assert a != stable_mix("tag", 4, (1, 2))
    assert 0 <= a < 2**63
    # strings and ints with equal repr must not collide
    assert stable_mix(12) != stable_mix("12")


def test_rng_reproducible_and_derive_independent():
    r1 = Rng(42)
    r2 = Rng(42)
    assert [r1.integer(0, 10**9) for _ in range(5)] == [r2.integer(0, 10**9) for _ in range(5)]
    d1 = Rng(42).derive("a")
    d2 = Rng(42).derive("b")
    assert d1.seed != d2.seed
    assert Rng(42).derive("a").seed == Rng(42).derive("a").seed


# ---------------------------------------------------------------- points


def test_projpoint_scaling_equality_and_hash():
    p = ProjPoint(2, (F(2), F(4), F(6)))
    q = ProjPoint(2, (F(1), F(2), F(3)))
    assert p == q
    assert hash(p) == hash(q)
    assert p != ProjPoint(2, (F(1), F(2), F(4)))
    with pytest.raises(ValueError):
        ProjPoint(2, (F(0), F(0), F(0)))


def test_standard_and_unit_points():
    e1 = standard_point(3, 1)
    assert e1.coords == (F(0), F(1), F(0), F(0))
    assert unit_point(2).coords == (F(1), F(1), F(1))


# ---------------------------------------------------------------- subspaces


def test_subspace_from_points_dim_and_membership():
    pts = [standard_point(4, 0), standard_point(4, 1), standard_point(4, 2)]
    plane = LinearSubspace.from_points(pts)
    assert plane.dim == 2
    assert plane.contains(ProjPoint(4, (F(1), F(-2), F(5), F(0), F(0))))
    assert not plane.contains(standard_point(4, 3))


def test_subspace_equations_cut_out_the_space():
    rng = Rng(31)
    sub = sample_generic_subspace(5, 2, rng)
    eqs = sub.equations()
    assert len(eqs) == 5 - 2  # codimension many independent forms
    for p in sub.points():
        for eq in eqs:
            assert sum(a * b for a, b in zip(eq, p.coords)) == 0


def test_equations_are_computed_once_and_stay_out_of_equality(monkeypatch):
    rng = Rng(32)
    sub = sample_generic_subspace(4, 1, rng)
    twin = LinearSubspace(sub.n, sub.basis, sub.generators)
    calls = []
    nullspace = linalg.nullspace
    monkeypatch.setattr(linalg, "nullspace", lambda rows, ncols: calls.append(ncols) or nullspace(rows, ncols))
    eqs = sub.equations()
    assert sub.equations() is eqs
    assert sub.contains(sub.points()[0]) and not sub.contains(sample_point(4, rng))
    assert calls == [5]
    assert sub == twin and hash(sub) == hash(twin) and repr(sub) == repr(twin)


def test_span_and_meet_frozen():
    a = LinearSubspace.from_points([standard_point(3, 0), standard_point(3, 1)])
    b = LinearSubspace.from_points([standard_point(3, 2), standard_point(3, 3)])
    assert span([a, b]).dim == 3
    assert meet(a, b).dim == -1  # disjoint lines in P^3
    c = LinearSubspace.from_points([standard_point(3, 1), standard_point(3, 2)])
    assert meet(a, c).dim == 0
    assert meet(a, c).contains(standard_point(3, 1))


@given(st.integers(0, 2**32), st.integers(0, 2), st.integers(0, 2))
@settings(max_examples=30, deadline=None)
def test_modular_law_for_subspace_dimensions(seed, ka, kb):
    n = 4
    rng = Rng(seed)
    a = sample_generic_subspace(n, ka, rng)
    b = sample_generic_subspace(n, kb, rng)
    joined = span([a, b])
    common = meet(a, b)
    # dim A + dim B = dim(A v B) + dim(A ^ B), with dim(empty) = -1
    assert a.dim + b.dim == joined.dim + common.dim


def _assert_integer_generators(s):
    assert len(s.generators) == s.dim + 1
    assert all(len(r) == s.n + 1 and all(type(x) is int for x in r) for r in s.generators)
    assert LinearSubspace.from_rows(s.n, s.generators) == s


@given(st.integers(0, 2**32), st.integers(3, 5), st.integers(0, 2))
@settings(max_examples=20, deadline=None)
def test_generators_are_integer_rows_spanning_the_space(seed, n, k):
    rng = Rng(seed)
    a = sample_generic_subspace(n, k, rng)
    b = sample_generic_subspace(n, n - 1 - k, rng)
    # sampled: the raw bounded rows it was drawn from
    _assert_integer_generators(a)
    assert all(abs(x) <= DEFAULT_HEIGHT for r in a.generators for x in r)
    # transformed, projected and met: primitive multiples of the basis rows
    _assert_integer_generators(sample_projectivity(n, rng).apply_subspace(a))
    center = sample_generic_subspace(n, 0, rng)
    _assert_integer_generators(project_from(center, a))
    _assert_integer_generators(meet(a, sample_generic_subspace(n, n - 1, rng)))
    _assert_integer_generators(meet(a, b))
    # generators take no part in equality or hashing
    plain = LinearSubspace(a.n, a.basis)
    assert plain == a and hash(plain) == hash(a)


def test_generators_of_a_basis_are_primitive_frozen():
    s = LinearSubspace(3, ((F(1), F(0), F(2, 3), F(-1, 2)), (F(0), F(1), F(4), F(0))))
    assert s.generators == ((6, 0, 4, -3), (0, 1, 4, 0))
    assert LinearSubspace.empty(3).generators == ()


def test_subspace_residual_through_contains_and_projection():
    line = LinearSubspace.from_points([standard_point(2, 0), standard_point(2, 1)])
    on_line = ProjPoint(2, (F(3), F(5), F(0)))
    assert line.contains(on_line)
    with pytest.raises(InCenter):
        project_from(line, on_line)
    off_line = ProjPoint(2, (F(3), F(5), F(7)))
    assert not line.contains(off_line)
    assert project_from(line, off_line).coords == (F(7),)
    # a line off the coordinate axes: the one equation is -2 x0 + x1 + x2
    line = LinearSubspace.from_rows(2, [(1, 0, 2), (0, 1, -1)])
    assert line.equations() == ((F(-2), F(1), F(1)),)
    assert line.contains(ProjPoint(2, (F(1), F(1), F(1))))
    assert project_from(line, ProjPoint(2, (F(1), F(2), F(1)))).coords == (F(1),)


def test_contains_and_projection_reject_another_ambient():
    center = LinearSubspace.from_points([standard_point(3, 3)])
    for p in (unit_point(2), ProjPoint(4, (F(0), F(0), F(0), F(1), F(5)))):
        with pytest.raises(ValueError, match="ambient"):
            center.contains(p)
        with pytest.raises(ValueError, match="ambient"):
            project_from(center, p)
    with pytest.raises(ValueError, match="ambient"):
        project_from(center, LinearSubspace.from_points([unit_point(4)]))


ENTRY = st.integers(-3, 3)


@st.composite
def subspaces_with_points(draw):
    """(n, rows, points): rows spanning a subspace of P^n, some of them
    dependent or with zero columns, and points on and off it."""
    n = draw(st.integers(2, 5))
    vector = st.lists(ENTRY, min_size=n + 1, max_size=n + 1)
    rows = draw(st.lists(vector, max_size=n))
    points = draw(st.lists(vector.filter(any), min_size=1, max_size=3))
    if rows:
        weights = draw(st.lists(ENTRY, min_size=len(rows), max_size=len(rows)))
        on = [sum(w * r[j] for w, r in zip(weights, rows)) for j in range(n + 1)]
        if any(on):
            points.append(on)
    return n, rows, points


def to_sympy(rows, cols):
    return sympy.Matrix(len(rows), cols, [sympy.Rational(F(x).numerator, F(x).denominator) for r in rows for x in r])


@given(subspaces_with_points())
@example((2, [], [[1, 2, 3]]))  # the empty subspace
@example((3, [[1, 0, 2, 0], [0, 0, 1, 5], [2, 0, 0, -10]], [[0, 1, 0, 0], [1, 0, 3, 5]]))  # a hyperplane
@example((4, [[0, 0, 1, 2, 0], [0, 0, 2, 4, 0]], [[0, 0, 1, 2, 0], [1, 1, 1, 1, 1]]))  # a point, pivot off 0
@settings(max_examples=60, deadline=None)
def test_equations_contains_and_projection_match_sympy(case):
    n, rows, points = case
    sub = LinearSubspace.from_rows(n, rows)
    basis = to_sympy(sub.basis, n + 1)
    eqs = sub.equations()
    kernel = [list(v) for v in basis.nullspace()]
    # equations() spans the nullspace of the basis, one independent form per dimension
    assert len(eqs) == len(kernel) == n - sub.dim
    assert to_sympy(eqs, n + 1).rank() == to_sympy(list(eqs) + kernel, n + 1).rank() == len(kernel)
    for coords in points:
        p = ProjPoint(n, tuple(F(x) for x in coords))
        inside = to_sympy(list(sub.basis) + [coords], n + 1).rank() == len(sub.basis)
        assert sub.contains(p) == inside
        image = tuple(F(int(x.p), int(x.q)) for x in to_sympy(eqs, n + 1) * sympy.Matrix(coords))
        if inside:
            assert not any(image)
            with pytest.raises(InCenter):
                project_from(sub, p)
        else:
            assert project_from(sub, p).coords == image


# ---------------------------------------------------------------- projectivities


def test_projectivity_from_frames_hits_frame():
    rng = Rng(5)
    n = 3
    frame = standard_frame(n)
    target = [sample_point(n, rng) for _ in range(n + 2)]
    g = projectivity_from_frames(frame, target)
    for src, dst in zip(frame, target):
        assert g.apply(src) == dst


def test_projectivity_from_degenerate_frame_raises():
    n = 2
    bad = [
        standard_point(2, 0),
        standard_point(2, 1),
        ProjPoint(2, (F(1), F(1), F(0))),  # dependent on the first two
        unit_point(2),
    ]
    with pytest.raises(FrameDegenerate):
        projectivity_from_frames(standard_frame(n), bad)


def test_projectivity_rejects_a_singular_matrix():
    with pytest.raises(ValueError, match="singular"):
        Projectivity(((1, 2, 3), (2, 4, 6), (0, 0, 1)))
    # singular modulo the rank prescreen's prime, yet invertible over Q
    g = Projectivity(((1, 0), (0, 2**31 - 1)))
    assert g.inverse().matrix == ((F(1), F(0)), (F(0), F(1, 2**31 - 1)))


def test_projectivity_inverse_and_compose():
    rng = Rng(17)
    g = sample_projectivity(4, rng)
    p = sample_point(4, rng)
    # g and its inverse compose to the identity in either order
    assert g.inverse().apply(g.apply(p)) == p
    assert g.apply(g.inverse().apply(p)) == p


def test_projectivity_maps_subspaces_with_membership():
    rng = Rng(23)
    g = sample_projectivity(4, rng)
    sub = sample_generic_subspace(4, 2, rng)
    image = g.apply_subspace(sub)
    assert image.dim == sub.dim
    p = sample_point_on(sub, rng)
    assert image.contains(g.apply(p))


# ---------------------------------------------------------------- projections


def test_projection_map_coordinates_and_center():
    center = LinearSubspace.from_points([standard_point(3, 3)])
    p = ProjPoint(3, (F(1), F(2), F(3), F(9)))
    assert project_from(center, p) == ProjPoint(2, (F(1), F(2), F(3)))
    with pytest.raises(InCenter):
        project_from(center, standard_point(3, 3))


def test_project_from_drops_dimension_generically():
    rng = Rng(41)
    center = LinearSubspace.from_points([sample_point(4, rng)])
    line = sample_generic_subspace(4, 1, rng)
    image = project_from(center, line)
    assert image.dim == 1


def test_projection_collapses_spaces_meeting_center():
    # project P^3 from a point lying on a line: the line maps to a point
    rng = Rng(43)
    line = sample_generic_subspace(3, 1, rng)
    center = LinearSubspace.from_points([sample_point_on(line, rng)])
    image = project_from(center, line)
    assert image.dim == 0


# ---------------------------------------------------------------- alignment


def test_adapted_alignment_moves_spaces_onto_coordinate_blocks():
    rng = Rng(59)
    n = 5
    a = sample_generic_subspace(n, 1, rng)
    b = sample_generic_subspace(n, 2, rng)
    g = adapted_alignment([a, b])
    block_a = LinearSubspace.from_points([standard_point(n, 1), standard_point(n, 2)])
    blocks = [standard_point(n, j) for j in (3, 4, 5)]
    block_b = LinearSubspace.from_points(blocks)
    assert g.apply_subspace(a) == block_a
    assert g.apply_subspace(b) == block_b


def test_adapted_alignment_rejects_overlapping_spaces():
    rng = Rng(61)
    a = sample_generic_subspace(4, 2, rng)
    b = LinearSubspace.from_points([sample_point_on(a, rng)])
    with pytest.raises(NotComplementary):
        adapted_alignment([a, b])
    with pytest.raises(NotComplementary):
        adapted_alignment([a])  # dimensions sum to 3, not 4


def test_sampling_is_deterministic_given_seed():
    p1 = sample_point(6, Rng(1001))
    p2 = sample_point(6, Rng(1001))
    assert p1 == p2
    s1 = sample_generic_subspace(6, 2, Rng(1002))
    s2 = sample_generic_subspace(6, 2, Rng(1002))
    assert s1 == s2
