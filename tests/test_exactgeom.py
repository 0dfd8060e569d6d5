"""Projective points, subspaces, projectivities, projections, seeded sampling."""

import gc
import hashlib
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import apply_subspace, contains, random_form, sample_projectivity, standard_frame, unit_point
from rncurves import linalg
from rncurves.errors import FrameDegenerate, GenericityExhausted, InCenter, NotComplementary
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
    span,
    stable_mix,
    standard_point,
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


def test_stable_mix_leaves_nothing_for_the_cyclic_collector():
    parts = [(0, "sample", t) for t in range(3)] + [(7, "sample", ("defect", 2, [3, (4, F(5, 6))], 1))]
    gc.collect()
    gc.disable()
    try:
        for p in parts * 50:
            stable_mix(*p)
        assert gc.collect() == 0
    finally:
        gc.enable()


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
    plane = span(pts)
    assert plane.dim == 2
    assert contains(plane, ProjPoint(4, (F(1), F(-2), F(5), F(0), F(0))))
    assert not contains(plane, standard_point(4, 3))


def test_subspace_equations_cut_out_the_space():
    rng = Rng(31)
    sub = sample_generic_subspace(5, 2, rng)
    eqs = sub.equations()
    assert len(eqs) == 5 - 2  # codimension many independent forms
    for p in sub.points():
        for eq in eqs:
            assert sum(a * b for a, b in zip(eq, p.coords)) == 0


def test_equations_are_read_off_the_basis_and_stay_out_of_equality():
    rng = Rng(32)
    sub = sample_generic_subspace(4, 1, rng)
    twin = LinearSubspace(sub.n, sub.generators)
    canonical = LinearSubspace.from_rows(sub.n, sub.basis)
    assert contains(sub, sub.points()[0]) and not contains(sub, sample_point(4, rng))
    assert sub.equations() == twin.equations() == canonical.equations()
    assert sub == twin and hash(sub) == hash(twin) and repr(sub) == repr(twin)
    assert sub == canonical and hash(sub) == hash(canonical) and canonical.generators == sub.echelon[0]


def test_span_and_meet_frozen():
    a = span([standard_point(3, 0), standard_point(3, 1)])
    b = span([standard_point(3, 2), standard_point(3, 3)])
    assert span([a, b]).dim == 3
    assert meet(a, b).dim == -1  # disjoint lines in P^3
    c = span([standard_point(3, 1), standard_point(3, 2)])
    assert meet(a, c).dim == 0
    assert contains(meet(a, c), standard_point(3, 1))


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
    _assert_integer_generators(apply_subspace(sample_projectivity(n, rng), a))
    center = sample_generic_subspace(n, 0, rng)
    _assert_integer_generators(project_from(center, a))
    _assert_integer_generators(meet(a, sample_generic_subspace(n, n - 1, rng)))
    _assert_integer_generators(meet(a, b))
    # generators take no part in equality or hashing
    plain = LinearSubspace.from_rows(a.n, a.basis)
    assert plain == a and hash(plain) == hash(a)


def test_generators_of_a_basis_are_primitive_frozen():
    s = LinearSubspace.from_rows(3, ((F(1), F(0), F(2, 3), F(-1, 2)), (F(0), F(1), F(4), F(0))))
    assert s.generators == ((6, 0, 4, -3), (0, 1, 4, 0))
    assert LinearSubspace.empty(3).generators == ()


def _check_row_operations(cls, seed):
    """``cls(n, U G)`` against ``cls(n, G)`` for a drawn ``G``: equal, with
    the same hash and basis, for ``U = -I`` and for a random invertible
    integer ``U`` with some rows negated."""
    rnd = Rng(seed)
    n = rnd.integer(1, 5)
    k = rnd.integer(0, n - 1)
    g = sample_generic_subspace(n, k, rnd).generators
    u = [[rnd.integer(-3, 3) for _ in range(k + 1)] for _ in range(k + 1)]
    while not sympy.Matrix(u).det():
        u = [[rnd.integer(-3, 3) for _ in range(k + 1)] for _ in range(k + 1)]
    u = [[-x for x in row] if rnd.integer(0, 1) else row for row in u]
    base = cls(n, g)
    for m in ([[-int(i == j) for j in range(k + 1)] for i in range(k + 1)], u):
        mixed = cls(n, tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in zip(*g)) for row in m))
        assert mixed == base and hash(mixed) == hash(base) and mixed.basis == base.basis


@given(st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_equality_is_invariant_under_invertible_row_operations(seed):
    _check_row_operations(LinearSubspace, seed)


class _RawGenerators(LinearSubspace):
    """Planted twin: equality and hashing on the raw generators."""

    def __eq__(self, other):
        return self.n == other.n and self.generators == other.generators

    def __hash__(self):
        return hash((self.n, self.generators))


def test_the_row_operation_check_catches_equality_on_raw_generators():
    for seed in range(5):
        _check_row_operations(LinearSubspace, seed)
        with pytest.raises(AssertionError):
            _check_row_operations(_RawGenerators, seed)


def test_subspace_residual_through_contains_and_projection():
    line = span([standard_point(2, 0), standard_point(2, 1)])
    on_line = ProjPoint(2, (F(3), F(5), F(0)))
    assert contains(line, on_line)
    with pytest.raises(InCenter):
        project_from(line, on_line)
    off_line = ProjPoint(2, (F(3), F(5), F(7)))
    assert not contains(line, off_line)
    assert project_from(line, off_line).coords == (F(7),)
    # a line off the coordinate axes: the one equation is -2 x0 + x1 + x2
    line = LinearSubspace.from_rows(2, [(1, 0, 2), (0, 1, -1)])
    assert line.equations() == ((F(-2), F(1), F(1)),)
    assert contains(line, ProjPoint(2, (F(1), F(1), F(1))))
    assert project_from(line, ProjPoint(2, (F(1), F(2), F(1)))).coords == (F(1),)


def test_contains_and_projection_reject_another_ambient():
    center = span([standard_point(3, 3)])
    for p in (unit_point(2), ProjPoint(4, (F(0), F(0), F(0), F(1), F(5)))):
        with pytest.raises(ValueError, match="ambient"):
            contains(center, p)
        with pytest.raises(ValueError, match="ambient"):
            project_from(center, p)
    with pytest.raises(ValueError, match="ambient"):
        project_from(center, span([unit_point(4)]))


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
        assert contains(sub, p) == inside
        image = tuple(F(int(x.p), int(x.q)) for x in to_sympy(eqs, n + 1) * sympy.Matrix(coords))
        if inside:
            assert not any(image)
            with pytest.raises(InCenter):
                project_from(sub, p)
        else:
            assert project_from(sub, p).coords == image


@st.composite
def subspace_pairs(draw):
    """(n, rows_a, rows_b): row sets of two subspaces of P^n; b starts with
    some of a's rows, so pairs may be nested, equal or share a point."""
    n = draw(st.integers(1, 5))
    vector = st.lists(ENTRY, min_size=n + 1, max_size=n + 1)
    rows_a = draw(st.lists(vector, max_size=n + 1))
    shared = draw(st.integers(0, len(rows_a)))
    return n, rows_a, rows_a[:shared] + draw(st.lists(vector, max_size=n + 1))


@given(subspace_pairs())
@example((3, [], []))  # both empty
@example((3, [[1, 0, 0, 0], [0, 1, 2, 0]], [[1, 0, 0, 0], [0, 1, 2, 0]]))  # equal lines
@example((3, [[1, 0, 0, 0]], [[1, 0, 0, 0], [0, 1, 2, 0]]))  # a point on a line
@example((3, [[1, 2, 0, 0], [0, 0, 1, 1]], [[1, 2, 0, 0], [0, 1, 0, 5]]))  # lines sharing a point
@example((2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 1, 1]]))  # the whole plane and a point
@example((2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]))  # no equations at all
@settings(max_examples=60, deadline=None)
def test_meet_matches_sympy(case):
    n, rows_a, rows_b = case
    a, b = LinearSubspace.from_rows(n, rows_a), LinearSubspace.from_rows(n, rows_b)
    common = meet(a, b)
    eqs = list(a.equations()) + list(b.equations())
    # the meet is cut out by both sets of forms together
    assert common.dim == n - (to_sympy(eqs, n + 1).rank() if eqs else 0)
    for row in common.basis:
        assert not any(sum(x * y for x, y in zip(eq, row)) for eq in eqs)
    assert meet(b, a) == common


# ---------------------------------------------------------------- projectivities


def test_projectivity_from_frames_hits_frame():
    rng = Rng(5)
    n = 3
    frame = standard_frame(n)
    target = [sample_point(n, rng) for _ in range(n + 2)]
    g = projectivity_from_frames(target)
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
        projectivity_from_frames(bad)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_projectivity_from_frames_rejects_a_point_of_another_ambient(n):
    rng = Rng(6)
    for k in range(1, n + 2):
        pts = [sample_point(n, rng) for _ in range(n + 2)]
        pts[k] = sample_point(n + 1, rng)
        with pytest.raises(ValueError, match="ambient mismatch"):
            projectivity_from_frames(pts)


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
    image = apply_subspace(g, sub)
    assert image.dim == sub.dim
    p = sample_point_on(sub, rng)
    assert contains(image, g.apply(p))


# ---------------------------------------------------------------- projections


def test_projection_map_coordinates_and_center():
    center = span([standard_point(3, 3)])
    p = ProjPoint(3, (F(1), F(2), F(3), F(9)))
    assert project_from(center, p) == ProjPoint(2, (F(1), F(2), F(3)))
    with pytest.raises(InCenter):
        project_from(center, standard_point(3, 3))


def test_project_from_drops_dimension_generically():
    rng = Rng(41)
    center = span([sample_point(4, rng)])
    line = sample_generic_subspace(4, 1, rng)
    image = project_from(center, line)
    assert image.dim == 1


def test_projection_collapses_spaces_meeting_center():
    # project P^3 from a point lying on a line: the line maps to a point
    rng = Rng(43)
    line = sample_generic_subspace(3, 1, rng)
    center = span([sample_point_on(line, rng)])
    image = project_from(center, line)
    assert image.dim == 0


# ---------------------------------------------------------------- alignment


def test_adapted_alignment_moves_spaces_onto_coordinate_blocks():
    rng = Rng(59)
    n = 5
    a = sample_generic_subspace(n, 1, rng)
    b = sample_generic_subspace(n, 2, rng)
    g = adapted_alignment([a, b])
    block_a = span([standard_point(n, 1), standard_point(n, 2)])
    blocks = [standard_point(n, j) for j in (3, 4, 5)]
    block_b = span(blocks)
    # the frame sends the blocks onto the spaces; its inverse aligns them
    assert apply_subspace(g, block_a) == a
    assert apply_subspace(g, block_b) == b
    assert apply_subspace(g.inverse(), a) == block_a
    assert apply_subspace(g.inverse(), b) == block_b


@pytest.mark.parametrize("equation", [(0, 1, -1, 0), (0, 0, 1, -1), (0, 0, 0, 1), (0, 2, 0, 3)])
def test_adapted_alignment_when_e0_lies_in_the_span(equation):
    # a line and a point spanning a hyperplane of P^3 through e_0, so the
    # complement direction is some e_i with i > 0
    n = 3
    hyperplane = LinearSubspace.from_rows(n, LinearSubspace.from_rows(n, [equation]).equations())
    rng = Rng(67)
    pts = [sample_point_on(hyperplane, rng.derive(j)) for j in range(3)]
    a, b = span(pts[:2]), span(pts[2:])
    rows = list(a.basis) + list(b.basis)
    # brute force: the first coordinate point whose row raises the rank to n+1
    i = next(i for i in range(n + 1) if sympy.Matrix(rows + [standard_point(n, i).coords]).rank() == n + 1)
    assert i > 0
    g = adapted_alignment([a, b])
    assert g.apply(standard_point(n, 0)) == standard_point(n, i)
    assert apply_subspace(g, span([standard_point(n, 1), standard_point(n, 2)])) == a
    assert apply_subspace(g, span([standard_point(n, 3)])) == b


def test_adapted_alignment_rejects_overlapping_spaces():
    rng = Rng(61)
    a = sample_generic_subspace(4, 2, rng)
    b = span([sample_point_on(a, rng)])
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


def test_a_drawn_subspace_builds_its_basis_on_first_read():
    s = sample_generic_subspace(5, 2, Rng(1003))
    assert "echelon" not in vars(s) and "basis" not in vars(s) and s.dim == 2
    assert len(s.modular_echelon[0]) == 3
    canonical = LinearSubspace.from_rows(5, s.generators)
    assert s == canonical and hash(s) == hash(canonical)  # equality reads, and so builds, the echelon
    assert vars(s)["echelon"] == canonical.echelon and "basis" not in vars(s)
    assert s.basis == canonical.basis and vars(s)["basis"] == canonical.basis
    assert repr(s) == f"LinearSubspace(n=5, basis={canonical.basis!r}, generators={s.generators!r})"
    assert repr(s).startswith("LinearSubspace(n=5, basis=((Fraction(1, 1), Fraction(0, 1), ")


P = linalg._PRESCREEN_PRIME


class PlantedRng:
    """Hands out the given rows in order, as ``Rng.vector`` would draw them."""

    def __init__(self, rows):
        self.rows = iter(rows)

    def vector(self, length):
        row = next(self.rows)
        assert len(row) == length
        return row


@pytest.mark.parametrize(
    "draws, accepted, ranks",
    [
        # a row that is 0 mod p: the echelon mod p is short, the exact rank accepts
        ([(P, -2 * P, 0, 3 * P), (1, 2, 3, 4)], 0, [2]),
        # rows that differ by p e_1: rank 1 mod p, rank 2 over Z
        ([(1, 2, 3, 4), (1, 2 + P, 3, 4)], 0, [2]),
        # dependent over Z: rejected by the exact rank; the next draw is full mod p
        ([(1, 2, 3, 4), (-2, -4, -6, -8), (0, 0, 1, 0), (0, 0, 0, 1)], 1, [1]),
    ],
)
def test_draws_with_a_short_echelon_mod_p_are_decided_by_the_exact_rank(monkeypatch, draws, accepted, ranks):
    found = []
    rank_ = linalg.rank
    monkeypatch.setattr(linalg, "rank", lambda rows, ncols: found.append(rank_(rows, ncols)) or found[-1])
    s = sample_generic_subspace(3, 1, PlantedRng(draws))
    assert s.generators == tuple(draws[2 * accepted : 2 * accepted + 2])
    assert found == ranks
    assert sympy.Matrix(s.generators).rank() == 2 and "echelon" not in vars(s) and "basis" not in vars(s)


def test_a_draw_that_stays_dependent_exhausts_the_budget():
    with pytest.raises(GenericityExhausted):
        sample_generic_subspace(2, 1, PlantedRng([(1, 2, 3), (2, 4, 6)] * 16))


def sampler_outputs():
    """A seeded grid over every sampler: n = 2..5, three seeds each."""
    for n in range(2, 6):
        for seed in range(3):
            rng = Rng(1000 * n + seed)
            yield "point", n, sample_point(n, rng).coords
            for k in range(n):
                space = sample_generic_subspace(n, k, rng)
                yield "subspace", n, k, space.basis, space.generators
                yield "point_on", n, k, sample_point_on(space, rng).coords
            yield "projectivity", n, sample_projectivity(n, rng).matrix
            yield "form", n, tuple(sorted(random_form(n + 1, 2, rng).items()))


def _encode(obj) -> str:
    """Nested tuples of numbers as text; an int and the equal Fraction
    encode alike, so the digest pins values, not their Python type."""
    if isinstance(obj, (tuple, list)):
        return "(" + ",".join(_encode(x) for x in obj) + ")"
    return str(obj)


# sha256 of sampler_outputs(), recorded while Rng still drew Fractions.
PINNED_SAMPLES_SHA256 = "b17ef5d4b91459cffe5e810156734194a8a20719610a64279e31988f1e035117"


def test_sampler_outputs_are_pinned():
    h = hashlib.sha256()
    for item in sampler_outputs():
        h.update(_encode(item).encode() + b";")
    assert h.hexdigest() == PINNED_SAMPLES_SHA256


def test_rng_vector_draws_bounded_ints():
    v = Rng(5).vector(50)
    assert all(type(x) is int and abs(x) <= DEFAULT_HEIGHT for x in v)
