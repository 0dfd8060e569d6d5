"""Rational normal curves: interpolation, intersection degree, projection."""

import functools
import hashlib
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    apply_subspace,
    contains,
    evaluate_form_at,
    mul_forms,
    passes_through,
    random_form,
    reference_rnc_assigned,
    reference_rnc_through_points,
    sample_projectivity,
    scale_form,
    unit_point,
    zero_form,
)
from rncurves import rnc
from rncurves.binforms import BinaryForm, ParamPoint
from rncurves.errors import (
    CenterMeetsCurve,
    CoincidentParameters,
    CurveInSubspaceSpan,
    DegenerateImage,
    FrameDegenerate,
    RncError,
)
from rncurves.exactgeom import (
    Projectivity,
    ProjPoint,
    Rng,
    project_from,
    sample_generic_subspace,
    sample_point,
    sample_point_on,
    span,
    stable_mix,
    standard_point,
)
from rncurves.rnc import (
    ParamCurve,
    apply_projectivity,
    RationalCurve,
    intersection_degree,
    is_rnc,
    project_curve,
    restrict_form,
    rnc_through_points,
    rnc_with_assigned_preimages,
    standard_rnc,
)

F = Fraction


# ---------------------------------------------------------------- basics


def test_standard_rnc_is_rnc_and_hits_frame_points():
    for n in range(2, 7):
        c = standard_rnc(n)
        assert is_rnc(c)
        assert c.degree == n
        assert c.evaluate(ParamPoint(1, 0)) == standard_point(n, 0)
        assert c.evaluate(ParamPoint(0, 1)) == standard_point(n, n)
        assert c.evaluate(ParamPoint(1, 1)) == unit_point(n)


def test_degenerate_parametrization_rejected():
    c = standard_rnc(3)
    # repeat a form: the coefficient matrix drops rank
    with pytest.raises(DegenerateImage):
        RationalCurve(3, (c.forms[0], c.forms[0], c.forms[2], c.forms[3]))


def test_plane_cubic_is_not_an_rnc():
    cubic = ParamCurve(2, tuple(standard_rnc(3).forms[:3]))
    assert not is_rnc(cubic)


SMALL = st.integers(-3, 3)


@st.composite
def small_curves(draw):
    """Degree-n curves in P^n with entries in [-3, 3]: free draws, forms
    sharing a planted linear factor, and forms with one planted dependency."""
    n = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["free", "common-factor", "dropped-rank"]))
    if kind == "common-factor":
        factor = BinaryForm(1, tuple(map(F, draw(st.tuples(SMALL, SMALL).filter(any)))))
        rows = draw(st.lists(st.lists(SMALL, min_size=n, max_size=n), min_size=n + 1, max_size=n + 1))
        forms = [mul_forms(factor, BinaryForm(n - 1, tuple(map(F, r)))) for r in rows]
    else:
        rows = draw(st.lists(st.lists(SMALL, min_size=n + 1, max_size=n + 1), min_size=n + 1, max_size=n + 1))
        if kind == "dropped-rank":
            i = draw(st.integers(0, n))
            weights = draw(st.lists(SMALL, min_size=n + 1, max_size=n + 1))
            rows[i] = [sum(w * r[k] for j, (w, r) in enumerate(zip(weights, rows)) if j != i) for k in range(n + 1)]
        forms = [BinaryForm(n, tuple(map(F, r))) for r in rows]
    assume(any(not f.is_zero() for f in forms))
    return ParamCurve(n, tuple(forms))


@given(small_curves())
@settings(max_examples=150, deadline=None)
def test_is_rnc_matches_rank_and_sympy_gcd(curve):
    # the definition with both conditions; full rank alone must imply the second
    n = curve.ambient
    s, t = sympy.symbols("s t")
    polys = [sum(rat(c) * s ** (n - i) * t**i for i, c in enumerate(f.coeffs)) for f in curve.forms]
    common = functools.reduce(sympy.gcd, [q for q in polys if q != 0])
    full_rank = sympy.Matrix([[rat(c) for c in f.coeffs] for f in curve.forms]).rank() == n + 1
    assert is_rnc(curve) == (full_rank and sympy.Poly(common, s, t).total_degree() == 0)


def test_intersection_degree_with_coordinate_subspaces():
    # {x_0 = ... = x_j = 0} pulls back to gcd(s^n, ..., s^(n-j) t^j) = s^(n-j)
    for n in (3, 4, 5):
        c = standard_rnc(n)
        for j in range(n - 1):
            pts = [standard_point(n, i) for i in range(j + 1, n + 1)]
            sub = span(pts)
            assert intersection_degree(c, sub) == n - j


def test_intersection_degree_generic_subspace_is_zero_or_expected():
    rng = Rng(101)
    c = standard_rnc(4)
    pt = span([sample_point(4, rng)])
    assert intersection_degree(c, pt) == 0
    hyper = sample_generic_subspace(4, 3, rng)
    assert intersection_degree(c, hyper) == 4  # Bezout: degree-n curve vs hyperplane


def test_intersection_degree_rejects_containing_span():
    conic = standard_rnc(2)
    flat = ParamCurve(3, tuple(conic.forms) + (zero_form(2),))
    hyper = span([standard_point(3, i) for i in range(3)])
    with pytest.raises(CurveInSubspaceSpan):
        intersection_degree(flat, hyper)
    with pytest.raises(ValueError):
        whole = span([standard_point(3, i) for i in range(4)])
        intersection_degree(standard_rnc(3), whole)


# ---------------------------------------------------------------- integer-native kernels

# numerators up to 20 digits over denominators up to 15 digits, each its own
big_fraction = st.builds(F, st.integers(-(10**20), 10**20), st.integers(1, 10**15))
PARAMS = [ParamPoint(0, 1), ParamPoint(1, 0), ParamPoint(1, 1), ParamPoint(1, -2), ParamPoint(3, 5), ParamPoint(2, -7)]


@st.composite
def curve_and_component(draw):
    """A curve with large mixed denominators and a component through 0..dim+1 of its points."""
    n = draw(st.integers(2, 5))
    if draw(st.booleans()):
        # the monomial curve, each coordinate scaled: coordinate subspaces pull back to s^a t^b
        scales = draw(st.lists(big_fraction.filter(bool), min_size=n + 1, max_size=n + 1))
        forms = tuple(scale_form(f, c) for f, c in zip(standard_rnc(n).forms, scales))
    else:
        coeffs = draw(st.lists(big_fraction, min_size=(n + 1) ** 2, max_size=(n + 1) ** 2))
        forms = tuple(BinaryForm(n, tuple(coeffs[i * (n + 1) : (i + 1) * (n + 1)])) for i in range(n + 1))
        assume(any(not f.is_zero() for f in forms))
    curve = ParamCurve(n, forms)
    k = draw(st.integers(0, n - 1))
    if draw(st.booleans()):
        axes = draw(st.lists(st.integers(0, n), min_size=k + 1, max_size=k + 1, unique=True))
        return curve, span([standard_point(n, i) for i in axes])
    on_curve = draw(st.lists(st.sampled_from(PARAMS), max_size=k + 1, unique=True))
    vectors = st.lists(st.integers(-9, 9), min_size=n + 1, max_size=n + 1).filter(any)
    others = draw(st.lists(vectors, min_size=k + 1 - len(on_curve), max_size=k + 1 - len(on_curve)))
    try:
        points = [curve.evaluate(p) for p in on_curve]
    except ValueError:  # the parametrization vanishes there
        assume(False)
    return curve, span(points + [ProjPoint(n, v) for v in others])


def rat(x):
    return sympy.Rational(x.numerator, x.denominator)


def sympy_intersection_degree(curve, space):
    """Degree of the sympy gcd of the curve restricted to the space's equations; None if all vanish."""
    s, t = sympy.symbols("s t")
    polys = [sum(rat(c) * s ** (curve.degree - i) * t**i for i, c in enumerate(f.coeffs)) for f in curve.forms]
    eqs = sympy.Matrix([[rat(x) for x in row] for row in space.basis]).nullspace()
    restricted = [sympy.expand(sum(v[j] * polys[j] for j in range(len(polys)))) for v in eqs]
    nonzero = [r for r in restricted if r != 0]
    if not nonzero:
        return None
    return sympy.Poly(functools.reduce(sympy.gcd, nonzero), s, t).total_degree()


@given(curve_and_component())
@settings(max_examples=40, deadline=None)
def test_intersection_degree_matches_sympy_gcd(data):
    curve, space = data
    expected = sympy_intersection_degree(curve, space)
    if expected is None:
        with pytest.raises(CurveInSubspaceSpan):
            intersection_degree(curve, space)
    else:
        assert intersection_degree(curve, space) == expected


def test_intersection_degree_single_nonzero_restriction():
    # a conic with a large fractional scale in the plane x_3 = 0 of P^3
    conic = [scale_form(f, F(10**20 + 1, 3**30)) for f in standard_rnc(2).forms]
    flat = ParamCurve(3, tuple(conic) + (zero_form(2),))
    # the line x_1 = x_3 = 0 pulls back to (c s t, 0): one nonzero form, of formal degree 2
    line = span([standard_point(3, 0), standard_point(3, 2)])
    assert intersection_degree(flat, line) == 2
    plane = span([standard_point(3, i) for i in range(3)])
    with pytest.raises(CurveInSubspaceSpan):
        intersection_degree(flat, plane)


def test_apply_projectivity_with_fractional_matrix_matches_fraction_sums():
    rng = random.Random(12)
    n = 4

    def big():
        return F(rng.randrange(-(10**18), 10**18), rng.randrange(1, 10**12))

    curve = ParamCurve(n, tuple(BinaryForm(n, tuple(big() for _ in range(n + 1))) for _ in range(n + 1)))
    g = Projectivity(tuple(tuple(big() for _ in range(n + 1)) for _ in range(n + 1)))
    moved = apply_projectivity(curve, g)
    for row, form in zip(g.matrix, moved.forms):
        expected = [sum(w * f.coeffs[k] for w, f in zip(row, curve.forms)) for k in range(n + 1)]
        assert all(type(c) is F for c in form.coeffs)
        assert list(form.coeffs) == expected


def test_intersection_degree_builds_no_binary_form(monkeypatch):
    rng = Rng(61)
    curve = apply_projectivity(standard_rnc(4), sample_projectivity(4, rng))
    spaces = [sample_generic_subspace(4, k, rng) for k in range(4)]
    spaces.append(span([curve.evaluate(ParamPoint(1, i)) for i in range(3)]))
    built = []
    post_init = BinaryForm.__post_init__

    def counting(self):
        built.append(self.degree)
        post_init(self)

    monkeypatch.setattr(BinaryForm, "__post_init__", counting)
    assert [intersection_degree(curve, s) for s in spaces] == [0, 0, 0, 4, 3]
    assert built == []
    BinaryForm(2, (0, 0, 0))  # the counter sees every construction
    assert built == [2]


# ---------------------------------------------------------------- interpolation


def test_interpolation_exact_round_trip():
    rng = Rng(7)
    for n in (2, 3, 4):
        pts = [sample_point(n, rng) for _ in range(n + 3)]
        curve, params = rnc_through_points(pts)
        assert is_rnc(curve)
        assert len(params) == n + 3
        for p, q in zip(params, pts):
            assert curve.evaluate(p) == q


def test_passes_through_on_and_off_the_curve():
    c = standard_rnc(3)
    assert passes_through(c, ProjPoint(3, (F(1), F(2), F(4), F(8))))
    assert not passes_through(c, ProjPoint(3, (F(1), F(2), F(3), F(4))))
    # x_0 = 0: only [0 : 0 : 0 : 1] (the parameter [0 : 1]) is on the curve
    assert passes_through(c, standard_point(3, 3))
    assert not passes_through(c, ProjPoint(3, (F(0), F(1), F(0), F(0))))
    with pytest.raises(ValueError, match="ambient"):
        passes_through(c, standard_point(2, 0))


def test_passes_through_interpolated_points_with_x0_zero():
    rng = Rng(31)
    pts = [sample_point(4, rng) for _ in range(7)]
    pts[2] = ProjPoint(4, (F(0),) + pts[2].coords[1:])
    curve, _ = rnc_through_points(pts)
    assert all(passes_through(curve, q) for q in pts)
    assert not passes_through(curve, sample_point(4, rng))


def test_passes_through_is_pinned():
    # criterion 1's grid at seeds 0-4: the n+3 interpolated points, then the
    # sums of consecutive ones, which lie on secant lines and off the curve;
    # sha256 recorded while passes_through had its own point equations
    out = []
    for n in range(2, 7):
        for seed in range(5):
            rng = Rng(seed).derive("acceptance-interpolation", n)
            points = [sample_point(n, rng.derive(i)) for i in range(n + 3)]
            curve, _ = rnc_through_points(points)
            pairs = zip(points, points[1:] + points[:1])
            secants = [ProjPoint(n, tuple(map(sum, zip(p.coords, q.coords)))) for p, q in pairs]
            on = [passes_through(curve, p) for p in points]
            off = [passes_through(curve, p) for p in secants]
            assert all(on) and not any(off)
            out.append((n, seed, on, off))
    assert hashlib.sha256(repr(out).encode()).hexdigest() == "abd5a039dfa363470875f40d6ff4b6807c1d150897d8d9dbcb42433858f5e9aa"


def test_passes_through_accepts_a_curve_whose_image_is_the_point():
    # a constant parametrization: every equation of the point restricts to zero
    point = ProjPoint(2, (F(1), F(2), F(3)))
    curve = ParamCurve(2, tuple(BinaryForm(2, (c, 0, 0)) for c in point.coords))
    assert passes_through(curve, point)
    with pytest.raises(CurveInSubspaceSpan):
        intersection_degree(curve, span([point]))
    with pytest.raises(ValueError, match="not finite"):
        passes_through(ParamCurve(0, (BinaryForm(1, (1, 1)),)), ProjPoint(0, (F(1),)))


def test_interpolation_is_deterministic():
    rng = Rng(8)
    pts = [sample_point(3, rng) for _ in range(6)]
    c1, _ = rnc_through_points(pts)
    c2, _ = rnc_through_points(pts)
    assert c1.forms == c2.forms


def test_interpolation_rejects_degenerate_points():
    # last point has two equal "cross-ratio" coordinates w.r.t. the frame
    pts = [standard_point(3, i) for i in range(4)]
    pts.append(unit_point(3))
    pts.append(ProjPoint(3, (F(1), F(1), F(2), F(2))))
    with pytest.raises(CoincidentParameters):
        rnc_through_points(pts)


def test_interpolation_rejects_point_on_coordinate_hyperplane():
    pts = [standard_point(3, i) for i in range(4)]
    pts.append(unit_point(3))
    pts.append(ProjPoint(3, (F(0), F(1), F(2), F(3))))
    with pytest.raises(CoincidentParameters):
        rnc_through_points(pts)


def test_interpolation_rejects_wrong_point_count():
    pts = [standard_point(3, i) for i in range(4)]
    with pytest.raises(FrameDegenerate):
        rnc_through_points(pts)


def test_assigned_preimages_full_data():
    rng = Rng(21)
    n = 3
    params = [ParamPoint(1, k) for k in range(n + 2)]
    pts = [sample_point(n, rng) for _ in range(n + 2)]
    curve = rnc_with_assigned_preimages(params, pts)
    assert is_rnc(curve)
    for p, q in zip(params, pts):
        assert curve.evaluate(p) == q


@pytest.mark.parametrize("n", range(2, 7))
def test_the_two_interpolation_builders_agree(n):
    # the n+3 point builder and the assigned-preimage builder share one
    # interpolation loop: on the same n+2 pairs they give one curve
    for seed in range(4):
        rng = Rng(stable_mix("builders-agree", n, seed))
        pts = [sample_point(n, rng) for _ in range(n + 3)]
        curve, params = rnc_through_points(pts)
        assigned = rnc_with_assigned_preimages(params[: n + 2], pts[: n + 2])
        pivot = next(i for i, c in enumerate(curve.forms[0].coeffs) if c)
        scalar = assigned.forms[0].coeffs[pivot] / curve.forms[0].coeffs[pivot]
        assert assigned.forms == tuple(scale_form(f, scalar) for f in curve.forms)
        assert assigned.evaluate(params[n + 2]) == pts[n + 2]


# Rationals with numerators up to 40 digits and denominators up to 30,
# either sign before normalizing, and small integers.
rationals = st.one_of(
    st.integers(-5, 5).map(F),
    st.builds(F, st.integers(-(10**40), 10**40), st.integers(1, 10**30).flatmap(lambda d: st.sampled_from([d, -d]))),
)


def points_in(n):
    return st.lists(rationals, min_size=n + 1, max_size=n + 1).filter(any).map(lambda cs: ProjPoint(n, tuple(cs)))


# [0 : 1] and [1 : 0] give the linear forms s and -t: a trailing and a
# leading zero in the rows that divide_rows divides by
param_points = st.one_of(
    st.sampled_from([ParamPoint(0, 1), ParamPoint(1, 0)]),
    st.builds(ParamPoint, rationals, rationals.filter(bool)),
)


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_rnc_through_points_matches_the_fraction_construction(data):
    n = data.draw(st.integers(1, 4))
    points = data.draw(st.lists(points_in(n), min_size=n + 3, max_size=n + 3))
    try:
        curve, _ = rnc_through_points(points)
    except RncError:
        assume(False)
    assert curve.forms == reference_rnc_through_points(points)


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_assigned_preimages_match_the_fraction_construction(data):
    t = data.draw(st.integers(1, 4))
    params = data.draw(st.lists(param_points, min_size=t + 2, max_size=t + 2, unique_by=lambda p: p.key))
    points = data.draw(st.lists(points_in(t), min_size=t + 2, max_size=t + 2))
    try:
        curve = rnc_with_assigned_preimages(params, points)
    except RncError:
        assume(False)
    assert curve.forms == reference_rnc_assigned(params, points)


# [1 : 0] and [0 : 1] among the assigned parameters, one of them the last
PLANTED_PARAMS = [ParamPoint(1, 0), ParamPoint(F(-5, 7), 3), ParamPoint(2, -3), ParamPoint(1, 1), ParamPoint(0, 1)]


def planted_points(count):
    rng = Rng(stable_mix("planted-construction"))
    return [sample_point(3, rng) for _ in range(count)]


def test_the_planted_constructions_match_their_references():
    curve = rnc_with_assigned_preimages(PLANTED_PARAMS, planted_points(5))
    assert curve.forms == reference_rnc_assigned(PLANTED_PARAMS, planted_points(5))
    curve, _ = rnc_through_points(planted_points(6))
    assert curve.forms == reference_rnc_through_points(planted_points(6))


def test_the_oracle_catches_a_quotient_off_by_one(monkeypatch):
    divide, calls = rnc.divide_rows, []

    def off_by_one(f, d):
        calls.append(d)
        q = divide(f, d)
        return [q[0] + 1, *q[1:]] if len(calls) == 2 else q

    monkeypatch.setattr(rnc, "divide_rows", off_by_one)
    curve = rnc_with_assigned_preimages(PLANTED_PARAMS, planted_points(5))
    assert curve.forms != reference_rnc_assigned(PLANTED_PARAMS, planted_points(5))


@given(small_curves(), st.sampled_from([1, F(-7, 3), F(10**20 + 1, 3**30)]), param_points)
@settings(max_examples=80, deadline=None)
def test_evaluate_through_the_columns_gives_the_fraction_values(curve, c, p):
    curve = ParamCurve(curve.ambient, tuple(scale_form(f, c) for f in curve.forms))
    values = tuple(evaluate_form_at(f, p) for f in curve.forms)
    if not any(values):
        with pytest.raises(ValueError):
            curve.evaluate(p)
    else:
        assert curve.evaluate(p).coords == values


def test_assigned_preimages_with_padding_is_deterministic():
    rng = Rng(22)
    n = 4
    params = [ParamPoint(1, 1), ParamPoint(1, 2), ParamPoint(2, 1)]
    pts = [sample_point(n, rng) for _ in range(3)]
    c1 = rnc_with_assigned_preimages(params, pts)
    c2 = rnc_with_assigned_preimages(params, pts)
    assert c1.forms == c2.forms
    for p, q in zip(params, pts):
        assert c1.evaluate(p) == q


def _padding_grid():
    """Assigned-preimage data on a seeded grid: t = 1..5, m = 1..t+2, three
    seeds; the stock values [1 : 0], [2 : 4] = [1 : 2] and [0 : 1] come first,
    so the padding has to skip the ones it would otherwise pick."""
    stock = [ParamPoint(1, 0), ParamPoint(2, 4), ParamPoint(0, 1)]
    for t in range(1, 6):
        for m in range(1, t + 3):
            for seed in range(3):
                rng = Rng(1000 * t + 10 * m + seed)
                params = stock[: min(m, seed + 1)]
                params += [ParamPoint(1, k + seed) for k in range(3, 3 + m - len(params))]
                yield params, [sample_point(t, rng.derive("pt", i)) for i in range(m)]


# sha256 of the padded curves' forms, recorded while ParamPoint kept its own
# normalization and the padding a set of normalized tuples
PINNED_PADDING_SHA256 = "bfcd8adb1ca2844667fbdef8efa6b5be5acf2c61d6333d25efda721dbfdfa274"


def test_assigned_preimage_padding_is_pinned():
    h = hashlib.sha256()
    cases = 0
    for params, pts in _padding_grid():
        curve = rnc_with_assigned_preimages(params, pts)
        assert all(curve.evaluate(p) == q for p, q in zip(params, pts))
        h.update(repr(curve.forms).encode())
        cases += 1
    assert cases == 75
    assert h.hexdigest() == PINNED_PADDING_SHA256


@pytest.mark.parametrize("n", [2, 3])
def test_interpolation_rejects_a_frame_point_of_another_ambient(n):
    rng = Rng(23)
    for k in range(1, n + 2):
        pts = [sample_point(n, rng) for _ in range(n + 3)]
        pts[k] = sample_point(n + 1, rng)
        with pytest.raises(ValueError, match="ambient mismatch"):
            rnc_through_points(pts)


# ---------------------------------------------------------------- invariance


def test_projectivity_preserves_class_and_incidence():
    rng = Rng(33)
    c = standard_rnc(3)
    g = sample_projectivity(3, rng)
    moved = apply_projectivity(c, g)
    assert is_rnc(moved)
    line = sample_generic_subspace(3, 1, rng)
    assert intersection_degree(c, line) == intersection_degree(
        moved, apply_subspace(g, line)
    )
    p = ParamPoint(2, 5)
    assert moved.evaluate(p) == g.apply(c.evaluate(p))


def test_restrict_form_degree_is_d_times_n():
    rng = Rng(44)
    for n in (2, 3, 4):
        c = apply_projectivity(standard_rnc(n), sample_projectivity(n, rng))
        for d in (1, 2, 3):
            form = random_form(n + 1, d, rng)
            restricted = restrict_form(form, c)
            assert restricted.degree == d * n
            assert not restricted.is_zero()


def test_restrict_form_takes_any_coefficient_fraction_takes():
    # a float, a string and an int give the same pullback as their Fractions
    c = apply_projectivity(standard_rnc(3), sample_projectivity(3, Rng(45)))
    form = {(2, 0, 0, 0): 0.5, (0, 1, 1, 0): "-7/3", (0, 0, 0, 2): 4}
    exact = {mu: F(w) for mu, w in form.items()}
    assert restrict_form(form, c) == restrict_form(exact, c)


# ---------------------------------------------------------------- projection


def test_projecting_twisted_cubic_from_point_on_curve_gives_conic():
    c = standard_rnc(3)
    center = span([standard_point(3, 0)])
    image = project_curve(c, center)
    assert image.ambient == 2
    assert image.degree == 2
    assert is_rnc(image)


def test_projecting_twisted_cubic_from_generic_point_gives_plane_cubic():
    rng = Rng(55)
    c = standard_rnc(3)
    center = span([sample_point(3, rng)])
    image = project_curve(c, center)
    assert image.ambient == 2
    assert image.degree == 3
    assert not is_rnc(image)


def test_strict_projection_rejects_center_meeting_curve():
    c = standard_rnc(3)
    center = span([standard_point(3, 0)])
    with pytest.raises(CenterMeetsCurve):
        project_curve(c, center, strict=True)


def test_projected_curve_tracks_projected_points():
    rng = Rng(56)
    n = 4
    c = apply_projectivity(standard_rnc(n), sample_projectivity(n, rng))
    center = span([sample_point(n, rng)])
    image = project_curve(c, center, strict=True)
    for k in range(5):
        p = ParamPoint(1, k)
        assert image.evaluate(p) == project_from(center, c.evaluate(p))


# ---------------------------------------------------------------- pinned projection outputs


def _outcome(fn, *args):
    try:
        return repr(fn(*args))
    except (RncError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _projection_grid():
    """Outcomes of project_curve, project_from and contains over fixed seeds.

    Each center is either generic or spanned by points of the curve, so the
    grid covers images of full degree, divided-out common factors, strict
    rejections, points and subspaces in the center, and hyperplane centers.
    """
    out = []
    for seed in range(4):
        rng = Rng(seed)
        for n in range(2, 6):
            curve = apply_projectivity(standard_rnc(n), sample_projectivity(n, rng))
            for k in range(n):
                through = [curve.evaluate(ParamPoint(1, i)) for i in range(k + 1)]
                for center in (sample_generic_subspace(n, k, rng), span(through)):
                    out.append(_outcome(project_curve, curve, center))
                    out.append(_outcome(project_curve, curve, center, True))
                    inside = sample_point_on(center, rng)
                    outside = sample_point(n, rng)
                    for obj in (inside, outside, center, sample_generic_subspace(n, 1, rng)):
                        out.append(_outcome(project_from, center, obj))
                    for p in (inside, outside, through[0], curve.evaluate(ParamPoint(0, 1))):
                        out.append(repr(contains(center, p)))
    return out


# SHA-256 of the grid's outcomes as the residual-based projection gave them;
# projection through the center's equations must reproduce them byte for byte.
PINNED_PROJECTION_DIGEST = "d67c48a25ade93a85ce9aa0f78890ac7173bd93e14f4b1ee1184ef423cc1e07a"


def test_projection_outputs_match_pinned_digest():
    outcomes = _projection_grid()
    assert len(outcomes) == 1120
    digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
    assert digest == PINNED_PROJECTION_DIGEST
