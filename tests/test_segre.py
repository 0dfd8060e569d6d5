"""Block maps between products of projective spaces and P^n, and witnesses."""

import contextlib
import io
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import contains, passes_through, phi_forms, reference_witness_curve
import rncurves
from rncurves import binforms, cli, rnc, segre
from rncurves.binforms import BinaryForm, ParamPoint
from rncurves.errors import (
    BaseLocus,
    BoundViolated,
    DegenerateImage,
    OnContractedLocus,
    RncError,
    VerificationFailed,
)
from rncurves.exactgeom import (
    Projectivity,
    ProjPoint,
    Rng,
    sample_generic_subspace,
    sample_point,
    sample_point_on,
    span,
    standard_point,
)
from rncurves.rnc import ParamCurve, RationalCurve, apply_projectivity, intersection_degree, is_rnc, push_forward, standard_rnc
from rncurves.segre import (
    MultiCurve,
    SegreContext,
    canonical_contracted_spaces,
    phi,
    phi_inverse,
    product_curve,
    witness_curve,
)

F = Fraction


def mp(*blocks):
    return tuple(ProjPoint(len(b) - 1, tuple(F(x) for x in b)) for b in blocks)


# ---------------------------------------------------------------- context


def test_context_validates_shape():
    ctx = SegreContext((1, 2, 3))
    assert ctx.r == 3
    assert ctx.n == 6
    # block i occupies d_i coordinates after the shared y_0
    assert ctx.offsets() == [1, 2, 4]
    with pytest.raises(ValueError):
        SegreContext((3, 1, 2))  # must be sorted ascending
    with pytest.raises(ValueError):
        SegreContext((0, 2))
    with pytest.raises(ValueError):
        SegreContext(())


def test_point_bound_cases_frozen():
    assert SegreContext((1, 2)).point_bound() == 4  # n1 = 1 -> n2 + 2
    assert SegreContext((2, 2)).point_bound() == 4  # n1 = n2 -> n2 + 2
    assert SegreContext((2, 3)).point_bound() == 5  # 1 < n1 < n2 -> n1 + 3
    assert SegreContext((2, 4)).point_bound() == 5
    assert SegreContext((1, 1, 1)).point_bound() == 3


# ---------------------------------------------------------------- block map


def test_phi_frozen_value():
    ctx = SegreContext((1, 2))
    y = phi(ctx, mp((2, 3), (1, 4, 5)))
    # y_0 = 2*1, then block 1 scaled by the other leads: (3*1), then (2*4, 2*5)
    assert y == ProjPoint(3, (F(2), F(3), F(8), F(10)))


def test_phi_inverse_round_trip():
    ctx = SegreContext((2, 3))
    rng = Rng(9)
    for _ in range(10):
        y = sample_point(ctx.n, rng)
        if not y.coords[0]:
            continue
        q = phi_inverse(ctx, y)
        assert phi(ctx, q) == y
        back = phi_inverse(ctx, phi(ctx, q))
        assert back == q


def test_phi_base_locus_and_contracted_locus():
    ctx = SegreContext((1, 2))
    with pytest.raises(BaseLocus):
        phi(ctx, mp((0, 1), (0, 1, 2)))
    # a single vanishing lead is fine: the image lands on the contracted locus
    y = phi(ctx, mp((0, 1), (1, 1, 2)))
    assert y.coords[0] == 0
    with pytest.raises(OnContractedLocus):
        phi_inverse(ctx, y)


def test_canonical_contracted_spaces_shape():
    ctx = SegreContext((2, 3))
    spaces = canonical_contracted_spaces(ctx)
    assert [s.dim for s in spaces] == [1, 2]
    # blocks are disjoint coordinate subspaces inside {y_0 = 0}
    assert contains(spaces[0], standard_point(5, 1))
    assert contains(spaces[0], standard_point(5, 2))
    assert contains(spaces[1], standard_point(5, 3))
    assert not contains(spaces[0], standard_point(5, 0))
    assert not contains(spaces[1], standard_point(5, 1))


# ---------------------------------------------------------------- product curves


def test_product_curve_hits_points_at_shared_parameters():
    ctx = SegreContext((2, 3))
    rng = Rng(14)
    pts = []
    for _ in range(5):
        y = sample_point(ctx.n, rng)
        if y.coords[0]:
            pts.append(phi_inverse(ctx, y))
    mc, params = product_curve(ctx, pts)
    assert len(params) >= len(pts)
    for par, q in zip(params, pts):
        for crv, target in zip(mc.factors, q):
            assert crv.evaluate(par) == target


def test_product_curve_enforces_point_bound():
    ctx = SegreContext((2, 3))
    rng = Rng(15)
    pts = []
    while len(pts) < 6:  # bound is n1 + 3 = 5
        y = sample_point(ctx.n, rng)
        if y.coords[0]:
            pts.append(phi_inverse(ctx, y))
    with pytest.raises(BoundViolated):
        product_curve(ctx, pts)


def test_product_curve_identity_line_handles_many_points():
    # with a P^1 block a Moebius factor has only 3 degrees of freedom, yet
    # the bound allows n2 + 2 points; the line factor is the identity and
    # the parameters are read off the first block
    ctx = SegreContext((1, 2))
    rng = Rng(16)
    pts = []
    while len(pts) < 4:
        y = sample_point(ctx.n, rng)
        if y.coords[0]:
            pts.append(phi_inverse(ctx, y))
    mc, params = product_curve(ctx, pts)
    for par, q in zip(params, pts):
        for crv, target in zip(mc.factors, q):
            assert crv.evaluate(par) == target


def phi_image(mc: MultiCurve) -> tuple[BinaryForm, ...]:
    """The forms of ``segre._phi_columns(mc)``, pushed forward by the identity."""
    n = mc.context.n
    identity = Projectivity(tuple(tuple(int(i == j) for j in range(n + 1)) for i in range(n + 1)))
    return push_forward(segre._phi_columns(mc), identity)


def test_compose_phi_gives_rnc_meeting_blocks_maximally():
    ctx = SegreContext((2, 3))
    rng = Rng(17)
    pts = []
    while len(pts) < 5:
        y = sample_point(ctx.n, rng)
        if y.coords[0]:
            pts.append(phi_inverse(ctx, y))
    mc, params = product_curve(ctx, pts)
    curve = RationalCurve(ctx.n, phi_image(mc))
    assert curve.forms == phi_forms(mc)
    for space, expected in zip(canonical_contracted_spaces(ctx), (2, 3)):
        assert intersection_degree(curve, space) == expected
    for par, q in zip(params, pts):
        assert curve.evaluate(par) == phi(ctx, q)


def test_compose_phi_rejects_lead_forms_with_common_root():
    # both lead forms vanish at [0 : 1], so every image form does: the rank
    # check of the image is what rejects it
    ctx = SegreContext((1, 1))
    line = standard_rnc(1)
    forms = phi_image(MultiCurve(ctx, (line, line)))
    assert not is_rnc(ParamCurve(ctx.n, forms))
    with pytest.raises(DegenerateImage):
        RationalCurve(ctx.n, forms)


# ---------------------------------------------------------------- witnesses


def test_witness_curve_line_and_plane_with_five_points():
    rng = Rng(100)
    n = 5
    line = sample_generic_subspace(n, 1, rng.derive("line"))
    plane = sample_generic_subspace(n, 2, rng.derive("plane"))
    pts = [sample_point(n, rng.derive("pt", i)) for i in range(5)]
    curve = witness_curve([line, plane], pts)
    assert is_rnc(curve)
    assert intersection_degree(curve, line) == 2
    assert intersection_degree(curve, plane) == 3
    for p in pts:
        assert passes_through(curve, p)


def test_witness_curve_equal_blocks():
    rng = Rng(101)
    n = 4
    a = sample_generic_subspace(n, 1, rng.derive("a"))
    b = sample_generic_subspace(n, 1, rng.derive("b"))
    pts = [sample_point(n, rng.derive("pt", i)) for i in range(4)]  # bound n2+2
    curve = witness_curve([a, b], pts)
    assert intersection_degree(curve, a) == 2
    assert intersection_degree(curve, b) == 2
    for p in pts:
        assert passes_through(curve, p)


def test_witness_curve_point_blocks_give_interpolation():
    rng = Rng(102)
    n = 3
    spaces = [
        span([sample_point(n, rng.derive("sp", i))])
        for i in range(3)
    ]
    pts = [sample_point(n, rng.derive("pt", i)) for i in range(3)]  # bound n2+2=3
    curve = witness_curve(spaces, pts)
    for s in spaces:
        assert intersection_degree(curve, s) == 1
    for p in pts:
        assert passes_through(curve, p)


@pytest.mark.parametrize("n, dims", [(5, (1, 2)), (4, (1, 1)), (3, (0, 0, 0))], ids=["line-plane", "two-lines", "three-points"])
def test_witness_curve_with_no_points_meets_the_spaces(n, dims):
    rng = Rng(103)
    spaces = [sample_generic_subspace(n, d, rng.derive("space", i)) for i, d in enumerate(dims)]
    curve = witness_curve(spaces, [])
    cfg = rncurves.Configuration(n, tuple((space, 1) for space in spaces))
    ok, report = rncurves.verify_witness(curve, cfg)
    assert ok, report


def test_witness_curve_checks_normality_once(monkeypatch):
    from rncurves import rnc

    rng = Rng(100)
    n = 5
    line = sample_generic_subspace(n, 1, rng.derive("line"))
    plane = sample_generic_subspace(n, 2, rng.derive("plane"))
    pts = [sample_point(n, rng.derive("pt", i)) for i in range(5)]
    calls = []

    def counting(c):
        calls.append(c)
        return is_rnc(c)

    monkeypatch.setattr(rnc, "is_rnc", counting)
    curve = witness_curve([line, plane], pts)
    # the factor curves live in P^2 and P^3; the witness is checked once, in P^5
    assert [c for c in calls if c.ambient == n] == [curve]


def test_witness_curve_inverts_the_alignment_once(monkeypatch):
    # the alignment frame pushes the model curve forward as it is; only the
    # pullback of the points needs its inverse
    from rncurves import linalg

    rng = Rng(100)
    n = 5
    line = sample_generic_subspace(n, 1, rng.derive("line"))
    plane = sample_generic_subspace(n, 2, rng.derive("plane"))
    pts = [sample_point(n, rng.derive("pt", i)) for i in range(5)]
    calls = []
    invert = linalg.invert
    monkeypatch.setattr(linalg, "invert", lambda matrix, size: calls.append(size) or invert(matrix, size))
    witness_curve([line, plane], pts)
    assert calls == [n + 1]


def test_witness_curve_builds_no_gcd(monkeypatch):
    # the image is checked once, by rank; no pairwise gcd of the lead forms
    rng = Rng(100)
    n = 5
    line = sample_generic_subspace(n, 1, rng.derive("line"))
    plane = sample_generic_subspace(n, 2, rng.derive("plane"))
    pts = [sample_point(n, rng.derive("pt", i)) for i in range(5)]
    calls = []
    fn = binforms.gcd_rows
    for mod in [m for m in vars(rncurves).values() if getattr(m, "gcd_rows", None) is fn]:
        monkeypatch.setattr(mod, "gcd_rows", lambda arg: calls.append(arg) or fn(arg))
    witness_curve([line, plane], pts)
    assert calls == []


# (n, subspace dimensions) whose dim+1 sum to n: every block profile shape
WITNESS_SHAPES = [(5, (1, 2)), (4, (1, 1)), (3, (0, 0, 0)), (6, (0, 4)), (6, (2, 2)), (5, (0, 1, 1)), (6, (1, 1, 1))]


@given(st.sampled_from(WITNESS_SHAPES), st.integers(0, 2**32), st.data())
@settings(max_examples=20, deadline=None)
def test_witness_curve_matches_the_fraction_construction(shape, seed, data):
    n, dims = shape
    rng = Rng(seed)
    spaces = [sample_generic_subspace(n, d, rng.derive("space", i)) for i, d in enumerate(dims)]
    bound = SegreContext(tuple(sorted(d + 1 for d in dims))).point_bound()
    pts = [sample_point(n, rng.derive("pt", i)) for i in range(data.draw(st.integers(0, bound)))]
    try:
        curve = witness_curve(spaces, pts)
    except RncError:
        assume(False)
    assert curve.forms == reference_witness_curve(spaces, pts)


def construction_counts(monkeypatch, argv):
    """Model curves (plain ``ParamCurve``s, of which the builders return
    none) built while ``rncurves`` runs ``argv``.  ``BinaryForm`` has no
    product to count: the hygiene scan keeps its Fraction algebra out of
    ``binforms``."""
    counts = Counter()
    post_init = ParamCurve.__post_init__

    def counting_post_init(self):
        counts["models"] += type(self) is ParamCurve
        post_init(self)

    monkeypatch.setattr(ParamCurve, "__post_init__", counting_post_init)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["--seed", "0", *argv]) == 0
    return {"models": counts["models"]}


# the interpolation path and the block path of the witness builder
GUARDED_WITNESSES = [["witness", "-n", "4", "3,2,0"], ["witness", "-n", "6", "2,0,0,0,2"]]


@pytest.mark.parametrize("argv", GUARDED_WITNESSES, ids=["interpolation", "block"])
def test_witness_construction_multiplies_no_forms(monkeypatch, argv):
    assert construction_counts(monkeypatch, argv) == {"models": 0}


def plant_model_from_forms(monkeypatch):
    """Pushes ``segre``'s composition forward through a model curve built
    from Fraction forms, as ``apply_projectivity`` of a ``ParamCurve``."""

    def model_from_forms(columns, g):
        cols, den = columns
        forms = tuple(BinaryForm(len(cols) - 1, tuple(Fraction(c, den) for c in row)) for row in zip(*cols))
        return apply_projectivity(ParamCurve(g.n, forms), g).forms

    monkeypatch.setattr(segre, "push_forward", model_from_forms)


@pytest.mark.parametrize(
    "plant, caught",
    [(plant_model_from_forms, {"models": 2})],
    ids=["model-from-forms"],
)
def test_the_guard_catches_a_planted_product_or_model(monkeypatch, plant, caught):
    plant(monkeypatch)
    assert construction_counts(monkeypatch, GUARDED_WITNESSES[1]) == caught


def test_witness_curve_rejects_a_point_on_the_spaces_hyperplane():
    rng = Rng(104)
    n = 5
    line = sample_generic_subspace(n, 1, rng.derive("line"))
    plane = sample_generic_subspace(n, 2, rng.derive("plane"))
    on_span = sample_point_on(span([line, plane]), rng.derive("on"))
    for k in range(3):
        pts = [sample_point(n, rng.derive("pt", i)) for i in range(2)]
        pts.insert(k, on_span)
        with pytest.raises(OnContractedLocus):
            witness_curve([line, plane], pts)


def test_witness_curve_rejects_too_many_points():
    rng = Rng(103)
    n = 5
    line = sample_generic_subspace(n, 1, rng.derive("line"))
    plane = sample_generic_subspace(n, 2, rng.derive("plane"))
    pts = [sample_point(n, rng.derive("pt", i)) for i in range(6)]
    with pytest.raises(BoundViolated):
        witness_curve([line, plane], pts)
