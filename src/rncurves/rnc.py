"""Rational normal curves: construction, interpolation, and intersections.

A degree-n rational curve in P^n is stored as n+1 binary forms of degree n;
it is a *rational normal curve* exactly when its coefficient matrix has full
rank n+1 (the image spans P^n).  Full rank already implies that the forms
share no common root: n+1 independent forms of degree n span every binary
form of degree n, s^n and t^n among them, so no gcd is taken.  The curve
also keeps that matrix over Z, so restricting linear forms to it and their
gcd run over Z; ``Fraction`` appears only in returned forms.

The two interpolation builders realize the classical facts that a rational
normal curve is determined by n+3 general points, and that points with
*assigned* parameter values can be hit as long as at most t+2 of them are
prescribed on a degree-t factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Sequence

from . import linalg
from .binforms import BinaryForm, ParamPoint, distinct_parameters, divide_exact, gcd_degree, gcd_many, product
from .errors import (
    CenterMeetsCurve,
    CoincidentParameters,
    CurveInSubspaceSpan,
    DegenerateImage,
    FrameDegenerate,
    GenericityExhausted,
)
from .exactgeom import (
    RESAMPLE_BUDGET,
    LinearSubspace,
    Projectivity,
    ProjPoint,
    Rng,
    projectivity_from_frames,
    stable_mix,
    standard_frame,
)
from .multiforms import substitute_curve


@dataclass(frozen=True)
class ParamCurve:
    """A rational curve given by a parametrization; not necessarily normal."""

    ambient: int
    forms: tuple[BinaryForm, ...]
    # (cols, den): cols[k] holds the forms' k-th coefficients times den; not in ==, hash, repr or JSON
    integer_columns: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.forms) != self.ambient + 1:
            raise ValueError("need ambient+1 coordinate forms")
        degs = {f.degree for f in self.forms}
        if len(degs) != 1:
            raise ValueError("coordinate forms must share a degree")
        if all(f.is_zero() for f in self.forms):
            raise ValueError("all coordinate forms vanish")
        flat = [c for f in self.forms for c in f.coeffs]
        ints, step = linalg.integerize(flat), self.degree + 1
        cols = tuple(ints[k::step] for k in range(step))
        object.__setattr__(self, "integer_columns", (cols, lcm(*(c.denominator for c in flat))))

    @property
    def degree(self) -> int:
        return self.forms[0].degree

    def evaluate(self, p: ParamPoint) -> ProjPoint:
        coords = tuple(f.evaluate_at(p) for f in self.forms)
        if not any(coords):
            raise ValueError(f"parametrization vanishes at {p}")
        return ProjPoint(self.ambient, coords)


class RationalCurve(ParamCurve):
    """A rational normal curve: degree = ambient dimension, image spans P^n."""

    def __post_init__(self):
        super().__post_init__()
        if not is_rnc(self):
            raise DegenerateImage("parametrization is not a rational normal curve")


def is_rnc(curve: ParamCurve) -> bool:
    """True when the curve is a rational normal curve of its ambient space:
    degree n in P^n with a coefficient matrix of rank n+1."""
    n = curve.ambient
    return curve.degree == n and linalg.rank([f.coeffs for f in curve.forms], n + 1) == n + 1


def standard_rnc(n: int) -> RationalCurve:
    """The monomial curve (s^n, s^(n-1) t, ..., t^n)."""
    forms = []
    for i in range(n + 1):
        coeffs = [Fraction(0)] * (n + 1)
        coeffs[i] = Fraction(1)
        forms.append(BinaryForm(n, tuple(coeffs)))
    return RationalCurve(n, tuple(forms))


def _restrict(rows: Sequence[Sequence[Fraction]], curve: ParamCurve):
    """Yield ``(coeffs, scale)`` per row: ``sum_j row[j] * curve.forms[j]`` is
    the integer ``coeffs`` divided by ``scale``."""
    cols, den = curve.integer_columns
    for row in rows:
        w = linalg.integerize(row)
        yield [sum(map(mul, w, col)) for col in cols], den * lcm(*(x.denominator for x in row))


def apply_projectivity(curve: ParamCurve, g: Projectivity) -> ParamCurve:
    """Transform the coordinate forms by the matrix of ``g``."""
    if g.n != curve.ambient:
        raise ValueError("ambient mismatch")
    out = [BinaryForm(curve.degree, tuple(Fraction(c, k) for c in cs)) for cs, k in _restrict(g.matrix, curve)]
    cls = RationalCurve if isinstance(curve, RationalCurve) else ParamCurve
    return cls(curve.ambient, tuple(out))


def intersection_degree(curve: ParamCurve, space: LinearSubspace) -> int:
    """Length of the scheme-theoretic intersection of the curve with a space.

    Substituting the parametrization into the space's linear equations gives
    one binary form per equation; the degree of their gcd counts parameters
    (with multiplicity) landing in the space.
    """
    if space.n != curve.ambient:
        raise ValueError("ambient mismatch")
    eqs = space.equations()
    if not eqs:
        raise ValueError("intersection with the whole space is not finite")
    restricted = [cs for cs, _ in _restrict(eqs, curve)]
    if not any(map(any, restricted)):
        raise CurveInSubspaceSpan("curve lies inside the subspace")
    return gcd_degree(restricted)


def passes_through(curve: ParamCurve, point: ProjPoint) -> bool:
    """Exact membership test via a zero-dimensional intersection.

    With ``i`` the point's first nonzero coordinate, the point is cut out by
    the equations ``x_j p_i - x_i p_j`` (j != i).  The curve passes through
    it when their restrictions to the curve all vanish or share a root; the
    exact `gcd_degree` decides the latter, on the curve's integer matrix.
    """
    if point.n != curve.ambient:
        raise ValueError("ambient mismatch")
    if point.n == 0:
        raise ValueError("intersection with the whole space is not finite")
    p = linalg.integerize(point.coords)
    i = next(k for k, c in enumerate(p) if c)
    forms = list(zip(*curve.integer_columns[0]))
    restricted = [[p[i] * a - p[j] * b for a, b in zip(f, forms[i])] for j, f in enumerate(forms) if j != i]
    return not any(map(any, restricted)) or gcd_degree(restricted) >= 1


def restrict_form(form: dict, curve: ParamCurve) -> BinaryForm:
    """Pull a degree-d form on P^n back to the parameter line (degree d*deg)."""
    return substitute_curve(form, curve.forms)


def rnc_through_points(points: Sequence[ProjPoint]) -> tuple[RationalCurve, list[ParamPoint]]:
    """The rational normal curve through n+3 general points of P^n.

    Normalizes the first n+2 points to the standard frame, reads off the
    image c of the last point, and interpolates with the forms
    ``prod_(j != i) (t - b_j s)`` where ``b_j = 1/c_j``.  Returns the curve
    together with the parameter values of the input points (in order).
    """
    if not points:
        raise ValueError("no points given")
    n = points[0].n
    if len(points) != n + 3:
        raise FrameDegenerate(f"need {n + 3} points in P^{n}, got {len(points)}")
    # h_inv sends the standard frame onto the first n+2 points, so the image
    # of the last point under h = h_inv^-1 solves h_inv c = point.
    h_inv = projectivity_from_frames(standard_frame(n), list(points[: n + 2]))
    if points[n + 2].n != n:
        raise ValueError("ambient mismatch")
    c = linalg.solve_right(h_inv.matrix, points[n + 2].coords, n + 1)
    if not all(c):
        raise CoincidentParameters("last point lies on a coordinate hyperplane of the frame")
    b = [1 / ci for ci in c]
    if len(set(b)) != n + 1:
        raise CoincidentParameters("two interpolation parameters collide")
    linear = [BinaryForm(1, (-bj, Fraction(1))) for bj in b]  # t - b_j s
    forms = []
    for i in range(n + 1):
        forms.append(product([linear[j] for j in range(n + 1) if j != i]))
    # is_rnc is invariant under projectivities: one check, on the image
    curve = RationalCurve(n, apply_projectivity(ParamCurve(n, tuple(forms)), h_inv).forms)
    params = [ParamPoint(Fraction(1), bj) for bj in b]
    params.append(ParamPoint(Fraction(0), Fraction(1)))
    params.append(ParamPoint(Fraction(1), Fraction(0)))
    return curve, params


def rnc_with_assigned_preimages(params: Sequence[ParamPoint], points: Sequence[ProjPoint]) -> RationalCurve:
    """A rational normal curve in P^t sending ``params[i]`` to ``points[i]``.

    The degree t is the points' ambient dimension.  At most t+2 pairs may be
    assigned, and fewer are padded deterministically (parameter values
    ``[1 : i]`` not already assigned, points drawn from a stream seeded by a
    stable hash of the input data).
    """
    points = list(points)
    if not points:
        raise ValueError("no points given")
    t = points[0].n
    if any(p.n != t for p in points):
        raise ValueError("points must live in the curve's ambient space")
    m = len(points)
    if m > t + 2:
        raise FrameDegenerate(f"at most {t + 2} assigned preimages on a degree-{t} curve")
    params = list(params)
    if len(params) != m:
        raise ValueError("need one parameter per point")
    distinct_parameters(params)
    if m == t + 2:
        return _rnc_assigned_full(params, points)
    pad_seed = stable_mix(
        "assigned-preimage-padding",
        tuple(p.normalized() for p in params),
        tuple(q.normalized() for q in points),
    )
    rng = Rng(pad_seed)
    extra_params = []
    have = {p.normalized() for p in params}
    i = 0
    while len(extra_params) < t + 2 - m:
        cand = ParamPoint(Fraction(1), Fraction(i))
        i += 1
        if cand.normalized() in have:
            continue
        have.add(cand.normalized())
        extra_params.append(cand)
    for _ in range(RESAMPLE_BUDGET):
        extra_points = [ProjPoint(t, rng.vector(t + 1)) for _ in range(t + 2 - m)]
        try:
            return _rnc_assigned_full(params + extra_params, points + extra_points)
        except (FrameDegenerate, CoincidentParameters, ValueError):
            continue
    raise GenericityExhausted("could not pad assigned-preimage data generically")


def _rnc_assigned_full(params: Sequence[ParamPoint], points: Sequence[ProjPoint]) -> RationalCurve:
    """Interpolation with exactly t+2 assigned (parameter, point) pairs.

    With the points frame-normalized, the curve is forced to be
    ``psi_i = a_i * prod_(j != i) L_j`` where ``L_j`` is the linear form
    vanishing at ``params[j]`` and ``a_i = L_i(params[t+1])`` makes the last
    pair match.
    """
    t = points[0].n
    h_inv = projectivity_from_frames(standard_frame(t), list(points))
    linear = [BinaryForm.vanishing_at(p) for p in params[: t + 1]]
    last = params[t + 1]
    forms = []
    for i in range(t + 1):
        a_i = linear[i].evaluate_at(last)
        if not a_i:
            raise CoincidentParameters("last parameter collides with an assigned one")
        forms.append(product([linear[j] for j in range(t + 1) if j != i]).scale(a_i))
    return RationalCurve(t, apply_projectivity(ParamCurve(t, tuple(forms)), h_inv).forms)


def project_curve(curve: ParamCurve, center: LinearSubspace, strict: bool = False) -> ParamCurve:
    """Compose the parametrization with projection away from ``center``.

    Any common factor of the image forms (the parameters mapping into the
    center) is divided out, so the result has degree
    ``deg - deg(curve meet center)``.  With ``strict=True`` a positive-degree
    common factor raises ``CenterMeetsCurve`` instead.  The image forms are
    the center's ``equations()`` restricted to the curve, as in
    :func:`intersection_degree`.
    """
    if center.n != curve.ambient:
        raise ValueError("ambient mismatch")
    if center.dim < 0:
        raise ValueError("projection center must be nonempty")
    image = [
        BinaryForm(curve.degree, tuple(Fraction(c, k) for c in cs)) for cs, k in _restrict(center.equations(), curve)
    ]
    if all(f.is_zero() for f in image):
        raise CurveInSubspaceSpan("curve lies inside the projection center")
    common = gcd_many(image)
    if common.degree > 0:
        if strict:
            raise CenterMeetsCurve(f"curve meets the center with multiplicity {common.degree}")
        image = [divide_exact(f, common) for f in image]
    return ParamCurve(len(image) - 1, tuple(image))
