"""Rational normal curves: construction, interpolation, and intersections.

A degree-n rational curve in P^n is stored as n+1 binary forms of degree n;
it is a *rational normal curve* exactly when its coefficient matrix has full
rank n+1 (the image spans P^n).  Full rank already implies that the forms
share no common root: n+1 independent forms of degree n span every binary
form of degree n, s^n and t^n among them, so no gcd is taken.  The curve
also keeps that matrix over Z, so evaluating it, restricting forms to it,
their gcd, projection and the builders all run over Z.  A built curve's
forms are made once, from integer rows: ``push_forward`` makes each
coefficient one ``Fraction``, and the curve recomputes its matrix from them.

The two interpolation builders realize the classical facts that a rational
normal curve is determined by n+3 general points, and that points with
*assigned* parameter values can be hit as long as at most t+2 of them are
prescribed on a degree-t factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import prod
from operator import mul
from typing import Sequence

from . import linalg
from .binforms import BinaryForm, ParamPoint, distinct_parameters, divide_rows, gcd_rows, product_rows
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
)


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
        (ints, den), step = linalg.integerize([c for f in self.forms for c in f.coeffs]), self.degree + 1
        object.__setattr__(self, "integer_columns", (tuple(ints[k::step] for k in range(step)), den))

    @property
    def degree(self) -> int:
        return self.forms[0].degree

    def evaluate(self, p: ParamPoint) -> ProjPoint:
        # over Z: with u = a/b and v = c/e, u^(d-i) v^i = (ae)^(d-i) (cb)^i / (be)^d
        (cols, den), d = self.integer_columns, self.degree
        (a, b), (c, e) = ((x.numerator, x.denominator) for x in p.coords)
        powers = [(a * e) ** (d - i) * (c * b) ** i for i in range(d + 1)]
        scale = den * (b * e) ** d
        coords = tuple(Fraction(sum(map(mul, powers, row)), scale) for row in zip(*cols))
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
    return curve.degree == n and linalg.rank(curve.integer_columns[0], n + 1) == n + 1


def standard_rnc(n: int) -> RationalCurve:
    """The monomial curve (s^n, s^(n-1) t, ..., t^n)."""
    return RationalCurve(n, tuple(BinaryForm(n, tuple(int(j == i) for j in range(n + 1))) for i in range(n + 1)))


def _restrict(form: tuple, columns: tuple):
    """Yield ``(coeffs, scale)`` per row of the integer form ``(rows, k)``:
    ``sum_j row[j] / k * forms[j]`` is the integer ``coeffs`` divided by
    ``scale``, the forms' integer columns given."""
    (rows, k), (cols, den) = form, columns
    for row in rows:
        yield [sum(map(mul, row, col)) for col in cols], den * k


def _image_forms(image) -> tuple[BinaryForm, ...]:
    """The forms ``coeffs / scale`` of the pairs of ``image``, each
    coefficient one ``Fraction``."""
    return tuple(BinaryForm(len(cs) - 1, tuple(Fraction(c, k) for c in cs)) for cs, k in image)


def push_forward(columns: tuple, g: Projectivity) -> tuple[BinaryForm, ...]:
    """The coordinate forms of the curve with integer columns ``columns``
    moved by ``g``: the matrix rows multiplied into the columns over Z."""
    return _image_forms(_restrict((g.rows, g.den), columns))


def apply_projectivity(curve: ParamCurve, g: Projectivity) -> ParamCurve:
    """Transform the coordinate forms by the matrix of ``g``, over Z: the
    ``push_forward`` of the curve's integer columns."""
    if g.n != curve.ambient:
        raise ValueError("ambient mismatch")
    cls = RationalCurve if isinstance(curve, RationalCurve) else ParamCurve
    return cls(curve.ambient, push_forward(curve.integer_columns, g))


def intersection_degree(curve: ParamCurve, space: LinearSubspace) -> int:
    """Length of the scheme-theoretic intersection of the curve with a space.

    Substituting the parametrization into the space's linear equations gives
    one binary form per equation; the degree of their gcd counts parameters
    (with multiplicity) landing in the space.
    """
    if space.n != curve.ambient:
        raise ValueError("ambient mismatch")
    eqs = space.integer_equations
    if not eqs[0]:
        raise ValueError("intersection with the whole space is not finite")
    restricted = [cs for cs, _ in _restrict(eqs, curve.integer_columns)]
    if not any(map(any, restricted)):
        raise CurveInSubspaceSpan("curve lies inside the subspace")
    return len(gcd_rows(restricted)) - 1


def restrict_form(form: dict, curve: ParamCurve) -> BinaryForm:
    """Pull a degree-d form on P^n back to the parameter line (degree d*deg).

    ``form`` maps exponent tuples ``mu`` to coefficients ``c_mu``; the result
    is ``sum c_mu * prod_i curve.forms[i]^mu_i``, summed over Z.
    """
    degrees = {sum(mu) for mu in form}
    if len(degrees) != 1:
        raise ValueError("need a nonempty homogeneous form")
    d, (cols, den) = degrees.pop(), curve.integer_columns
    rows, (ws, k) = list(zip(*cols)), linalg.integerize([Fraction(c) for c in form.values()])
    acc = [0] * (d * curve.degree + 1)
    for mu, w in zip(form, ws):
        if w:
            for i, x in enumerate(product_rows([r for r, e in zip(rows, mu) for _ in range(e)])):
                acc[i] += w * x
    scale = k * den**d
    return BinaryForm(len(acc) - 1, tuple(Fraction(x, scale) for x in acc))


def rnc_through_points(points: Sequence[ProjPoint]) -> tuple[RationalCurve, list[ParamPoint]]:
    """The rational normal curve through n+3 general points of P^n.

    Normalizes the first n+2 points to the standard frame, reads off the
    image c of the last point, and interpolates with ``_frame_curve`` on the
    linear forms ``t - b_j s`` where ``b_j = 1/c_j``, with ``[0 : 1]`` as the
    last parameter, so every scale ``a_i`` is 1: over Z, ``rows (x / g) = w``
    for ``h_inv = rows / den`` and the last point ``w / k``, so ``b_j = g k /
    (x_j den)``.  Returns the curve together with the parameter values of
    the input points (in order).
    """
    if not points:
        raise ValueError("no points given")
    n = points[0].n
    if len(points) != n + 3:
        raise FrameDegenerate(f"need {n + 3} points in P^{n}, got {len(points)}")
    # h_inv sends the standard frame onto the first n+2 points, so the image
    # of the last point under h = h_inv^-1 solves h_inv c = point.
    h_inv = projectivity_from_frames(points[: n + 2])
    if points[n + 2].n != n:
        raise ValueError("ambient mismatch")
    w, k = linalg.integerize(points[n + 2].coords)
    x, g = linalg.solve_right(h_inv.rows, w, n + 1)
    if not all(x):
        raise CoincidentParameters("last point lies on a coordinate hyperplane of the frame")
    if len(set(x)) != n + 1:
        raise CoincidentParameters("two interpolation parameters collide")
    linear = [((-g * k, xj * h_inv.den), xj * h_inv.den) for xj in x]  # t - b_j s
    curve = _frame_curve(h_inv, linear, ParamPoint(0, 1))
    params = [ParamPoint(1, Fraction(g * k, xj * h_inv.den)) for xj in x]
    return curve, params + [ParamPoint(0, 1), ParamPoint(1, 0)]


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
    # a point's key over its leading entry: its coordinates scaled to a leading 1
    scaled = [tuple(Fraction(x, next(filter(None, p.key))) for x in p.key) for p in params + points]
    pad_seed = stable_mix("assigned-preimage-padding", tuple(scaled[:m]), tuple(scaled[m:]))
    rng = Rng(pad_seed)
    extra_params = [q for q in (ParamPoint(1, i) for i in range(t + 2)) if q not in params][: t + 2 - m]
    for _ in range(RESAMPLE_BUDGET):
        extra_points = [ProjPoint(t, rng.vector(t + 1)) for _ in range(t + 2 - m)]
        try:
            return _rnc_assigned_full(params + extra_params, points + extra_points)
        except (FrameDegenerate, CoincidentParameters, ValueError):
            continue
    raise GenericityExhausted("could not pad assigned-preimage data generically")


def _rnc_assigned_full(params: Sequence[ParamPoint], points: Sequence[ProjPoint]) -> RationalCurve:
    """Interpolation with exactly t+2 assigned (parameter, point) pairs:
    ``_frame_curve`` on the linear forms ``L_j = v s - u t`` vanishing at
    ``params[j] = [u : v]``, with ``params[t+1]`` as the last parameter."""
    t = points[0].n
    linear = [((v, -u), k) for (u, v), k in (linalg.integerize(p.coords) for p in params[: t + 1])]
    return _frame_curve(projectivity_from_frames(points), linear, params[t + 1])


def _frame_curve(h_inv: Projectivity, linear: Sequence[tuple], last: ParamPoint) -> RationalCurve:
    """The curve ``h_inv . psi`` with ``psi_i = a_i * prod_(j != i) L_j``.

    ``L_j`` vanishes at the parameter sent to the j-th frame point, and
    ``a_i = L_i(last)`` makes ``last`` go to the all-ones point, which
    ``h_inv`` sends to the last frame point.  ``linear[j]`` is ``(L~_j,
    m_j)``: the integer row ``L~_j = m_j L_j``.  Then ``psi_i = a_i m_i (P /
    L~_i) / prod m_j`` for the one product ``P = prod L~_j``; those rows
    are pushed forward by ``h_inv`` as they are, with no curve built of psi.
    """
    ints, dens = zip(*linear)
    p = product_rows(ints)
    # a_i m_i = L~_i(last) = L~_i(u~, v~) / w, with last = [u~/w : v~/w]
    (u, v), w = linalg.integerize(last.coords)
    psi = []
    for l_i in ints:
        e_i = l_i[0] * u + l_i[1] * v
        if not e_i:
            raise CoincidentParameters("last parameter collides with an assigned one")
        psi.append([e_i * q for q in divide_rows(p, l_i)])
    # is_rnc is invariant under projectivities: one check, on the image
    return RationalCurve(h_inv.n, push_forward((tuple(zip(*psi)), prod(dens) * w), h_inv))


def project_curve(curve: ParamCurve, center: LinearSubspace, strict: bool = False) -> ParamCurve:
    """Compose the parametrization with projection away from ``center``.

    The image forms are the center's ``integer_equations`` restricted to the
    curve, as in :func:`intersection_degree`.  Their common factor (the
    parameters mapping into the center) is their ``gcd_rows`` over Z, scaled
    to first nonzero coefficient 1, and each form is divided by it exactly,
    so the result has degree ``deg - deg(curve meet center)``.  With
    ``strict=True`` a positive-degree common factor raises
    ``CenterMeetsCurve`` instead.
    """
    if center.n != curve.ambient:
        raise ValueError("ambient mismatch")
    if center.dim < 0:
        raise ValueError("projection center must be nonempty")
    image = list(_restrict(center.integer_equations, curve.integer_columns))
    if not any(any(cs) for cs, _ in image):
        raise CurveInSubspaceSpan("curve lies inside the projection center")
    common = gcd_rows([cs for cs, _ in image])
    degree = len(common) - 1
    if degree > 0 and strict:
        raise CenterMeetsCurve(f"curve meets the center with multiplicity {degree}")
    lead = next(c for c in common if c)
    forms = _image_forms(([c * lead for c in divide_rows(cs, common)], k) for cs, k in image)
    return ParamCurve(len(forms) - 1, forms)
