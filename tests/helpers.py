"""Fixtures and oracles that only the tests use: random forms and
projectivities, the standard frame, membership and images of subspaces,
expected condition counts, the point case of the intersection degree, gcd
rows normalized for comparison, the Fraction algebra of ``BinaryForm``s
(the zero form, the linear form vanishing at a parameter, evaluation,
scaling and products), and the Fraction constructions of curves built on it
(products of forms pushed forward by Fraction sums, frame maps solved by
sympy) that the integer builders of ``rnc`` and ``segre`` must reproduce."""

from fractions import Fraction
from math import comb

import sympy

from rncurves.arrangements import Configuration, monomials
from rncurves.binforms import BinaryForm, ParamPoint
from rncurves.errors import CurveInSubspaceSpan, GenericityExhausted
from rncurves.exactgeom import (
    RESAMPLE_BUDGET,
    LinearSubspace,
    Projectivity,
    ProjPoint,
    Rng,
    _apply,
    adapted_alignment,
    span,
    standard_point,
)
from rncurves.rnc import ParamCurve, intersection_degree
from rncurves.segre import MultiCurve, SegreContext, phi_inverse, product_curve


def random_form(nvars: int, degree: int, rng) -> dict:
    """Random form with bounded integer coefficients (not identically 0)."""
    monos = monomials(nvars, degree)
    while True:
        form = {m: c for m, c in zip(monos, rng.vector(len(monos))) if c}
        if form:
            return form


def sample_projectivity(n: int, rng: Rng) -> Projectivity:
    """Random invertible matrix with bounded integer entries."""
    for _ in range(RESAMPLE_BUDGET):
        m = tuple(rng.vector(n + 1) for _ in range(n + 1))
        try:
            return Projectivity(m)
        except ValueError:  # singular: draw again
            pass
    raise GenericityExhausted(f"could not sample a projectivity of P^{n}")


def unit_point(n: int) -> ProjPoint:
    """The all-ones point [1 : 1 : ... : 1]."""
    return ProjPoint(n, (Fraction(1),) * (n + 1))


def standard_frame(n: int) -> list[ProjPoint]:
    """e_0, ..., e_n followed by the all-ones point."""
    return [standard_point(n, i) for i in range(n + 1)] + [unit_point(n)]


def contains(space: LinearSubspace, p: ProjPoint) -> bool:
    """Whether ``p`` lies on ``space``: every equation of the space vanishes at it."""
    if p.n != space.n:
        raise ValueError("ambient mismatch")
    return not any(_apply(space.integer_equations, p.coords))


def apply_subspace(g: Projectivity, s: LinearSubspace) -> LinearSubspace:
    """The image of ``s`` under ``g``."""
    if s.n != g.n:
        raise ValueError("ambient mismatch")
    return LinearSubspace.from_rows(g.n, [_apply((g.rows, g.den), b) for b in s.basis])


def without(config: Configuration, index: int) -> Configuration:
    """``config`` with component ``index`` dropped."""
    if not 0 <= index < len(config.components):
        raise IndexError(f"no component {index}")
    return Configuration(config.n, config.components[:index] + config.components[index + 1 :])


def transformed(config: Configuration, g: Projectivity) -> Configuration:
    """The image of every component of ``config`` under ``g``."""
    return Configuration(config.n, tuple((apply_subspace(g, s), m) for s, m in config.components))


def expected_conditions(n: int, k: int, mult: int, d: int) -> int:
    """Number of condition rows a fat component contributes in degree d."""
    return sum(comb(n - k - 1 + j, j) * comb(k + d - j, k) for j in range(min(mult, d + 1)))


def passes_through(curve: ParamCurve, point: ProjPoint) -> bool:
    """Exact membership test: the dimension-0 case of ``intersection_degree``,
    with its two ``ValueError``s.  A curve whose image is the point
    (``CurveInSubspaceSpan``) passes through it."""
    try:
        return intersection_degree(curve, span([point])) >= 1
    except CurveInSubspaceSpan:
        return True


def monic_row(row) -> tuple[Fraction, ...]:
    """``row`` divided by its first nonzero entry, so that gcds found up to a
    sign or a constant compare equal (``project_curve`` scales the same way)."""
    lead = next(c for c in row if c)
    return tuple(Fraction(c) / lead for c in row)


def zero_form(degree: int) -> BinaryForm:
    """The zero form of this degree."""
    return BinaryForm(degree, (Fraction(0),) * (degree + 1))


def vanishing_at(p: ParamPoint) -> BinaryForm:
    """The linear form v*s - u*t, zero exactly at [u : v]."""
    u, v = p.coords
    return BinaryForm(1, (v, -u))


def evaluate_form(f: BinaryForm, u, v) -> Fraction:
    """The value of ``f`` at (s, t) = (u, v), summed in Fractions."""
    u, v = Fraction(u), Fraction(v)
    acc = Fraction(0)
    for i, c in enumerate(f.coeffs):
        if c:
            acc += c * u ** (f.degree - i) * v**i
    return acc


def evaluate_form_at(f: BinaryForm, p: ParamPoint) -> Fraction:
    """The value of ``f`` at the coordinates of the parameter point ``p``."""
    return evaluate_form(f, *p.coords)


def scale_form(f: BinaryForm, c) -> BinaryForm:
    """``f`` with every coefficient multiplied by ``c``."""
    c = Fraction(c)
    return BinaryForm(f.degree, tuple(c * x for x in f.coeffs))


def mul_forms(f: BinaryForm, g: BinaryForm) -> BinaryForm:
    """The product of two binary forms, by Fraction convolution."""
    d = f.degree + g.degree
    out = [Fraction(0)] * (d + 1)
    for i, a in enumerate(f.coeffs):
        if a:
            for j, b in enumerate(g.coeffs):
                if b:
                    out[i + j] += a * b
    return BinaryForm(d, tuple(out))


def product(forms) -> BinaryForm:
    """The product of binary forms by ``mul_forms``."""
    acc = BinaryForm(0, (1,))
    for f in forms:
        acc = mul_forms(acc, f)
    return acc


def pushed_forms(forms, matrix) -> tuple[BinaryForm, ...]:
    """The coordinate forms ``forms`` transformed by ``matrix``, as sums of
    Fraction products."""
    d = forms[0].degree
    return tuple(
        BinaryForm(d, tuple(sum((w * f.coeffs[k] for w, f in zip(row, forms)), Fraction(0)) for k in range(d + 1)))
        for row in matrix
    )


def frame_forms(h_inv, linear, last: ParamPoint) -> tuple[BinaryForm, ...]:
    """The forms of ``h_inv . psi``, ``psi_i = L_i(last) * prod_(j != i) L_j``,
    for the matrix ``h_inv`` and the linear ``BinaryForm``s ``linear``, built
    as products of forms."""
    psi = [
        scale_form(product(linear[:i] + linear[i + 1 :]), evaluate_form_at(l_i, last)) for i, l_i in enumerate(linear)
    ]
    return pushed_forms(psi, h_inv)


def sympy_solve(matrix, rhs) -> tuple[Fraction, ...]:
    """The solution of the nonsingular square system ``matrix x = rhs``,
    solved by sympy and returned as Fractions."""
    def rational(x):
        return sympy.Rational(x.numerator, x.denominator)

    x = sympy.Matrix([[rational(v) for v in row] for row in matrix]).LUsolve(sympy.Matrix([rational(v) for v in rhs]))
    return tuple(Fraction(int(v.p), int(v.q)) for v in x)


def frame_matrix(points) -> tuple[tuple[Fraction, ...], ...]:
    """The matrix sending the standard frame to the n+2 ``points``: the first
    n+1 points as columns, scaled by the sympy solution of ``sum lam_i p_i =
    p_(n+1)``, in Fractions."""
    n = points[0].n
    base = [p.coords for p in points[: n + 1]]
    lam = sympy_solve(list(zip(*base)), points[n + 1].coords)
    return tuple(tuple(lam[i] * base[i][row] for i in range(n + 1)) for row in range(n + 1))


def reference_rnc_through_points(points) -> tuple[BinaryForm, ...]:
    """The forms ``rnc_through_points`` returns, built in Fractions."""
    n = points[0].n
    h_inv = frame_matrix(points[: n + 2])
    c = sympy_solve(h_inv, points[n + 2].coords)
    linear = [BinaryForm(1, (-1 / ci, 1)) for ci in c]
    return frame_forms(h_inv, linear, ParamPoint(0, 1))


def reference_rnc_assigned(params, points) -> tuple[BinaryForm, ...]:
    """The forms ``rnc_with_assigned_preimages`` returns for t+2 pairs,
    built in Fractions."""
    t = points[0].n
    linear = [vanishing_at(p) for p in params[: t + 1]]
    return frame_forms(frame_matrix(points), linear, params[t + 1])


def phi_forms(mc: MultiCurve) -> tuple[BinaryForm, ...]:
    """Coordinate forms of the push-forward of a multi-curve through ``phi``,
    as products of the factors' forms."""
    ctx = mc.context
    leads = [f.forms[0] for f in mc.factors]
    forms = [product(leads)]
    for i, crv in enumerate(mc.factors):
        base = product(leads[:i] + leads[i + 1 :])
        forms += (mul_forms(crv.forms[k], base) for k in range(1, ctx.factor_dims[i] + 1))
    return tuple(forms)


def reference_witness_curve(spaces, points) -> tuple[BinaryForm, ...]:
    """The forms ``witness_curve`` returns, composed through ``phi`` and
    pushed by the alignment frame in Fractions."""
    spaces = sorted(spaces, key=lambda s: s.dim)
    ctx = SegreContext(tuple(s.dim + 1 for s in spaces))
    frame = adapted_alignment(spaces)
    pull = frame.inverse()
    mc, _ = product_curve(ctx, [phi_inverse(ctx, pull.apply(p)) for p in points])
    return pushed_forms(phi_forms(mc), frame.matrix)

