"""Fixtures and oracles that only the tests use: random forms and
projectivities, the standard frame, membership and images of subspaces,
expected condition counts, the point case of the intersection degree, and
gcd rows normalized for comparison."""

from fractions import Fraction
from math import comb

from rncurves.arrangements import Configuration, monomials
from rncurves.errors import CurveInSubspaceSpan, GenericityExhausted
from rncurves.exactgeom import (
    RESAMPLE_BUDGET,
    LinearSubspace,
    Projectivity,
    ProjPoint,
    Rng,
    _apply,
    span,
    standard_point,
)
from rncurves.rnc import ParamCurve, intersection_degree


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
    return not any(_apply(space.equations(), p.coords))


def apply_subspace(g: Projectivity, s: LinearSubspace) -> LinearSubspace:
    """The image of ``s`` under ``g``."""
    if s.n != g.n:
        raise ValueError("ambient mismatch")
    return LinearSubspace.from_rows(g.n, [_apply(g.matrix, b) for b in s.basis])


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
