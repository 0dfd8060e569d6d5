"""Multiprojective coordinates for curves through points and linear spaces.

The birational model: for block sizes ``(n_1, ..., n_r)`` with sum n, the map
``phi`` sends a tuple of points ``(Q_1, ..., Q_r)`` to the point of P^n whose
0-th coordinate is ``prod_i x_0^(i)`` and whose i-th block holds
``x_k^(i) * prod_(j != i) x_0^(j)``.  It is an isomorphism off the
hyperplanes ``x_0^(i) = 0``; the i-th such hyperplane contracts onto the
coordinate subspace spanned by the i-th block, and those subspaces are the
canonical models of the linear-space components a witness curve must meet.

Building a curve through r spaces and s extra points then reduces to
interpolation inside each factor: pull the points back through ``phi``,
interpolate every factor with shared parameter values, and push the product
curve forward.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from math import prod
from typing import Sequence

from .binforms import BinaryForm, ParamPoint, distinct_parameters, product_rows
from .errors import BaseLocus, BoundViolated, DegenerateImage, OnContractedLocus
from .exactgeom import LinearSubspace, ProjPoint, adapted_alignment, span, standard_point
from .rnc import ParamCurve, RationalCurve, push_forward, rnc_through_points, rnc_with_assigned_preimages, standard_rnc


@dataclass(frozen=True)
class SegreContext:
    """Fixed block layout for a product of projective lines/planes/etc."""

    factor_dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.factor_dims)
        if not dims or any(d < 1 for d in dims):
            raise ValueError("factor dimensions must be positive")
        if list(dims) != sorted(dims):
            raise ValueError("factor dimensions must be sorted ascending")
        object.__setattr__(self, "factor_dims", dims)

    @property
    def r(self) -> int:
        return len(self.factor_dims)

    @property
    def n(self) -> int:
        return sum(self.factor_dims)

    def offsets(self) -> list[int]:
        """Starting coordinate index of each block (coordinate 0 is shared)."""
        return list(accumulate(self.factor_dims[:-1], initial=1))

    def point_bound(self) -> int:
        """Maximum number of extra general points a product curve can hit."""
        dims = self.factor_dims
        return dims[1] + 2 if self.r > 1 and dims[0] in (1, dims[1]) else dims[0] + 3


MultiPoint = tuple[ProjPoint, ...]


@dataclass(frozen=True)
class MultiCurve:
    """One rational-normal parametrization per factor, degrees (n_1..n_r)."""

    context: SegreContext
    factors: tuple[ParamCurve, ...]

    def __post_init__(self):
        if len(self.factors) != self.context.r:
            raise ValueError("one factor curve per block")
        for crv, d in zip(self.factors, self.context.factor_dims):
            if crv.ambient != d or crv.degree != d:
                raise DegenerateImage(f"factor must be a degree-{d} curve in P^{d}")


def phi(ctx: SegreContext, q: MultiPoint) -> ProjPoint:
    """Push a tuple of factor points into P^n.

    Raises BaseLocus when two or more factor points lie on their
    ``x_0 = 0`` hyperplane (the map is undefined there).
    """
    if len(q) != ctx.r:
        raise ValueError("one point per factor")
    for p, d in zip(q, ctx.factor_dims):
        if p.n != d:
            raise ValueError("factor point has wrong ambient dimension")
    zeroes = sum(1 for p in q if not p.coords[0])
    if zeroes >= 2:
        raise BaseLocus("two or more factor points lie on the contracted hyperplanes")
    lead = [p.coords[0] for p in q]
    coords = [prod(lead)]
    for i, p in enumerate(q):  # the blocks are consecutive, in factor order
        coords += (x * prod(lead[:i] + lead[i + 1 :]) for x in p.coords[1:])
    return ProjPoint(ctx.n, tuple(coords))


def phi_inverse(ctx: SegreContext, y: ProjPoint) -> MultiPoint:
    """Invert the block map at a point off the contracted hyperplane."""
    if y.n != ctx.n:
        raise ValueError("ambient mismatch")
    y0 = y.coords[0]
    if not y0:
        raise OnContractedLocus("inverse undefined where the 0-th coordinate vanishes")
    return tuple(ProjPoint(d, (y0, *y.coords[off : off + d])) for d, off in zip(ctx.factor_dims, ctx.offsets()))


def canonical_contracted_spaces(ctx: SegreContext) -> list[LinearSubspace]:
    """The coordinate subspace each factor's hyperplane contracts onto."""
    return [
        span([standard_point(ctx.n, off + k) for k in range(d)])
        for d, off in zip(ctx.factor_dims, ctx.offsets())
    ]


def product_curve(ctx: SegreContext, points: Sequence[MultiPoint]) -> tuple[MultiCurve, list[ParamPoint]]:
    """Interpolate every factor through the given multi-points.

    All factors share the parameter values, so the product map hits
    ``points[i]`` at the i-th value; the values are returned with the curve.
    The number of points must not exceed the interpolation bound of the block
    profile.  A line block takes the values from its own coordinates; with
    exactly ``n_1 + 3`` points the first factor determines them, otherwise
    stock values ``[1 : i]`` are assigned.  With no points, the lead form of
    each block vanishes at ``[1 : c]`` for c over the block's own coordinate
    indices, so no two lead forms share a root.
    """
    s = len(points)
    bound = ctx.point_bound()
    if s > bound:
        raise BoundViolated(f"{s} points exceed the bound {bound} for blocks {ctx.factor_dims}")
    for q in points:
        if len(q) != ctx.r:
            raise ValueError("each multipoint needs one factor per block")
    if not points:
        factors = []
        for d, off in zip(ctx.factor_dims, ctx.offsets()):
            lead = BinaryForm(d, tuple(product_rows([(off + k, -1) for k in range(d)])))  # vanishes at [1 : off+k]
            factors.append(RationalCurve(d, (lead,) + standard_rnc(d).forms[:d]))
        return MultiCurve(ctx, tuple(factors)), []
    n1 = ctx.factor_dims[0]
    factor_points = [[q[i] for q in points] for i in range(ctx.r)]
    rest_start = 0
    factors: list[ParamCurve] = []
    if n1 == 1:
        # Identity on a line block: take the parameter values to *be* the
        # first-factor coordinates, so the block is matched for free and
        # only the higher blocks constrain anything.
        params = factor_points[0]
        distinct_parameters(params)
        factors = [standard_rnc(1)]
        rest_start = 1
    elif s == n1 + 3:
        first, params = rnc_through_points(factor_points[0])
        factors = [first]
        rest_start = 1
    else:
        params = [ParamPoint(1, i) for i in range(s)]
    for i in range(rest_start, ctx.r):
        factors.append(rnc_with_assigned_preimages(params, factor_points[i]))
    return MultiCurve(ctx, tuple(factors)), params


def _phi_columns(mc: MultiCurve) -> tuple:
    """The integer columns ``(cols, den)`` of the composition of ``mc`` with
    ``phi``: the product of the factors' lead rows, then each block's rows
    times the other lead rows, on the product of the factors' denominators.
    Should two lead forms share a root, every image form vanishes there."""
    blocks = [list(zip(*crv.integer_columns[0])) for crv in mc.factors]
    leads = [rows[0] for rows in blocks]
    model = [product_rows(leads)]
    for i, rows in enumerate(blocks):
        others = product_rows(leads[:i] + leads[i + 1 :])
        model += (product_rows([row, others]) for row in rows[1:])
    return tuple(zip(*model)), prod(crv.integer_columns[1] for crv in mc.factors)


def witness_curve(spaces: Sequence[LinearSubspace], points: Sequence[ProjPoint]) -> RationalCurve:
    """A rational normal curve meeting each space maximally and hitting points.

    The spaces are independent and their dim+1 sum to n, so they span a
    hyperplane.  They are aligned onto coordinate blocks: the points are pulled
    back by the inverse of the alignment frame, every factor is interpolated,
    and the frame pushes the composition forward from its integer columns
    (``_phi_columns``), with no model curve built.  Should two lead forms
    share a root, ``RationalCurve`` rejects the image as ``DegenerateImage``,
    its one check here; :func:`rncurves.feasibility.verify_witness` is the
    exact check of every built witness.
    """
    if not spaces:
        raise ValueError("need at least one space")
    order = sorted(range(len(spaces)), key=lambda i: spaces[i].dim)
    spaces_sorted = [spaces[i] for i in order]
    ctx = SegreContext(tuple(s.dim + 1 for s in spaces_sorted))
    frame = adapted_alignment(spaces_sorted)
    pull = frame.inverse()
    # phi_inverse raises OnContractedLocus for a point on the spaces' hyperplane
    multi = [phi_inverse(ctx, pull.apply(p)) for p in points]
    mc, _ = product_curve(ctx, multi)
    # is_rnc is invariant under projectivities: one check, on the image
    return RationalCurve(ctx.n, push_forward(_phi_columns(mc), frame))
