"""Exact projective geometry over the rationals.

Points, linear subspaces, projectivities, and a deterministic sampler for
"generic" rational data.  Every value is exact: coordinates, bases and
matrices are ``fractions.Fraction``, and the integer generators of a subspace
are Python ints.  No floating point enters any predicate.

Conventions
-----------
* ``P^n`` has homogeneous coordinates ``x_0 .. x_n``; points act as column
  vectors, so a projectivity with matrix ``M`` sends ``x`` to ``M x``.
* A ``LinearSubspace`` stores a reduced-row-echelon basis of its row space,
  which makes equality and membership tests canonical, and ``dim+1`` integer
  rows spanning the same space (``generators``), which the Hilbert condition
  matrices and the pairwise genericity test are built from.  A sampled
  subspace keeps the bounded integer rows it was drawn from; any other gets
  the primitive integer multiples of its basis rows.  The empty subspace has
  dimension -1.
* A subspace has one set of linear forms, ``equations()``: for each
  non-pivot column f of the echelon basis, the form with 1 at f and
  ``-basis[i][f]`` at the i-th pivot column.  Membership, meets, projection
  and the restriction of a curve all read these forms.
* ``project_from`` projects away from a center by the matrix of its
  equations.  The target coordinates are the pivot-complement coordinates,
  in increasing order, each with the center component subtracted.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import (
    FrameDegenerate,
    GenericityExhausted,
    InCenter,
    NotComplementary,
)
from . import linalg

DEFAULT_HEIGHT = 10_000
RESAMPLE_BUDGET = 16


def stable_mix(*parts) -> int:
    """Order-sensitive 63-bit hash of ints/strings/nested tuples.

    Independent of PYTHONHASHSEED and platform, so derived seeds are
    reproducible across runs.
    """
    h = hashlib.sha256()

    def feed(obj):
        if isinstance(obj, bool):
            h.update(b"b" + (b"1" if obj else b"0"))
        elif isinstance(obj, int):
            h.update(b"i" + str(obj).encode() + b";")
        elif isinstance(obj, str):
            h.update(b"s" + obj.encode() + b"\x00")
        elif isinstance(obj, Fraction):
            h.update(b"q" + str(obj.numerator).encode() + b"/" + str(obj.denominator).encode() + b";")
        elif isinstance(obj, (tuple, list)):
            h.update(b"(")
            for item in obj:
                feed(item)
            h.update(b")")
        else:
            raise TypeError(f"unhashable part {type(obj)!r}")

    for p in parts:
        feed(p)
    return int.from_bytes(h.digest()[:8], "big") & (2**63 - 1)


class Rng:
    """Deterministic source of bounded rational scalars.

    A thin wrapper around :class:`random.Random` that only ever emits exact
    ``Fraction`` values, integers of absolute value at most ``DEFAULT_HEIGHT``
    (so all downstream arithmetic stays in small integers).
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._r = random.Random(self.seed)

    def integer(self, lo: int, hi: int) -> int:
        return self._r.randrange(lo, hi + 1)

    def rational(self) -> Fraction:
        return Fraction(self.integer(-DEFAULT_HEIGHT, DEFAULT_HEIGHT))

    def vector(self, length: int) -> tuple[Fraction, ...]:
        return tuple(self.rational() for _ in range(length))

    def derive(self, *tags) -> "Rng":
        """Independent child stream, stable under the tag sequence."""
        return Rng(stable_mix(self.seed, *tags))


@dataclass(frozen=True)
class ProjPoint:
    """Point of P^n; equality compares the normalized coordinate vector."""

    n: int
    coords: tuple[Fraction, ...]

    def __post_init__(self):
        coords = tuple(Fraction(c) for c in self.coords)
        if len(coords) != self.n + 1:
            raise ValueError("coordinate length must be n+1")
        if not any(coords):
            raise ValueError("the zero vector is not a projective point")
        object.__setattr__(self, "coords", coords)

    def normalized(self) -> tuple[Fraction, ...]:
        for c in self.coords:
            if c:
                inv = 1 / c
                return tuple(x * inv for x in self.coords)
        raise AssertionError("unreachable: zero point")

    def __eq__(self, other):
        if not isinstance(other, ProjPoint):
            return NotImplemented
        return self.n == other.n and self.normalized() == other.normalized()

    def __hash__(self):
        return hash((self.n, self.normalized()))


def standard_point(n: int, i: int) -> ProjPoint:
    """The coordinate point e_i of P^n."""
    return ProjPoint(n, tuple(Fraction(int(j == i)) for j in range(n + 1)))


def unit_point(n: int) -> ProjPoint:
    """The all-ones point [1 : 1 : ... : 1]."""
    return ProjPoint(n, (Fraction(1),) * (n + 1))


@dataclass(frozen=True)
class LinearSubspace:
    """Linear subspace of P^n, stored as an echelonized basis of rows.

    ``generators`` are ``dim+1`` integer rows spanning the same space; they
    take no part in equality, hashing or serialization.  When not given they
    are the primitive integer multiples of the basis rows.  ``equations()``
    is computed once, on first use.
    """

    n: int
    basis: tuple[tuple[Fraction, ...], ...]
    generators: tuple[tuple[int, ...], ...] = field(default=None, compare=False)
    _equations: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.generators is None:
            object.__setattr__(
                self, "generators", tuple(tuple(linalg.primitive(linalg.integerize(r))) for r in self.basis)
            )

    @classmethod
    def from_rows(cls, n: int, rows: Iterable[Sequence]) -> "LinearSubspace":
        clean = [tuple(Fraction(x) for x in r) for r in rows]
        for r in clean:
            if len(r) != n + 1:
                raise ValueError("row length must be n+1")
        red, _ = linalg.rref(clean, n + 1)
        return cls(n, tuple(red))

    @classmethod
    def from_points(cls, points: Sequence[ProjPoint]) -> "LinearSubspace":
        if not points:
            raise ValueError("need at least one point")
        n = points[0].n
        return cls.from_rows(n, [p.coords for p in points])

    @classmethod
    def empty(cls, n: int) -> "LinearSubspace":
        return cls(n, ())

    @property
    def dim(self) -> int:
        return len(self.basis) - 1

    def pivot_columns(self) -> tuple[int, ...]:
        piv = []
        for row in self.basis:
            for j, x in enumerate(row):
                if x:
                    piv.append(j)
                    break
        return tuple(piv)

    def contains(self, p: ProjPoint) -> bool:
        if p.n != self.n:
            raise ValueError("ambient mismatch")
        return not any(_apply(self.equations(), p.coords))

    def equations(self) -> tuple[tuple[Fraction, ...], ...]:
        """Linear forms cutting out the subspace (nullspace of the basis)."""
        if self._equations is None:
            object.__setattr__(self, "_equations", tuple(linalg.nullspace(self.basis, self.n + 1)))
        return self._equations

    def points(self) -> list[ProjPoint]:
        return [ProjPoint(self.n, row) for row in self.basis]


def _apply(matrix, v) -> tuple:
    """The column vector ``matrix . v``."""
    return tuple(sum(a * b for a, b in zip(row, v)) for row in matrix)


def span(parts: Sequence) -> LinearSubspace:
    """Projective span of points and/or subspaces (must share an ambient)."""
    rows = []
    n = None
    for part in parts:
        if isinstance(part, ProjPoint):
            m, rs = part.n, [part.coords]
        elif isinstance(part, LinearSubspace):
            m, rs = part.n, list(part.basis)
        else:
            raise TypeError(f"cannot span {type(part)!r}")
        if n is None:
            n = m
        elif n != m:
            raise ValueError("mixed ambient dimensions")
        rows.extend(rs)
    if n is None:
        raise ValueError("empty span request")
    return LinearSubspace.from_rows(n, rows)


def meet(a: LinearSubspace, b: LinearSubspace) -> LinearSubspace:
    """Intersection of two subspaces (possibly empty, dim -1)."""
    if a.n != b.n:
        raise ValueError("mixed ambient dimensions")
    eqs = list(a.equations()) + list(b.equations())
    if not eqs:
        return a
    rows = linalg.nullspace(eqs, a.n + 1)
    return LinearSubspace(a.n, tuple(linalg.rref(rows, a.n + 1)[0]))


@dataclass(frozen=True)
class Projectivity:
    """Invertible (n+1)x(n+1) matrix acting on column coordinate vectors.

    The constructor rejects a singular matrix with ``ValueError``; the test
    is the exact ``linalg.rank``.  ``inverse`` skips it, because the inverse
    of a nonsingular matrix is nonsingular.
    """

    matrix: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        m = tuple(tuple(Fraction(x) for x in r) for r in self.matrix)
        n = len(m)
        if any(len(r) != n for r in m):
            raise ValueError("matrix must be square")
        if linalg.rank(m, n) != n:
            raise ValueError("matrix is singular")
        object.__setattr__(self, "matrix", m)

    @property
    def n(self) -> int:
        return len(self.matrix) - 1

    def apply(self, p: ProjPoint) -> ProjPoint:
        if p.n != self.n:
            raise ValueError("ambient mismatch")
        return ProjPoint(self.n, _apply(self.matrix, p.coords))

    def apply_subspace(self, s: LinearSubspace) -> LinearSubspace:
        if s.n != self.n:
            raise ValueError("ambient mismatch")
        return LinearSubspace.from_rows(self.n, [_apply(self.matrix, b) for b in s.basis])

    def inverse(self) -> "Projectivity":
        inv = object.__new__(Projectivity)
        object.__setattr__(inv, "matrix", linalg.invert(self.matrix, self.n + 1))
        return inv


def projectivity_from_frames(src: Sequence[ProjPoint], dst: Sequence[ProjPoint]) -> Projectivity:
    """The unique projectivity mapping one frame of n+2 points to another.

    A frame is n+2 points of P^n with every (n+1)-subset independent; the
    classical construction scales the first n+1 source columns so that they
    sum to the last point, and likewise for the target.
    """

    def frame_matrix(points):
        n = points[0].n
        if len(points) != n + 2:
            raise FrameDegenerate(f"need {n + 2} points, got {len(points)}")
        base = [p.coords for p in points[: n + 1]]
        lam = linalg.solve_right(
            [tuple(base[i][row] for i in range(n + 1)) for row in range(n + 1)],
            points[n + 1].coords,
            n + 1,
        )
        if lam is None or not all(lam):
            raise FrameDegenerate("frame points are in special position")
        return tuple(tuple(lam[i] * base[i][row] for i in range(n + 1)) for row in range(n + 1))

    a = frame_matrix(list(src))
    b = frame_matrix(list(dst))
    n1 = len(a)
    a_inv = linalg.invert(a, n1)
    m = tuple(
        tuple(sum(b[i][k] * a_inv[k][j] for k in range(n1) if a_inv[k][j]) for j in range(n1))
        for i in range(n1)
    )
    return Projectivity(m)


def standard_frame(n: int) -> list[ProjPoint]:
    """e_0, ..., e_n followed by the all-ones point."""
    return [standard_point(n, i) for i in range(n + 1)] + [unit_point(n)]


def project_from(center: LinearSubspace, obj):
    """Project a point or subspace away from ``center`` onto ``P^(n - dim center - 1)``
    by the matrix of ``center.equations()``; a point or subspace inside the
    center maps to zero and raises ``InCenter``."""
    if not isinstance(obj, (ProjPoint, LinearSubspace)):
        raise TypeError(f"cannot project {type(obj)!r}")
    if obj.n != center.n:
        raise ValueError("ambient mismatch")
    matrix = center.equations()
    target = len(matrix) - 1
    if isinstance(obj, ProjPoint):
        image = _apply(matrix, obj.coords)
        if not any(image):
            raise InCenter("point lies in the projection center")
        return ProjPoint(target, image)
    rows = [row for row in (_apply(matrix, b) for b in obj.basis) if any(row)]
    if not rows:
        raise InCenter("subspace lies in the projection center")
    return LinearSubspace.from_rows(target, rows)


def adapted_alignment(spaces: Sequence[LinearSubspace]) -> Projectivity:
    """Projectivity moving independent subspaces onto coordinate blocks.

    The spaces must be mutually independent with total dimension filling a
    hyperplane: ``sum(dim_i + 1) = n``.  The result ``g`` maps space ``i``
    onto the span of the i-th consecutive block of coordinate points inside
    ``{x_0 = 0}``, blocks ordered as the input.  The hyperplane complement
    direction is the first coordinate point not contained in the common span.
    """
    if not spaces:
        raise NotComplementary("no spaces given")
    n = spaces[0].n
    if any(s.n != n for s in spaces):
        raise NotComplementary("mixed ambient dimensions")
    rows = []
    for s in spaces:
        rows.extend(s.basis)
    if len(rows) != n:
        raise NotComplementary(f"block dimensions sum to {len(rows)}, expected {n}")
    if linalg.rank(rows, n + 1) != n:
        raise NotComplementary("spaces are not mutually independent")
    v = None
    for i in range(n + 1):
        probe = rows + [tuple(Fraction(int(j == i)) for j in range(n + 1))]
        if linalg.rank(probe, n + 1) == n + 1:
            v = probe[-1]
            break
    assert v is not None
    cols = [v] + rows
    b = tuple(tuple(cols[j][i] for j in range(n + 1)) for i in range(n + 1))
    return Projectivity(linalg.invert(b, n + 1))


def sample_point(n: int, rng: Rng) -> ProjPoint:
    """Random point of P^n with bounded integer coordinates."""
    while True:
        v = rng.vector(n + 1)
        if any(v):
            return ProjPoint(n, v)


def sample_generic_subspace(n: int, k: int, rng: Rng) -> LinearSubspace:
    """Random k-dimensional subspace of P^n; resamples on rank drop."""
    if not -1 <= k <= n:
        raise ValueError("need -1 <= k <= n")
    if k == -1:
        return LinearSubspace.empty(n)
    for _ in range(RESAMPLE_BUDGET):
        generators = tuple(tuple(x.numerator for x in rng.vector(n + 1)) for _ in range(k + 1))
        basis, _ = linalg.rref(generators, n + 1)
        if len(basis) == k + 1:
            return LinearSubspace(n, tuple(basis), generators)
    raise GenericityExhausted(f"could not sample a {k}-space in P^{n}")


def sample_point_on(s: LinearSubspace, rng: Rng) -> ProjPoint:
    """Random point on a subspace (a bounded combination of its basis)."""
    if s.dim < 0:
        raise ValueError("cannot sample from the empty subspace")
    while True:
        coeffs = rng.vector(s.dim + 1)
        if not any(coeffs):
            continue
        v = [Fraction(0)] * (s.n + 1)
        for c, row in zip(coeffs, s.basis):
            if c:
                v = [a + c * b for a, b in zip(v, row)]
        if any(v):
            return ProjPoint(s.n, tuple(v))


def sample_projectivity(n: int, rng: Rng) -> Projectivity:
    """Random invertible matrix with bounded integer entries."""
    for _ in range(RESAMPLE_BUDGET):
        m = tuple(rng.vector(n + 1) for _ in range(n + 1))
        try:
            return Projectivity(m)
        except ValueError:  # singular: draw again
            pass
    raise GenericityExhausted(f"could not sample a projectivity of P^{n}")
