"""Exact projective geometry over the rationals.

Points, linear subspaces, projectivities, and a deterministic sampler for
"generic" rational data.  Every value is exact and no floating point enters
any predicate.  Subspaces are integer rows inside; point coordinates and
projectivity matrices are ``fractions.Fraction``, and so are the subspace
values read at the edges: ``basis``, ``equations()`` and sampled points.

Conventions
-----------
* ``P^n`` has homogeneous coordinates ``x_0 .. x_n``; points act as column
  vectors, so a projectivity with matrix ``M`` sends ``x`` to ``M x``.
* A ``LinearSubspace`` is ``dim+1`` integer rows (``generators``): the
  draw's rank test, the pairwise genericity test and the Hilbert condition
  matrices read only them and their one cached echelon mod p
  (``modular_echelon``).  Its one canonical form is ``echelon``, the
  reduced row echelon form over Z, each row primitive with a positive
  pivot; equality and hashing read it, and ``basis``, the RREF over Q that
  ``repr`` and serialization show, is it divided by the pivots.  A sampled
  subspace keeps the bounded rows it was drawn from and builds its echelon
  on first use; any other is generated by its echelon rows.  The empty
  subspace has dimension -1.
* A subspace has one set of linear forms, ``equations()``: for each
  non-pivot column f of the echelon, the form with 1 at f and
  ``-row[f] / row[pivot]`` at the pivot column of each echelon row.  Meets,
  projection and the restriction of a curve all read these forms.
* ``project_from`` projects away from a center by the matrix of its
  equations.  The target coordinates are the pivot-complement coordinates,
  in increasing order, each with the center component subtracted.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul
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
    """Order-sensitive 63-bit hash of ints, strings, Fractions and nested tuples.

    Independent of PYTHONHASHSEED and platform, so derived seeds are
    reproducible across runs.
    """
    h = hashlib.sha256()
    for p in parts:
        _feed(h, p)
    return int.from_bytes(h.digest()[:8], "big") & (2**63 - 1)


def _feed(h, obj) -> None:
    """Feed one part of :func:`stable_mix` to the hash state ``h``.

    A module-level function, not a closure: a recursive closure refers to
    itself through its cell, so each call would leave a reference cycle
    for the cyclic collector.
    """
    if isinstance(obj, int):
        h.update(b"i" + str(obj).encode() + b";")
    elif isinstance(obj, str):
        h.update(b"s" + obj.encode() + b"\x00")
    elif isinstance(obj, Fraction):
        h.update(b"q" + str(obj.numerator).encode() + b"/" + str(obj.denominator).encode() + b";")
    elif isinstance(obj, (tuple, list)):
        h.update(b"(")
        for item in obj:
            _feed(h, item)
        h.update(b")")
    else:
        raise TypeError(f"unhashable part {type(obj)!r}")


class Rng:
    """Deterministic source of bounded integer scalars.

    A thin wrapper around :class:`random.Random` that emits Python ints of
    absolute value at most ``DEFAULT_HEIGHT`` (so all downstream arithmetic
    stays in small integers); callers that need ``Fraction`` convert at their
    edge, as ``ProjPoint`` and ``Projectivity`` do.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._r = random.Random(self.seed)

    def integer(self, lo: int, hi: int) -> int:
        return self._r.randrange(lo, hi + 1)

    def vector(self, length: int) -> tuple[int, ...]:
        return tuple(self.integer(-DEFAULT_HEIGHT, DEFAULT_HEIGHT) for _ in range(length))

    def derive(self, *tags) -> "Rng":
        """Independent child stream, stable under the tag sequence."""
        return Rng(stable_mix(self.seed, *tags))


@dataclass(frozen=True)
class ProjPoint:
    """Point of P^n; equality compares the normalized coordinate vector."""

    n: int
    coords: tuple[Fraction, ...]

    def __post_init__(self):
        coords = tuple(c if type(c) is Fraction else Fraction(c) for c in self.coords)
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


@dataclass(frozen=True)
class LinearSubspace:
    """Linear subspace of P^n spanned by ``dim+1`` independent integer rows.

    ``generators`` are the rows as given: the draw of a sampled subspace,
    the ``echelon`` rows of any other.  ``echelon`` is their reduced row
    echelon form over Z, each row primitive with a positive pivot, built on
    first read; it is the canonical form that equality and hashing read.
    ``basis`` is the echelon with each row divided by its pivot, the RREF
    over Q that ``repr`` and serialization show.
    """

    n: int
    generators: tuple[tuple[int, ...], ...]

    @cached_property
    def echelon(self) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
        """``linalg.reduced_echelon`` of the generators: rows and pivot columns."""
        rows, pivots = linalg.reduced_echelon(self.generators, self.n + 1)
        return tuple(rows), tuple(pivots)

    @cached_property
    def basis(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(Fraction(x, r[p]) for x in r) for r, p in zip(*self.echelon))

    @cached_property
    def modular_echelon(self) -> tuple[tuple[int, ...], list[list[int]]]:
        """``linalg.echelon_mod_p`` of the generators: the pivot columns
        and rows of their echelon form mod p.  When it has ``dim+1`` rows,
        the generators are independent, and their minor on its pivot
        columns is nonzero mod p, so nonzero over Z."""
        return linalg.echelon_mod_p(self.generators)

    def __eq__(self, other):
        return isinstance(other, LinearSubspace) and self.n == other.n and self.echelon[0] == other.echelon[0]

    def __hash__(self):
        return hash((self.n, self.echelon[0]))

    def __repr__(self):
        return f"LinearSubspace(n={self.n!r}, basis={self.basis!r}, generators={self.generators!r})"

    @classmethod
    def from_rows(cls, n: int, rows: Iterable[Sequence]) -> "LinearSubspace":
        """The span of rows of ints and Fractions, generated by its echelon."""
        rows = list(rows)
        if any(len(r) != n + 1 for r in rows):
            raise ValueError("row length must be n+1")
        red, pivots = linalg.reduced_echelon(rows, n + 1)
        s = cls(n, tuple(red))
        s.__dict__["echelon"] = s.generators, tuple(pivots)
        return s

    @classmethod
    def empty(cls, n: int) -> "LinearSubspace":
        return cls(n, ())

    @property
    def dim(self) -> int:
        return len(self.generators) - 1

    def pivot_columns(self) -> tuple[int, ...]:
        return self.echelon[1]

    def equations(self) -> tuple[tuple, ...]:
        """Linear forms cutting out the subspace, read off the echelon: for
        each non-pivot column f, 1 at f and ``-row[f] / row[pivot]`` at the
        pivot column of each echelon row; zero entries are the int 0."""
        rows, pivots = self.echelon
        forms = []
        for f in sorted(set(range(self.n + 1)) - set(pivots)):
            form = [int(j == f) for j in range(self.n + 1)]
            for r, p in zip(rows, pivots):
                form[p] = Fraction(-r[f], r[p]) if r[f] else 0
            forms.append(tuple(form))
        return tuple(forms)

    def points(self) -> list[ProjPoint]:
        return [ProjPoint(self.n, row) for row in self.basis]


def _apply(matrix, v) -> tuple[Fraction, ...]:
    """The column vector ``matrix . v``, each entry summed over Z and built
    as one ``Fraction``."""
    w, k = linalg.integerize(v)
    return tuple(Fraction(sum(map(mul, r, w)), h * k) for r, h in map(linalg.integerize, matrix))


def span(parts: Sequence) -> LinearSubspace:
    """Projective span of points and/or subspaces (must share an ambient)."""
    rows = []
    n = None
    for part in parts:
        if isinstance(part, ProjPoint):
            m, rs = part.n, [part.coords]
        elif isinstance(part, LinearSubspace):
            m, rs = part.n, part.generators
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
    """Intersection of two subspaces (possibly empty, dim -1): the subspace
    cut out by the span of both sets of equations."""
    if a.n != b.n:
        raise ValueError("mixed ambient dimensions")
    eqs = a.equations() + b.equations()
    if not eqs:
        return a
    return LinearSubspace.from_rows(a.n, LinearSubspace.from_rows(a.n, eqs).equations())


@dataclass(frozen=True)
class Projectivity:
    """Invertible (n+1)x(n+1) matrix acting on column coordinate vectors.

    The constructor rejects a singular matrix with ``ValueError``; the test
    is the exact ``linalg.rank``.  Every projectivity, ``inverse()`` included,
    is built through it.
    """

    matrix: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        m = tuple(tuple(x if type(x) is Fraction else Fraction(x) for x in r) for r in self.matrix)
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

    def inverse(self) -> "Projectivity":
        return Projectivity(linalg.invert(self.matrix, self.n + 1))


def projectivity_from_frames(points: Sequence[ProjPoint]) -> Projectivity:
    """The unique projectivity sending the standard frame to ``points``.

    A frame is n+2 points of P^n with every (n+1)-subset independent.  The
    matrix columns are the first n+1 points, scaled so that they sum to the
    last one; it sends e_i to the i-th point and the all-ones point to the
    last.
    """
    n = points[0].n
    if len(points) != n + 2:
        raise FrameDegenerate(f"need {n + 2} points, got {len(points)}")
    if any(p.n != n for p in points):
        raise ValueError("ambient mismatch")
    base = [p.coords for p in points[: n + 1]]
    lam = linalg.solve_right(
        [tuple(base[i][row] for i in range(n + 1)) for row in range(n + 1)],
        points[n + 1].coords,
        n + 1,
    )
    if lam is None or not all(lam):
        raise FrameDegenerate("frame points are in special position")
    return Projectivity(tuple(tuple(lam[i] * base[i][row] for i in range(n + 1)) for row in range(n + 1)))


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
    rows = [row for row in (_apply(matrix, g) for g in obj.generators) if any(row)]
    if not rows:
        raise InCenter("subspace lies in the projection center")
    return LinearSubspace.from_rows(target, rows)


def adapted_alignment(spaces: Sequence[LinearSubspace]) -> Projectivity:
    """Projectivity moving coordinate blocks onto independent subspaces.

    The spaces must be mutually independent with total dimension filling a
    hyperplane: ``sum(dim_i + 1) = n``.  The result ``g`` is the frame that
    maps the span of the i-th consecutive block of coordinate points inside
    ``{x_0 = 0}`` onto space ``i``, blocks ordered as the input, and e_0 to
    the first coordinate point e_i off the common span, read off the span's
    one equation: e_i lies off it exactly when that form is nonzero at i.
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
    hyperplane = span(spaces)
    if hyperplane.dim != n - 1:
        raise NotComplementary("spaces are not mutually independent")
    i = next(j for j, x in enumerate(hyperplane.equations()[0]) if x)
    cols = [standard_point(n, i).coords] + rows
    b = tuple(tuple(cols[j][i] for j in range(n + 1)) for i in range(n + 1))
    return Projectivity(b)


def sample_point(n: int, rng: Rng) -> ProjPoint:
    """Random point of P^n with bounded integer coordinates."""
    while True:
        v = rng.vector(n + 1)
        if any(v):
            return ProjPoint(n, v)


def sample_generic_subspace(n: int, k: int, rng: Rng) -> LinearSubspace:
    """Random k-dimensional subspace of P^n; resamples on rank drop.

    The draw keeps its k+1 integer rows as generators, and its echelon is
    built on first read.  The rows have rank k+1 when their echelon mod p
    has k+1 rows; when it is shorter, the exact ``linalg.rank`` decides.
    """
    if not -1 <= k <= n:
        raise ValueError("need -1 <= k <= n")
    if k == -1:
        return LinearSubspace.empty(n)
    for _ in range(RESAMPLE_BUDGET):
        s = LinearSubspace(n, tuple(rng.vector(n + 1) for _ in range(k + 1)))
        if len(s.modular_echelon[0]) == k + 1 or linalg.rank(s.generators, n + 1) == k + 1:
            return s
    raise GenericityExhausted(f"could not sample a {k}-space in P^{n}")


def sample_point_on(s: LinearSubspace, rng: Rng) -> ProjPoint:
    """Random point on a subspace (a bounded combination of its basis)."""
    if s.dim < 0:
        raise ValueError("cannot sample from the empty subspace")
    coeffs = rng.vector(s.dim + 1)
    while not any(coeffs):
        coeffs = rng.vector(s.dim + 1)
    # the basis rows are independent, so nonzero coefficients give a nonzero
    # point: the transposed echelon applied to the coefficients over the pivots
    rows, pivots = s.echelon
    return ProjPoint(s.n, _apply(zip(*rows), [Fraction(c, r[p]) for c, r, p in zip(coeffs, rows, pivots)]))
