"""Exact projective geometry over the rationals.

Points, linear subspaces, projectivities, and a deterministic sampler for
"generic" rational data.  Every value is exact and no floating point enters
any predicate.  Each object holds one integer form; ``fractions.Fraction``
is a view at the edges, a projectivity's ``matrix`` and a subspace's
``basis`` and ``equations()``, and the type of a point's coordinates.

Conventions
-----------
* ``P^n`` has homogeneous coordinates ``x_0 .. x_n``; points act as column
  vectors, so a projectivity with matrix ``M`` sends ``x`` to ``M x``.
* A ``ProjPoint`` keeps the coordinates it was given, whose scale the
  builders read; its canonical form ``key`` is its one echelon row.  A
  ``Projectivity`` is integer ``rows`` over one ``den``.
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
* A subspace has one set of linear forms, ``integer_equations``: for each
  non-pivot column f of the echelon, 1 at f and ``-row[f] / row[pivot]`` at
  the pivot column of each echelon row, as ints on the lcm of the pivots.
  Meets, projection and the restriction of a curve read them, and
  ``equations()`` is their Fraction view.
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
from math import gcd
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
    absolute value at most ``DEFAULT_HEIGHT``, so all downstream arithmetic
    stays in small integers; only a ``ProjPoint``'s coordinates convert them
    to ``Fraction``.
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
    """Point of P^n; equality and hashing read ``key``, the one echelon
    row of its coordinates: primitive over Z with a positive leading entry."""

    n: int
    coords: tuple[Fraction, ...]

    def __post_init__(self):
        coords = tuple(c if type(c) is Fraction else Fraction(c) for c in self.coords)
        if len(coords) != self.n + 1:
            raise ValueError("coordinate length must be n+1")
        if not any(coords):
            raise ValueError("the zero vector is not a projective point")
        object.__setattr__(self, "coords", coords)

    @cached_property
    def key(self) -> tuple[int, ...]:
        return linalg.reduced_echelon([self.coords], self.n + 1)[0][0]

    def __eq__(self, other):
        if not isinstance(other, ProjPoint):
            return NotImplemented
        return self.n == other.n and self.key == other.key

    def __hash__(self):
        return hash((self.n, self.key))


def standard_point(n: int, i: int) -> ProjPoint:
    """The coordinate point e_i of P^n."""
    return ProjPoint(n, tuple(int(j == i) for j in range(n + 1)))


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
        rows, den = linalg.over_pivots(*self.echelon)
        return tuple(tuple(Fraction(x, den) for x in r) for r in rows)

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

    @cached_property
    def integer_equations(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """``(forms, den)``: the linear forms cutting out the subspace, read
        off the echelon divided by its pivots (``linalg.over_pivots``), as
        ints on its ``den``: for each non-pivot column f, ``den`` at f and
        ``-row[f]`` at the pivot column of each divided row."""
        (rows, den), pivots = linalg.over_pivots(*self.echelon), self.echelon[1]
        forms = []
        for f in sorted(set(range(self.n + 1)) - set(pivots)):
            form = [den * (j == f) for j in range(self.n + 1)]
            for r, p in zip(rows, pivots):
                form[p] = -r[f]
            forms.append(tuple(form))
        return tuple(forms), den

    def equations(self) -> tuple[tuple, ...]:
        """``integer_equations`` over its denominator: for each non-pivot
        column f, 1 at f and ``-row[f] / row[pivot]`` at the pivot column of
        each echelon row; zero entries are the int 0."""
        forms, den = self.integer_equations
        return tuple(tuple(Fraction(x, den) if x else 0 for x in form) for form in forms)

    def points(self) -> list[ProjPoint]:
        return [ProjPoint(self.n, row) for row in self.basis]


def _apply(form, v) -> tuple[Fraction, ...]:
    """The column vector ``rows . v / den`` for the integer form
    ``(rows, den)``, each entry summed over Z and built as one ``Fraction``."""
    (w, k), (rows, den) = linalg.integerize(v), form
    return tuple(Fraction(sum(map(mul, r, w)), den * k) for r in rows)


def span(parts: Sequence) -> LinearSubspace:
    """Projective span of points and/or subspaces (must share an ambient)."""
    parts = list(parts)
    for part in parts:
        if not isinstance(part, (ProjPoint, LinearSubspace)):
            raise TypeError(f"cannot span {type(part)!r}")
    if not parts:
        raise ValueError("empty span request")
    if any(part.n != parts[0].n for part in parts):
        raise ValueError("mixed ambient dimensions")
    rows = [r for part in parts for r in ([part.key] if isinstance(part, ProjPoint) else part.generators)]
    return LinearSubspace.from_rows(parts[0].n, rows)


def meet(a: LinearSubspace, b: LinearSubspace) -> LinearSubspace:
    """Intersection of two subspaces (possibly empty, dim -1): the subspace
    cut out by the span of both sets of equations."""
    if a.n != b.n:
        raise ValueError("mixed ambient dimensions")
    eqs = a.integer_equations[0] + b.integer_equations[0]
    if not eqs:
        return a
    return LinearSubspace.from_rows(a.n, LinearSubspace.from_rows(a.n, eqs).integer_equations[0])


@dataclass(frozen=True)
class Projectivity:
    """Invertible (n+1)x(n+1) matrix ``rows / den`` acting on column vectors.

    ``Projectivity(matrix)`` takes rows of ints and Fractions; a builder with
    integer rows passes their positive ``den`` too.  They are kept in lowest
    terms, ints over the least ``den``, and ``matrix`` is the Fraction view.
    The constructor rejects an empty or singular matrix with ``ValueError``
    by the exact ``linalg.rank``; every projectivity is built through it.
    """

    rows: tuple[tuple[int, ...], ...]
    den: int = 1

    def __post_init__(self):
        n = len(self.rows)
        if not n or any(len(r) != n for r in self.rows):
            raise ValueError("matrix must be square and nonempty")
        ints, k = linalg.integerize([x for r in self.rows for x in r])
        g = gcd(self.den * k, *ints)
        rows = tuple(tuple(x // g for x in ints[i : i + n]) for i in range(0, n * n, n))
        if linalg.rank(rows, n) != n:
            raise ValueError("matrix is singular")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "den", self.den * k // g)

    @cached_property
    def matrix(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(Fraction(x, self.den) for x in r) for r in self.rows)

    @property
    def n(self) -> int:
        return len(self.rows) - 1

    def apply(self, p: ProjPoint) -> ProjPoint:
        if p.n != self.n:
            raise ValueError("ambient mismatch")
        return ProjPoint(self.n, _apply((self.rows, self.den), p.coords))

    def inverse(self) -> "Projectivity":
        rows, den = linalg.invert(self.rows, self.n + 1)  # (rows / den)^-1 = den rows^-1
        return Projectivity(tuple(tuple(self.den * x for x in r) for r in rows), den)


def projectivity_from_frames(points: Sequence[ProjPoint]) -> Projectivity:
    """The unique projectivity sending the standard frame to ``points``.

    A frame is n+2 points of P^n with every (n+1)-subset independent.  The
    matrix columns are the first n+1 points, scaled so that they sum to the
    last one; it sends e_i to the i-th point and the all-ones point to the
    last.  Over Z, with points ``w_i / d_i``, column i is ``x_i w_i / (h
    d_(n+1))`` for the solution ``x / h`` of ``sum_(i<=n) x_i w_i / h = w_(n+1)``.
    """
    if not points:
        raise FrameDegenerate("no points given")
    n = points[0].n
    if len(points) != n + 2:
        raise FrameDegenerate(f"need {n + 2} points, got {len(points)}")
    if any(p.n != n for p in points):
        raise ValueError("ambient mismatch")
    ints = [linalg.integerize(p.coords) for p in points]
    base, (last, d_last) = [w for w, _ in ints[: n + 1]], ints[n + 1]
    solution = linalg.solve_right(list(zip(*base)), last, n + 1)
    if solution is None or not all(solution[0]):
        raise FrameDegenerate("frame points are in special position")
    x, h = solution
    return Projectivity(tuple(tuple(map(mul, x, row)) for row in zip(*base)), h * d_last)


def project_from(center: LinearSubspace, obj):
    """Project a point or subspace away from ``center`` onto ``P^(n - dim center - 1)``
    by the matrix of ``center.integer_equations``; a point or subspace inside the
    center maps to zero and raises ``InCenter``."""
    if not isinstance(obj, (ProjPoint, LinearSubspace)):
        raise TypeError(f"cannot project {type(obj)!r}")
    if obj.n != center.n:
        raise ValueError("ambient mismatch")
    matrix = center.integer_equations
    target = len(matrix[0]) - 1
    if isinstance(obj, ProjPoint):
        image = _apply(matrix, obj.coords)
        if not any(image):
            raise InCenter("point lies in the projection center")
        return ProjPoint(target, image)
    rows = [row for row in ([sum(map(mul, r, g)) for r in matrix[0]] for g in obj.generators) if any(row)]
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
    rows, pivots = [], []
    for s in spaces:
        rows.extend(s.echelon[0])
        pivots.extend(s.echelon[1])
    if len(rows) != n:
        raise NotComplementary(f"block dimensions sum to {len(rows)}, expected {n}")
    hyperplane = span(spaces)
    if hyperplane.dim != n - 1:
        raise NotComplementary("spaces are not mutually independent")
    i = next(j for j, x in enumerate(hyperplane.integer_equations[0][0]) if x)
    # the columns e_i and the basis rows, on the lcm of the pivots
    basis, den = linalg.over_pivots(rows, pivots)
    return Projectivity(tuple(zip([den * (j == i) for j in range(n + 1)], *basis)), den)


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
    # point: the transposed integer basis applied to the coefficients
    rows, den = linalg.over_pivots(*s.echelon)
    return ProjPoint(s.n, _apply((tuple(zip(*rows)), den), coeffs))
