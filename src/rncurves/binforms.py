"""Binary forms: homogeneous polynomials in (s, t) with rational coefficients.

Coefficients are stored from ``s^d`` down to ``t^d``, so ``coeffs[i]`` is the
coefficient of ``s^(d-i) t^i``.  Dehomogenizing at ``s = 1`` therefore turns
``coeffs`` directly into an ascending-power univariate list in u = t/s, and a
row's trailing zeros are its factors of ``s``.  The product, the gcd and the
exact division work on such rows of integers: ``product_rows``, ``gcd_rows``
(the common power of ``s`` kept apart, the gcd of the rest in Z[u]) and
``divide_rows`` (in Z[u]).  ``Fraction`` stays in ``BinaryForm``; a caller
that wants a normalized gcd scales the row itself.

That gcd is taken first by the heuristic gcd GCDHEU (Char, Geddes and
Gonnet, J. Symbolic Comput. 7, 1989; Geddes, Czapor and Labahn, *Algorithms
for Computer Algebra*, 7.7): the members are evaluated at one large integer,
the integer gcd of the values is read back as a polynomial from its digits
in that base, and the candidate is returned only once ``divide_rows``
divides every member by it exactly, which proves it is the gcd (see
``_gcd_heuristic``).  When a few evaluation points give no such divisor, a
primitive pseudo-remainder sequence (Collins, J. ACM 14, 1967), exact by
construction, answers instead.  No unproved value leaves either path.  The
primitive gcd in Z[u] is unique up to sign, so the result does not depend on
which path found it, up to that sign.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Sequence

from .errors import DuplicateParameters
from .exactgeom import ProjPoint
from .linalg import integerize, primitive


class ParamPoint(ProjPoint):
    """Point [u : v] of the parameter line: the ``ProjPoint`` of P^1 with
    coordinates ``(u, v)``, so equality and hashing are projective."""

    def __init__(self, u, v):
        super().__init__(1, (u, v))


@dataclass(frozen=True)
class BinaryForm:
    """Homogeneous form of fixed degree in (s, t)."""

    degree: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        coeffs = tuple(c if type(c) is Fraction else Fraction(c) for c in self.coeffs)
        if len(coeffs) != self.degree + 1:
            raise ValueError("need degree+1 coefficients")
        object.__setattr__(self, "coeffs", coeffs)

    def is_zero(self) -> bool:
        return not any(self.coeffs)


def product_rows(rows: Sequence[Sequence[int]]) -> list[int]:
    """The product of the forms with these integer coefficient rows, as a row."""
    acc = [1]
    for r in rows:
        out = [0] * (len(acc) + len(r) - 1)
        for i, a in enumerate(acc):
            for j, b in enumerate(r):
                out[i + j] += a * b
        acc = out
    return acc


def _prem(a: list[int], b: list[int]) -> list[int]:
    """Pseudo-remainder of ``a`` by ``b`` in Z[u], trailing zeros stripped.

    Each step scales the running remainder by the leading coefficient of
    ``b`` so that cancelling its top term stays in Z.
    """
    lead, head = b[-1], b[:-1]
    r = list(a)
    while len(r) >= len(b):
        f, shift = r[-1], len(r) - len(b)
        r = [lead * c for c in r[:-1]]
        for i, c in enumerate(head):
            r[shift + i] -= f * c
        while r and not r[-1]:
            r.pop()
    return r


# Evaluation points GCDHEU tries before the remainder sequence answers, and
# the factor by which each retry raises the point (both from Char, Geddes
# and Gonnet).
_HEURISTIC_TRIES = 6
_RAISE_NUM, _RAISE_DEN = 73794, 27011


def _value(f: list[int], xi: int) -> int:
    """``f(xi)`` by Horner's rule, ``f`` ascending."""
    acc = 0
    for c in reversed(f):
        acc = acc * xi + c
    return acc


def _candidate(ints: list[list[int]], xi: int) -> list[int]:
    """The GCDHEU candidate at ``xi``: the gcd of the rows' values at ``xi``,
    read as a polynomial from its symmetric base-``xi`` digits (each in
    (-xi/2, xi/2]), made primitive.  That gcd is nonzero, so the candidate
    is too, when ``xi`` satisfies the bound of ``_gcd_heuristic``."""
    gamma = gcd(*(_value(f, xi) for f in ints))
    digits = []
    while gamma:
        gamma, d = divmod(gamma, xi)
        if 2 * d > xi:
            gamma, d = gamma + 1, d - xi
        digits.append(d)
    return primitive(digits)


def divide_rows(f: Sequence[int], d: Sequence[int]) -> list[int] | None:
    """The quotient ``f / d`` in Z[u] of two integer rows (``s^d`` first, so
    ascending in u = t/s; ``d`` nonzero), of ``len(f) - len(d) + 1`` entries,
    or None when ``d`` does not divide ``f`` exactly.  Trial division: it
    fails as soon as the leading coefficient of ``d`` does not divide that of
    the running remainder, and when a remainder is left, as when ``d`` has
    more factors of ``s`` (trailing zeros) than a nonzero ``f``, or when
    ``f`` is shorter than ``d``."""
    top = len(d) - 1
    while not d[top]:
        top -= 1
    lead, r = d[top], list(f)
    q = [0] * (len(f) - len(d) + 1)
    for j in reversed(range(len(q))):
        if r[j + top]:
            c, rem = divmod(r[j + top], lead)
            if rem:
                return None
            q[j] = c
            for i in range(top):
                r[j + i] -= c * d[i]
    # r[top : top + len(q)] held the terms that the quotient cancelled
    return q if q and not any(r[:top] + r[top + len(q) :]) else None


def _gcd_heuristic(ints: list[list[int]]) -> list[int] | None:
    """The gcd in Z[u], up to sign, of two or more primitive rows (ascending,
    last entries nonzero), or None when no candidate is proved.

    The first point is xi = 2 * min_j ||f_j|| + 2 (sup norms); each retry
    multiplies it by about 2.73, for ``_HEURISTIC_TRIES`` points in all.
    A candidate ``h = _candidate(ints, xi)`` is returned only if it divides
    every row exactly, and then it is the gcd ``g``.  Proof: let ``f`` be the
    row of smallest norm.  By Cauchy's bound every root ``a`` of ``f`` has
    ``|a| < 1 + ||f|| <= xi/2``, so ``f(xi) != 0`` and the integer gcd
    ``gamma`` of the values is nonzero.  The digits ``G`` of ``gamma`` satisfy
    ``G(xi) = gamma = cont(G) * h(xi)``.  As ``h`` is primitive and divides
    every row, Gauss's lemma gives ``g = h * c`` with ``c`` in Z[u].  Since
    ``g(xi)`` divides every value, it divides ``gamma``, so ``c(xi)`` divides
    ``cont(G)`` (``h(xi) != 0`` as ``gamma != 0``) and ``|c(xi)| <=
    |cont(G)| <= xi/2``, every digit being at most ``xi/2`` in size.  If ``c`` had degree ``k >= 1``, its roots would be
    roots of ``f``, and ``|c(xi)| >= prod |xi - a| > (xi - 1 - ||f||)^k
    >= (xi/2)^k >= xi/2``, a contradiction.  So ``c = +-1``.  The argument
    holds at every point at or above the first, so at every retry.
    """
    xi = 2 * min(max(map(abs, f)) for f in ints) + 2
    for _ in range(_HEURISTIC_TRIES):
        h = _candidate(ints, xi)
        if all(divide_rows(f, h) is not None for f in ints):
            return h
        xi = xi * _RAISE_NUM // _RAISE_DEN
    return None


def _gcd_prs(ints: list[list[int]]) -> list[int]:
    """The gcd in Z[u], up to sign, of primitive rows sorted shortest first,
    folded pairwise by a primitive pseudo-remainder sequence (Collins, J. ACM
    14, 1967): every remainder is divided by its content, which bounds
    coefficient growth, and the sequence is exact in Z[u] and always ends.
    The fold stops once the running gcd is a constant."""
    g = ints[0]
    for p in ints[1:]:
        if len(g) == 1:
            break
        a, b = p, g
        while b:
            a, b = b, primitive(_prem(a, b))
        g = a
    return g


def _gcd_nonzero(rows: Sequence[Sequence]) -> tuple[list[int], int]:
    """Gcd ``(core, s_pow)`` of one or more nonzero coefficient rows (ints or
    Fractions, ``s^d`` first): the common power of ``s``, and the gcd in Z[u],
    up to sign and ascending in u = t/s, of the rest, the rows made primitive
    and sorted shortest first.  Two or more rows with no constant among them
    go to ``_gcd_heuristic``, and to ``_gcd_prs`` when it proves no candidate.
    A single row comes back primitive with its own power of ``s``, so it
    keeps its formal degree.  Every gcd here runs through it.
    """
    tops = [max(i for i, c in enumerate(r) if c) for r in rows]
    s_pow = min(len(r) - 1 - top for r, top in zip(rows, tops))
    ints = sorted((primitive(integerize(r[: top + 1])[0]) for r, top in zip(rows, tops)), key=len)
    g = ints[0]
    if len(ints) > 1 and len(g) > 1:
        g = _gcd_heuristic(ints) or _gcd_prs(ints)
    return g, s_pow


def gcd_rows(rows: Sequence[Sequence]) -> list[int]:
    """Gcd of the forms with these coefficient rows (ints or Fractions,
    ``s^d`` first), zero rows ignored, as a primitive integer row of its
    formal degree, up to sign: the core of ``_gcd_nonzero`` followed by its
    power of ``s``.  A single nonzero row keeps its formal degree."""
    nonzero = [r for r in rows if any(r)]
    if not nonzero:
        raise ValueError("gcd of all-zero family")
    core, s_pow = _gcd_nonzero(nonzero)
    return [*core] + [0] * s_pow


def distinct_parameters(points: Sequence[ParamPoint]) -> None:
    """Raise DuplicateParameters unless all parameter points differ."""
    seen = set()
    for p in points:
        key = p.normalized()
        if key in seen:
            raise DuplicateParameters(f"parameter {key} repeats")
        seen.add(key)
