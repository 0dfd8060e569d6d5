"""Binary forms: homogeneous polynomials in (s, t) with rational coefficients.

Coefficients are stored from ``s^d`` down to ``t^d``, so ``coeffs[i]`` is the
coefficient of ``s^(d-i) t^i``.  Dehomogenizing at ``s = 1`` therefore turns
``coeffs`` directly into an ascending-power univariate list, which the gcd
routine exploits: common ``s``-power is tracked separately and the rest is a
univariate gcd over Q[u].

That gcd is taken in Z[u] by a primitive pseudo-remainder sequence (Collins,
J. ACM 14, 1967): exact by construction, with no modular image to confirm
and no fallback.  The monic gcd over Q is unique, so the normalized result
does not depend on how it was found.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import DuplicateParameters
from .linalg import integerize, primitive


@dataclass(frozen=True)
class ParamPoint:
    """Point [u : v] of the parameter line P^1; equality is projective."""

    u: Fraction
    v: Fraction

    def __post_init__(self):
        u, v = Fraction(self.u), Fraction(self.v)
        if not u and not v:
            raise ValueError("the zero vector is not a parameter point")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    def normalized(self) -> tuple[Fraction, Fraction]:
        if self.u:
            return (Fraction(1), self.v / self.u)
        return (Fraction(0), Fraction(1))

    def __eq__(self, other):
        if not isinstance(other, ParamPoint):
            return NotImplemented
        return self.normalized() == other.normalized()

    def __hash__(self):
        return hash(self.normalized())


@dataclass(frozen=True)
class BinaryForm:
    """Homogeneous form of fixed degree in (s, t)."""

    degree: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        coeffs = tuple(Fraction(c) for c in self.coeffs)
        if len(coeffs) != self.degree + 1:
            raise ValueError("need degree+1 coefficients")
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def zero(cls, degree: int) -> "BinaryForm":
        return cls(degree, (Fraction(0),) * (degree + 1))

    @classmethod
    def constant(cls, value) -> "BinaryForm":
        return cls(0, (Fraction(value),))

    @classmethod
    def vanishing_at(cls, p: ParamPoint) -> "BinaryForm":
        """The linear form v*s - u*t, zero exactly at [u : v]."""
        return cls(1, (p.v, -p.u))

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def evaluate(self, u, v) -> Fraction:
        u, v = Fraction(u), Fraction(v)
        acc = Fraction(0)
        for i, c in enumerate(self.coeffs):
            if c:
                acc += c * u ** (self.degree - i) * v**i
        return acc

    def evaluate_at(self, p: ParamPoint) -> Fraction:
        return self.evaluate(p.u, p.v)

    def add(self, other: "BinaryForm") -> "BinaryForm":
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        return BinaryForm(self.degree, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def scale(self, c) -> "BinaryForm":
        c = Fraction(c)
        return BinaryForm(self.degree, tuple(c * x for x in self.coeffs))

    def mul(self, other: "BinaryForm") -> "BinaryForm":
        d = self.degree + other.degree
        out = [Fraction(0)] * (d + 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] += a * b
        return BinaryForm(d, tuple(out))

    def monic(self) -> "BinaryForm":
        for c in self.coeffs:
            if c:
                return self.scale(1 / c)
        return self


def product(forms: Sequence[BinaryForm]) -> BinaryForm:
    acc = BinaryForm.constant(1)
    for f in forms:
        acc = acc.mul(f)
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


def _gcd_nonzero(rows: Sequence[Sequence]) -> tuple[list[int], int]:
    """Gcd ``(core, s_pow)`` of two or more nonzero coefficient rows (ints or
    Fractions, ``s^d`` first): the common power of ``s``, and the gcd in Z[u],
    up to sign and ascending in u = t/s, of the rest.  Those are folded
    pairwise, shortest first, each pair by a primitive pseudo-remainder
    sequence (Collins, J. ACM 14, 1967): every remainder is divided by its
    content, which bounds coefficient growth, and the sequence is exact in
    Z[u] and always ends.  The fold stops once the running gcd is a constant.
    """
    tops = [max(i for i, c in enumerate(r) if c) for r in rows]
    s_pow = min(len(r) - 1 - top for r, top in zip(rows, tops))
    ints = sorted((primitive(integerize(r[: top + 1])) for r, top in zip(rows, tops)), key=len)
    g = ints[0]
    for p in ints[1:]:
        if len(g) == 1:
            break
        a, b = p, g
        while b:
            a, b = b, primitive(_prem(a, b))
        g = a
    return g, s_pow


def _gcd_form(forms: Sequence[BinaryForm]) -> BinaryForm:
    """Gcd of two or more nonzero forms, first nonzero coefficient 1."""
    core, s_pow = _gcd_nonzero([f.coeffs for f in forms])
    return BinaryForm(len(core) - 1 + s_pow, tuple(core) + (0,) * s_pow).monic()


def gcd(f: BinaryForm, g: BinaryForm) -> BinaryForm:
    """Greatest common divisor, normalized so its first nonzero coeff is 1.

    The common power of ``s`` is read off from trailing-coefficient support;
    the remainder is a univariate gcd in u = t/s, taken exactly in Z[u]
    (see the module docstring).
    """
    if f.is_zero():
        return g.monic()
    if g.is_zero():
        return f.monic()
    return _gcd_form([f, g])


def gcd_many(forms: Sequence[BinaryForm]) -> BinaryForm:
    """Gcd of a family, zero forms ignored, normalized as in `gcd`.

    The nonzero members are folded shortest first, and the fold stops as
    soon as the running gcd is a constant.
    """
    nonzero = [f for f in forms if not f.is_zero()]
    if not nonzero:
        raise ValueError("gcd of all-zero family")
    if len(nonzero) == 1:
        return nonzero[0].monic()
    return _gcd_form(nonzero)


def gcd_degree(rows: Sequence[Sequence]) -> int:
    """``gcd_many(...).degree`` of the forms with these coefficient rows
    (a single nonzero row keeps its formal degree), building no form."""
    nonzero = [r for r in rows if any(r)]
    if not nonzero:
        raise ValueError("gcd of all-zero family")
    if len(nonzero) == 1:
        return len(nonzero[0]) - 1
    core, s_pow = _gcd_nonzero(nonzero)
    return len(core) - 1 + s_pow


def divide_exact(f: BinaryForm, d: BinaryForm) -> BinaryForm:
    """Quotient f / d, assuming d divides f exactly."""
    if d.is_zero():
        raise ZeroDivisionError("division by the zero form")
    if f.is_zero():
        return BinaryForm.zero(f.degree - d.degree)
    lead = next(i for i, c in enumerate(d.coeffs) if c)
    inv = 1 / d.coeffs[lead]
    out = [Fraction(0)] * (f.degree - d.degree + 1)
    rem = list(f.coeffs)
    for pos in range(len(out)):
        c = rem[pos + lead] * inv
        out[pos] = c
        if c:
            for i in range(d.degree + 1 - lead):
                rem[pos + lead + i] -= c * d.coeffs[lead + i]
    if any(rem):
        raise ValueError("division was not exact")
    return BinaryForm(f.degree - d.degree, tuple(out))


def distinct_parameters(points: Sequence[ParamPoint]) -> None:
    """Raise DuplicateParameters unless all parameter points differ."""
    seen = set()
    for p in points:
        key = p.normalized()
        if key in seen:
            raise DuplicateParameters(f"parameter {key} repeats")
        seen.add(key)
