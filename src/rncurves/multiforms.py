"""Dense-degree multivariate monomial bookkeeping.

A form of degree d in v variables is a dict mapping exponent tuples to
rational coefficients.  The monomial order (grevlex-free, simply the
lexicographically descending exponent tuples) is fixed once here so that
condition-matrix columns and test oracles agree on it.
"""

from __future__ import annotations

from functools import lru_cache

from .binforms import BinaryForm, product


@lru_cache(maxsize=None)
def monomials(nvars: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """All exponent tuples of the given total degree, lex descending."""
    if nvars == 0:
        return ((),) if degree == 0 else ()
    if nvars == 1:
        return ((degree,),)
    out = []
    for first in range(degree, -1, -1):
        for rest in monomials(nvars - 1, degree - first):
            out.append((first,) + rest)
    return tuple(out)


def substitute_curve(form: dict, curve_forms) -> BinaryForm:
    """Restrict a degree-d form in n+1 variables to a parametrized curve.

    ``curve_forms`` are n+1 binary forms of a common degree e; the result is
    the binary form of degree d*e obtained by substitution.
    """
    if not form:
        raise ValueError("empty form")
    degrees = {sum(m) for m in form}
    if len(degrees) != 1:
        raise ValueError("form is not homogeneous")
    d = degrees.pop()
    e = curve_forms[0].degree
    acc = BinaryForm.zero(d * e)
    powers: list[dict[int, BinaryForm]] = [dict() for _ in curve_forms]

    def power(i, k):
        cache = powers[i]
        if k not in cache:
            if k == 0:
                cache[k] = BinaryForm.constant(1)
            else:
                cache[k] = power(i, k - 1).mul(curve_forms[i])
        return cache[k]

    for mono, c in form.items():
        if not c:
            continue
        term = product([power(i, k) for i, k in enumerate(mono) if k])
        acc = acc.add(term.scale(c))
    return acc


def random_form(nvars: int, degree: int, rng) -> dict:
    """Random form with bounded integer coefficients (not identically 0)."""
    monos = monomials(nvars, degree)
    while True:
        form = {m: c for m, c in zip(monos, rng.vector(len(monos))) if c}
        if form:
            return form
