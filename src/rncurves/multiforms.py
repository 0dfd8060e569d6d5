"""Dense-degree multivariate monomial bookkeeping.

A form of degree d in v variables is a dict mapping exponent tuples to
rational coefficients.  The monomial order (grevlex-free, simply the
lexicographically descending exponent tuples) is fixed once here so that
condition-matrix columns and test oracles agree on it.
"""

from __future__ import annotations

from functools import lru_cache


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


def random_form(nvars: int, degree: int, rng) -> dict:
    """Random form with bounded integer coefficients (not identically 0)."""
    monos = monomials(nvars, degree)
    while True:
        form = {m: c for m, c in zip(monos, rng.vector(len(monos))) if c}
        if form:
            return form
