"""Exact matrix kernels over the rationals, computed over the integers.

:func:`integerize` scales a row of ints and Fractions to ints by the lcm of
its denominators, and :func:`primitive` divides an int row by its content;
they are the package's one rational-to-integer scaling.  One fraction-free
loop, :func:`_echelon`, serves every kernel: it keeps each row primitive and
clears the entry ``f`` under the pivot ``p`` with ``(p/g) r - (f/g) pivot``,
``g = gcd(p, f)`` (the primitive-remainder idea of Collins, J. ACM 14, 1967,
applied to rows).  ``Fraction`` arithmetic appears only where :func:`rref`
divides each finished row by its pivot.

:func:`rank` is the single rank entry point, and every rank it returns is
exact.  Before the elimination it tries two cheap reductions that are
themselves exact:

* unit-row stripping -- a row with a single nonzero entry pins down one pivot
  column, which can be deleted outright; repeated to a fixpoint this often
  collapses large sparse condition matrices to a small dense core;
* a single-prime prescreen -- ``rank_p <= rank <= min(rows, cols)``, so when
  the modular rank hits the dimension cap the exact rank is already known.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

import numpy as np

# Largest 31-bit prime (2**31 - 1 is a Mersenne prime).  Used only for the
# prescreen shortcut inside rank(); a "bad" prime can only underestimate the
# rank, in which case we fall through to the elimination and stay exact.
_PRESCREEN_PRIME = 2**31 - 1


_INT = frozenset((int,))


def integerize(row) -> tuple[int, ...]:
    """The row scaled by the lcm of its denominators, as a tuple of ints.

    A row whose entries are all ints is passed through; otherwise each entry
    is ``numerator * (lcm // denominator)``, with no Fraction multiplication.
    """
    if _INT.issuperset(map(type, row)):
        return tuple(row)
    den = lcm(*(x.denominator for x in row))
    return tuple(x.numerator * (den // x.denominator) for x in row)


def integerize_rows(rows) -> list[tuple[int, ...]]:
    """:func:`integerize` applied to each row."""
    return [integerize(row) for row in rows]


def primitive(row):
    """An integer row divided by the gcd of its entries.

    The row itself is returned when that gcd is 0 or 1; the sign is kept.
    """
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _strip_unit_rows(rows, ncols):
    """Remove single-entry rows and their pivot columns until none remain.

    Returns ``(gained, reduced_rows, reduced_ncols)`` where *gained* counts
    the pivots recovered.  Sound because a unit row eliminates its column
    from every other row without touching the rest of the matrix.
    """
    rows = [list(r) for r in rows if any(r)]
    gained = 0
    alive = list(range(ncols))
    while True:
        dead_cols = set()
        unit_rows = []
        for i, r in enumerate(rows):
            nz = [j for j, x in enumerate(r) if x]
            if len(nz) == 1:
                unit_rows.append(i)
                dead_cols.add(nz[0])
        if not dead_cols:
            break
        gained += len(dead_cols)
        keep = [j for j in range(len(alive)) if j not in dead_cols]
        alive = [alive[j] for j in keep]
        next_rows = []
        unit_set = set(unit_rows)
        for i, r in enumerate(rows):
            if i in unit_set:
                continue
            rr = [r[j] for j in keep]
            if any(rr):
                next_rows.append(rr)
        rows = next_rows
    return gained, rows, len(alive)


def _eliminate(row, pivot, col):
    """``(p/g) row - (f/g) pivot`` made primitive: ``row`` loses column ``col``."""
    p, f = pivot[col], row[col]
    g = gcd(p, f)
    a, b = p // g, f // g
    return primitive([a * x - b * y for x, y in zip(row, pivot)])


def _echelon(int_rows, ncols):
    """Row echelon form of an integer matrix over its first ``ncols`` columns.

    Returns ``(rows, pivots)``: the nonzero primitive rows in pivot order and
    their pivot columns.  The pivot of a column is the candidate entry with
    the fewest bits.  Entries past ``ncols`` are carried along.
    """
    rows = [primitive(r) for r in int_rows if any(r)]
    out, pivots = [], []
    for col in range(ncols):
        live = [r for r in rows if r[col]]
        if not live:
            continue
        pivot = min(live, key=lambda r: abs(r[col]).bit_length())
        rows = [r for r in rows if not r[col]]
        for r in live:
            if r is not pivot:
                r = _eliminate(r, pivot, col)
                if any(r):
                    rows.append(r)
        out.append(pivot)
        pivots.append(col)
    return out, pivots


# Named for the Bareiss loop it replaced: perfbench/tracing.py wraps the
# elimination fallback of rank() by this name, as ``linalg.bareiss``.
def _rank_bareiss(int_rows, ncols):
    """Exact rank of an integer matrix by the one elimination loop."""
    return len(_echelon(int_rows, ncols)[1])


def _rank_mod_int(int_rows, p):
    """Rank of an integer matrix modulo the odd prime ``p`` (numpy int64)."""
    data = [[x % p for x in r] for r in int_rows]
    data = [r for r in data if any(r)]
    if not data:
        return 0
    a = np.array(data, dtype=np.int64)
    m, n = a.shape
    r = 0
    for col in range(n):
        nz = np.nonzero(a[r:, col])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        inv = pow(int(a[r, col]), -1, p)
        a[r] = (a[r] * inv) % p
        below = a[r + 1 :, col] != 0
        if below.any():
            block = a[r + 1 :][below]
            a[r + 1 :][below] = (block - np.outer(block[:, col], a[r])) % p
        r += 1
        if r == m:
            break
    return r


def rank(rows, ncols):
    """Exact rank of a matrix given as an iterable of length-``ncols`` rows."""
    int_rows = integerize_rows(rows)
    gained, core, core_cols = _strip_unit_rows(int_rows, ncols)
    if not core:
        return gained
    cap = min(len(core), core_cols)
    r_p = _rank_mod_int(core, _PRESCREEN_PRIME)
    if r_p == cap:
        return gained + r_p
    return gained + _rank_bareiss(core, core_cols)


def rref(rows, ncols):
    """Reduced row echelon form over Fraction.

    Returns ``(rref_rows, pivot_cols)`` with zero rows dropped and every
    pivot normalized to 1.  The elimination and the back-substitution run
    on primitive integer rows; only the last step divides by the pivots.
    """
    red, pivots = _echelon(integerize_rows(rows), ncols)
    for i in range(len(red) - 1, 0, -1):
        col = pivots[i]
        for k in range(i):
            if red[k][col]:
                red[k] = _eliminate(red[k], red[i], col)
    out = [tuple(Fraction(x, r[col]) for x in r) for r, col in zip(red, pivots)]
    return out, pivots


def nullspace(rows, ncols):
    """Basis of ``{v : A v = 0}`` as tuples of Fractions."""
    red, pivots = rref(rows, ncols)
    free = [j for j in range(ncols) if j not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, pc in zip(red, pivots):
            v[pc] = -r[f]
        basis.append(tuple(v))
    return basis


def solve_right(matrix, rhs, ncols):
    """One exact solution of ``A x = b``, or None if inconsistent."""
    aug = [list(r) + [b] for r, b in zip(matrix, rhs)]
    red, pivots = rref(aug, ncols + 1)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, pc in zip(red, pivots):
        x[pc] = r[ncols]
    return tuple(x)


def invert(matrix, n):
    """Exact inverse of an ``n x n`` matrix, or None if singular."""
    aug = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(matrix)]
    red, pivots = rref(aug, 2 * n)
    if pivots[:n] != list(range(n)):
        return None
    return tuple(tuple(r[n:]) for r in red)

