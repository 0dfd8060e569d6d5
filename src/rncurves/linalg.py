"""Exact matrix kernels over the rationals.

:func:`rank` is the single rank entry point, and every rank it returns is
exact.  The workhorse is fraction-free Bareiss elimination over the integers,
preceded by two cheap reductions that are themselves certified exact:

* unit-row stripping -- a row with a single nonzero entry pins down one pivot
  column, which can be deleted outright; repeated to a fixpoint this often
  collapses large sparse condition matrices to a small dense core;
* a single-prime prescreen -- ``rank_p <= rank <= min(rows, cols)``, so when
  the modular rank hits the dimension cap the exact rank is already known.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import numpy as np

# Largest 31-bit prime (2**31 - 1 is a Mersenne prime).  Used only for the
# prescreen shortcut inside rank(); a "bad" prime can only underestimate the
# rank, in which case we fall through to Bareiss and stay exact.
_PRESCREEN_PRIME = 2**31 - 1


_INT = frozenset((int,))


def integerize_rows(rows):
    """Scale each row by the lcm of its denominators; returns int tuples.

    A row whose entries are all ints is passed through as a tuple.
    """
    out = []
    for row in rows:
        if _INT.issuperset(map(type, row)):
            out.append(tuple(row))
            continue
        den = 1
        for x in row:
            if isinstance(x, Fraction) and x.denominator != 1:
                den = den * x.denominator // gcd(den, x.denominator)
        if den == 1:
            out.append(tuple(int(x) for x in row))
        else:
            out.append(tuple(int(x * den) for x in row))
    return out


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


def _rank_bareiss(int_rows, ncols):
    """Exact rank by fraction-free (Bareiss) elimination with row swaps."""
    rows = [list(r) for r in int_rows if any(r)]
    if not rows or ncols == 0:
        return 0
    prev = 1
    pr = 0
    rank = 0
    for col in range(ncols):
        piv = None
        for i in range(pr, len(rows)):
            if rows[i][col]:
                piv = i
                break
        if piv is None:
            continue
        rows[pr], rows[piv] = rows[piv], rows[pr]
        p = rows[pr][col]
        prow = rows[pr]
        nxt = [rows[i] for i in range(pr)]
        nxt.append(prow)
        for i in range(pr + 1, len(rows)):
            ri = rows[i]
            f = ri[col]
            new = [(p * ri[j] - f * prow[j]) // prev for j in range(col + 1, ncols)]
            if any(new):
                nxt.append([0] * (col + 1) + new)
        rows = nxt
        prev = p
        rank += 1
        pr += 1
        if pr == len(rows) or rank == ncols:
            break
    return rank


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
    pivot normalized to 1.
    """
    mat = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    pr = 0
    for col in range(ncols):
        piv = None
        for i in range(pr, len(mat)):
            if mat[i][col]:
                piv = i
                break
        if piv is None:
            continue
        mat[pr], mat[piv] = mat[piv], mat[pr]
        inv = 1 / mat[pr][col]
        mat[pr] = [x * inv for x in mat[pr]]
        for i in range(len(mat)):
            if i != pr and mat[i][col]:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[pr])]
        pivots.append(col)
        pr += 1
        if pr == len(mat):
            break
    out = [tuple(r) for r in mat[:pr]]
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
    aug = [list(r) + [Fraction(int(i == j)) for j in range(n)] for i, r in enumerate(matrix)]
    red, pivots = rref(aug, 2 * n)
    if pivots[:n] != list(range(n)):
        return None
    return tuple(tuple(r[n:]) for r in red)

