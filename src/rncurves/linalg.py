"""Exact matrix kernels over the rationals, computed over the integers.

:func:`integerize` scales a row of ints and Fractions to ints by the lcm of
its denominators, which it returns too, and :func:`primitive` divides an int
row by its content; they are the package's one rational-to-integer scaling.
One fraction-free loop, :func:`_echelon`, serves every kernel: it keeps each
row primitive and clears the entry ``f`` under the pivot ``p`` with
``(p/g) r - (f/g) pivot``, ``g = gcd(p, f)`` (the primitive-remainder idea of
Collins, J. ACM 14, 1967, applied to rows).  :func:`reduced_echelon` adds
the back-substitution: its rows, primitive with positive pivots, are the
canonical form of a subspace.  ``Fraction`` appears only where :func:`rref`
divides them by their pivots, for :func:`solve_right` and :func:`invert`.

:func:`rank` is the single rank entry point, and every rank it returns is
exact.  It takes the first of these steps that settles the rank, each of
them exact:

* unit-row stripping -- a row with a single nonzero entry pins down one pivot
  column, which can be deleted outright; repeated to a fixpoint this often
  collapses large sparse condition matrices to a small dense core;
* a single-prime prescreen -- ``rank_p <= rank <= min(rows, cols)``, so when
  the modular rank hits the dimension cap the exact rank is already known.
  It has two kernels that return the same pivots: a plain-Python row
  elimination for cores with at most ``_SMALL_CORE`` rows or columns, and a
  numpy int64 one for larger cores;
* a kernel certificate -- the prescreen's echelon gives a ``rank_p x rank_p``
  block nonsingular mod p, so ``rank >= rank_p``; one kernel vector per
  free column, lifted p-adically (Dixon, Numer. Math. 40, 1982), rebuilt by
  rational reconstruction and checked as ``A v = 0`` over Z, gives
  ``rank <= rank_p``.  Its inverse of that block mod p is a numpy int64
  Gauss--Jordan elimination;
* the elimination :func:`_echelon`, when the certificate fails (a bad prime,
  or entries past its int64 guard).

:func:`leave_one_out_ranks_mod_p` is the second use of ``rank_p <= rank``.
It ranks a stack of row blocks mod p, whole and with each of a few blocks
left out, in one elimination whose pivots come from the rows that are never
left out.  Its values are lower bounds, exact only where they meet the
dimension cap ``min(rows, cols)``: below it a value may rule an equation
out, never accept one.

:func:`echelon_mod_p` is the third: the pivot columns and rows of an
echelon form mod p, which a caller keeps and extends by more rows.  Its rows
are the kernel's own, since both kernels scale each pivot row to 1.  Its
length proves a rank only where it meets the cap; below it the caller asks
:func:`rank`.

Both numpy eliminations delay the reduction mod p, as FFLAS-FFPACK does
(Dumas, Giorgi and Pernet, ACM TOMS 35, 2008): a pivot step updates only
the trailing block, in place, and reduces only the pivot row and the column
the next pivot search and multipliers read.  Every other entry loses at
most ``(p-1)**2`` per step, so it stays in int64 for
``(2**63 - p) // (p-1)**2`` steps, 2,048 for the prescreen prime; the block
is reduced at that period and the whole array once at the end.  The pivots,
the row order and the reduced rows are those of reducing at every step.

numpy is imported inside the functions that use it: a large prescreen core,
a large leave-one-out elimination and a kernel certificate, so a command
that reaches none of them never loads it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm, prod

# The one prime of rank(): its prescreen and its kernel certificate.  A "bad"
# prime can only underestimate the rank, and then the certificate fails and
# the elimination runs, so every rank stays exact.  Below 2**26, so that the
# lifting product ``b^-1 (R mod p)`` sums at most _KERNEL_MAX_RANK terms
# under (p-1)**2 and stays in int64.
_PRESCREEN_PRIME = 2**26 - 5
_KERNEL_MAX_RANK = 2**63 // (_PRESCREEN_PRIME - 1) ** 2
# Prescreen cores with at most this many rows or columns are eliminated in
# plain Python, larger ones in numpy, so that small commands never import
# numpy.  On the cores of the atlas and ideal benchmark passes the delayed-
# reduction kernel beats plain Python from a smaller side of about 9 (0.7x at
# 10, 0.4x at 15; mixed from 5 to 8), but only by tens of microseconds per
# core, while a command that loads numpy pays its import, about 0.1 s in a
# fresh process.  At 8, `atlas -n 3` would load numpy for a handful of such
# cores; the bound stays where the earlier crossover put it.
_SMALL_CORE = 14


_INT = frozenset((int,))


def integerize(row) -> tuple[tuple[int, ...], int]:
    """``(ints, den)``: ``den`` is the lcm of the row's denominators and
    ``ints`` the row times ``den``, as a tuple of ints.

    A row whose entries are all ints is passed through with ``den == 1``;
    otherwise each entry is ``numerator * (den // denominator)``, with no
    Fraction multiplication.
    """
    if _INT.issuperset(map(type, row)):
        return tuple(row), 1
    den = lcm(*(x.denominator for x in row))
    return tuple(x.numerator * (den // x.denominator) for x in row), den


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
    from every other row without touching the rest of the matrix.  A unit
    row is zero once its column is dropped, so the zero-row filter removes
    it; rows come back unchanged (tuples stay tuples) when none is a unit.
    """
    rows = [r for r in rows if any(r)]
    gained = 0
    while True:
        dead = {next(j for j, x in enumerate(r) if x) for r in rows if r.count(0) == ncols - 1}
        if not dead:
            return gained, rows, ncols
        gained += len(dead)
        keep = [j for j in range(ncols) if j not in dead]
        ncols = len(keep)
        rows = [s for r in rows if any(s := [r[j] for j in keep])]


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


# perfbench/tracing.py wraps this name as ``linalg.bareiss``: since the kernel
# certificate it is only rank()'s fallback, taken when the certificate fails.
def _rank_bareiss(int_rows, ncols):
    """Exact rank of an integer matrix by the one elimination loop."""
    return len(_echelon(int_rows, ncols)[1])


def _rank_mod_int(int_rows, p):
    """Rank of an integer matrix modulo the odd prime ``p``.

    Returns ``(rank, pivot_rows, pivot_cols)``: the rows (indices into
    ``int_rows``) and columns of a ``rank x rank`` block nonsingular mod p.
    The pivot of each column is the first remaining row nonzero in it.
    """
    data = [[x % p for x in r] for r in int_rows]
    live = [i for i, r in enumerate(data) if any(r)]
    if not live:
        return 0, [], []
    pivots, _ = _echelon_mod([data[i] for i in live], live, p, len(live))
    return len(pivots), live[: len(pivots)], pivots


def _echelon_mod(rows, order, p, m):
    """Pivot columns mod p of the nonempty rows ``rows``, pivots taken from the first ``m``.

    Returns ``(pivot_cols, rest)``: ``rest`` is rows ``m:`` as lists,
    reduced against the echelon form of the first ``m`` rows.  With at most
    ``_SMALL_CORE`` pivot rows or columns the elimination runs in plain
    Python, otherwise in numpy; both make the same swaps and leave the same
    rows mod p, pivot rows scaled to 1, so they return the same pivots and
    rows and reorder ``order`` alike.
    """
    if min(m, len(rows[0])) <= _SMALL_CORE:
        return _pivots_mod_python(rows, order, p, m), rows[m:]
    import numpy as np

    a = np.array(rows, dtype=np.int64)
    return _pivots_mod_numpy(a, order, p, m), a[m:].tolist()


def _pivots_mod_python(a, order, p, m):
    """Pivot columns of the row echelon form mod p of the list rows ``a``.

    Only the first ``m`` rows may be pivots, and every row below a pivot
    is reduced by it.  The rows come in reduced mod p.  ``a`` is reduced in
    place, each pivot row scaled so that its pivot entry is 1, and ``order``
    is swapped along with its rows.
    """
    r, pivots = 0, []
    for col in range(len(a[0])):
        for i in range(r, m):
            if a[i][col]:
                break
        else:
            continue
        if i != r:
            a[r], a[i] = a[i], a[r]
            order[r], order[i] = order[i], order[r]
        pivot = a[r]
        if pivot[col] != 1:
            inv = pow(pivot[col], -1, p)
            pivot = a[r] = [x * inv % p for x in pivot]
        for k in range(r + 1, len(a)):
            f = a[k][col]
            if f:
                a[k] = [(x - f * y) % p for x, y in zip(a[k], pivot)]
        pivots.append(col)
        r += 1
        if r == m:
            break
    return pivots


def _pivots_mod_numpy(a, order, p, m):
    """:func:`_pivots_mod_python` on an int64 array, one vector step per pivot.

    The pivot row is scaled to 1, as there, and the step updates only the
    trailing block ``a[r+1:, col:]``, in place: the pivot row is zero left
    of its column.  The reduction mod p is delayed (Dumas, Giorgi and Pernet,
    FFLAS-FFPACK, ACM TOMS 35, 2008): a step reduces only the column that
    the pivot search and the multipliers read, and the pivot row, so each
    update subtracts less than ``(p-1)**2`` from an entry.  The block is
    reduced every :func:`_reduction_period` steps, before an entry could
    leave int64, and the whole array once at the end, which leaves the
    rows as the reduced ones of an elimination that reduces every step.
    Takes ``m >= 1``, as :func:`_echelon_mod` sends no ``m = 0`` here: row
    ``r < m`` is then a pivot candidate whenever it is nonzero in ``col``.
    """
    import numpy as np

    period = _reduction_period(p)
    r, pivots = 0, []
    for col in range(a.shape[1]):
        column = a[r:, col]
        column %= p
        if not column[0]:
            nz = np.flatnonzero(column[: m - r])
            if nz.size == 0:
                continue
            i = r + int(nz[0])
            a[[r, i]] = a[[i, r]]
            order[r], order[i] = order[i], order[r]
        pivot = _unit_pivot_row(a[r, col:], p)
        block = a[r + 1 :, col:]
        block -= block[:, :1] * pivot
        pivots.append(col)
        r += 1
        if len(pivots) % period == 0:
            block %= p
        if r == m:
            break
    a %= p
    return pivots


def _reduction_period(p):
    """Steps of delayed reduction mod ``p`` that an int64 entry survives.

    An entry starts in ``[0, p)`` and each step subtracts a product of two
    reduced values, at most ``(p-1)**2``, so after this many steps it is
    still above ``-2**63``: about 2,048 for the prescreen prime, 8 for a
    prime near ``2**30``.
    """
    return (2**63 - p) // (p - 1) ** 2


def _unit_pivot_row(row, p):
    """The int64 view ``row`` reduced mod ``p`` and scaled so its first entry is 1, in place."""
    row %= p
    row *= pow(int(row[0]), -1, p)
    row %= p
    return row


def echelon_mod_p(rows, echelon=((), ())):
    """Pivot columns and pivot rows of a row echelon form mod p of the integer ``rows``.

    Each pivot row is reduced mod p and scaled by the kernel so that its
    pivot entry is 1, so a single row is a canonical key of the line it
    spans mod p: two rows get the same one exactly when they are
    proportional mod p.
    ``echelon`` is an earlier result to extend by ``rows``:
    ``echelon_mod_p(b, echelon_mod_p(a))`` has the pivots of ``a + b``, and
    the rows of ``a`` enter it already in echelon form.  The pivot columns
    increase, so they are those of the reduced row echelon form mod p.
    Their count is a lower bound on the exact rank, ``rank_p <= rank``, as
    in :func:`rank`'s prescreen.  The elimination is
    :func:`_pivots_mod_python`, so no numpy is loaded.
    """
    p = _PRESCREEN_PRIME
    a = list(echelon[1]) + [[x % p for x in row] for row in rows]
    if not a:
        return (), []
    pivots = _pivots_mod_python(a, list(range(len(a))), p, len(a))
    return tuple(pivots), a[: len(pivots)]


def leave_one_out_ranks_mod_p(blocks, indices, ncols):
    """Ranks mod p of the stacked row ``blocks``, whole and without each ``blocks[i]``, i in ``indices``.

    Returns ``(full, without)`` with ``without[j]`` the rank of the stack
    without ``blocks[indices[j]]``.  One elimination takes its pivots from
    the rows of the other blocks alone and reduces the rows of the indexed
    blocks against them on the way, so each rank is that of the other blocks
    plus the rank of a few reduced rows on the free columns.  Every value is
    a lower bound on the exact rank, ``rank_p <= rank``, as in :func:`rank`'s
    prescreen, and it is known to be the rank when it meets
    ``min(rows, ncols)``.
    """
    p = _PRESCREEN_PRIME
    reduced = [[[x % p for x in row] for row in block] for block in blocks]
    kept = [row for i, block in enumerate(reduced) if i not in indices for row in block if any(row)]
    rows = kept + [row for i in indices for row in reduced[i]]
    pivots, rest = _echelon_mod(rows, list(range(len(rows))), p, len(kept))
    free = sorted(set(range(ncols)) - set(pivots))
    parts, start = [], 0
    for i in indices:
        parts.append([[row[j] for j in free] for row in rest[start : start + len(blocks[i])]])
        start += len(blocks[i])

    def rank_with(chosen):
        return len(pivots) + _rank_mod_int([row for part in chosen for row in part], p)[0]

    return rank_with(parts), [rank_with(parts[:j] + parts[j + 1 :]) for j in range(len(parts))]


def _inverse_mod(b, p):
    """Inverse mod ``p`` of a square int64 array that is nonsingular mod p.

    Gauss--Jordan on ``[b | I]`` with the delayed reduction of
    :func:`_pivots_mod_numpy`: the columns left of ``col`` are already unit
    columns, on which the pivot row is zero, so a step updates only
    ``a[:, col:]``, by multiples of the reduced pivot row read off the
    reduced column ``col``.
    """
    import numpy as np

    n = len(b)
    period = _reduction_period(p)
    a = np.concatenate([b % p, np.eye(n, dtype=np.int64)], axis=1)
    for col in range(n):
        column = a[:, col]
        column %= p
        if not column[col]:
            i = col + int(np.flatnonzero(column[col:])[0])
            a[[col, i]] = a[[i, col]]
        pivot = _unit_pivot_row(a[col, col:], p)
        update = a[:, col : col + 1] * pivot
        update[col] = 0
        a[:, col:] -= update
        if (col + 1) % period == 0:
            a %= p
    a %= p
    return a[:, n:]


def _lift(b, rhs, p, steps):
    """Yield ``(x, p**s)``, ``b x = rhs (mod p**s)``, for s = 8, 16, 32, ..., steps.

    Dixon's p-adic lifting (Numer. Math. 40, 1982): step s takes one digit
    ``x_s = b^-1 R mod p``, adds ``x_s p^s`` to ``x`` and divides the residual
    ``R - b x_s`` by p exactly.  |R| stays below ``rank + 1`` times the
    largest entry of ``b`` and ``rhs``, so the quotient fits int64 while that
    is below 2**62, and the numerator may wrap in uint64: multiplying by
    ``p^-1 mod 2**64`` recovers the quotient.
    """
    import numpy as np

    c = _inverse_mod(b, p)
    bu = b.view(np.uint64)
    p_inv = np.uint64(pow(p, -1, 2**64))
    x, modulus = 0, 1
    for step in range(1, steps + 1):
        digit = c @ (rhs % p) % p
        rhs = ((rhs.view(np.uint64) - bu @ digit.view(np.uint64)) * p_inv).view(np.int64)
        x = x + digit.astype(object) * modulus
        modulus *= p
        if step == steps or (step >= 8 and not step & (step - 1)):
            yield x, modulus


def _reconstruct(x, modulus):
    """``(den, nums)`` with ``x = nums / den (mod modulus)``, or None.

    One common denominator, grown by rational reconstruction (von zur
    Gathen--Gerhard, Modern Computer Algebra, 5.10) at each entry it does not
    yet clear, up to sqrt(modulus/2); numerators are the symmetric residues.
    """
    import numpy as np

    bound = isqrt(modulus // 2)
    den = 1
    for u in x.flat:
        r0, r1 = modulus, den * u % modulus
        if r1 <= bound or modulus - r1 <= bound:
            continue
        t0, t1 = 0, 1
        while r1 > bound:
            q = r0 // r1
            r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
        den *= abs(t1)
        if not 0 < den <= bound:
            return None
    nums = x * den % modulus
    return den, np.where(nums > modulus // 2, nums - modulus, nums)


def _kernel_certified(core, ncols, prows, pcols):
    """Whether ``ncols - len(pcols)`` kernel vectors of ``core`` check over Z.

    Free column ``f`` gets ``v`` with ``v[f] = den``, zero on the other free
    columns and ``B v[pcols] = -den A[prows, f]``, ``B`` the block that is
    nonsingular mod p.  Independent vectors with ``A v = 0`` cap the rank at
    ``len(pcols)``, and ``B`` gives the matching lower bound.  Each lift
    checkpoint is tried, up to the Hadamard bound that makes the
    reconstruction unique (Mulders--Storjohann, J. Symbolic Comput. 37, 2004,
    certify solving the same way).  False past the int64 guard, or when no
    vector set checks.
    """
    if len(core) < ncols:
        core, ncols, prows, pcols = [list(c) for c in zip(*core)], len(core), pcols, prows
    r = len(pcols)
    top = max(max(map(abs, row)) for row in core)
    if not 0 < r <= _KERNEL_MAX_RANK or (r + 1) * top >= 2**62:
        return False
    import numpy as np

    p = _PRESCREEN_PRIME
    a = np.array(core, dtype=np.int64)
    free = sorted(set(range(ncols)) - set(pcols))
    hadamard_sq = prod(sum(x * x for x in core[i]) for i in prows)
    steps = -(-(2 * hadamard_sq).bit_length() // (p.bit_length() - 1))
    exact = np.array(core, dtype=object)
    for x, modulus in _lift(a[np.ix_(prows, pcols)], -a[np.ix_(prows, free)], p, steps):
        found = _reconstruct(x, modulus)
        if found is None:
            continue
        den, nums = found
        v = np.zeros((ncols, len(free)), dtype=object)
        v[pcols] = nums
        v[free, range(len(free))] = den
        if not np.any(exact @ v):
            return True
    return False


def rank(rows, ncols):
    """Exact rank of a matrix given as an iterable of length-``ncols`` rows."""
    int_rows = [integerize(row)[0] for row in rows]
    gained, core, core_cols = _strip_unit_rows(int_rows, ncols)
    if not core:
        return gained
    r_p, prows, pcols = _rank_mod_int(core, _PRESCREEN_PRIME)
    if r_p == min(len(core), core_cols) or _kernel_certified(core, core_cols, prows, pcols):
        return gained + r_p
    return gained + _rank_bareiss(core, core_cols)


def reduced_echelon(rows, ncols):
    """Reduced row echelon form over Z of a matrix of ints and Fractions.

    Returns ``(rows, pivot_cols)``: the nonzero rows as tuples of ints, each
    primitive with a positive pivot and zero on the other pivot columns,
    so the primitive integer multiples of the rows of :func:`rref`.
    """
    red, pivots = _echelon([integerize(row)[0] for row in rows], ncols)
    for i in range(len(red) - 1, 0, -1):
        col = pivots[i]
        for k in range(i):
            if red[k][col]:
                red[k] = _eliminate(red[k], red[i], col)
    return [tuple(r) if r[col] > 0 else tuple(-x for x in r) for r, col in zip(red, pivots)], pivots


def rref(rows, ncols):
    """Reduced row echelon form over Fraction: :func:`reduced_echelon` with
    each row divided by its pivot.  Returns ``(rref_rows, pivot_cols)``."""
    red, pivots = reduced_echelon(rows, ncols)
    return [tuple(Fraction(x, r[col]) for x in r) for r, col in zip(red, pivots)], pivots


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

