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
  ``rank <= rank_p``;
* the elimination :func:`_echelon`, when the certificate fails (a bad prime,
  or entries past its int64 guard).

numpy is bound lazily: it is imported on the first use by a large prescreen
core or a kernel certificate, so a command that reaches neither never loads
it.
"""

from __future__ import annotations

import importlib.util
import sys
from fractions import Fraction
from math import gcd, isqrt, lcm, prod


def _lazy_module(name):
    """The module *name*, loaded on its first attribute access.

    A module already in ``sys.modules`` is returned as it is: building a
    second, lazy copy would execute it again on first use.
    """
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


np = _lazy_module("numpy")

# The one prime of rank(): its prescreen and its kernel certificate.  A "bad"
# prime can only underestimate the rank, and then the certificate fails and
# the elimination runs, so every rank stays exact.  Below 2**26, so that the
# lifting product ``b^-1 (R mod p)`` sums at most _KERNEL_MAX_RANK terms
# under (p-1)**2 and stays in int64.
_PRESCREEN_PRIME = 2**26 - 5
_KERNEL_MAX_RANK = 2**63 // (_PRESCREEN_PRIME - 1) ** 2
# Prescreen cores with at most this many rows or columns are eliminated in
# plain Python, larger ones in numpy: below the bound numpy's fixed cost per
# pivot outweighs its vector speed (the crossover measured on the cores of
# the atlas and ideal benchmark passes).
_SMALL_CORE = 14


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


# perfbench/tracing.py wraps this name as ``linalg.bareiss``: since the kernel
# certificate it is only rank()'s fallback, taken when the certificate fails.
def _rank_bareiss(int_rows, ncols):
    """Exact rank of an integer matrix by the one elimination loop."""
    return len(_echelon(int_rows, ncols)[1])


def _rank_mod_int(int_rows, p):
    """Rank of an integer matrix modulo the odd prime ``p``.

    Returns ``(rank, pivot_rows, pivot_cols)``: the rows (indices into
    ``int_rows``) and columns of a ``rank x rank`` block nonsingular mod p.
    The pivot of each column is the first remaining row nonzero in it.  A
    core with at most ``_SMALL_CORE`` rows or columns is eliminated in plain
    Python, a larger one in numpy; both make the same swaps, so they return
    the same triple.
    """
    data = [[x % p for x in r] for r in int_rows]
    live = [i for i, r in enumerate(data) if any(r)]
    if not live:
        return 0, [], []
    rows = [data[i] for i in live]
    small = min(len(rows), len(rows[0])) <= _SMALL_CORE
    pivots = (_pivots_mod_python if small else _pivots_mod_numpy)(rows, live, p)
    return len(pivots), live[: len(pivots)], pivots


def _pivots_mod_python(a, order, p):
    """Pivot columns of the row echelon form mod p of the list rows ``a``.

    ``a`` is reduced in place, and ``order`` is swapped along with its rows.
    The pivot row is not scaled to 1; the rows below lose the same multiple
    of it either way.
    """
    m, r, pivots = len(a), 0, []
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
        inv = pow(pivot[col], -1, p)
        for k in range(r + 1, m):
            f = a[k][col]
            if f:
                c = f * inv % p
                a[k] = [(x - c * y) % p for x, y in zip(a[k], pivot)]
        pivots.append(col)
        r += 1
        if r == m:
            break
    return pivots


def _pivots_mod_numpy(rows, order, p):
    """:func:`_pivots_mod_python` on an int64 array, one vector step per pivot."""
    a = np.array(rows, dtype=np.int64)
    m, n = a.shape
    r, pivots = 0, []
    for col in range(n):
        nz = np.nonzero(a[r:, col])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
            order[r], order[i] = order[i], order[r]
        inv = pow(int(a[r, col]), -1, p)
        a[r] = (a[r] * inv) % p
        below = a[r + 1 :, col] != 0
        if below.any():
            block = a[r + 1 :][below]
            a[r + 1 :][below] = (block - np.outer(block[:, col], a[r])) % p
        pivots.append(col)
        r += 1
        if r == m:
            break
    return pivots


def _inverse_mod(b, p):
    """Inverse mod ``p`` of a square int64 array that is nonsingular mod p."""
    n = len(b)
    a = np.concatenate([b % p, np.eye(n, dtype=np.int64)], axis=1)
    for col in range(n):
        i = col + int(np.nonzero(a[col:, col])[0][0])
        if i != col:
            a[[col, i]] = a[[i, col]]
        a[col] = (a[col] * pow(int(a[col, col]), -1, p)) % p
        f = a[:, col].copy()
        f[col] = 0
        a = (a - np.outer(f, a[col])) % p
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
    int_rows = [integerize(row) for row in rows]
    gained, core, core_cols = _strip_unit_rows(int_rows, ncols)
    if not core:
        return gained
    r_p, prows, pcols = _rank_mod_int(core, _PRESCREEN_PRIME)
    if r_p == min(len(core), core_cols) or _kernel_certified(core, core_cols, prows, pcols):
        return gained + r_p
    return gained + _rank_bareiss(core, core_cols)


def rref(rows, ncols):
    """Reduced row echelon form over Fraction.

    Returns ``(rref_rows, pivot_cols)`` with zero rows dropped and every
    pivot normalized to 1.  The elimination and the back-substitution run
    on primitive integer rows; only the last step divides by the pivots.
    """
    red, pivots = _echelon([integerize(row) for row in rows], ncols)
    for i in range(len(red) - 1, 0, -1):
        col = pivots[i]
        for k in range(i):
            if red[k][col]:
                red[k] = _eliminate(red[k], red[i], col)
    out = [tuple(Fraction(x, r[col]) for x in r) for r, col in zip(red, pivots)]
    return out, pivots


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

