"""Configurations of (possibly fat) linear subspaces and their Hilbert data.

The degree-d piece of the ideal of a union of fat linear subspaces is cut
out by explicit linear conditions on the coefficients of a form.  For one
component of dimension k and multiplicity m inside P^n, choose coordinates
``x = y H`` in which the component is ``{y_(k+1) = ... = y_n = 0}``: the
rows of ``H`` are the component's integer generators G (tangential) and unit
vectors on the columns off a set of pivots (normal).  The pivots are those
of G's echelon mod p when it has k+1 rows: G's minor on them is nonzero mod
p, so nonzero over Z, and ``H`` is invertible.  Otherwise they are the
pivots of the component's RREF basis.  Vanishing to order m along the
component says precisely that every coefficient of ``F(y H)`` at
a monomial of *normal degree* below m (total degree in y_(k+1)..y_n) is
zero; the coefficient at ``y_T^tau y_N^nu`` is the Hasse derivative
``D^nu F`` in the normal directions, restricted to the component and read
at ``y_T^tau``.  Since each normal variable enters only its own coordinate,
these coefficients have a closed form: binomials in the normal exponents
times the entries of ``Sym^e(G)``, the symmetric powers of the generators,
built once per component.  Every condition row is a tuple of Python ints.
The row space is the annihilator of the degree-d piece of the component's
fat ideal, so it does not depend on the choice of ``H``: other tangential
rows or other pivots give other rows but the same ranks and Hilbert values.

Every sampler, here and in :mod:`rncurves.defectivity`, draws through one
loop, :func:`resample_configuration`, and one test, :func:`_pairwise_generic`.

Hilbert function values on sampled configurations are reported together
with the seeds used.  One policy, in :func:`agreed_hilbert`, serves every
caller: the caller derives three seeds, samples one configuration from each
and ranks each sample itself; the policy only weighs the three Hilbert
values.  The value is generic (``agreed``) only when all three are equal,
and on disagreement the reported value is that of the most generic sample,
the maximal Hilbert value (the minimal ideal dimension).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb
from operator import add, itemgetter, mul
from typing import Sequence

from . import linalg
from .errors import GenericityExhausted
from .exactgeom import (
    RESAMPLE_BUDGET,
    LinearSubspace,
    Rng,
    sample_generic_subspace,
    stable_mix,
)


@dataclass(frozen=True)
class WeightVector:
    """Component counts by dimension: counts[i] spaces of dimension i.

    The vector has length n-1 (dimensions 0 through n-2), the range in
    which a space imposes meaningful conditions on a degree-n curve.
    """

    n: int
    counts: tuple[int, ...]

    def __post_init__(self):
        counts = tuple(int(c) for c in self.counts)
        if self.n < 2:
            raise ValueError("ambient dimension must be at least 2")
        if len(counts) != self.n - 1:
            raise ValueError(f"need {self.n - 1} counts for P^{self.n}")
        if any(c < 0 for c in counts):
            raise ValueError("counts must be nonnegative")
        object.__setattr__(self, "counts", counts)

    def total_intersection(self) -> int:
        """Sum of (dim+1) over components: points of contact required."""
        return sum((i + 1) * c for i, c in enumerate(self.counts))

    def parameter_cost(self) -> int:
        """Conditions imposed on the space of rational normal curves."""
        return sum((i + 1) * (self.n - 1 - i) * c for i, c in enumerate(self.counts))

    def component_dims(self) -> list[int]:
        out = []
        for i, c in enumerate(self.counts):
            out.extend([i] * c)
        return out

    def is_zero(self) -> bool:
        return not any(self.counts)


@dataclass(frozen=True)
class Configuration:
    """An ordered tuple of components with multiplicities."""

    n: int
    components: tuple[tuple[LinearSubspace, int], ...]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("ambient dimension must be nonnegative")
        for s, m in self.components:
            if s.n != self.n:
                raise ValueError("component ambient mismatch")
            if m < 1:
                raise ValueError("multiplicities must be positive")
            if s.dim < 0:
                raise ValueError("empty component")

    def is_reduced(self) -> bool:
        return all(m == 1 for _, m in self.components)


def sample_configuration(weights: WeightVector, rng: Rng) -> Configuration:
    """Sample a reduced configuration in pairwise-general position.

    Components are listed by ascending dimension.  Resamples whole
    configurations up to the package budget; pairwise generality means every
    two components meet in the expected dimension ``k_a + k_b - n``.
    """
    draw = _spec_draw(weights.n, [(k, 1) for k in weights.component_dims()])
    return resample_configuration(weights.n, draw, rng, "config", f"configuration of weight {weights.counts}")


def sample_fat_configuration(n: int, spec: Sequence[tuple[int, int]], rng: Rng) -> Configuration:
    """Sample components with multiplicities given as (dim, mult) pairs."""
    return resample_configuration(n, _spec_draw(n, spec), rng, "fat-config", f"fat configuration {spec}")


def _spec_draw(n: int, spec: Sequence[tuple[int, int]]):
    """A draw of one generic subspace per (dim, mult) entry, entry i from ``sub.derive(i)``."""
    return lambda sub: [(sample_generic_subspace(n, k, sub.derive(i)), m) for i, (k, m) in enumerate(spec)]


def resample_configuration(n: int, draw, rng: Rng, tag: str, what: str) -> Configuration:
    """The one resampling loop: attempt a takes the (space, mult) components
    of ``draw(rng.derive(tag, a))`` once their spaces are pairwise generic.
    A draw that raises GenericityExhausted fails its attempt; after
    ``RESAMPLE_BUDGET`` attempts, this raises that no ``what`` is generic."""
    for attempt in range(RESAMPLE_BUDGET):
        try:
            components = draw(rng.derive(tag, attempt))
        except GenericityExhausted:
            continue
        if _pairwise_generic([s for s, _ in components], n):
            return Configuration(n, tuple(components))
    raise GenericityExhausted(f"no generic {what} in P^{n}")


def _pairwise_generic(spaces: Sequence[LinearSubspace], n: int) -> bool:
    """Every two spaces meet in dimension ``max(-1, k_a + k_b - n)``, that
    is, their generators together span ``cap = min(n+1, k_a + k_b + 2)``
    dims.  A rank mod p proves a pair generic when it meets the cap, since
    ``rank_p <= rank <= cap``.

    The point pairs are decided at once: a point's key is the one row of
    its cached echelon mod p, scaled to a leading 1, and two points with
    different keys are independent mod p, so ``rank_p = 2 = cap``.  When a
    point has no key (its generator is 0 mod p) or two keys are equal, the
    points go through the per-pair test with the other pairs: a's cached
    echelon mod p, extended by b's generators, ranks the pair mod p.  Any
    pair whose rank mod p falls short of the cap is decided by the exact
    ``linalg.rank`` of the stacked generators."""
    echelons = [s.modular_echelon for s in spaces if s.dim == 0]
    keyed = len({tuple(rows[0]) for pivots, rows in echelons if pivots}) == len(echelons)
    for i, a in enumerate(spaces):
        for b in spaces[i + 1 :]:
            if keyed and a.dim == b.dim == 0:
                continue
            cap = min(n + 1, a.dim + b.dim + 2)
            rank_p = len(linalg.echelon_mod_p(b.generators, a.modular_echelon)[0])
            if rank_p < cap and linalg.rank(a.generators + b.generators, n + 1) != cap:
                return False
    return True


def vanishing_conditions(component: LinearSubspace, mult: int, d: int) -> list[tuple[int, ...]]:
    """Integer condition rows forcing a degree-d form to vanish to order ``mult``.

    One row per y-monomial ``y_T^tau y_N^nu`` of degree d and normal degree
    ``|nu| < mult``: the coefficient of that monomial in ``F(y H)``, as a
    linear form in the coefficients of F.  That is the coefficient at
    ``y_T^tau`` of the Hasse derivative ``D^nu`` of ``F(y H)`` in the normal
    variables, restricted to the component (``y_N = 0``).  In the column of
    ``x^mu`` the row holds

        prod_c C(mu_c, nu_c) * Sym^e(G)[tau, mu - nu],   e = d - |nu|,

    and 0 unless ``mu >= nu`` on the normal columns; ``Sym^e(G)`` is built
    once per component by :func:`_sym_powers`.

    Rows are ordered by normal degree, then normal monomial, then tangential
    monomial, each in the shared lex-descending order; columns follow that
    order on the ambient coordinates.  For a reduced component (mult = 1)
    this is restriction to the subspace.  The row space depends only on the
    component, not on which integer generators span it or which pivots
    give its normal columns.
    """
    n = component.n
    k = component.dim
    if k < 0:
        raise ValueError("empty component")
    if mult < 1:
        raise ValueError("multiplicity must be positive")
    if k == n:
        raise ValueError("component fills the ambient space")
    pivots = component.modular_echelon[0]
    if len(pivots) != k + 1:
        pivots = component.pivot_columns()
    normals = tuple(j for j in range(n + 1) if j not in pivots)
    top = min(mult, d + 1)
    sym = _sym_powers(component.generators, n, d)
    rows = []
    for nd in range(top):
        table = sym[d - nd]
        for getter, weights in _normal_plans(n, normals, d, nd):
            for srow in table:
                rows.append(tuple(map(mul, weights, getter(srow))))
    return rows


def _sym_powers(generators, n: int, d: int) -> list[list[tuple[int, ...]]]:
    """Tables of ``Sym^e(G)`` for ``e = 0..d``, indexed by e.

    ``Sym^e(G)[tau, lam]`` is the coefficient of ``y^tau`` in ``g^lam``, the
    product of ``g_j^(lam_j)`` with ``g_j = sum_i G[i][j] y_i`` column j of
    the generators read as a linear form in the k+1 tangential variables.
    A table is a list of rows, one per tau.  Level e comes from level e-1 as
    ``g^lam = g_j * g^(lam - e_j)`` with j the first nonzero index of lam, so

        Sym^e(G)[tau, lam] = sum_i G[i][j] * Sym^(e-1)(G)[tau - e_i, lam - e_j];

    row tau is built whole from the gathered rows ``tau - e_i``.
    """
    level = [(1,)]
    tables = [level]
    for e in range(1, d + 1):
        firsts, lowers = _first_lowerings(n + 1, e)
        coeffs = [firsts(g) for g in generators]
        gathered = [lowers(row) for row in level]
        level = []
        for steps in _lowerings(len(generators), e):
            acc = None
            for i, t in steps:
                part = map(mul, coeffs[i], gathered[t])
                acc = part if acc is None else map(add, acc, part)
            level.append(tuple(acc))
        tables.append(level)
    return tables


@lru_cache(maxsize=None)
def monomials(nvars: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """All exponent tuples of the given total degree, lex descending: the
    one monomial order of condition-matrix columns and rows."""
    if nvars == 0:
        return ((),) if degree == 0 else ()
    if nvars == 1:
        return ((degree,),)
    out = []
    for first in range(degree, -1, -1):
        for rest in monomials(nvars - 1, degree - first):
            out.append((first,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def _lowerings(nvars: int, e: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """For each degree-e monomial m in nvars variables, in order, the pairs
    (i, index of ``m - e_i`` among degree e-1) over the i with ``m_i > 0``."""
    lower = {m: t for t, m in enumerate(monomials(nvars, e - 1))}
    return tuple(
        tuple((i, lower[m[:i] + (a - 1,) + m[i + 1 :]]) for i, a in enumerate(m) if a) for m in monomials(nvars, e)
    )


@lru_cache(maxsize=None)
def _first_lowerings(nvars: int, e: int) -> tuple[itemgetter, itemgetter]:
    """The first pair of each entry of :func:`_lowerings` as two gathers: the
    first index j with ``m_j > 0``, and the index of ``m - e_j``.  Callers
    have ``nvars >= 2`` and ``e >= 1``, so each gather returns a tuple."""
    firsts, lowers = zip(*(pairs[0] for pairs in _lowerings(nvars, e)))
    return itemgetter(*firsts), itemgetter(*lowers)


def _gather(indices):
    """``seq -> tuple(seq[i] for i in indices)``, for a single index too."""
    if len(indices) == 1:
        i = indices[0]
        return lambda seq: (seq[i],)
    return itemgetter(*indices)


@lru_cache(maxsize=None)
def _normal_plans(n: int, normals: tuple[int, ...], d: int, nd: int) -> tuple:
    """Per normal monomial nu of degree nd, in order: the gather from a
    ``Sym^(d-nd)`` row to the degree-d columns mu, reading entry ``mu - nu``,
    and the weights ``prod_c C(mu_c, nu_c)`` over ``normals``.  A column
    without ``mu >= nu`` on ``normals`` reads entry 0 with weight 0."""
    lower = {m: t for t, m in enumerate(monomials(n + 1, d - nd))}
    out = []
    for nu in monomials(len(normals), nd):
        indices, weights = [], []
        for mu in monomials(n + 1, d):
            lam, w = list(mu), 1
            for c, v in zip(normals, nu):
                lam[c] -= v
                w *= comb(mu[c], v)
            present = min(lam) >= 0
            indices.append(lower[tuple(lam)] if present else 0)
            weights.append(w if present else 0)
        out.append((_gather(indices), tuple(weights)))
    return tuple(out)


@dataclass(frozen=True)
class ConditionMatrix:
    """Condition rows of a configuration in degree d: one block of rows per component, in order."""

    n: int
    degree: int
    blocks: tuple[tuple[tuple[int, ...], ...], ...]

    @classmethod
    def build(cls, config: Configuration, d: int) -> "ConditionMatrix":
        return cls(config.n, d, tuple(tuple(vanishing_conditions(s, m, d)) for s, m in config.components))

    def without(self, index: int) -> "ConditionMatrix":
        """The matrix of the configuration without component ``index``, from the blocks at hand."""
        if not 0 <= index < len(self.blocks):
            raise IndexError(f"no block {index}")
        return ConditionMatrix(self.n, self.degree, self.blocks[:index] + self.blocks[index + 1 :])

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        return tuple(row for block in self.blocks for row in block)

    @property
    def ncols(self) -> int:
        return comb(self.n + self.degree, self.degree)

    def hilbert(self) -> int:
        """Hilbert function value: the rank of the stacked conditions."""
        return linalg.rank(self.rows, self.ncols)


def ideal_dimension(config: Configuration, d: int) -> int:
    """dim of the degree-d piece of the ideal of the (fat) configuration."""
    return comb(config.n + d, d) - hilbert_function(config, d)


def hilbert_function(config: Configuration, d: int) -> int:
    """Hilbert function of the configuration in degree d (codim of the ideal)."""
    return ConditionMatrix.build(config, d).hilbert()


@dataclass(frozen=True)
class GenericValue:
    """A sampled numeric invariant with its seed provenance."""

    value: int
    seeds: tuple[int, ...]
    agreed: bool
    caveats: tuple[str, ...] = ("generic-sample",)


def agreed_hilbert(values: Sequence[int], seeds: tuple[int, ...]) -> GenericValue:
    """The Hilbert value of seeded samples, by the one policy.

    ``values[i]`` is the Hilbert value of the sample drawn from ``seeds[i]``,
    ranked by the caller.  ``agreed`` is True when every value is the same;
    otherwise the reported value is that of the most generic sample, the
    maximal Hilbert value and so the minimal ideal dimension.
    """
    return GenericValue(max(values), seeds, len(set(values)) == 1)


def generic_hilbert(
    n: int, spec: Sequence[tuple[int, int]], d: int, seed: int
) -> tuple[GenericValue, GenericValue]:
    """Triple-seeded Hilbert function and ideal dimension for (dim, mult) specs.

    Returns ``(hilbert, ideal_dim)`` under the policy of :func:`agreed_hilbert`.
    """
    seeds = tuple(stable_mix(seed, "sample", t) for t in range(3))
    samples = [sample_fat_configuration(n, spec, Rng(s)) for s in seeds]
    hf = agreed_hilbert([hilbert_function(cfg, d) for cfg in samples], seeds)
    return hf, GenericValue(comb(n + d, d) - hf.value, seeds, hf.agreed)
