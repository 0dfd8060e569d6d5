"""Configurations of (possibly fat) linear subspaces and their Hilbert data.

The degree-d piece of the ideal of a union of fat linear subspaces is cut
out by explicit linear conditions on the coefficients of a form.  For one
component of dimension k and multiplicity m inside P^n, choose coordinates
``y = x H^(-1)`` in which the component is ``{y_(k+1) = ... = y_n = 0}``;
vanishing to order m along it says precisely that every coefficient of a
monomial of *normal degree* below m (total degree in the y_(k+1)..y_n
variables) is zero.  Expanding ``F(y H)`` monomial by monomial, with the
expansion truncated at normal degree m-1, produces one condition row per
tracked monomial without ever computing the full substitution.  ``H`` is an
integer matrix (the component's integer generators and unit normals), so
every condition row is a tuple of Python ints; any other choice of
tangential rows changes the coordinates only within each normal degree and
gives the same row space, so ranks and Hilbert values do not depend on it.

Hilbert function values on sampled configurations are reported together
with the seeds used.  One policy, in :func:`agreed_hilbert`, serves every
caller: the caller derives three seeds and samples one configuration from
each; the value is generic (``agreed``) only when all three Hilbert values
are equal, and on disagreement the reported value is that of the most
generic sample, the maximal Hilbert value (the minimal ideal dimension).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterable, Sequence

from . import linalg
from .errors import FatComponentPresent, GenericityExhausted
from .exactgeom import (
    RESAMPLE_BUDGET,
    LinearSubspace,
    Rng,
    sample_generic_subspace,
    stable_mix,
)
from .multiforms import monomials


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
        for s, m in self.components:
            if s.n != self.n:
                raise ValueError("component ambient mismatch")
            if m < 1:
                raise ValueError("multiplicities must be positive")
            if s.dim < 0:
                raise ValueError("empty component")

    @classmethod
    def reduced(cls, n: int, spaces: Iterable[LinearSubspace]) -> "Configuration":
        return cls(n, tuple((s, 1) for s in spaces))

    def is_reduced(self) -> bool:
        return all(m == 1 for _, m in self.components)

    def weight_of(self) -> WeightVector:
        """Weight vector of a reduced configuration of small-dim components."""
        if not self.is_reduced():
            raise FatComponentPresent("weight vectors only describe reduced configurations")
        counts = [0] * (self.n - 1)
        for s, _ in self.components:
            if s.dim > self.n - 2:
                raise ValueError("component dimension exceeds n-2")
            counts[s.dim] += 1
        return WeightVector(self.n, tuple(counts))

    def without(self, index: int) -> "Configuration":
        comps = tuple(c for i, c in enumerate(self.components) if i != index)
        return Configuration(self.n, comps)

    def transformed(self, g) -> "Configuration":
        return Configuration(self.n, tuple((g.apply_subspace(s), m) for s, m in self.components))


def sample_configuration(weights: WeightVector, rng: Rng) -> Configuration:
    """Sample a reduced configuration in pairwise-general position.

    Components are listed by ascending dimension.  Resamples whole
    configurations up to the package budget; pairwise generality means every
    two components meet in the expected dimension ``k_a + k_b - n``.
    """
    dims = weights.component_dims()
    n = weights.n
    for attempt in range(RESAMPLE_BUDGET):
        sub = rng.derive("config", attempt)
        try:
            spaces = [sample_generic_subspace(n, k, sub.derive(i)) for i, k in enumerate(dims)]
        except GenericityExhausted:
            continue
        if _pairwise_generic(spaces, n):
            return Configuration.reduced(n, spaces)
    raise GenericityExhausted(f"no generic configuration of weight {weights.counts} in P^{n}")


def sample_fat_configuration(n: int, spec: Sequence[tuple[int, int]], rng: Rng) -> Configuration:
    """Sample components with multiplicities given as (dim, mult) pairs."""
    for attempt in range(RESAMPLE_BUDGET):
        sub = rng.derive("fat-config", attempt)
        try:
            spaces = [sample_generic_subspace(n, k, sub.derive(i)) for i, (k, _) in enumerate(spec)]
        except GenericityExhausted:
            continue
        if _pairwise_generic(spaces, n):
            return Configuration(n, tuple((s, m) for s, (_, m) in zip(spaces, spec)))
    raise GenericityExhausted(f"no generic fat configuration {spec} in P^{n}")


def _pairwise_generic(spaces: Sequence[LinearSubspace], n: int) -> bool:
    """Every two spaces meet in dimension ``max(-1, k_a + k_b - n)``, that
    is, their generators together span ``min(n+1, k_a + k_b + 2)`` dims."""
    for i, a in enumerate(spaces):
        for b in spaces[i + 1 :]:
            if linalg.rank(a.generators + b.generators, n + 1) != min(n + 1, a.dim + b.dim + 2):
                return False
    return True


def expected_conditions(n: int, k: int, mult: int, d: int) -> int:
    """Number of condition rows a fat component contributes in degree d."""
    return sum(comb(n - k - 1 + j, j) * comb(k + d - j, k) for j in range(min(mult, d + 1)))


def vanishing_conditions(component: LinearSubspace, mult: int, d: int) -> list[tuple[int, ...]]:
    """Integer condition rows forcing a degree-d form to vanish to order ``mult``.

    Rows are indexed by the monomials of normal degree < mult in the adapted
    coordinates; columns follow the shared monomial order on the ambient
    coordinates.  For a reduced component (mult = 1) this is restriction to
    the subspace; higher multiplicities add rows for the normal derivatives.
    The row space depends only on the component, not on which integer
    generators span it.
    """
    n = component.n
    k = component.dim
    if k < 0:
        raise ValueError("empty component")
    if mult < 1:
        raise ValueError("multiplicity must be positive")
    if k == n:
        raise ValueError("component fills the ambient space")
    cols = monomials(n + 1, d)
    # Adapted coordinates: tangential y_0..y_k are the component's integer
    # generators, normal y_(k+1).. are unit vectors on the basis's non-pivot
    # columns.
    h_rows = list(component.generators)
    pivots = set(component.pivot_columns())
    for j in range(n + 1):
        if j not in pivots:
            h_rows.append(tuple(int(i == j) for i in range(n + 1)))
    tracked = _tracked_monomials(n, k, mult, d)
    index = {m: i for i, m in enumerate(tracked)}
    rows = [[0] * len(cols) for _ in tracked]
    linforms = []
    for j in range(n + 1):
        linforms.append([(i, h_rows[i][j]) for i in range(n + 1) if h_rows[i][j]])
    zero_mono = (0,) * (n + 1)
    for ci, mu in enumerate(cols):
        poly = {zero_mono: 1}
        for j, e in enumerate(mu):
            for _ in range(e):
                poly = _mul_truncated(poly, linforms[j], k, mult)
                if not poly:
                    break
            if not poly:
                break
        for alpha, coeff in poly.items():
            rows[index[alpha]][ci] = coeff
    return [tuple(r) for r in rows]


def _tracked_monomials(n: int, k: int, mult: int, d: int) -> list[tuple[int, ...]]:
    """Degree-d monomials in y with normal degree below ``mult``."""
    out = []
    for nd in range(min(mult, d + 1)):
        for normal in monomials(n - k, nd):
            for tang in monomials(k + 1, d - nd):
                out.append(tang + normal)
    return out


def _mul_truncated(poly: dict, linform, k: int, mult: int) -> dict:
    out: dict = {}
    for alpha, c in poly.items():
        nd = sum(alpha[k + 1 :])
        for i, a in linform:
            if i > k and nd + 1 >= mult:
                continue
            beta = alpha[:i] + (alpha[i] + 1,) + alpha[i + 1 :]
            prev = out.get(beta)
            out[beta] = c * a if prev is None else prev + c * a
    return {b: c for b, c in out.items() if c}


@dataclass(frozen=True)
class ConditionMatrix:
    """Stacked condition rows for a configuration, with block provenance."""

    n: int
    degree: int
    rows: tuple[tuple[int, ...], ...]
    blocks: tuple[tuple[int, int, int], ...]  # (component index, row start, row end)

    @classmethod
    def build(cls, config: Configuration, d: int) -> "ConditionMatrix":
        rows: list[tuple[int, ...]] = []
        blocks = []
        for idx, (space, mult) in enumerate(config.components):
            start = len(rows)
            rows.extend(vanishing_conditions(space, mult, d))
            blocks.append((idx, start, len(rows)))
        return cls(config.n, d, tuple(rows), tuple(blocks))

    def without(self, index: int) -> "ConditionMatrix":
        """The matrix of ``config.without(index)``, from the blocks at hand."""
        rows: list[tuple[int, ...]] = []
        blocks = []
        for idx, start, end in self.blocks:
            if idx != index:
                blocks.append((idx - (idx > index), len(rows), len(rows) + end - start))
                rows.extend(self.rows[start:end])
        return ConditionMatrix(self.n, self.degree, tuple(rows), tuple(blocks))

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


def agreed_hilbert(
    matrices: Sequence[ConditionMatrix], seeds: tuple[int, ...]
) -> tuple[GenericValue, GenericValue]:
    """Hilbert function and ideal dimension of seeded samples, by the one policy.

    ``matrices[i]`` is the condition matrix of the configuration drawn from
    ``seeds[i]``, all in one degree.  ``agreed`` is True when every sample has
    the same Hilbert value; otherwise the reported value is that of the most
    generic sample, the maximal Hilbert value and so the minimal ideal
    dimension.
    """
    values = [cm.hilbert() for cm in matrices]
    agreed = len(set(values)) == 1
    hf = max(values)
    total = matrices[0].ncols
    return GenericValue(hf, seeds, agreed), GenericValue(total - hf, seeds, agreed)


# Accepted backend names.  Both select the one exact rank path; "modular"
# stays valid so that existing callers and command lines keep working.
BACKENDS = ("exact", "modular")


def check_backend(backend: str) -> None:
    """Reject a backend name outside :data:`BACKENDS` with ``ValueError``."""
    if backend not in BACKENDS:
        raise ValueError(f"unknown rank backend {backend!r}")


def generic_hilbert(
    n: int,
    spec: Sequence[tuple[int, int]],
    d: int,
    seed: int,
    backend: str = "exact",
) -> tuple[GenericValue, GenericValue]:
    """Triple-seeded Hilbert function and ideal dimension for (dim, mult) specs.

    Returns ``(hilbert, ideal_dim)`` under the policy of :func:`agreed_hilbert`.
    ``backend`` must name one of :data:`BACKENDS`; every value is exact.
    """
    check_backend(backend)
    seeds = tuple(stable_seed(seed, t) for t in range(3))
    samples = [sample_fat_configuration(n, spec, Rng(s)) for s in seeds]
    return agreed_hilbert([ConditionMatrix.build(cfg, d) for cfg in samples], seeds)


def stable_seed(seed: int, tag) -> int:
    return stable_mix(seed, "sample", tag)
