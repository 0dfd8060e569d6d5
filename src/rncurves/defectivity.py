"""Secant-defectivity bookkeeping for a family of quartic ideals.

In ``P^(2m+1)`` consider the scheme ``W``: one double point together with two
triple (m-1)-dimensional subspaces in general position, and add ``s`` further
generic double points ``Z``.  The quartic piece of ``I_W`` has dimension
``N = 3 (m+1)^2``; each double point is expected to drop it by ``2m + 2``.
When the actual dimension exceeds the expected value the corresponding
secant variety is defective, which happens here for every
``m + 2 <= s <= 2m + 1``.

Two disjoint (m-1)-spaces form a single dense orbit under projectivities,
and the ideal dimension is a projective invariant, so the pair is pinned to
coordinate subspaces, which keeps the condition matrix nearly monomial and
the exact rank cheap.  Only the points are sampled, through the resampling
loop every sampled configuration shares,
:func:`~rncurves.arrangements.resample_configuration`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .arrangements import Configuration, agreed_hilbert, hilbert_function, resample_configuration
from .errors import BoundViolated
from .exactgeom import LinearSubspace, Rng, sample_point, span, stable_mix, standard_point

DEGREE = 4


def ambient_dim(m: int) -> int:
    return 2 * m + 1


def base_ideal_dim(m: int) -> int:
    """dim (I_W)_4 for the double point + two triple (m-1)-spaces."""
    return 3 * (m + 1) ** 2


def point_drop(m: int) -> int:
    """Conditions a generic double point is expected to impose."""
    return 2 * m + 2


@dataclass(frozen=True)
class DefectQuery:
    m: int
    s: int

    def __post_init__(self):
        if self.m < 1:
            raise BoundViolated("m must be at least 1")
        if self.s < 0:
            raise BoundViolated("s must be nonnegative")

    @property
    def n(self) -> int:
        return ambient_dim(self.m)

    @property
    def expected_raw(self) -> int:
        return base_ideal_dim(self.m) - self.s * point_drop(self.m)

    @property
    def expected(self) -> int:
        return max(0, self.expected_raw)


@dataclass(frozen=True)
class DefectReport:
    query: DefectQuery
    actual: int
    seeds: tuple[int, ...]
    agreed: bool

    @property
    def expected(self) -> int:
        return self.query.expected

    @property
    def defective(self) -> bool:
        return self.actual > self.query.expected


def canonical_spaces(m: int) -> tuple[LinearSubspace, LinearSubspace]:
    """The coordinate models of the two disjoint (m-1)-spaces."""
    coords = [standard_point(ambient_dim(m), i) for i in range(2 * m)]
    return span(coords[:m]), span(coords[m:])


def _instance(m: int, s: int, seed: int) -> Configuration:
    """The pinned spaces and s+1 double points, the points drawn by the
    shared resampling loop until they are distinct and off both spaces."""
    n = ambient_dim(m)
    a, b = canonical_spaces(m)

    def draw(sub: Rng):
        pts = [span([sample_point(n, sub.derive(i))]) for i in range(s + 1)]
        return [(pts[0], 2), (a, 3), (b, 3), *((p, 2) for p in pts[1:])]

    return resample_configuration(n, draw, Rng(seed), "defect-points", "set of double points")


def defect_check(query: DefectQuery, seed: int = 0) -> DefectReport:
    """Triple-seeded exact dimension of the quartic ideal piece.

    Each sample is ranked here; under the policy of
    :func:`~rncurves.arrangements.agreed_hilbert`, a disagreement reports
    the minimal ideal dimension, that of the most generic sample.
    """
    seeds = tuple(stable_mix(seed, "sample", ("defect", query.m, query.s, t)) for t in range(3))
    samples = [_instance(query.m, query.s, s) for s in seeds]
    hf = agreed_hilbert([hilbert_function(cfg, DEGREE) for cfg in samples], seeds)
    return DefectReport(query, comb(query.n + DEGREE, DEGREE) - hf.value, seeds, hf.agreed)


def defect_sweep(m: int, seed: int = 0) -> list[DefectReport]:
    """Reports for s = 1 .. 2m+2 (one past the last defective value)."""
    if m < 1:
        raise BoundViolated("m must be at least 1")
    return [defect_check(DefectQuery(m, s), seed=seed) for s in range(1, 2 * m + 3)]
