"""Decision rules for curve existence over configurations of linear spaces.

A weight vector ``(l_0, ..., l_(n-2))`` asks for a rational normal curve in
P^n meeting ``l_i`` general i-dimensional subspaces each in a scheme of
length i+1.  ``classify`` runs a fixed battery of rules and returns the
first verdict, always with a machine-checkable certificate:

positive rules
    counting           sum (i+1) l_i <= n+3: interpolate through points;
    codim2-table       complete answer for p points + l codimension-2 spaces
                       with p >= 1, p + l = n + 3;
    segre-iff          complete answer when the spaces fill a hyperplane and
                       the leftovers are points;
    lines-table / one-each-table / homogeneous-bound
                       closed-form answers for the all-lines, one-space-per-
                       dimension, and single-dimension families.

negative rules
    parameter-count    conditions exceed the dimension (n+3)(n-1) of the
                       family of curves;
    the negative branches of the tables above;
    bezout             a component imposing independent conditions on the
                       degree-d forms through the rest contradicts the
                       intersection count when sum (i+1) l_i - 1 > d n;
    projection-chain   project away from a sub-configuration and detect a
                       non-feasible image by the base rules.

Sampled rules (bezout, projection) decide on three seeded samples and carry
a ``generic-sample`` caveat in their certificates.  Bezout screens each
(d, k) on sample 0 and draws samples 1 and 2 only for a (d, k) that passes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb
from typing import Optional, Sequence

from .arrangements import (
    ConditionMatrix,
    Configuration,
    WeightVector,
    agreed_hilbert,
    sample_configuration,
)
from .errors import (
    FatComponentPresent,
    GenericityExhausted,
    NoConstructivePath,
    RncError,
    VerificationFailed,
)
from .exactgeom import RESAMPLE_BUDGET, LinearSubspace, Rng, sample_point, sample_point_on, stable_mix
from .rnc import RationalCurve, intersection_degree, is_rnc, rnc_through_points
from .segre import SegreContext, witness_curve
from . import serialize

FEASIBLE = "Feasible"
NON_FEASIBLE = "NonFeasible"
UNKNOWN = "Unknown"


@dataclass(frozen=True)
class RunConfig:
    """Options shared by the decision rules and constructions."""

    seed: int = 0
    d_max: int = 3
    projection_depth: int = 2
    resample_budget: int = RESAMPLE_BUDGET


DEFAULTS = RunConfig()


@dataclass(frozen=True)
class Certificate:
    """Why a verdict holds; every number is recomputable from the weights."""

    rule: str
    params: dict
    seeds: tuple[int, ...] = ()
    caveats: tuple[str, ...] = ()
    child: Optional["Certificate"] = None

    def to_json(self) -> dict:
        out = {"rule": self.rule, "params": self.params}
        if self.seeds:
            out["seeds"] = list(self.seeds)
        if self.caveats:
            out["caveats"] = list(self.caveats)
        if self.child is not None:
            out["child"] = self.child.to_json()
        return out


@dataclass(frozen=True)
class Verdict:
    status: str
    certificate: Optional[Certificate]

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "certificate": None if self.certificate is None else self.certificate.to_json(),
        }


# ---------------------------------------------------------------------------
# closed-form rules


def check_counting_feasible(weights: WeightVector) -> Optional[Certificate]:
    """Feasible whenever all contact points fit among n+3 interpolation points."""
    total = weights.total_intersection()
    if total <= weights.n + 3:
        return Certificate(
            "counting",
            {"total_contact": total, "bound": weights.n + 3, "counts": list(weights.counts)},
        )
    return None


def check_parameter_count(weights: WeightVector) -> Optional[Certificate]:
    """Non-feasible when the imposed conditions exceed the family dimension."""
    cost = weights.parameter_cost()
    bound = (weights.n + 3) * (weights.n - 1)
    if cost > bound:
        return Certificate(
            "parameter-count",
            {"conditions": cost, "family_dim": bound, "counts": list(weights.counts)},
        )
    return None


def check_codim2_table(weights: WeightVector) -> Optional[tuple[str, Certificate]]:
    """Complete table for p points and l codim-2 spaces, p >= 1, p + l = n+3."""
    n = weights.n
    if n < 3:
        return None
    counts = weights.counts
    p, l = counts[0], counts[n - 2]
    if p < 1 or p + l != n + 3 or any(counts[1 : n - 2]):
        return None
    feasible_pairs = {(n + 3, 0), (n + 2, 1), (3, n), (2, n + 1), (1, n + 2)}
    cert = Certificate("codim2-table", {"points": p, "codim2_spaces": l, "n": n})
    if (p, l) in feasible_pairs:
        return FEASIBLE, cert
    assert p >= 4 and l >= 2, "table must cover every remaining pair"
    return NON_FEASIBLE, cert


def segre_pattern(weights: WeightVector) -> Optional[tuple[int, list[int]]]:
    """Split the vector as hyperplane-filling blocks plus s leftover points.

    The positive-dimensional components must all be blocks, so the number q
    of points serving as extra lines in the block profile is forced:
    ``q = n - sum_(i>=1) (i+1) l_i``.  Returns ``(s, block_dims)`` or None
    when no split exists (q out of range or fewer than two blocks).
    """
    n = weights.n
    higher = sum((i + 1) * c for i, c in enumerate(weights.counts) if i >= 1)
    q = n - higher
    if q < 0 or q > weights.counts[0]:
        return None
    blocks = [1] * q
    for i, c in enumerate(weights.counts):
        if i >= 1:
            blocks.extend([i + 1] * c)
    blocks.sort()
    if len(blocks) < 2:
        return None
    s = weights.counts[0] - q
    return s, blocks


def check_segre_iff(weights: WeightVector) -> Optional[tuple[str, Certificate]]:
    """Complete answer when the components fill a hyperplane plus points."""
    split = segre_pattern(weights)
    if split is None:
        return None
    s, blocks = split
    bound = SegreContext(tuple(blocks)).point_bound()
    cert = Certificate(
        "segre-iff",
        {"extra_points": s, "blocks": blocks, "point_bound": bound, "n": weights.n},
    )
    return (FEASIBLE if s <= bound else NON_FEASIBLE), cert


def check_homogeneous(weights: WeightVector) -> Optional[tuple[str, Certificate]]:
    """Closed-form families: one-per-dimension, all points, all lines,
    and a single dimension class in high ambient dimension."""
    n = weights.n
    counts = weights.counts
    if all(c == 1 for c in counts):
        cert = Certificate("one-each-table", {"n": n})
        if n <= 5:
            return FEASIBLE, cert
        if n >= 8:
            return NON_FEASIBLE, cert
        return None
    nz = [(i, c) for i, c in enumerate(counts) if c]
    if len(nz) != 1:
        return None
    i, count = nz[0]
    if i == 0:
        cert = Certificate("interpolation-bound", {"points": count, "bound": n + 3})
        return (FEASIBLE if count <= n + 3 else NON_FEASIBLE), cert
    if i == 1:
        return _lines_table(n, count)
    if n > i * i + 5 * i + 1:
        cert = Certificate(
            "homogeneous-bound", {"dim": i, "count": count, "n": n, "bound": n + 3}
        )
        if (i + 1) * count <= n + 3:
            return FEASIBLE, cert
        ceil = -((n + 3) // -(i + 1))
        if count > ceil:
            return NON_FEASIBLE, cert
    return None


def _lines_table(n: int, l: int) -> Optional[tuple[str, Certificate]]:
    cert = Certificate("lines-table", {"n": n, "lines": l})
    if n == 3:
        return (FEASIBLE if l <= 6 else NON_FEASIBLE), cert
    limit = n // 2 + 2
    if l <= limit:
        return FEASIBLE, cert
    if n == 5:
        return (NON_FEASIBLE, cert) if l >= 6 else None
    if n == 7:
        return (NON_FEASIBLE, cert) if l >= 7 else None
    return NON_FEASIBLE, cert


# ---------------------------------------------------------------------------
# sampled rules


def check_bezout(weights: WeightVector, opts: RunConfig = DEFAULTS) -> Optional[Certificate]:
    """Remove one component; if its conditions on degree-d forms through the
    rest are independent while the contact count exceeds d*n, no curve exists.

    Sample 0 screens each (d, k): only a (d, k) whose equation holds on it
    draws samples 1 and 2 (once per call), and the three samples decide under
    the policy of :func:`~rncurves.arrangements.agreed_hilbert`; a (d, k)
    whose samples disagree is skipped.  Agreement and the equation together
    imply the equation on sample 0, so the screen skips only what the policy
    would skip.
    """
    n = weights.n
    total = weights.total_intersection()
    if total == 0:
        return None
    usable = [d for d in range(1, opts.d_max + 1) if total - 1 > d * n]
    if not usable:
        return None
    dims_present = sorted({i for i, c in enumerate(weights.counts) if c})
    seeds = tuple(
        stable_mix(opts.seed, "bezout", n, weights.counts, t) for t in range(3)
    )
    try:
        first = sample_configuration(weights, Rng(seeds[0]))
    except GenericityExhausted:
        return None
    rest = None
    for d in usable:
        head = ConditionMatrix.build(first, d)
        head_full = head.hilbert()
        matrices = None
        for k in dims_present:
            drop = comb(d + k, k)
            idx = sum(weights.counts[:k])  # components are listed by ascending dimension
            if head_full != head.without(idx).hilbert() + drop:
                continue
            if matrices is None:
                if rest is None:
                    try:
                        rest = [sample_configuration(weights, Rng(s)) for s in seeds[1:]]
                    except GenericityExhausted:
                        return None
                matrices = [head, *(ConditionMatrix.build(cfg, d) for cfg in rest)]
                full, _ = agreed_hilbert(matrices, seeds)
            reduced, _ = agreed_hilbert([cm.without(idx) for cm in matrices], seeds)
            if not (full.agreed and reduced.agreed) or full.value != reduced.value + drop:
                continue
            return Certificate(
                "bezout",
                {
                    "degree": d,
                    "component_dim": k,
                    "component_index": idx,
                    "hilbert_full": full.value,
                    "hilbert_reduced": reduced.value,
                    "independent_conditions": drop,
                    "contact_count": total,
                    "n": n,
                    "counts": list(weights.counts),
                },
                seeds=seeds,
                caveats=("generic-sample",),
            )
    return None


def _reductions(weights: WeightVector):
    """Sound projections: remove a sub-configuration as center, carry the
    components small enough to stay disjoint from it, drop the rest."""
    n = weights.n
    counts = weights.counts
    # a center of total t <= n-2 takes at most (n-2)//(i+1) components of dimension i
    for sel in itertools.product(*(range(min(c, (n - 2) // (i + 1)) + 1) for i, c in enumerate(counts))):
        if not any(sel):
            continue
        t = sum((i + 1) * s for i, s in enumerate(sel))
        if t > n - 2:
            continue
        n_child = n - t
        child_counts = tuple(counts[j] - sel[j] for j in range(n_child - 1))
        child = WeightVector(n_child, child_counts)
        if child.is_zero():
            continue
        yield sel, child


def _base_nonfeasible(weights: WeightVector, opts: RunConfig, memo: dict) -> Optional[Certificate]:
    key = (weights.n, weights.counts)
    if key in memo:
        return memo[key]
    # the negative rules of the table that come before projection itself
    negative = [rule for rule, polarity in _rule_table() if polarity == NON_FEASIBLE]
    base = [(rule, NON_FEASIBLE) for rule in negative[: negative.index(check_projection)]]
    hit = _first_verdict(weights, opts, None, base)
    cert = hit.certificate if hit else None
    memo[key] = cert
    return cert


def check_projection(
    weights: WeightVector, opts: RunConfig = DEFAULTS, memo: Optional[dict] = None
) -> Optional[Certificate]:
    """Breadth-first search for a projection chain ending in a base rule.

    Each step removes a chosen sub-configuration (the projection center,
    total dimension-plus-one t) and lands in P^(n-t); components of
    dimension up to n-t-2 survive.  A child shown non-feasible by the
    parameter count, a complete table, or the degree rule certifies the
    source vector.
    """
    if opts.projection_depth < 1:
        return None
    if memo is None:
        memo = {}
    visited = {(weights.n, weights.counts)}
    frontier: list[tuple[WeightVector, tuple]] = [(weights, ())]
    for _ in range(opts.projection_depth):
        next_frontier = []
        for vec, chain in frontier:
            for sel, child in _reductions(vec):
                key = (child.n, child.counts)
                if key in visited:
                    continue
                visited.add(key)
                step = {
                    "center_counts": list(sel),
                    "from_n": vec.n,
                    "to_n": child.n,
                    "child_counts": list(child.counts),
                }
                new_chain = chain + (step,)
                base = _base_nonfeasible(child, opts, memo)
                if base is not None:
                    return Certificate(
                        "projection-chain",
                        {"steps": list(new_chain), "counts": list(weights.counts), "n": weights.n},
                        seeds=base.seeds,
                        caveats=base.caveats,
                        child=base,
                    )
                next_frontier.append((child, new_chain))
        frontier = next_frontier
    return None


# ---------------------------------------------------------------------------
# classification


def _rule_table() -> tuple:
    """(rule, polarity) pairs in decision order: positive rules, then negative.

    Three rules decide both ways and appear once per polarity.  The table is
    built per call so that each name resolves at call time, and a rebound
    module attribute (a test's monkeypatch) takes effect.
    """
    return (
        (check_counting_feasible, FEASIBLE),
        (check_codim2_table, FEASIBLE),
        (check_segre_iff, FEASIBLE),
        (check_homogeneous, FEASIBLE),
        (check_parameter_count, NON_FEASIBLE),
        (check_codim2_table, NON_FEASIBLE),
        (check_segre_iff, NON_FEASIBLE),
        (check_bezout, NON_FEASIBLE),
        (check_projection, NON_FEASIBLE),
        (check_homogeneous, NON_FEASIBLE),
    )


def _table_verdicts(weights: WeightVector, opts: RunConfig, memo: Optional[dict], table):
    """Yield ``(rule, polarity, verdict)`` along the table, lazily.

    Each rule runs at most once; its verdict (None when it is silent) is
    reused by a later entry of the same rule.  A rule that returns a bare
    certificate decides only its own polarity.
    """
    done: dict = {}
    for rule, polarity in table:
        if rule not in done:
            if rule is check_projection:
                hit = rule(weights, opts, memo)
            elif rule is check_bezout:
                hit = rule(weights, opts)
            else:
                hit = rule(weights)
            if isinstance(hit, Certificate):
                hit = (polarity, hit)
            done[rule] = Verdict(*hit) if hit else None
        yield rule, polarity, done[rule]


def _first_verdict(weights: WeightVector, opts: RunConfig, memo: Optional[dict], table) -> Optional[Verdict]:
    """The first verdict along the table that matches its entry's polarity."""
    for _, polarity, verdict in _table_verdicts(weights, opts, memo, table):
        if verdict is not None and verdict.status == polarity:
            return verdict
    return None


def classify(weights: WeightVector, opts: RunConfig = DEFAULTS, memo: Optional[dict] = None) -> Verdict:
    """First-hit verdict along the rule table: positive rules, then negative
    rules, else Unknown."""
    return _first_verdict(weights, opts, memo, _rule_table()) or Verdict(UNKNOWN, None)


def all_rule_verdicts(weights: WeightVector, opts: RunConfig = DEFAULTS) -> list[Verdict]:
    """Every rule's independent opinion (for soundness cross-checks), one per
    rule in table order."""
    by_rule = {rule: verdict for rule, _, verdict in _table_verdicts(weights, opts, None, _rule_table())}
    return [verdict for verdict in by_rule.values() if verdict is not None]


# ---------------------------------------------------------------------------
# witnesses


def verify_witness(curve, config: Configuration) -> tuple[bool, dict]:
    """Exact check that the curve meets every component maximally."""
    if not config.is_reduced():
        raise FatComponentPresent("witnesses are only defined for reduced configurations")
    same_space = curve.ambient == config.n
    report = {
        "ambient_dim": config.n,
        # a RationalCurve passed is_rnc when it was built
        "curve_is_normal": (isinstance(curve, RationalCurve) or is_rnc(curve)) and same_space,
        "components": [],
    }
    ok = report["curve_is_normal"]
    for idx, (space, _) in enumerate(config.components):
        expected = space.dim + 1
        got, note = None, "ambient mismatch"
        if same_space:
            try:
                got, note = intersection_degree(curve, space), None
            except RncError as e:
                note = type(e).__name__
        good = got == expected
        ok = ok and good
        entry = {"component": idx, "dim": space.dim, "expected": expected, "degree": got, "ok": good}
        if note:
            entry["error"] = note
        report["components"].append(entry)
    report["verified"] = ok
    return ok, report


def _pattern_choices(weights: WeightVector) -> list[tuple[int, ...]]:
    """Ways to pick components forming a hyperplane-filling block profile.

    A choice takes c_i components of dimension i with sum (i+1) c_i = n and
    at least two blocks; every component left over must be absorbable as
    interpolation points (i+1 points on a dim-i leftover), which caps the
    leftover total by the block profile's point bound.
    """
    n = weights.n
    choices = []
    s_req = weights.total_intersection() - n
    # blocks filling a hyperplane take at most n//(i+1) components of dimension i
    for sel in itertools.product(*(range(min(c, n // (i + 1)) + 1) for i, c in enumerate(weights.counts))):
        if sum((i + 1) * c for i, c in enumerate(sel)) != n:
            continue
        if sum(sel) < 2:
            continue
        blocks = []
        for i, c in enumerate(sel):
            blocks.extend([i + 1] * c)
        blocks.sort()
        if s_req > SegreContext(tuple(blocks)).point_bound():
            continue
        choices.append(sel)
    return choices


def build_witness(
    weights: WeightVector, opts: RunConfig = DEFAULTS
) -> tuple[RationalCurve, Configuration, Certificate]:
    """Construct and verify a curve for a feasible weight vector.

    Two constructive paths exist: plain interpolation when the contact
    points fit among n+3, and the block construction (with leftover
    components absorbed as specialized points) otherwise.  Construction is
    attempt-and-verify: a sampled configuration that defeats a construction
    is resampled up to the budget.
    """
    n = weights.n
    total = weights.total_intersection()
    counting = total <= n + 3
    choices = [] if counting else _pattern_choices(weights)
    if not counting and not choices:
        raise NoConstructivePath(
            f"no interpolation or block pattern applies to {weights.counts} in P^{n}"
        )
    base = Rng(stable_mix(opts.seed, "witness", n, weights.counts))
    last_error: Exception | None = None
    for attempt in range(opts.resample_budget):
        arng = base.derive(attempt)
        try:
            cfg = sample_configuration(weights, arng.derive("config"))
        except GenericityExhausted as e:
            last_error = e
            continue
        candidates = [None] if counting else choices
        for choice in candidates:
            try:
                if choice is None:
                    curve = _interpolation_witness(cfg, arng)
                else:
                    curve = _block_witness(cfg, choice, arng)
            except RncError as e:
                last_error = e
                continue
            ok, report = verify_witness(curve, cfg)
            if ok:
                cert = Certificate(
                    "witness-verified",
                    {
                        "counts": list(weights.counts),
                        "n": n,
                        "path": "interpolation" if choice is None else {"blocks": list(choice)},
                        "curve_digest": serialize.digest(serialize.enc_curve(curve)),
                        "config_digest": serialize.digest(serialize.enc_config(cfg)),
                    },
                    seeds=(arng.seed,),
                )
                return curve, cfg, cert
            last_error = VerificationFailed(str(report))
    raise last_error if last_error else VerificationFailed("witness construction failed")


def _interpolation_witness(cfg: Configuration, rng: Rng) -> RationalCurve:
    """Curve through (dim+1) sampled points on every component, padded to n+3."""
    n = cfg.n
    pts = []
    prng = rng.derive("points")
    for idx, (space, _) in enumerate(cfg.components):
        for j in range(space.dim + 1):
            pts.append(sample_point_on(space, prng.derive(idx, j)))
    pad = n + 3 - len(pts)
    for j in range(pad):
        pts.append(sample_point(n, prng.derive("pad", j)))
    curve, _ = rnc_through_points(pts)
    return curve


def _block_witness(cfg: Configuration, choice: Sequence[int], rng: Rng) -> RationalCurve:
    """Block construction with leftovers specialized onto their components."""
    by_dim: dict[int, list[LinearSubspace]] = {}
    for space, _ in cfg.components:
        by_dim.setdefault(space.dim, []).append(space)
    spaces = []
    leftovers = []
    for i in sorted(by_dim):
        take = choice[i] if i < len(choice) else 0
        spaces.extend(by_dim[i][:take])
        leftovers.extend(by_dim[i][take:])
    points = []
    prng = rng.derive("specialized")
    for idx, space in enumerate(leftovers):
        if space.dim == 0:
            points.append(space.points()[0])
        else:
            for j in range(space.dim + 1):
                points.append(sample_point_on(space, prng.derive(idx, j)))
    return witness_curve(spaces, points)


# ---------------------------------------------------------------------------
# atlas


@dataclass(frozen=True)
class AtlasRow:
    counts: tuple[int, ...]
    status: str
    rule: str
    digest: str


def enumerate_weights(n: int) -> list[WeightVector]:
    """All weight vectors whose parameter cost stays within the family dim."""
    if n < 2:
        raise ValueError("ambient dimension must be at least 2")
    bound = (n + 3) * (n - 1)
    costs = [(i + 1) * (n - 1 - i) for i in range(n - 1)]
    out = []

    def rec(i, counts, remaining):
        if i == n - 1:
            out.append(WeightVector(n, tuple(counts)))
            return
        c = 0
        while c * costs[i] <= remaining:
            rec(i + 1, counts + [c], remaining - c * costs[i])
            c += 1

    rec(0, [], bound)
    out.sort(key=lambda w: w.counts)
    return out


def atlas(n: int, opts: RunConfig = DEFAULTS) -> list[AtlasRow]:
    """Classify every in-range weight vector; rows sorted lexicographically."""
    memo: dict = {}
    rows = []
    for w in enumerate_weights(n):
        verdict = classify(w, opts, memo)
        cert = verdict.certificate
        rows.append(
            AtlasRow(
                counts=w.counts,
                status=verdict.status,
                rule=cert.rule if cert else "",
                digest=serialize.digest(cert.to_json()) if cert else "",
            )
        )
    return rows


def atlas_summary(rows: Sequence[AtlasRow]) -> dict:
    out = {FEASIBLE: 0, NON_FEASIBLE: 0, UNKNOWN: 0}
    for r in rows:
        out[r.status] += 1
    return out
