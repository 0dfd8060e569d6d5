"""Decision rules, certificates, witnesses, and the classification atlas."""

import hashlib
import json
from math import comb

import pytest

from rncurves import arrangements, feasibility, linalg
from rncurves.arrangements import ConditionMatrix, WeightVector, sample_configuration
from rncurves.cli import EXIT_VERIFY, main
from rncurves.errors import (
    CoincidentParameters,
    FrameDegenerate,
    GenericityExhausted,
    NoConstructivePath,
    RncError,
    VerificationFailed,
)
from rncurves.exactgeom import Rng, meet, sample_generic_subspace, stable_mix
from rncurves.feasibility import (
    DEFAULTS,
    FEASIBLE,
    NON_FEASIBLE,
    UNKNOWN,
    Certificate,
    RunConfig,
    _first_verdict,
    _pattern_choices,
    _reductions,
    _rule_table,
    all_rule_verdicts,
    atlas,
    atlas_summary,
    build_witness,
    check_bezout,
    check_codim2_table,
    check_counting_feasible,
    check_homogeneous,
    check_parameter_count,
    check_projection,
    check_segre_iff,
    classify,
    enumerate_weights,
    segre_pattern,
    verify_witness,
)
from rncurves.rnc import is_rnc


def w(n, *counts):
    return WeightVector(n, tuple(counts))


# ---------------------------------------------------------------- simple rules


def test_counting_rule_boundary():
    cert = check_counting_feasible(w(3, 6, 0))
    assert cert is not None and cert.rule == "counting"
    assert cert.params["total_contact"] == 6
    assert check_counting_feasible(w(3, 7, 0)) is None
    # (1,1,...,1) hits the bound exactly for n = 4: 1+2+3 = 7 = n+3
    assert check_counting_feasible(w(4, 1, 1, 1)) is not None
    assert check_counting_feasible(w(5, 1, 1, 1, 1)) is None


def test_parameter_count_rule_boundary():
    # 7 lines in P^3 cost 14 > (n+3)(n-1) = 12
    cert = check_parameter_count(w(3, 0, 7))
    assert cert is not None and cert.rule == "parameter-count"
    assert check_parameter_count(w(3, 0, 6)) is None
    # boundary case is not excluded: cost == bound stays silent
    assert check_parameter_count(w(5, 5, 2, 0, 0)) is None


def test_codim2_table_exact_pairs():
    feasible_pairs = {(6, 0), (5, 1), (3, 3), (2, 4), (1, 5)}
    for p in range(1, 7):
        l = 6 - p
        got = check_codim2_table(w(3, p, l))
        assert got is not None
        status, cert = got
        assert cert.rule == "codim2-table"
        expected = FEASIBLE if (p, l) in feasible_pairs else NON_FEASIBLE
        assert status == expected
    # the table only speaks about p + l = n + 3 with p >= 1
    assert check_codim2_table(w(3, 2, 3)) is None
    assert check_codim2_table(w(3, 0, 6)) is None
    assert check_codim2_table(w(4, 4, 3, 0)) is None  # lines are not codim 2 in P^4
    # codim-2 spaces in P^4 are planes: counts (p, 0, l)
    status, cert = check_codim2_table(w(4, 5, 0, 2))
    assert status == NON_FEASIBLE
    assert check_codim2_table(w(4, 4, 0, 3))[0] == NON_FEASIBLE
    assert check_codim2_table(w(4, 3, 0, 4))[0] == FEASIBLE


def test_segre_pattern_splits():
    assert segre_pattern(w(5, 5, 1, 1, 0)) == (5, [2, 3])
    # two points promoted to line blocks: q = n - 4 = 1 for (3,1,1) in P^4
    assert segre_pattern(w(4, 3, 1, 1)) is None  # q = 4 - 5 < 0
    assert segre_pattern(w(4, 3, 0, 1)) == (2, [1, 3])
    assert segre_pattern(w(3, 3, 1)) == (2, [1, 2])
    # fewer than two blocks is not a product
    assert segre_pattern(w(3, 2, 0)) is None
    # two lines fill the dimension budget exactly, leaving q = 0 blocks
    assert segre_pattern(w(4, 1, 2, 0)) == (1, [2, 2])
    # q may not exceed the available points: q = 4 - 2 = 2 > 0
    assert segre_pattern(w(4, 0, 1, 0)) is None


# sha256 of (segre_pattern, _pattern_choices) over enumerate_weights(2..7),
# recorded while each of them built its block profile on its own
PINNED_BLOCK_PROFILES_SHA256 = "aee38e35bf3318a56e0f8ef9d9e05fc3395c6f7491f1c2053f29426a9f4ec21a"


def test_block_profiles_are_pinned():
    h = hashlib.sha256()
    vectors = [v for n in range(2, 8) for v in enumerate_weights(n)]
    assert len(vectors) == 2135
    for v in vectors:
        h.update(repr((segre_pattern(v), _pattern_choices(v))).encode())
    assert h.hexdigest() == PINNED_BLOCK_PROFILES_SHA256


def test_segre_iff_rule_both_directions():
    status, cert = check_segre_iff(w(5, 5, 1, 1, 0))
    assert status == FEASIBLE
    assert cert.rule == "segre-iff"
    assert cert.params == {"extra_points": 5, "blocks": [2, 3], "point_bound": 5, "n": 5}
    status, cert = check_segre_iff(w(5, 6, 1, 1, 0))
    assert status == NON_FEASIBLE
    assert cert.params["extra_points"] == 6
    assert check_segre_iff(w(5, 0, 1, 0, 0)) is None


def test_one_each_table():
    for n in (3, 4, 5):
        got = check_homogeneous(w(n, *([1] * (n - 1))))
        assert got is not None and got[0] == FEASIBLE
    for n in (6, 7):
        assert check_homogeneous(w(n, *([1] * (n - 1)))) is None
    for n in (8, 9):
        got = check_homogeneous(w(n, *([1] * (n - 1))))
        assert got is not None and got[0] == NON_FEASIBLE
        assert got[1].rule == "one-each-table"


def test_lines_table_rule():
    assert check_homogeneous(w(3, 0, 6))[0] == FEASIBLE
    assert check_homogeneous(w(3, 0, 7))[0] == NON_FEASIBLE
    assert check_homogeneous(w(4, 0, 4, 0))[0] == FEASIBLE
    assert check_homogeneous(w(4, 0, 5, 0))[0] == NON_FEASIBLE
    assert check_homogeneous(w(5, 0, 4, 0, 0))[0] == FEASIBLE
    assert check_homogeneous(w(5, 0, 5, 0, 0)) is None  # open case
    assert check_homogeneous(w(5, 0, 6, 0, 0))[0] == NON_FEASIBLE
    assert check_homogeneous(w(7, 0, 6, 0, 0, 0, 0)) is None  # open case
    assert check_homogeneous(w(7, 0, 7, 0, 0, 0, 0))[0] == NON_FEASIBLE


def test_single_class_bound_in_high_dimension():
    # dim-2 components need n > 15
    assert check_homogeneous(w(16, *([0] * 15))) is None  # zero vector
    counts = [0] * 15
    counts[2] = 6  # 3*6 = 18 <= 19: counting decides first, so the rule is silent
    verdict = classify(w(16, *counts))
    assert (verdict.status, verdict.certificate.rule) == (FEASIBLE, "counting")
    assert check_homogeneous(w(16, *counts)) is None
    counts[2] = 8  # 8 > ceil(19/3) = 7
    assert check_homogeneous(w(16, *counts))[0] == NON_FEASIBLE
    counts[2] = 7  # the gap stays open
    assert check_homogeneous(w(16, *counts)) is None
    # same class in low ambient dimension: the rule stays silent
    low = [0] * 4
    low[2] = 2
    assert check_homogeneous(w(5, *low)) is None


def _removed_single_class_status(n, i, count):
    """The status the removed single-class branches of ``check_homogeneous``
    gave, or None where they were silent: ``interpolation-bound`` on points,
    and the Feasible branch of ``homogeneous-bound``."""
    if i == 0:
        return FEASIBLE if count <= n + 3 else NON_FEASIBLE
    if i > 1 and n > i * i + 5 * i + 1 and (i + 1) * count <= n + 3:
        return FEASIBLE
    return None


def test_removed_single_class_branches_are_decided_earlier():
    # classify reaches the same status through counting or parameter-count,
    # which precede check_homogeneous in the table
    spoke = 0
    for n in range(2, 31):
        for i in range(n - 1):
            for count in range(1, n + 6):
                want = _removed_single_class_status(n, i, count)
                if want is None:
                    continue
                counts = [0] * (n - 1)
                counts[i] = count
                verdict = classify(w(n, *counts))
                assert verdict.status == want, (n, i, count)
                assert verdict.certificate.rule in ("counting", "parameter-count"), (n, i, count)
                # one point of P^2 is also the one-each family
                hit = check_homogeneous(w(n, *counts))
                assert hit is None or (n, hit[1].rule) == (2, "one-each-table")
                spoke += 1
    assert spoke == sum(n + 5 for n in range(2, 31)) + sum(
        (n + 3) // (i + 1) for i in (2, 3) for n in range(i * i + 5 * i + 2, 31)
    )


# ---------------------------------------------------------------- sampled rules


def test_bezout_rule_five_lines_in_p4():
    cert = check_bezout(w(4, 0, 5, 0), DEFAULTS)
    assert cert is not None
    assert cert.rule == "bezout"
    assert cert.params["degree"] == 2
    assert cert.params["component_dim"] == 1
    assert cert.params["hilbert_full"] == 15
    assert cert.params["hilbert_reduced"] == 12
    assert cert.params["independent_conditions"] == 3
    assert cert.params["contact_count"] == 10
    assert len(cert.seeds) == 3
    assert "generic-sample" in cert.caveats


def test_bezout_rule_silent_on_feasible_vector():
    assert check_bezout(w(3, 6, 0), DEFAULTS) is None
    assert check_bezout(w(4, 0, 4, 0), DEFAULTS) is None


def _counting_sampler(monkeypatch, fail_on=None):
    """Wrap feasibility.sample_configuration, recording each call; the call
    numbered ``fail_on`` (from 1) raises GenericityExhausted instead."""
    from rncurves import feasibility

    calls = []

    def stub(weights, rng):
        calls.append(rng.seed)
        if len(calls) == fail_on:
            raise GenericityExhausted("stub")
        return sample_configuration(weights, rng)

    monkeypatch.setattr(feasibility, "sample_configuration", stub)
    return calls


def test_bezout_without_a_hit_draws_one_sample(monkeypatch):
    # 1 point and 3 lines in P^3: contact 7 > 1 + n, so d = 1 is usable;
    # the vector is Unknown in the atlas, so no (d, k) passes
    weights = w(3, 1, 3)
    assert weights.total_intersection() - 1 > weights.n
    calls = _counting_sampler(monkeypatch)
    assert check_bezout(weights, DEFAULTS) is None
    assert len(calls) == 1


def test_bezout_hit_draws_three_samples_once(monkeypatch):
    calls = _counting_sampler(monkeypatch)
    cert = check_bezout(w(4, 0, 5, 0), DEFAULTS)
    assert cert is not None
    assert calls == list(cert.seeds)


def test_bezout_genericity_failure_on_a_later_sample_is_silent(monkeypatch):
    five_lines = w(4, 0, 5, 0)
    assert check_bezout(five_lines, DEFAULTS) is not None
    calls = _counting_sampler(monkeypatch, fail_on=2)
    assert check_bezout(five_lines, DEFAULTS) is None
    assert len(calls) == 2


@pytest.mark.parametrize("n, screened, passed", [(3, 50, 2), (4, 258, 5), (5, 1048, 22)])
def test_bezout_screen_decides_as_the_exact_ranks(n, screened, passed):
    # every (d, k) that check_bezout screens on sample 0 of an atlas vector
    # passes the screen exactly when the exact ranks satisfy the equation
    seen = hits = 0
    for weights in enumerate_weights(n):
        usable = [d for d in (1, 2, 3) if weights.total_intersection() - 1 > d * n]
        if not usable:
            continue
        dims = sorted({i for i, c in enumerate(weights.counts) if c})
        cfg = sample_configuration(weights, Rng(stable_mix(0, "bezout", n, weights.counts, 0)))
        for d in usable:
            head = ConditionMatrix.build(cfg, d)
            full = head.hilbert()
            want = []
            for k in dims:
                idx, drop = sum(weights.counts[:k]), comb(d + k, k)
                if full == head.without(idx).hilbert() + drop:
                    want.append((k, idx, drop))
            assert feasibility._screened(head, dims, weights.counts) == (full, want), (weights, d)
            seen += len(dims)
            hits += len(want)
    assert (seen, hits) == (screened, passed)


def test_bezout_screen_ranks_exactly_below_the_cap():
    # the kept row is 0 mod p, so the modular bound on the full rank (1) is
    # below the cap (2): the screen must take the exact rank, 2 = 1 + 1
    p = linalg._PRESCREEN_PRIME
    head = ConditionMatrix(2, 1, (((0, 0, 1),), ((p, 0, 0),)))
    assert linalg.leave_one_out_ranks_mod_p(head.blocks, [0], 3) == (1, [0])
    assert feasibility._screened(head, [0], (2,)) == (2, [(0, 0, 1)])


def test_bezout_lemma_bounds_every_component_that_meets_another():
    # A k-space L that meets the rest X adds at most C(d+k, k) - 1 conditions
    # in degree d: (I_X + I_L)_d lies in I(X ∩ L)_d, and X ∩ L is not empty.
    # So the Bézout equation fails for L on every sample, which is why
    # check_bezout screens no such k.  On sample 0 of each atlas vector of P^4
    # and P^5 with a usable degree, the first k-space meets another component
    # exactly when k + a >= n for the dimension a of some other component,
    # and its exact ranks obey the bound.
    dropped = tight = 0
    for n in (4, 5):
        for weights in enumerate_weights(n):
            usable = [d for d in (1, 2, 3) if weights.total_intersection() - 1 > d * n]
            if not usable:
                continue
            cfg = sample_configuration(weights, Rng(stable_mix(0, "bezout", n, weights.counts, 0)))
            spaces = [space for space, _ in cfg.components]
            meeting = []
            for k in sorted({space.dim for space in spaces}):
                idx = sum(weights.counts[:k])
                others = spaces[:idx] + spaces[idx + 1 :]
                meets = any(meet(spaces[idx], other).dim >= 0 for other in others)
                assert meets == any(k + other.dim >= n for other in others), (weights, k)
                if meets:
                    meeting.append((k, idx))
            if not meeting:
                continue
            for d in usable:
                head = ConditionMatrix.build(cfg, d)
                full = head.hilbert()
                for k, idx in meeting:
                    slack = head.without(idx).hilbert() + comb(d + k, k) - 1 - full
                    assert slack >= 0, (weights, d, k)
                    dropped += 1
                    tight += slack == 0
    assert (dropped, tight) == (587, 8)


# What check_bezout does over atlas(n), by n: the ambient dimension, the
# candidate dimensions and the counts of every screen, and the number of
# configurations it samples.  Shared by the tests below, which read it only.
BEZOUT_WORK = {}


def bezout_work(n):
    if n not in BEZOUT_WORK:
        screens, screened = [], feasibility._screened

        def recording(head, dims, counts):
            screens.append((head.n, tuple(dims), tuple(counts)))
            return screened(head, dims, counts)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(feasibility, "_screened", recording)
            samples = _counting_sampler(mp)
            atlas(n, DEFAULTS)
        BEZOUT_WORK[n] = screens, len(samples)
    return BEZOUT_WORK[n]


@pytest.mark.parametrize("n", [4, 5])
def test_bezout_screens_no_component_that_meets_another(n):
    # pairwise generic spaces of dimensions k and a meet exactly when
    # k + a >= n; another space of dimension k counts when l_k >= 2
    screens, _ = bezout_work(n)
    assert screens
    for ambient, dims, counts in screens:
        present = [a for a, c in enumerate(counts) if c]
        for k in dims:
            others = [a for a in present if a != k] + [k] * (counts[k] >= 2)
            assert all(k + a < ambient for a in others), (ambient, counts, k)


def test_bezout_without_a_disjoint_component_draws_no_sample(monkeypatch):
    # seven planes in P^4 meet pairwise (2 + 2 >= 4), and the contact count
    # 21 makes every degree up to 3 usable
    weights = w(4, 0, 0, 7)
    assert weights.total_intersection() - 1 > 3 * weights.n
    calls = _counting_sampler(monkeypatch)
    assert check_bezout(weights, DEFAULTS) is None
    assert calls == []


@pytest.mark.parametrize("n, samples, candidates", [(4, 57, 144), (5, 253, 610)])
def test_bezout_work_over_the_atlas_is_pinned(n, samples, candidates):
    # counts that do not depend on the machine: a change that screens or
    # samples for a (d, k) that cannot pass moves them
    screens, drawn = bezout_work(n)
    assert (drawn, sum(len(dims) for _, dims, _ in screens)) == (samples, candidates)


def _sampled_bases(monkeypatch, draw=sample_generic_subspace):
    """atlas(4) at seed 0 with ``draw`` as the subspace sampler: the number
    of linalg.reduced_echelon calls, of sampled components that hold a
    built exact echelon, and of sampled components."""
    echelons, configs = [], []
    reduced_echelon = linalg.reduced_echelon
    monkeypatch.setattr(
        linalg, "reduced_echelon", lambda rows, ncols: echelons.append(ncols) or reduced_echelon(rows, ncols)
    )
    monkeypatch.setattr(arrangements, "sample_generic_subspace", draw)

    def recording(weights, rng):
        configs.append(sample_configuration(weights, rng))
        return configs[-1]

    monkeypatch.setattr(feasibility, "sample_configuration", recording)
    atlas(4, DEFAULTS)
    spaces = [s for cfg in configs for s, _ in cfg.components]
    return len(echelons), sum("echelon" in vars(s) for s in spaces), len(spaces)


def test_atlas_builds_no_sampled_basis(monkeypatch):
    # the draws, the pairwise test and the condition rows read only the
    # generators and their echelon mod p
    echelons, built, spaces = _sampled_bases(monkeypatch)
    assert (echelons, built) == (0, 0) and spaces > 0


def test_sampled_basis_guard_catches_a_basis_read(monkeypatch):
    def reading(n, k, rng):
        s = sample_generic_subspace(n, k, rng)
        assert len(s.basis) == k + 1
        return s

    echelons, built, spaces = _sampled_bases(monkeypatch, reading)
    assert echelons >= built == spaces > 0


# Vectors whose classify ranked sample 0's full Bézout matrix twice while the
# three-sample policy ranked the matrices it was given: once in the screen
# (its mod-p bound below the cap) and again under the policy.
RANKED_TWICE_BEFORE = [
    (3, 0, 2, 2), (3, 1, 0, 3), (5, 0, 1, 1),
    (2, 2, 0, 1, 2), (2, 2, 0, 2, 0), (3, 0, 0, 3, 1), (3, 0, 1, 1, 2), (3, 1, 0, 0, 3),
    (4, 1, 0, 2, 0), (4, 1, 1, 0, 1), (5, 0, 0, 0, 3), (5, 0, 0, 1, 1), (6, 0, 1, 0, 1),
]


@pytest.mark.parametrize("counts", RANKED_TWICE_BEFORE, ids=lambda c: "-".join(map(str, c)))
def test_classify_ranks_no_matrix_twice(monkeypatch, counts):
    seen = []
    rank = linalg.rank

    def recording(rows, ncols):
        seen.append((tuple(map(tuple, rows)), ncols))
        return rank(rows, ncols)

    monkeypatch.setattr(linalg, "rank", recording)
    assert classify(w(len(counts) + 1, *counts), DEFAULTS).certificate.rule == "bezout"
    assert len(seen) == len(set(seen))


def test_projection_rule_frozen_chain():
    cert = check_projection(w(5, 5, 0, 2, 0), DEFAULTS)
    assert cert is not None
    assert cert.rule == "projection-chain"
    assert cert.params["steps"] == [
        {"center_counts": [1, 0, 0, 0], "from_n": 5, "to_n": 4, "child_counts": [4, 0, 2]}
    ]
    assert cert.child is not None and cert.child.rule == "bezout"
    assert cert.child.params["degree"] == 2


def test_projection_rule_silent_when_children_feasible():
    assert check_projection(w(3, 2, 1), DEFAULTS) is None


# ---------------------------------------------------------------- classify


def test_classify_precedence_and_statuses_frozen():
    cases = [
        (w(3, 6, 0), FEASIBLE, "counting"),
        (w(3, 4, 2), NON_FEASIBLE, "codim2-table"),
        (w(3, 0, 4), FEASIBLE, "lines-table"),
        (w(3, 0, 7), NON_FEASIBLE, "parameter-count"),
        (w(4, 0, 5, 0), NON_FEASIBLE, "bezout"),
        (w(5, 5, 1, 1, 0), FEASIBLE, "segre-iff"),
        (w(6, 5, 0, 2, 0, 0), FEASIBLE, "segre-iff"),
        # the parameter count fires before the product-surface bound here
        (w(5, 6, 1, 1, 0), NON_FEASIBLE, "parameter-count"),
        (w(5, 5, 0, 2, 0), NON_FEASIBLE, "projection-chain"),
        (w(5, 1, 1, 1, 1), FEASIBLE, "one-each-table"),
        # one of each dimension needs n(n-1)(n+1)/6 conditions, which
        # exceeds the family dimension for every n >= 8
        (w(8, 1, 1, 1, 1, 1, 1, 1), NON_FEASIBLE, "parameter-count"),
    ]
    for weights, status, rule in cases:
        v = classify(weights, DEFAULTS)
        assert v.status == status, (weights, v.status)
        assert v.certificate is not None and v.certificate.rule == rule


def test_classify_open_cases_return_unknown():
    open_cases = [
        w(5, 0, 5, 0, 0),  # five lines in P^5
        w(7, 0, 6, 0, 0, 0, 0),  # six lines in P^7
        w(6, 1, 1, 1, 1, 1),
        w(7, 1, 1, 1, 1, 1, 1),
    ]
    for weights in open_cases:
        v = classify(weights, DEFAULTS)
        assert v.status == UNKNOWN
        assert v.certificate is None


def test_classify_zero_vector_is_feasible():
    v = classify(w(3, 0, 0), DEFAULTS)
    assert v.status == FEASIBLE


def test_verdict_json_round_trip_shape():
    v = classify(w(5, 5, 0, 2, 0), DEFAULTS)
    data = v.to_json()
    assert data["status"] == NON_FEASIBLE
    assert data["certificate"]["rule"] == "projection-chain"
    assert data["certificate"]["child"]["rule"] == "bezout"
    assert isinstance(data["certificate"]["seeds"], list)


def test_classify_is_deterministic():
    a = classify(w(4, 0, 5, 0), DEFAULTS).to_json()
    b = classify(w(4, 0, 5, 0), DEFAULTS).to_json()
    assert a == b


# ---------------------------------------------------------------- witnesses


def test_build_witness_interpolation_path():
    curve, cfg, cert = build_witness(w(3, 1, 1), DEFAULTS)
    assert is_rnc(curve)
    assert cert.rule == "witness-verified"
    ok, report = verify_witness(curve, cfg)
    assert ok, report


def test_build_witness_block_path():
    curve, cfg, cert = build_witness(w(5, 5, 1, 1, 0), DEFAULTS)
    assert is_rnc(curve)
    ok, report = verify_witness(curve, cfg)
    assert ok, report
    degrees = sorted(entry["degree"] for entry in report["components"])
    assert degrees == [1, 1, 1, 1, 1, 2, 3]


def test_build_witness_one_each_in_p5():
    curve, cfg, _ = build_witness(w(5, 1, 1, 1, 1), DEFAULTS)
    ok, report = verify_witness(curve, cfg)
    assert ok, report
    degrees = sorted(entry["degree"] for entry in report["components"])
    assert degrees == [1, 2, 3, 4]


def test_build_witness_absorbs_leftover_components():
    # five lines in P^6: three become blocks, two are met through point pairs
    curve, cfg, _ = build_witness(w(6, 0, 5, 0, 0, 0), DEFAULTS)
    ok, report = verify_witness(curve, cfg)
    assert ok, report
    assert all(entry["degree"] == 2 for entry in report["components"])


def test_build_witness_refuses_without_a_path():
    with pytest.raises(NoConstructivePath):
        build_witness(w(4, 8, 0, 0), DEFAULTS)
    with pytest.raises(NoConstructivePath):
        build_witness(w(3, 4, 2), DEFAULTS)  # non-feasible by the table


def test_build_witness_resamples_after_a_failed_construction(monkeypatch):
    build = feasibility._interpolation_witness
    calls = []

    def flaky(cfg, rng):
        calls.append(rng.seed)
        if len(calls) == 1:
            raise FrameDegenerate("planted")
        return build(cfg, rng)

    monkeypatch.setattr(feasibility, "_interpolation_witness", flaky)
    weights = w(3, 1, 1)
    curve, cfg, cert = build_witness(weights, DEFAULTS)
    base = Rng(stable_mix(DEFAULTS.seed, "witness", 3, weights.counts))
    assert calls == [base.derive(0).seed, base.derive(1).seed]
    assert cert.seeds == (base.derive(1).seed,)
    assert verify_witness(curve, cfg)[0]


def test_build_witness_with_one_attempt_keeps_the_error_type(monkeypatch):
    def broken(cfg, rng):
        raise CoincidentParameters("planted")

    monkeypatch.setattr(feasibility, "_interpolation_witness", broken)
    with pytest.raises(CoincidentParameters, match="planted"):
        build_witness(w(3, 1, 1), RunConfig(resample_budget=1))


def test_build_witness_reports_exhausted_sampling(monkeypatch):
    def exhausted(weights, rng):
        raise GenericityExhausted("planted")

    monkeypatch.setattr(feasibility, "sample_configuration", exhausted)
    with pytest.raises(GenericityExhausted, match="planted"):
        build_witness(w(3, 1, 1), DEFAULTS)


def test_witness_failing_verification_raises_and_exits_verify(monkeypatch, capsys):
    monkeypatch.setattr(feasibility, "verify_witness", lambda curve, cfg: (False, {"verified": False}))
    with pytest.raises(VerificationFailed):
        build_witness(w(3, 1, 1), DEFAULTS)
    assert main(["witness", "-n", "3", "1,1"]) == EXIT_VERIFY
    assert json.loads(capsys.readouterr().out)["error"] == "verification-failed"


def test_verify_witness_reports_failures():
    curve, cfg, _ = build_witness(w(3, 2, 1), DEFAULTS)
    other = sample_configuration(w(3, 2, 1), Rng(987654))
    ok, report = verify_witness(curve, other)
    assert not ok
    assert any(not entry["ok"] for entry in report["components"])


def test_verify_witness_checks_normality_once(monkeypatch):
    from rncurves import feasibility
    from rncurves.rnc import ParamCurve

    curve, cfg, _ = build_witness(w(3, 2, 1), DEFAULTS)
    calls = []

    def counting(c):
        calls.append(c)
        return is_rnc(c)

    monkeypatch.setattr(feasibility, "is_rnc", counting)
    ok, report = verify_witness(curve, cfg)
    assert ok and calls == []
    plain = ParamCurve(curve.ambient, curve.forms)
    assert verify_witness(plain, cfg) == (ok, report)
    assert calls == [plain]


# ---------------------------------------------------------------- atlas


def test_enumerate_weights_universe():
    vs = enumerate_weights(3)
    assert all(v.parameter_cost() <= 12 for v in vs)
    assert len(vs) == len(set(v.counts for v in vs))
    counts = [v.counts for v in vs]
    assert counts == sorted(counts)
    # cost is 2 per point and 2 per line: the universe is l0 + l1 <= 6
    assert len(counts) == 28
    assert (0, 0) in counts and (6, 0) in counts and (4, 2) in counts
    assert (7, 0) not in counts


def test_atlas_rows_and_summary_frozen():
    rows = atlas(3, DEFAULTS)
    by_counts = {r.counts: r for r in rows}
    assert by_counts[(0, 4)].status == FEASIBLE
    assert by_counts[(0, 4)].rule == "lines-table"
    assert by_counts[(4, 2)].status == NON_FEASIBLE
    assert by_counts[(4, 2)].rule == "codim2-table"
    assert by_counts[(6, 0)].status == FEASIBLE
    summary = atlas_summary(rows)
    assert summary[FEASIBLE] + summary[NON_FEASIBLE] + summary[UNKNOWN] == len(rows)
    # the rule set has no monotonicity argument, so a few sub-configurations
    # of decided vectors remain honestly open
    open_counts = [r.counts for r in rows if r.status == UNKNOWN]
    assert open_counts == [(1, 3), (1, 4), (2, 3), (3, 2)]
    assert all(r.rule == "" and r.digest == "" for r in rows if r.status == UNKNOWN)
    assert all(len(r.digest) == 16 for r in rows if r.status != UNKNOWN)


def test_atlas_is_deterministic():
    a = atlas(3, DEFAULTS)
    b = atlas(3, DEFAULTS)
    assert a == b


@pytest.mark.parametrize("n", [3, 4, 5])
def test_no_rule_contradicts_another(n):
    for v in enumerate_weights(n):
        statuses = {verdict.status for verdict in all_rule_verdicts(v, DEFAULTS)}
        assert not ({FEASIBLE, NON_FEASIBLE} <= statuses), v


# ---------------------------------------------------------------- audits


# classify(v, DEFAULTS) by (n, counts), shared by the witness audit, the atlas
# audit and the Bézout replay, so that tier-1 classifies each atlas vector
# once.  A test that plants a fault asks for fresh verdicts instead, so this
# map can never hide the planted rule.
VERDICTS = {}


def verdict(v, fresh=False):
    if fresh:
        return classify(v, DEFAULTS)
    key = (v.n, v.counts)
    if key not in VERDICTS:
        VERDICTS[key] = classify(v, DEFAULTS)
    return VERDICTS[key]


def witness_audit(n, fresh=False):
    """Check the rule set against the construction on every vector of P^n.

    A vector that builds a verified witness must not be NonFeasible.  A
    vector that does not build runs only the positive rules, and may be
    Feasible there only when it has no constructive path (neither counting
    nor a block pattern).  Returns the Feasible vectors that build, the
    Feasible vectors with no path, the Unknown vectors that build, and the
    violations.
    """
    positive = [(rule, polarity) for rule, polarity in _rule_table() if polarity == FEASIBLE]
    built, no_path, unknown_built, violations = 0, 0, [], []
    for v in enumerate_weights(n):
        try:
            build_witness(v, DEFAULTS)
        except RncError:
            if _first_verdict(v, DEFAULTS, positive) is None:
                continue
            if v.total_intersection() <= n + 3 or _pattern_choices(v):
                violations.append(("Feasible with a path, not built", v.counts))
            else:
                no_path += 1
            continue
        status = verdict(v, fresh).status
        if status == NON_FEASIBLE:
            violations.append(("NonFeasible, built", v.counts))
        elif status == UNKNOWN:
            unknown_built.append(v.counts)
        else:
            built += 1
    return built, no_path, unknown_built, violations


# The Unknown vectors that build come from the block path with leftover lines
# or planes specialized to points, which segre-iff (leftover points only)
# does not cover.  A rule for them would change atlas verdicts; this pin makes
# any change to the set a visible diff.
UNKNOWN_BUT_BUILT = {
    3: [(1, 3), (3, 2)],
    4: [(1, 1, 2), (1, 2, 1), (2, 0, 2), (2, 2, 1), (2, 3, 0), (3, 0, 2), (3, 1, 1), (4, 1, 1)],
    5: [
        (0, 1, 1, 1), (0, 2, 2, 0), (0, 3, 1, 0), (1, 0, 0, 2), (1, 0, 2, 1), (1, 1, 0, 2),
        (1, 1, 2, 0), (1, 2, 0, 1), (1, 3, 0, 1), (1, 3, 1, 0), (1, 4, 0, 0), (2, 0, 0, 2),
        (2, 0, 1, 1), (2, 1, 1, 1), (2, 1, 2, 0), (2, 2, 0, 1), (2, 2, 1, 0), (3, 0, 0, 2),
        (3, 0, 1, 1), (3, 1, 0, 1), (3, 2, 0, 1), (3, 2, 1, 0), (3, 3, 0, 0), (4, 0, 1, 1),
        (4, 1, 0, 1), (5, 1, 0, 1),
    ],
}


@pytest.mark.parametrize("n, built, no_path", [(3, 17, 6), (4, 35, 3), (5, 60, 3)])
def test_witness_audit(n, built, no_path):
    assert witness_audit(n) == (built, no_path, UNKNOWN_BUT_BUILT[n], [])


def test_witness_audit_catches_an_unsound_rule(monkeypatch):
    monkeypatch.setattr(feasibility, "check_bezout", lambda weights, opts: Certificate("planted", {}))
    *_, violations = witness_audit(3, fresh=True)
    assert violations == [("NonFeasible, built", (1, 3)), ("NonFeasible, built", (3, 2))]


def atlas_audit(dims, fresh=False):
    """Check the atlas rows of P^n, n in ``dims``, against each other.

    Whatever rule decided a row, two implications hold.  A curve meeting a
    generic configuration meets every part of it, so Feasible(w) implies
    Feasible(w - e_i).  A NonFeasible projection child makes its source
    NonFeasible, the argument of check_projection.  Returns the numbers of
    removal pairs and projection pairs (a Feasible row and such a child that
    is a row of these atlases) and the pairs whose child is NonFeasible,
    each of which proves some rule unsound.
    """
    status = {(n, v.counts): verdict(v, fresh).status for n in dims for v in enumerate_weights(n)}
    pairs = {"removal": set(), "projection": set()}
    violations = []
    for (n, counts), s in status.items():
        if s != FEASIBLE:
            continue
        removals = [(n, counts[:i] + (c - 1,) + counts[i + 1 :]) for i, c in enumerate(counts) if c]
        projections = [(child.n, child.counts) for _, child in _reductions(WeightVector(n, counts))]
        for kind, children in (("removal", removals), ("projection", projections)):
            for child in children:
                if child in status:
                    pairs[kind].add(((n, counts), child))
                    if status[child] == NON_FEASIBLE:
                        violations.append((kind, (n, counts), child))
    return len(pairs["removal"]), len(pairs["projection"]), violations


def test_atlas_audit():
    assert atlas_audit(range(2, 6)) == (219, 214, [])


def test_atlas_audit_catches_an_unsound_rule(monkeypatch):
    monkeypatch.setattr(feasibility, "check_bezout", lambda weights, opts: Certificate("planted", {}))
    # every row that reaches the Bézout rule is now NonFeasible: the Unknown
    # rows below a Feasible row, and one projection child
    *_, violations = atlas_audit((3, 4), fresh=True)
    removals = {
        (3, (1, 5)): [(1, 4)], (3, (2, 4)): [(1, 4), (2, 3)], (3, (3, 3)): [(2, 3), (3, 2)],
        (4, (1, 0, 6)): [(0, 0, 6), (1, 0, 5)], (4, (2, 0, 5)): [(1, 0, 5), (2, 0, 4)],
        (4, (3, 0, 4)): [(2, 0, 4), (3, 0, 3)],
    }
    want = [("removal", row, (row[0], child)) for row, children in removals.items() for child in children]
    assert violations == want + [("projection", (4, (4, 2, 0)), (3, (3, 2)))]


def seed_audit(dims, seeds, fresh=False):
    """The rows of the atlases of P^n, n in ``dims``, whose status or rule at
    a seed in ``seeds`` differs from seed 0's.

    The sampled rules draw their configurations from the seed, and a generic
    configuration does not depend on it: neither may a verdict, nor a (d, k)
    that the Bézout rule skips.
    """

    def key(got):
        return got.status, got.certificate and got.certificate.rule

    differ = []
    for n in dims:
        for v in enumerate_weights(n):
            base = key(verdict(v, fresh))
            differ += [(seed, n, v.counts) for seed in seeds if key(classify(v, RunConfig(seed=seed))) != base]
    return differ


def test_seed_audit():
    assert seed_audit((3, 4, 5), (1, 2)) == []


def test_seed_audit_catches_a_seed_dependent_rule(monkeypatch):
    bezout = feasibility.check_bezout

    def at_seed_0_only(weights, opts):
        return bezout(weights, opts) if opts.seed == 0 else None

    monkeypatch.setattr(feasibility, "check_bezout", at_seed_0_only)
    # the three rows of P^3 and P^4 that the Bézout rule decides
    assert seed_audit((3, 4), (1,), fresh=True) == [(1, 4, (0, 5, 0)), (1, 4, (3, 2, 1)), (1, 4, (4, 0, 2))]


# ---------------------------------------------------------------- Bézout replay


def bezout_certificates(dims):
    """Every ``bezout`` certificate that classify emits over the atlases of
    P^n, n in ``dims``, the children of projection chains included."""
    found = []
    for n in dims:
        for v in enumerate_weights(n):
            cert = verdict(v).certificate
            while cert is not None:
                if cert.rule == "bezout":
                    found.append(cert)
                cert = cert.child
    return found


def replay_faults(cert):
    """The claims of a ``bezout`` certificate that its own seeds refute.

    Each of the three samples is rebuilt from the certificate's seeds,
    counts, n and degree, and its condition matrix is ranked, whole and
    without the component, by the fraction-free elimination alone: no
    prescreen and no kernel certificate.
    """
    p = cert.params
    weights = WeightVector(p["n"], tuple(p["counts"]))
    faults = []
    for seed in cert.seeds:
        head = ConditionMatrix.build(sample_configuration(weights, Rng(seed)), p["degree"])
        reduced = head.without(p["component_index"])
        ranks = tuple(linalg._rank_bareiss(cm.rows, cm.ncols) for cm in (head, reduced))
        if ranks != (p["hilbert_full"], p["hilbert_reduced"]):
            faults.append(("ranks", seed, ranks))
    if p["hilbert_full"] != p["hilbert_reduced"] + p["independent_conditions"]:
        faults.append(("equation", p["hilbert_full"], p["hilbert_reduced"], p["independent_conditions"]))
    if not p["contact_count"] - 1 > p["degree"] * p["n"]:
        faults.append(("contact", p["contact_count"], p["degree"], p["n"]))
    return faults


def test_bezout_certificates_replay():
    certs = bezout_certificates(range(3, 6))
    assert (len(certs), len({tuple(c.params["counts"]) + (c.params["n"],) for c in certs})) == (15, 14)
    assert [replay_faults(cert) for cert in certs] == [[]] * len(certs)


def test_bezout_replay_catches_a_wrong_certificate():
    cert = check_bezout(w(4, 0, 5, 0), DEFAULTS)
    assert replay_faults(cert) == []
    p = cert.params
    planted = Certificate(cert.rule, {**p, "hilbert_reduced": p["hilbert_reduced"] + 1}, cert.seeds, cert.caveats)
    faults = replay_faults(planted)
    assert [f[0] for f in faults] == ["ranks", "ranks", "ranks", "equation"]


# ---------------------------------------------------------------- Bézout pairwise bound


def pairwise_bound(n, counts, d):
    """An upper bound on the Hilbert value in degree d of a generic union of
    linear spaces of P^n, ``counts[k]`` of dimension k.  The spaces are added
    in descending dimension.  By the lemma of :func:`check_bezout`, a k-space
    adds at most ``C(k+d, d) - C(m+d, d)``, where ``m = k + a - n`` is its
    largest meet with an earlier component, of dimension a; it adds
    ``C(k+d, d)`` when it meets none.  The sum is capped at ``C(n+d, d)``."""
    dims = [k for k in reversed(range(len(counts))) for _ in range(counts[k])]
    total = 0
    for i, k in enumerate(dims):
        m = k + dims[0] - n if i else -1
        total += comb(k + d, d) - (comb(m + d, d) if m >= 0 else 0)
    return min(total, comb(n + d, d))


def bound_tally(certs, bound=pairwise_bound):
    """(distinct, met, exceeded) over the distinct (n, counts, d, k) of these
    ``bezout`` certificates: how many have ``hilbert_reduced`` equal to the
    bound on the configuration without the component, and how many exceed
    it.  A sampled value never exceeds the generic one, so one that meets
    the bound is the generic value."""
    values = {}
    for cert in certs:
        p = cert.params
        k, reduced = p["component_dim"], list(p["counts"])
        reduced[k] -= 1
        values[p["n"], tuple(p["counts"]), p["degree"], k] = (p["hilbert_reduced"], bound(p["n"], reduced, p["degree"]))
    return len(values), sum(h == b for h, b in values.values()), sum(h > b for h, b in values.values())


def test_bezout_reduced_values_meet_the_pairwise_bound():
    assert bound_tally(bezout_certificates(range(2, 6))) == (14, 11, 0)


def test_bezout_bound_tally_catches_planted_faults():
    certs = bezout_certificates(range(2, 6))
    lowered = bound_tally(certs, lambda n, counts, d: pairwise_bound(n, counts, d) - 1)
    raised = [
        Certificate(c.rule, {**c.params, "hilbert_reduced": c.params["hilbert_reduced"] + 1}, c.seeds, c.caveats)
        for c in certs
    ]
    # the 11 values that met the bound now exceed it
    assert lowered == bound_tally(raised) == (14, 1, 11)
