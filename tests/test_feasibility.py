"""Decision rules, certificates, witnesses, and the classification atlas."""

import pytest

from rncurves.arrangements import WeightVector, sample_configuration
from rncurves.errors import NoConstructivePath
from rncurves.exactgeom import Rng
from rncurves.feasibility import (
    DEFAULTS,
    FEASIBLE,
    NON_FEASIBLE,
    UNKNOWN,
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
    counts[2] = 6  # 3*6 = 18 <= 19
    assert check_homogeneous(w(16, *counts))[0] == FEASIBLE
    counts[2] = 8  # 8 > ceil(19/3) = 7
    assert check_homogeneous(w(16, *counts))[0] == NON_FEASIBLE
    counts[2] = 7  # the gap stays open
    assert check_homogeneous(w(16, *counts)) is None
    # same class in low ambient dimension: the rule stays silent
    low = [0] * 4
    low[2] = 2
    assert check_homogeneous(w(5, *low)) is None


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


def test_no_rule_contradicts_another():
    for v in enumerate_weights(3):
        statuses = {verdict.status for verdict in all_rule_verdicts(v, DEFAULTS)}
        assert not ({FEASIBLE, NON_FEASIBLE} <= statuses), v
