"""Acceptance gate: one timed test per release criterion.

Every numeric check below is exact (integer or rational equality); the only
tolerances are the per-criterion wall-clock budgets, which are pinned in the
decorator arguments.  Results are echoed as one line per criterion in the
terminal summary.
"""

import functools
import itertools
import time
from fractions import Fraction
from math import comb, prod

from conftest import ACCEPTANCE_RESULTS
from helpers import apply_subspace, evaluate_form_at, passes_through, random_form, sample_projectivity, transformed

from rncurves.arrangements import (
    WeightVector,
    generic_hilbert,
    hilbert_function,
    monomials,
    sample_configuration,
)
from rncurves.binforms import ParamPoint
from rncurves.cli import EXIT_OK, main
from rncurves.defectivity import DefectQuery, defect_check
from rncurves.exactgeom import Rng, sample_generic_subspace, sample_point
from rncurves.feasibility import (
    DEFAULTS,
    FEASIBLE,
    NON_FEASIBLE,
    UNKNOWN,
    RunConfig,
    all_rule_verdicts,
    build_witness,
    classify,
    enumerate_weights,
)
from rncurves.rnc import (
    apply_projectivity,
    intersection_degree,
    is_rnc,
    restrict_form,
    rnc_through_points,
    standard_rnc,
)


def criterion(num, desc, budget_s):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            status = "FAIL"
            try:
                fn(*args, **kwargs)
                elapsed = time.perf_counter() - start
                assert elapsed < budget_s, (
                    f"criterion {num} took {elapsed:.2f}s, budget {budget_s}s"
                )
                status = "PASS"
            finally:
                ACCEPTANCE_RESULTS.append((num, desc, status, time.perf_counter() - start))

        return wrapper

    return deco


def _lines_vector(n, l):
    counts = [0] * (n - 1)
    counts[1] = l
    return WeightVector(n, tuple(counts))


@criterion(1, "normal curve through n+3 generic points, n=2..6, 20 seeds", 5.0)
def test_criterion_1_interpolation_witnesses():
    for n in range(2, 7):
        for seed in range(20):
            rng = Rng(seed).derive("acceptance-interpolation", n)
            points = [sample_point(n, rng.derive(i)) for i in range(n + 3)]
            curve, params = rnc_through_points(points)
            assert is_rnc(curve)
            assert len(params) == n + 3
            for param, point in zip(params, points):
                assert curve.evaluate(param) == point
                assert passes_through(curve, point)


@criterion(2, "points + codim-2 spaces: boundary stratum fully decided, n=3..8", 10.0)
def test_criterion_2_codim2_stratum():
    for n in range(3, 9):
        five = {(n + 3, 0), (n + 2, 1), (3, n), (2, n + 1), (1, n + 2)}
        for p in range(1, n + 4):
            l = n + 3 - p
            counts = [0] * (n - 1)
            counts[0] = p
            counts[n - 2] += l
            verdict = classify(WeightVector(n, tuple(counts)), DEFAULTS)
            assert verdict.status != UNKNOWN, (n, p, l)
            expected = FEASIBLE if (p, l) in five else NON_FEASIBLE
            assert verdict.status == expected, (n, p, l, verdict.status)
            assert (verdict.status == NON_FEASIBLE) == (p >= 4 and l >= 2)


@criterion(3, "witness for 5 points + line + plane in P^5, 20 seeds", 10.0)
def test_criterion_3_product_witness():
    weights = WeightVector(5, (5, 1, 1, 0))
    for seed in range(20):
        curve, config, cert = build_witness(weights, RunConfig(seed=seed))
        assert cert.rule == "witness-verified"
        dims = sorted(space.dim for space, _ in config.components)
        assert dims == [0, 0, 0, 0, 0, 1, 2]
        for space, mult in config.components:
            assert mult == 1
            if space.dim == 0:
                assert passes_through(curve, space.points()[0])
            elif space.dim == 1:
                assert intersection_degree(curve, space) == 2
            else:
                assert intersection_degree(curve, space) == 3


@criterion(4, "lines-only classification for n=3..9 up to the parameter bound", 120.0)
def test_criterion_4_lines_table():
    feasible_bound = {3: 6, 4: 4, 5: 4, 6: 5, 7: 5, 8: 6, 9: 6}
    open_pairs = {(5, 5), (7, 6)}
    for n in range(3, 10):
        param_bound = (n + 3) * (n - 1) // (2 * (n - 2))
        assert param_bound == {3: 6, 4: 5, 5: 5, 6: 5, 7: 6, 8: 6, 9: 6}[n]
        for l in range(1, param_bound + 1):
            verdict = classify(_lines_vector(n, l), DEFAULTS)
            if (n, l) in open_pairs:
                assert verdict.status == UNKNOWN, (n, l, verdict.status)
                continue
            expected = FEASIBLE if l <= feasible_bound[n] else NON_FEASIBLE
            assert verdict.status == expected, (n, l, verdict.status)
            if (n, l) == (4, 5):
                cert = verdict.certificate
                assert cert.rule == "bezout"
                assert cert.params["degree"] == 2
                assert cert.params["component_dim"] == 1
                assert len(cert.seeds) == 3
                assert "generic-sample" in cert.caveats


@criterion(5, "one subspace of each dimension: decided exactly off n=6,7", 60.0)
def test_criterion_5_one_of_each_dimension():
    statuses = {
        n: classify(WeightVector(n, (1,) * (n - 1)), DEFAULTS).status for n in range(2, 10)
    }
    for n in range(2, 6):
        assert statuses[n] == FEASIBLE, (n, statuses[n])
    for n in (6, 7):
        assert statuses[n] == UNKNOWN, (n, statuses[n])
    for n in (8, 9):
        assert statuses[n] == NON_FEASIBLE, (n, statuses[n])
    curve, config, cert = build_witness(WeightVector(5, (1, 1, 1, 1)), DEFAULTS)
    assert cert.rule == "witness-verified"
    contacts = sorted((s.dim, intersection_degree(curve, s)) for s, _ in config.components)
    assert contacts == [(0, 1), (1, 2), (2, 3), (3, 4)]


@criterion(6, "quadrics through two generic subspaces match closed forms", 30.0)
def test_criterion_6_hilbert_identities():
    for n in range(4, 9):
        hf, ideal = generic_hilbert(n, [(n - 3, 1), (n - 3, 1)], 2, 0)
        assert hf.agreed and ideal.agreed
        assert len(set(hf.seeds)) == 3
        assert hf.value == (n * n + 3 * n - 16) // 2, n
        if n in (4, 5):
            assert hf.value == 2 * comb(n - 1, 2)
        assert hf.value + ideal.value == comb(n + 2, 2)
    # skew lines in P^3 against an independent monomial count: quadrics
    # restricted to the two coordinate lines are spanned by the monomials
    # supported on either coordinate pair
    oracle = sum(
        1
        for mon in monomials(4, 2)
        if {i for i, e in enumerate(mon) if e} <= {0, 1}
        or {i for i, e in enumerate(mon) if e} <= {2, 3}
    )
    assert oracle == 6
    hf, ideal = generic_hilbert(3, [(1, 1), (1, 1)], 2, 0)
    assert hf.agreed
    assert hf.value == oracle
    assert ideal.value == comb(5, 2) - oracle == 4


@criterion(7, "three lines + two codim-3 spaces blocked by a quadric, n=5..7", 120.0)
def test_criterion_7_three_lines_two_codim3():
    for n in (5, 6, 7):
        counts = [0] * (n - 1)
        counts[1] = 3
        counts[n - 3] += 2
        verdict = classify(WeightVector(n, tuple(counts)), DEFAULTS)
        assert verdict.status == NON_FEASIBLE, (n, verdict.status)
        cert = verdict.certificate
        assert cert.rule == "bezout"
        assert cert.params["degree"] == 2
        assert cert.params["component_dim"] == 1
        assert len(cert.seeds) == 3
        assert "generic-sample" in cert.caveats


@criterion(8, "quartic ideal dimensions and the defective point range", 180.0)
def test_criterion_8_defectivity():
    for m in (1, 2, 3):
        base = defect_check(DefectQuery(m, 0))
        assert base.agreed
        assert base.actual == 3 * (m + 1) ** 2
    for m in (2, 3):
        for s in range(m + 2, 2 * m + 2):
            report = defect_check(DefectQuery(m, s))
            assert report.agreed
            assert report.actual > report.query.expected_raw, (m, s)
            assert report.defective, (m, s)


@criterion(9, "exact ranks against closed forms, invariance, restriction degree, rule soundness", 120.0)
def test_criterion_9_property_suites():
    # the quadrics through two general codim-3 spaces are spanned by the 9
    # products of their linear equations: hf = C(n+2, 2) - 9 = (n^2 + 3n - 16) / 2
    for n in range(4, 9):
        hf, ideal = generic_hilbert(n, [(n - 3, 1), (n - 3, 1)], 2, 0)
        assert hf.value == (n * n + 3 * n - 16) // 2
        assert ideal.value == comb(n + 2, 2) - hf.value == 9
    assert defect_check(DefectQuery(1, 3)).actual == 1
    assert defect_check(DefectQuery(2, 4)).actual == 4

    # projectivity invariance of contact degrees and Hilbert values
    rng = Rng(0).derive("acceptance-invariance")
    curve = standard_rnc(4)
    space = sample_generic_subspace(4, 1, rng.derive("space"))
    base_degree = intersection_degree(curve, space)
    config = sample_configuration(WeightVector(3, (1, 2)), rng.derive("config"))
    base_hf = hilbert_function(config, 2)
    for i in range(10):
        g = sample_projectivity(4, rng.derive("g", i))
        moved = intersection_degree(apply_projectivity(curve, g), apply_subspace(g, space))
        assert moved == base_degree
        h = sample_projectivity(3, rng.derive("h", i))
        assert hilbert_function(transformed(config, h), 2) == base_hf

    # restriction of a degree-d form to a degree-n curve has degree d*n
    rng = Rng(1).derive("acceptance-restriction")
    for i in range(100):
        sub = rng.derive(i)
        n = 2 + i % 3
        d = 1 + i % 3
        g = sample_projectivity(n, sub.derive("g"))
        curve = apply_projectivity(standard_rnc(n), g)
        form = random_form(n + 1, d, sub.derive("f"))
        restricted = restrict_form(form, curve)
        assert restricted.degree == d * n
        assert not restricted.is_zero()
        param = ParamPoint(Fraction(2), Fraction(3 + i))
        raw = tuple(evaluate_form_at(f, param) for f in curve.forms)
        direct = sum(c * prod(x**e for x, e in zip(raw, mon)) for mon, c in form.items())
        assert evaluate_form_at(restricted, param) == direct

    # no vector is called both feasible and non-feasible by different rules
    for n in (3, 4):
        for weights in enumerate_weights(n):
            statuses = {v.status for v in all_rule_verdicts(weights, DEFAULTS)}
            assert not ({FEASIBLE, NON_FEASIBLE} <= statuses), weights


@criterion(10, "repeated atlas runs emit byte-identical CSV", 120.0)
def test_criterion_10_atlas_determinism(capsys):
    assert main(["atlas", "-n", "4", "--format", "csv"]) == EXIT_OK
    first = capsys.readouterr().out
    assert main(["atlas", "-n", "4", "--format", "csv"]) == EXIT_OK
    second = capsys.readouterr().out
    assert first == second
    assert first.splitlines()[0] == "counts,status,rule,digest"
    assert len(first.splitlines()) == 87  # header + 86 vectors
