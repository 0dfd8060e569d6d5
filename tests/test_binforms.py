"""Binary forms: the Fraction oracles of the tests (evaluation, products),
and the library's integer products, exact gcd and division."""

import random
from fractions import Fraction
from math import lcm, prod

import pytest
import sympy
from helpers import (
    evaluate_form,
    evaluate_form_at,
    monic_row,
    mul_forms,
    product,
    scale_form,
    vanishing_at,
    zero_form,
)
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rncurves import binforms
from rncurves.binforms import (
    BinaryForm,
    ParamPoint,
    distinct_parameters,
    divide_rows,
    gcd_rows,
    product_rows,
)
from rncurves.errors import DuplicateParameters
from rncurves.exactgeom import ProjPoint
from rncurves.linalg import integerize

F = Fraction

coeff = st.integers(-6, 6).map(F)


def forms(min_degree=0, max_degree=4, allow_zero=False):
    def build(degree, cs):
        return BinaryForm(degree, tuple(cs[: degree + 1]))

    base = st.integers(min_degree, max_degree).flatmap(
        lambda d: st.tuples(st.just(d), st.lists(coeff, min_size=d + 1, max_size=d + 1))
    ).map(lambda t: build(*t))
    if allow_zero:
        return base
    return base.filter(lambda f: not f.is_zero())


@pytest.fixture(params=["heuristic", "prs"])
def gcd_path(request, monkeypatch):
    """Runs a gcd test as the library does, and again with the heuristic step
    patched out, so the pseudo-remainder fallback answers every call."""
    if request.param == "prs":
        monkeypatch.setattr(binforms, "_gcd_heuristic", lambda ints: None)


def row(f):
    """The coefficients of ``f`` cleared of denominators, as a list of ints."""
    return list(integerize(f.coeffs)[0])


def gcd_of(family):
    """The gcd of the forms, first nonzero coefficient 1."""
    return monic_row(gcd_rows([f.coeffs for f in family]))


def to_sympy(f, s, t):
    return sum(
        sympy.Rational(c.numerator, c.denominator) * s ** (f.degree - i) * t**i
        for i, c in enumerate(f.coeffs)
    )


def test_param_point_projective_equality():
    assert ParamPoint(2, 4) == ParamPoint(1, 2)
    assert ParamPoint(0, 5) == ParamPoint(0, 1)
    assert ParamPoint(1, 0) != ParamPoint(0, 1)
    with pytest.raises(ValueError):
        ParamPoint(0, 0)
    # a parameter point is the ProjPoint of P^1 with the same coordinates
    for u, v in [(1, 0), (0, 1), (2, 4), (F(-3, 2), 5)]:
        p, q = ParamPoint(u, v), ProjPoint(1, (u, v))
        assert p == q and q == p
        assert hash(p) == hash(q)


def test_vanishing_at_vanishes_there_and_nowhere_else_frozen():
    p = ParamPoint(2, 3)
    lin = vanishing_at(p)
    assert lin.degree == 1
    assert evaluate_form_at(lin, p) == 0
    assert evaluate_form(lin, 1, 0) != 0
    assert evaluate_form(lin, 0, 1) != 0


def test_evaluate_frozen():
    # s^2 + 2 s t + 3 t^2 at (2, 1) -> 4 + 4 + 3
    f = BinaryForm(2, (F(1), F(2), F(3)))
    assert evaluate_form(f, 2, 1) == 11
    assert evaluate_form_at(f, ParamPoint(2, 1)) == 11


@given(forms(), forms())
@settings(max_examples=40, deadline=None)
def test_mul_degree_and_evaluation_homomorphism(f, g):
    h = mul_forms(f, g)
    assert h.degree == f.degree + g.degree
    for u, v in [(1, 0), (0, 1), (1, 1), (2, -3)]:
        assert evaluate_form(h, u, v) == evaluate_form(f, u, v) * evaluate_form(g, u, v)


def test_product_of_linear_factors_vanishes_at_each():
    pts = [ParamPoint(1, k) for k in range(4)]
    f = product([vanishing_at(p) for p in pts])
    assert f.degree == 4
    for p in pts:
        assert evaluate_form_at(f, p) == 0
    assert evaluate_form(f, 0, 1) != 0


@pytest.mark.usefixtures("gcd_path")
@given(forms(max_degree=3), forms(max_degree=3), forms(max_degree=2))
@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_gcd_degree_matches_sympy(f0, g0, h):
    f = mul_forms(f0, h)
    g = mul_forms(g0, h)
    ours = gcd_rows([f.coeffs, g.coeffs])
    assert monic_row(ours) == sympy_gcd([f, g])
    # the gcd divides both inputs exactly
    assert divide_rows(row(f), ours) is not None
    assert divide_rows(row(g), ours) is not None


def test_gcd_handles_powers_of_both_variables_frozen():
    s2t = (0, 1, 0, 0)  # s^2 t
    st2 = (0, 0, 1, 0)  # s t^2
    g = BinaryForm(2, tuple(gcd_rows([s2t, st2])))  # s t
    assert monic_row(g.coeffs) == (0, 1, 0)
    assert evaluate_form(g, 1, 0) == 0 and evaluate_form(g, 0, 1) == 0
    assert evaluate_form(g, 1, 1) != 0


def test_gcd_with_zero_and_constants():
    f = (1, 0, -1)
    assert gcd_rows([f, (0,) * 6]) == [1, 0, -1]
    assert gcd_rows([f, (7,)]) == [1]


def test_gcd_many_accumulates():
    p, q, r = ParamPoint(1, 1), ParamPoint(1, 2), ParamPoint(1, 3)
    lp, lq, lr = (vanishing_at(x) for x in (p, q, r))
    f1 = mul_forms(lp, lq)
    f2 = mul_forms(lp, lr)
    f3 = mul_forms(lp, lp)
    g = gcd_rows([f1.coeffs, f2.coeffs, f3.coeffs])
    assert len(g) == 2
    assert evaluate_form_at(BinaryForm(1, tuple(g)), p) == 0


def from_sympy(expr, degree, s, t):
    """The coefficients of the sympy form ``expr``, first nonzero one 1."""
    poly = sympy.Poly(expr, s, t)
    coeffs = []
    for i in range(degree + 1):
        c = poly.coeff_monomial(s ** (degree - i) * t**i)
        coeffs.append(F(int(c.p), int(c.q)))
    return monic_row(coeffs)


def sympy_gcd(family):
    s, t = sympy.symbols("s t")
    g = sympy.Poly(to_sympy(family[0], s, t), s, t)
    for f in family[1:]:
        g = sympy.gcd(g, sympy.Poly(to_sympy(f, s, t), s, t))
    return from_sympy(g.as_expr(), sympy.total_degree(g.as_expr()), s, t)


def big_form(rng, degree, digits):
    top = 10**digits
    return BinaryForm(degree, tuple(F(rng.randrange(-top, top), rng.randrange(1, top)) for _ in range(degree + 1)))


@pytest.mark.usefixtures("gcd_path")
def test_gcd_of_large_coefficient_family_matches_sympy():
    rng = random.Random(2024)
    common = big_form(rng, 2, 40)
    family = [mul_forms(common, big_form(rng, 3, 70)) for _ in range(4)]
    assert min(len(str(c.numerator)) for f in family for c in f.coeffs) > 100
    expected = sympy_gcd(family)
    assert len(expected) == 3
    assert gcd_of(family[:2]) == sympy_gcd(family[:2])
    assert gcd_of(family) == expected == monic_row(common.coeffs)
    ours = gcd_rows([f.coeffs for f in family])
    for f in family:
        assert divide_rows(row(f), ours) is not None


@pytest.mark.usefixtures("gcd_path")
def test_gcd_with_leading_coefficients_divisible_by_a_large_prime():
    p = 2**61 - 1
    common = BinaryForm(1, (F(3), F(p)))  # 3 s + p t
    f = mul_forms(common, BinaryForm(2, (F(1), F(5), F(p * 7))))
    g = mul_forms(common, BinaryForm(1, (F(-2), F(p))))
    h = mul_forms(common, BinaryForm(2, (F(4), F(0), F(1))))
    assert f.coeffs[-1] % p == 0 and g.coeffs[-1] % p == 0
    assert gcd_of([f, g]) == (F(1), F(p, 3))
    assert gcd_of([f, g, h]) == sympy_gcd([f, g, h]) == monic_row(common.coeffs)


@pytest.mark.usefixtures("gcd_path")
def test_gcd_of_forms_congruent_modulo_a_large_prime():
    # modulo p both forms are (s + t)^2; over Q only s + t is shared
    p = 2**61 - 1
    lin = BinaryForm(1, (F(1), F(1)))
    f = mul_forms(lin, BinaryForm(1, (F(1 + p), F(1))))
    g = mul_forms(lin, BinaryForm(1, (F(1 - p), F(1))))
    assert gcd_of([f, g]) == sympy_gcd([f, g]) == lin.coeffs


@pytest.mark.usefixtures("gcd_path")
def test_coprime_forms_have_gcd_degree_zero():
    rng = random.Random(99)
    family = [big_form(rng, 4, 110) for _ in range(3)]
    assert len(gcd_rows([f.coeffs for f in family[:2]])) == 1
    assert gcd_of(family) == (1,) == sympy_gcd(family)


def test_gcd_many_of_a_family_with_a_common_linear_factor():
    rng = random.Random(5)
    common = big_form(rng, 1, 30)
    family = [mul_forms(common, big_form(rng, 2, 30)) for _ in range(3)]
    assert gcd_of(family) == monic_row(common.coeffs)


@pytest.mark.usefixtures("gcd_path")
def test_gcd_many_keeps_a_repeated_factor():
    rng = random.Random(7)
    common = product([big_form(rng, 1, 40)] * 3)
    family = [mul_forms(common, big_form(rng, d, 30)) for d in (1, 2, 3)]
    assert gcd_of(family) == sympy_gcd(family) == monic_row(common.coeffs)


# zero or 31 to 36 digits, either sign
big_int = st.one_of(st.just(0), st.integers(10**30, 10**35), st.integers(-(10**35), -(10**30)))


def int_rows(max_degree):
    return st.integers(0, max_degree).flatmap(lambda d: st.lists(big_int, min_size=d + 1, max_size=d + 1))


@given(int_rows(2), st.lists(int_rows(3), min_size=1, max_size=4), st.integers(0, 2), st.integers(0, 2))
@settings(max_examples=40, deadline=None)
def test_gcd_rows_matches_sympy_on_large_integer_rows(common, cofactors, s_pow, zeros):
    # every row is common * cofactor * s^s_pow, padded to one degree; some rows are zero
    base = BinaryForm(len(common) + s_pow - 1, tuple(common) + (0,) * s_pow)
    members = [mul_forms(base, BinaryForm(len(c) - 1, tuple(c))) for c in cofactors]
    degree = max(f.degree for f in members)
    members = [mul_forms(f, BinaryForm(degree - f.degree, (1,) + (0,) * (degree - f.degree))) for f in members]
    members += [zero_form(degree)] * zeros
    rows = [tuple(int(c) for c in f.coeffs) for f in members]
    if not any(map(any, rows)):
        with pytest.raises(ValueError):
            gcd_rows(rows)
        return
    assert monic_row(gcd_rows(rows)) == sympy_gcd([f for f in members if not f.is_zero()])


def test_gcd_degree_single_nonzero_row_keeps_its_formal_degree():
    big = 10**33 + 7
    # s t^2 with a 34-digit coefficient: a single nonzero row is not reduced
    rows = [(0, 0, big, 0), (0, 0, 0, 0)]
    assert gcd_rows(rows) == [0, 0, 1, 0]
    with pytest.raises(ValueError):
        gcd_rows([(0, 0), (0, 0)])


def test_a_single_nonzero_member_runs_through_the_gcd_core(monkeypatch):
    # one nonzero row folds nothing in the core and keeps its formal degree
    calls = []
    real = binforms._gcd_nonzero

    def spy(rows):
        calls.append(len(rows))
        return real(rows)

    monkeypatch.setattr(binforms, "_gcd_nonzero", spy)
    assert gcd_rows([(F(0), F(6), F(4), F(0)), (0, 0, 0, 0)]) == [0, 3, 2, 0]
    assert gcd_rows([(0, 0, 10**33 + 7, 0), (0, 0, 0, 0)]) == [0, 0, 1, 0]
    assert calls == [1, 1]


# 300 to 310 digits, either sign
huge_int = st.integers(10**300, 10**310).flatmap(lambda c: st.sampled_from([c, -c]))


def huge_forms(min_degree, max_degree):
    return st.integers(min_degree, max_degree).flatmap(
        lambda d: st.lists(huge_int, min_size=d + 1, max_size=d + 1).map(lambda cs: BinaryForm(d, tuple(cs)))
    )


S, T = BinaryForm(1, (1, 0)), BinaryForm(1, (0, 1))


@given(st.lists(st.one_of(forms(max_degree=3, allow_zero=True), huge_forms(0, 2)), max_size=4))
@settings(max_examples=60, deadline=None)
def test_product_rows_matches_the_product_of_forms(family):
    # row(f) is f times the lcm of its denominators, so the product of the
    # rows is the product of the forms times the product of those lcms
    scale = prod(lcm(*(c.denominator for c in f.coeffs)) for f in family)
    out = product_rows([row(f) for f in family])
    assert out == list(scale_form(product(family), scale).coeffs)
    assert all(type(c) is int for c in out)


@st.composite
def planted_families(draw):
    """1-6 forms sharing a planted factor: up to two huge factors, each to the
    power 1 or 2, and powers of s and t; each member also has a huge cofactor,
    a huge content and powers of s and t of its own."""
    factors = draw(st.lists(st.tuples(huge_forms(1, 2), st.integers(1, 2)), max_size=2))
    powers = [S] * draw(st.integers(0, 2)) + [T] * draw(st.integers(0, 2))
    common = product([f for f, e in factors for _ in range(e)] + powers)
    family = []
    for _ in range(draw(st.integers(1, 6))):
        extra = [S] * draw(st.integers(0, 1)) + [T] * draw(st.integers(0, 1))
        member = scale_form(product([common, draw(huge_forms(0, 3)), *extra]), draw(huge_int))
        family.append(member)
    return family


@given(planted_families())
@settings(max_examples=40, deadline=None)
def test_gcd_core_matches_sympy_and_the_remainder_sequence_on_planted_families(family):
    rows = [tuple(int(c) for c in f.coeffs) for f in family]
    core, s_pow = binforms._gcd_nonzero(rows)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(binforms, "_gcd_heuristic", lambda ints: None)
        prs_core, prs_s_pow = binforms._gcd_nonzero(rows)
    assert (prs_s_pow, prs_core) in ((s_pow, core), (s_pow, [-c for c in core]))
    assert monic_row([*core] + [0] * s_pow) == sympy_gcd(family)


def test_a_candidate_that_divides_not_every_member_is_rejected(monkeypatch):
    # -1 - 2u and 1 - u are coprime.  At the first point 4 their values are -9
    # and -3, whose gcd 3 reads as the digits (-1, 1): the candidate u - 1
    # divides 1 - u only, so a second, larger point is tried.
    points = []
    real = binforms._candidate

    def spy(ints, xi):
        points.append(xi)
        return real(ints, xi)

    monkeypatch.setattr(binforms, "_candidate", spy)
    assert gcd_rows([(-1, -2), (1, -1)]) == [1]
    assert len(points) == 2 and points[0] == 4


def test_trial_division_needs_every_leading_coefficient_to_divide():
    # ascending rows: 1 + 2u divides (1 + 2u)(1 + u) = 1 + 3u + 2u^2, and not
    # 1 + 3u, whose top term a floor quotient of 1 would cancel all the same
    assert divide_rows([1, 3, 2], [1, 2]) == [1, 1]
    assert divide_rows([1, 3], [1, 2]) is None
    assert divide_rows([1, 2], [1, 2, 3]) is None


small_rows = st.integers(0, 3).flatmap(lambda d: st.lists(st.integers(-6, 6), min_size=d + 1, max_size=d + 1))


@given(small_rows, small_rows.filter(any), st.integers(0, 2), st.integers(0, 2))
@settings(max_examples=60, deadline=None)
def test_divide_rows_round_trip(q, d, q_pow, d_pow):
    # q s^q_pow times d s^d_pow, divided by d s^d_pow, gives back q s^q_pow;
    # q may be the zero row
    q, d = q + [0] * q_pow, d + [0] * d_pow
    f = mul_forms(BinaryForm(len(q) - 1, tuple(q)), BinaryForm(len(d) - 1, tuple(d)))
    assert divide_rows(row(f), d) == q


def test_divide_rows_refuses_a_non_divisor():
    # s^2 + t^2 by s + t; by s, a factor it lacks; t (s + t) by s (s + t),
    # whose u-part 1 + u divides and whose factor s does not
    assert divide_rows([1, 0, 1], [1, 1]) is None
    assert divide_rows([1, 0, 1], [1, 0]) is None
    assert divide_rows([0, 1, 1], [1, 1]) == [0, 1]
    assert divide_rows([0, 1, 1], [1, 1, 0]) is None
    # 2 + 2u divides 1 + u over Q, not in Z[u]
    assert divide_rows([1, 1], [2, 2]) is None


def test_distinct_parameters_guard():
    distinct_parameters([ParamPoint(1, 0), ParamPoint(0, 1), ParamPoint(1, 1)])
    with pytest.raises(DuplicateParameters):
        distinct_parameters([ParamPoint(1, 2), ParamPoint(2, 4)])
