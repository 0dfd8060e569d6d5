"""Binary forms: evaluation, products, exact gcd and division."""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from rncurves.binforms import (
    BinaryForm,
    ParamPoint,
    distinct_parameters,
    divide_exact,
    gcd,
    gcd_degree,
    gcd_many,
    product,
)
from rncurves.errors import DuplicateParameters

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


def test_vanishing_at_vanishes_there_and_nowhere_else_frozen():
    p = ParamPoint(2, 3)
    lin = BinaryForm.vanishing_at(p)
    assert lin.degree == 1
    assert lin.evaluate_at(p) == 0
    assert lin.evaluate(1, 0) != 0
    assert lin.evaluate(0, 1) != 0


def test_evaluate_frozen():
    # s^2 + 2 s t + 3 t^2 at (2, 1) -> 4 + 4 + 3
    f = BinaryForm(2, (F(1), F(2), F(3)))
    assert f.evaluate(2, 1) == 11
    assert f.evaluate_at(ParamPoint(2, 1)) == 11


@given(forms(), forms())
@settings(max_examples=40, deadline=None)
def test_mul_degree_and_evaluation_homomorphism(f, g):
    h = f.mul(g)
    assert h.degree == f.degree + g.degree
    for u, v in [(1, 0), (0, 1), (1, 1), (2, -3)]:
        assert h.evaluate(u, v) == f.evaluate(u, v) * g.evaluate(u, v)


def test_product_of_linear_factors_vanishes_at_each():
    pts = [ParamPoint(1, k) for k in range(4)]
    f = product([BinaryForm.vanishing_at(p) for p in pts])
    assert f.degree == 4
    for p in pts:
        assert f.evaluate_at(p) == 0
    assert f.evaluate(0, 1) != 0


@given(forms(max_degree=3), forms(max_degree=3), forms(max_degree=2))
@settings(max_examples=50, deadline=None)
def test_gcd_degree_matches_sympy(f0, g0, h):
    f = f0.mul(h)
    g = g0.mul(h)
    ours = gcd(f, g)
    assert ours == sympy_gcd([f, g])
    # the gcd divides both inputs exactly
    divide_exact(f, ours)
    divide_exact(g, ours)


def test_gcd_handles_powers_of_both_variables_frozen():
    s2t = BinaryForm(3, (F(0), F(1), F(0), F(0)))  # s^2 t
    st2 = BinaryForm(3, (F(0), F(0), F(1), F(0)))  # s t^2
    g = gcd(s2t, st2)
    assert g.degree == 2  # s t
    assert g.evaluate(1, 0) == 0 and g.evaluate(0, 1) == 0
    assert g.evaluate(1, 1) != 0


def test_gcd_with_zero_and_constants():
    f = BinaryForm(2, (F(1), F(0), F(-1)))
    assert gcd(f, BinaryForm.zero(5)).monic().coeffs == f.monic().coeffs
    c = BinaryForm.constant(7)
    assert gcd(f, c).degree == 0


def test_gcd_many_accumulates():
    p, q, r = ParamPoint(1, 1), ParamPoint(1, 2), ParamPoint(1, 3)
    lp, lq, lr = (BinaryForm.vanishing_at(x) for x in (p, q, r))
    f1 = lp.mul(lq)
    f2 = lp.mul(lr)
    f3 = lp.mul(lp)
    g = gcd_many([f1, f2, f3])
    assert g.degree == 1
    assert g.evaluate_at(p) == 0


def from_sympy(expr, degree, s, t):
    """The sympy form ``expr`` as a BinaryForm, normalized as gcd returns it."""
    poly = sympy.Poly(expr, s, t)
    coeffs = []
    for i in range(degree + 1):
        c = poly.coeff_monomial(s ** (degree - i) * t**i)
        coeffs.append(F(int(c.p), int(c.q)))
    return BinaryForm(degree, tuple(coeffs)).monic()


def sympy_gcd(family):
    s, t = sympy.symbols("s t")
    g = sympy.Poly(to_sympy(family[0], s, t), s, t)
    for f in family[1:]:
        g = sympy.gcd(g, sympy.Poly(to_sympy(f, s, t), s, t))
    return from_sympy(g.as_expr(), sympy.total_degree(g.as_expr()), s, t)


def big_form(rng, degree, digits):
    top = 10**digits
    return BinaryForm(degree, tuple(F(rng.randrange(-top, top), rng.randrange(1, top)) for _ in range(degree + 1)))


def test_gcd_of_large_coefficient_family_matches_sympy():
    rng = random.Random(2024)
    common = big_form(rng, 2, 40)
    family = [common.mul(big_form(rng, 3, 70)) for _ in range(4)]
    assert min(len(str(c.numerator)) for f in family for c in f.coeffs) > 100
    expected = sympy_gcd(family)
    assert expected.degree == 2
    assert gcd(family[0], family[1]) == sympy_gcd(family[:2])
    assert gcd_many(family) == expected == common.monic()
    for f in family:
        divide_exact(f, expected)


def test_gcd_with_leading_coefficients_divisible_by_a_large_prime():
    p = 2**61 - 1
    common = BinaryForm(1, (F(3), F(p)))  # 3 s + p t
    f = common.mul(BinaryForm(2, (F(1), F(5), F(p * 7))))
    g = common.mul(BinaryForm(1, (F(-2), F(p))))
    h = common.mul(BinaryForm(2, (F(4), F(0), F(1))))
    assert f.coeffs[-1] % p == 0 and g.coeffs[-1] % p == 0
    assert gcd(f, g).coeffs == (F(1), F(p, 3))
    assert gcd_many([f, g, h]) == sympy_gcd([f, g, h]) == common.monic()


def test_gcd_of_forms_congruent_modulo_a_large_prime():
    # modulo p both forms are (s + t)^2; over Q only s + t is shared
    p = 2**61 - 1
    lin = BinaryForm(1, (F(1), F(1)))
    f = lin.mul(BinaryForm(1, (F(1 + p), F(1))))
    g = lin.mul(BinaryForm(1, (F(1 - p), F(1))))
    assert gcd(f, g) == sympy_gcd([f, g]) == lin


def test_coprime_forms_have_gcd_degree_zero():
    rng = random.Random(99)
    family = [big_form(rng, 4, 110) for _ in range(3)]
    assert gcd(family[0], family[1]).degree == 0
    assert gcd_many(family) == BinaryForm.constant(1) == sympy_gcd(family)


def test_gcd_many_of_a_family_with_a_common_linear_factor():
    rng = random.Random(5)
    common = big_form(rng, 1, 30)
    family = [common.mul(big_form(rng, 2, 30)) for _ in range(3)]
    assert gcd_many(family) == common.monic()


def test_gcd_many_keeps_a_repeated_factor():
    rng = random.Random(7)
    common = product([big_form(rng, 1, 40)] * 3)
    family = [common.mul(big_form(rng, d, 30)) for d in (1, 2, 3)]
    assert gcd_many(family) == sympy_gcd(family) == common.monic()


# zero or 31 to 36 digits, either sign
big_int = st.one_of(st.just(0), st.integers(10**30, 10**35), st.integers(-(10**35), -(10**30)))


def int_rows(max_degree):
    return st.integers(0, max_degree).flatmap(lambda d: st.lists(big_int, min_size=d + 1, max_size=d + 1))


@given(int_rows(2), st.lists(int_rows(3), min_size=1, max_size=4), st.integers(0, 2), st.integers(0, 2))
@settings(max_examples=40, deadline=None)
def test_gcd_degree_matches_gcd_many_on_large_integer_rows(common, cofactors, s_pow, zeros):
    # every row is common * cofactor * s^s_pow, padded to one degree; some rows are zero
    base = BinaryForm(len(common) + s_pow - 1, tuple(common) + (0,) * s_pow)
    members = [base.mul(BinaryForm(len(c) - 1, tuple(c))) for c in cofactors]
    degree = max(f.degree for f in members)
    members = [f.mul(BinaryForm(degree - f.degree, (1,) + (0,) * (degree - f.degree))) for f in members]
    members += [BinaryForm.zero(degree)] * zeros
    rows = [tuple(int(c) for c in f.coeffs) for f in members]
    if not any(map(any, rows)):
        with pytest.raises(ValueError):
            gcd_degree(rows)
        return
    assert gcd_degree(rows) == gcd_many(members).degree


def test_gcd_degree_single_nonzero_row_keeps_its_formal_degree():
    big = 10**33 + 7
    # s t^2 with a 34-digit coefficient: a single nonzero row is not reduced
    rows = [(0, 0, big, 0), (0, 0, 0, 0)]
    assert gcd_degree(rows) == 3 == gcd_many([BinaryForm(3, r) for r in rows]).degree
    with pytest.raises(ValueError):
        gcd_degree([(0, 0), (0, 0)])


@given(forms(max_degree=3), forms(min_degree=1, max_degree=3))
@settings(max_examples=40, deadline=None)
def test_divide_exact_round_trip(q, d):
    f = q.mul(d)
    back = divide_exact(f, d)
    assert back.degree == q.degree
    for u, v in [(1, 0), (0, 1), (1, 2), (3, -1)]:
        assert back.evaluate(u, v) == q.evaluate(u, v)


def test_divide_exact_rejects_non_divisor():
    f = BinaryForm(2, (F(1), F(0), F(1)))  # s^2 + t^2
    d = BinaryForm(1, (F(1), F(0)))  # s
    with pytest.raises(ValueError):
        divide_exact(f, d)


def test_monic_normalizes_leading_coefficient():
    f = BinaryForm(2, (F(0), F(3), F(6)))
    m = f.monic()
    assert m.coeffs == (F(0), F(1), F(2))
    assert BinaryForm.zero(2).monic().is_zero()


def test_distinct_parameters_guard():
    distinct_parameters([ParamPoint(1, 0), ParamPoint(0, 1), ParamPoint(1, 1)])
    with pytest.raises(DuplicateParameters):
        distinct_parameters([ParamPoint(1, 2), ParamPoint(2, 4)])
