"""Exact cyclotomic arithmetic, certified embeddings and angles."""

import cmath
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidconn.cyclo import (
    CycloNum,
    NotCoprime,
    angle_exact,
    certified_re_sign,
    cyclotomic_coeffs,
    embed_ball,
    galois_apply,
    minimize_level,
    totient,
)

F = Fraction


def test_totient():
    assert [totient(n) for n in (1, 2, 3, 4, 6, 12)] == [1, 1, 2, 2, 2, 4]


def test_root_of_unity_order():
    z = CycloNum.zeta(6)
    assert z**6 == CycloNum.one()
    assert z**3 == -CycloNum.one()
    assert z**2 != CycloNum.one()


def test_field_arithmetic():
    z = CycloNum.zeta(5)
    a = z + z**4
    b = z**2 + z**3
    # the golden-ratio quadratic: a and b are the two roots of x^2 + x - 1
    assert a * b == -CycloNum.one()
    assert a + b == -CycloNum.one()
    assert a * a + a - CycloNum.one() == CycloNum.zero()


def test_inverse():
    z = CycloNum.zeta(7)
    a = CycloNum.from_rational(F(2, 3)) + z
    assert a * a.inv() == CycloNum.one()


def test_minimize_level():
    z6 = CycloNum.zeta(6)
    assert minimize_level(z6**2).level == 3
    assert minimize_level(z6**3).level == 1
    assert minimize_level(CycloNum.from_rational(F(5, 7))).level == 1


PROPERTY_LEVELS = (3, 5, 7, 8, 9, 12, 15, 20, 24, 28, 30, 36, 60)


@st.composite
def promoted(draw):
    """(b, n): b at a level m dividing n."""
    n = draw(st.sampled_from(PROPERTY_LEVELS))
    m = draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    coeffs = draw(st.lists(coeff, min_size=totient(m), max_size=totient(m)))
    return CycloNum(m, tuple(coeffs)), n


def _embed(a: CycloNum):
    with mpmath.workprec(200):
        z = mpmath.exp(2j * mpmath.pi / a.level)
        terms = (mpmath.mpf(c.numerator) / c.denominator * z**i for i, c in enumerate(a.coeffs))
        return sum(terms, mpmath.mpc(0))


@settings(max_examples=300, deadline=None)
@given(promoted())
def test_minimize_level_is_independent_of_the_ambient_level(pair):
    b, n = pair
    got = minimize_level(b.promote(n))
    want = minimize_level(b)
    assert (got.level, got.coeffs) == (want.level, want.coeffs)
    assert got.level % 4 != 2
    with mpmath.workprec(200):
        mass = 1 + sum(abs(c) for c in b.coeffs)
        assert abs(_embed(got) - _embed(b)) <= mpmath.mpf(2) ** -180 * mass


def _canonical(x: CycloNum) -> bool:
    m = minimize_level(x)
    return (x.level, x.coeffs) == (m.level, m.coeffs)


@settings(max_examples=100, deadline=None)
@given(promoted(), promoted())
def test_arithmetic_results_are_canonical_and_hash_consistently(p, q):
    a, b = minimize_level(p[0]), minimize_level(q[0])
    results = [a + b, a - b, a * b, -a]
    if not b.is_zero():
        results += [a / b, b.inv()]
    for x in results:
        assert _canonical(x)
        if x.level == 1:
            assert x == x.coeffs[0] and hash(x) == hash(x.coeffs[0])
    pairs = [(a, b), (a + b - b, a), (a * b, b * a), (a - a, 0)]
    if not b.is_zero():
        pairs.append((a * b / b, a))
    for x, y in pairs:
        if x == y:
            assert hash(x) == hash(y)


def test_equal_values_hash_equal():
    assert len({CycloNum.zeta(6), -CycloNum.zeta(3) ** 2}) == 1
    assert hash(CycloNum.one()) == hash(CycloNum.zeta(4) ** 4) == hash(1)
    assert CycloNum.one() == CycloNum.zeta(4) ** 4 == 1
    assert CycloNum.from_rational(F(1, 2)) == F(1, 2)
    assert hash(CycloNum.from_rational(F(1, 2))) == hash(F(1, 2))


def test_constructors_return_minimal_levels():
    assert CycloNum.zeta(6).level == 3
    assert CycloNum.zeta(12, 4) == CycloNum.zeta(3)
    assert CycloNum.zeta(10, 5) == -1
    assert CycloNum.zeta(8, 4).level == 1
    assert (CycloNum.zeta(12) ** 2).level == 3
    assert (CycloNum.zeta(3) * CycloNum.zeta(4) ** 3 * CycloNum.zeta(4)).level == 3
    for n in (1, 2, 6, 10, 12, 18, 30):
        for k in range(-n, n):
            z = CycloNum.zeta(n, k)
            assert z.level % 4 != 2 and z == minimize_level(z)
            assert abs(embed_ball(z).center - cmath.exp(2j * cmath.pi * k / n)) < 1e-12


def test_galois_apply():
    z = CycloNum.zeta(6)
    assert galois_apply(5, z) == z**5
    # zeta_6 is stored at level 3, where sigma_2 is complex conjugation
    assert galois_apply(2, z) == z**5
    with pytest.raises(NotCoprime):
        galois_apply(2, CycloNum.zeta(12))


def test_angle_exact_rational_turns():
    z12 = CycloNum.zeta(12)
    assert angle_exact(z12**5) == F(5, 12)
    assert angle_exact(-CycloNum.one()) == F(1, 2)
    assert angle_exact(CycloNum.from_rational(3)) == 0
    # a rational multiple of a root of unity keeps the exact angle
    assert angle_exact(CycloNum.from_rational(F(2, 7)) * z12) == F(1, 12)


def test_certified_re_sign():
    z5 = CycloNum.zeta(5)
    assert certified_re_sign(z5 + z5**4) == 1  # 2 cos 72 degrees > 0
    z3 = CycloNum.zeta(3)
    assert certified_re_sign(z3 + z3**2) == -1  # equals -1
    assert certified_re_sign(CycloNum.zeta(4)) == 0  # purely imaginary


def test_embed_ball():
    b = embed_ball(CycloNum.zeta(4))
    assert abs(b.center - 1j) <= b.radius + 1e-15
    b = embed_ball(CycloNum.zeta(3))
    assert abs(b.center - (-0.5 + 0.8660254037844386j)) <= b.radius + 1e-12


def test_cyclotomic_polynomial_degree():
    assert len(cyclotomic_coeffs(8)) - 1 == totient(8)
    assert len(cyclotomic_coeffs(9)) - 1 == totient(9)
