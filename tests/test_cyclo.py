"""Exact cyclotomic arithmetic, certified embeddings and angles."""

import math
import pickle
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rigidconn.cyclo import (
    PRECISION_CAP_BITS,
    CycloNum,
    NotCoprime,
    angle_exact,
    cyclotomic_coeffs,
    embed,
    galois_apply,
    minimize_level,
    totient,
)
from rigidconn.puiseux import PolarPart
from rigidconn.radicals import cembed, cmul, croot
from rigidconn.stokes import order_arcs

from helpers import REF_BITS, REF_TOL, angle_holds, encloses, ref_turns, ref_value

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


@settings(max_examples=300, deadline=None)
@given(promoted())
def test_minimize_level_is_independent_of_the_ambient_level(pair):
    b, n = pair
    got = minimize_level(b.promote(n))
    want = minimize_level(b)
    assert (got.level, got.coeffs) == (want.level, want.coeffs)
    assert got.level % 4 != 2
    with mpmath.workprec(REF_BITS):
        mass = 1 + sum(abs(c) for c in b.coeffs)
        assert abs(ref_value(got) - ref_value(b)) <= mpmath.mpf(2) ** -900 * mass


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
            with mpmath.workprec(REF_BITS):
                assert encloses(embed(z), mpmath.expjpi(mpmath.mpf(2 * k) / n))


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


def test_embed_ball():
    # strict containment, decided by interval comparisons: each holds
    # only when true for every point of the interval
    assert 1j in embed(CycloNum.zeta(4))
    z = embed(CycloNum.zeta(3))
    lo, hi = z.imag.a, z.imag.b
    assert -0.5 in z.real and 0 < lo and lo * lo <= 0.75 <= hi * hi  # sqrt(3)/2
    for bits in (128, PRECISION_CAP_BITS):
        assert encloses(embed(CycloNum.zeta(7), bits), ref_value(CycloNum.zeta(7)))


def test_cyclotomic_polynomial_degree():
    assert len(cyclotomic_coeffs(8)) - 1 == totient(8)
    assert len(cyclotomic_coeffs(9)) - 1 == totient(9)


@st.composite
def cyclo_values(draw, levels=st.integers(1, 60)):
    """A nonzero CycloNum drawn at a level from 1 to 60 (or from levels),
    stored at its minimal level."""
    n = draw(levels)
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    a = minimize_level(CycloNum(n, tuple(draw(st.lists(coeff, min_size=totient(n), max_size=totient(n))))))
    assume(not a.is_zero())
    return a


def _stored_form_holds(x: CycloNum) -> bool:
    """The integer-vector invariant: one positive denominator, coprime
    to the numerators, and totient(level) numerators."""
    return x.den > 0 and math.gcd(x.den, *x.nums) == 1 and len(x.nums) == totient(x.level)


def _mass(x: CycloNum):
    return 1 + sum(abs(c) for c in x.coeffs)


@settings(max_examples=50, deadline=None)
@given(st.data(), st.integers(1, 100), st.integers(1, 4))
def test_integer_vectors_are_normalised_and_agree_with_the_1000_bit_values(data, k, step):
    """b is drawn at a level whose lcm with the level of a is at most
    120, which bounds the cost of a product and of its 1000-bit reference."""
    a = data.draw(cyclo_values())
    b = data.draw(cyclo_values(st.sampled_from([n for n in range(1, 61) if math.lcm(a.level, n) <= 120])))
    k = next(j for j in range(k, k + a.level + 1) if math.gcd(j, a.level) == 1)
    prod, total, inv = a * b, a + b, a.inv()
    results = [prod, total, a - b, a / b, inv, b.inv(), -a, galois_apply(k, a), a.promote(a.level * step)]
    for x in results:
        assert _stored_form_holds(x)
        assert CycloNum(x.level, x.coeffs) == x
    assert a * inv == 1
    with mpmath.workprec(REF_BITS):
        ra, rb = ref_value(a), ref_value(b)
        assert abs(ref_value(prod) - ra * rb) <= REF_TOL * _mass(a) * _mass(b)
        assert abs(ref_value(total) - (ra + rb)) <= REF_TOL * (_mass(a) + _mass(b))
        assert abs(ref_value(inv) * ra - 1) <= REF_TOL * _mass(inv) * _mass(a)


@pytest.mark.parametrize("n", [60, 84])
def test_inverse_by_the_norm_at_high_levels(n):
    z = CycloNum.zeta(n)
    a = F(2, 3) + z - 3 * z**7 + F(1, 5) * z**11
    inv = a.inv()
    assert a.level == inv.level == n and _stored_form_holds(inv)
    assert a * inv == 1 and inv * a == 1 and inv.inv() == a
    assert (a / a) == 1 and (1 / a) == inv
    assert pickle.loads(pickle.dumps(inv)) == inv
    # every norm above level 2 is positive; a negative rational keeps den > 0
    assert CycloNum.from_rational(F(-3, 4)).inv() == F(-4, 3)
    with mpmath.workprec(REF_BITS):
        assert abs(ref_value(inv) * ref_value(a) - 1) <= REF_TOL * _mass(inv) * _mass(a)


@settings(max_examples=30, deadline=None)
@given(cyclo_values(), st.none() | cyclo_values(st.integers(1, 12)), st.sampled_from([2, 3]))
@example(CycloNum.zeta(7), None, 2)
@example(CycloNum.one(), CycloNum.one() + CycloNum.zeta(5), 3)
@example(CycloNum.one(), CycloNum.from_rational(2), 2)
def test_certified_numbers_contain_the_1000_bit_values(a, b, n):
    """x is a, or a times the radical croot(b, n)."""
    x = a if b is None else cmul(a, croot(b, n))
    ref = ref_value(x)
    assert encloses(cembed(x), ref)
    if b is None:
        assert encloses(embed(x), ref)
        assert angle_holds(angle_exact(x), ref_turns(ref))
    # psi = 0 against phi = x t^(-2): the leading difference is -x, q = 2,
    # and the arcs run from (alpha - 3/4 - k)/2 to (alpha - 1/4 - k)/2,
    # k = 0, 1, in an order that depends on the representative of alpha
    _, arcs = order_arcs(PolarPart.zero(), PolarPart.unramified({2: x}))
    with mpmath.workprec(REF_BITS):  # mpmath rounds even a negation
        alpha = ref_turns(-ref)
        want = [((alpha - 0.75 - k) / 2, (alpha - 0.25 - k) / 2) for k in range(2)]
    for arc in arcs:
        assert any(angle_holds(arc.start, s) and angle_holds(arc.end, e) for s, e in want)
