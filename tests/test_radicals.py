"""Radical-coefficient tower: roots, canonical monomials, embeddings."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

import rigidconn
from rigidconn.cyclo import CycloNum
from rigidconn.formal import INF, FormalType, Location, Problem, RegularPart
from rigidconn.puiseux import PolarPart
from rigidconn.radicals import (
    RadicalCoeff,
    cembed,
    ceq,
    cinv,
    cmul,
    cpow,
    croot,
    csort_key,
    rational_nth_root,
)
from rigidconn.rigidity import rig_index

from helpers import REF_BITS, REF_TOL, encloses, ref_value

F = Fraction


def c(q) -> CycloNum:
    return CycloNum.from_rational(F(q))


def test_rational_nth_root():
    assert rational_nth_root(F(4), 2) == 2
    assert rational_nth_root(F(8, 27), 3) == F(2, 3)
    assert rational_nth_root(F(2), 2) is None


def test_rational_nth_root_is_exact_beyond_float_precision():
    # a float square root misses this perfect square by rounding
    root = 10**17 + 3
    assert rational_nth_root(F(root**2), 2) == root
    assert rational_nth_root(F(root**2 + 1), 2) is None
    assert rational_nth_root(F(root**3, 8), 3) == F(root, 2)
    assert ceq(croot(c(root**2), 2), c(root))


def test_rational_nth_root_beyond_float_range():
    # 10**400 overflows a float
    assert rational_nth_root(F(10**400), 2) == 10**200
    assert rational_nth_root(F(10**400), 3) is None
    assert rational_nth_root(F(1, 10**402), 3) == F(1, 10**134)


def test_square_root_squares_back():
    r = croot(c(2), 2)
    assert ceq(cmul(r, r), c(2))


def test_rational_radicand_stays_cyclotomic():
    assert ceq(croot(c(4), 2), c(2))
    assert ceq(croot(c(27), 3), c(3))


def test_prime_factored_radicands_multiply():
    # sqrt(2) * sqrt(3) = sqrt(6): canonical monomials over prime
    # radicands make this an identity, not two opaque generators
    assert ceq(cmul(croot(c(2), 2), croot(c(3), 2)), croot(c(6), 2))
    # sqrt(8) = 2 sqrt(2)
    assert ceq(croot(c(8), 2), cmul(c(2), croot(c(2), 2)))


def test_root_of_unity_factor():
    # cube root of -8 is 2 * zeta_6 (principal branch)
    r = croot(c(-8), 3)
    assert ceq(cpow(r, 3), c(-8))


def test_inverse_and_powers():
    r = croot(c(2), 2)
    assert ceq(cmul(r, cinv(r)), c(1))
    assert ceq(cpow(r, 4), c(4))
    assert ceq(cpow(r, -2), c(F(1, 2)))


def test_nested_product_collapses():
    # (g1 g2)^(1/2) with g1 g2 = 1/4 must collapse to the rational 1/2
    prod = cmul(croot(c(F(1, 2)), 2), croot(c(F(1, 2)), 2))
    assert ceq(prod, c(F(1, 2)))


def test_cembed_accuracy():
    # strict containment of sqrt(2), decided by interval comparisons,
    # each of which holds only when true for every point of the interval
    z = cembed(croot(c(2), 2))
    lo, hi = z.real.a, z.real.b
    assert 0 in z.imag and 0 < lo and lo * lo <= 2 <= hi * hi
    # the cube root of 1 + zeta_5 = 2 cos(pi/5) e^(i pi/5), principal branch
    x = croot(c(1) + CycloNum.zeta(5), 3)
    assert encloses(cembed(x), ref_value(x))
    with mpmath.workprec(REF_BITS):
        want = mpmath.cbrt(2 * mpmath.cospi(mpmath.mpf(1) / 5)) * mpmath.expjpi(mpmath.mpf(1) / 15)
        assert abs(ref_value(x) - want) <= REF_TOL


def test_sort_key_total_order():
    xs = [croot(c(3), 2), c(1), croot(c(2), 2), c(2)]
    ks = [csort_key(x) for x in xs]
    assert len(set(ks)) == len(ks)
    assert sorted(ks) == sorted(ks, key=lambda k: k)  # keys are orderable


def test_radical_coeff_repr_roundtrip_identity():
    r = croot(c(6), 2)
    assert isinstance(r, RadicalCoeff)
    assert ceq(r, croot(c(6), 2))


def test_print_order_does_not_depend_on_what_was_parsed_first():
    # the tower lives as long as the process, so the order is checked in
    # a fresh one, where rt(3, 2) is registered before rt(2, 2)
    src = str(Path(rigidconn.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    script = (
        "from rigidconn.cli import coeff_str, parse_coeff\n"
        "parse_coeff('rt(3, 2)')\n"
        "print(coeff_str(parse_coeff('rt(6, 2)')))\n"
    )
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "1*rt(2, 2)*rt(3, 2)\n"


def test_a_rewritten_radicand_compares_by_value():
    a = c(2) + CycloNum.zeta(4)
    x = croot(a * a, 3)  # registers a^2, which the next root rewrites as a power of a
    y = croot(a, 3)
    assert cmul(y, y) == x and x == cmul(y, y)
    assert cmul(y, y) != y and y != x
    unit = RegularPart.make([(F(0), 1)])
    t = FormalType.make([(PolarPart.unramified({1: cmul(y, y)}), unit), (PolarPart.unramified({1: x}), unit)])
    assert len(t.factors) == 1 and t.factors[0].reg.rank() == 2


def test_equality_with_anything_but_a_number_is_false():
    r = croot(c(2), 2)
    assert (r == None) is False and r != None  # noqa: E711
    assert r != "rt(2, 2)" and r == croot(c(2), 2) and r != c(2)
    with pytest.raises(TypeError):
        hash(r)


def _one_number_two_radicands():
    """sqrt(1 + i) and (2i)^(1/4): both are 2^(1/4) zeta_16 on the
    principal branch."""
    return croot(c(1) + CycloNum.zeta(4), 2), croot(c(2) * CycloNum.zeta(4), 4)


def test_one_number_under_two_radicands():
    a, b = _one_number_two_radicands()
    assert ceq(cpow(a, 4), cpow(b, 4)) and ceq(cpow(a, 4), c(2) * CycloNum.zeta(4))
    assert encloses(cembed(a), ref_value(b)) and encloses(cembed(b), ref_value(a))


@pytest.mark.xfail(
    strict=True,
    reason="radicands other than rationals have no canonical form, so equal "
    "radicals compare unequal and split one factor in two (ROADMAP direction 5)",
)
def test_equal_radicals_compare_equal_and_give_one_rigidity_index():
    a, b = _one_number_two_radicands()
    zero = FormalType.regular(RegularPart.make([(F(0), 2)]))

    def problem(factors):
        return Problem.make(1, [(Location.of(0), zero), (INF, FormalType.make(factors))])

    unit = RegularPart.make([(F(0), 1)])
    split = problem([(PolarPart.unramified({1: a}), unit), (PolarPart.unramified({1: b}), unit)])
    whole = problem([(PolarPart.unramified({1: a}), RegularPart.make([(F(0), 1), (F(0), 1)]))])
    assert rig_index(whole) == 6
    assert ceq(a, b)
    assert rig_index(split) == rig_index(whole)
