"""Radical-coefficient tower: roots, canonical monomials, embeddings."""

import json
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


def _fresh(*args):
    """Run python with args in a fresh interpreter, whose radicals have
    seen nothing parsed before."""
    src = str(Path(rigidconn.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=60)


def test_print_order_does_not_depend_on_what_was_parsed_first():
    # checked in a fresh process, where rt(3, 2) is parsed before rt(2, 2)
    script = (
        "from rigidconn.cli import coeff_str, parse_coeff\n"
        "parse_coeff('rt(3, 2)')\n"
        "print(coeff_str(parse_coeff('rt(6, 2)')))\n"
    )
    res = _fresh("-c", script)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "1*rt(2, 2)*rt(3, 2)\n"


def test_a_root_does_not_depend_on_what_was_rooted_first(tmp_path):
    # (-2 - i)^2 = 3 + 4i, and the principal square root of 3 + 4i is
    # 2 + i: rooting -2 - i first must not turn rt(3 + 4i, 2) into -2 - i
    script = (
        "from rigidconn.cyclo import CycloNum\n"
        "from rigidconn.radicals import cembed, croot\n"
        "i = CycloNum.zeta(4)\n"
        "croot(-2 - i, 3)\n"
        "x = croot(3 + 4 * i, 2)\n"
        "z = cembed(x)\n"
        "print(2 in z.real, 1 in z.imag, x != -2 - i)\n"
    )
    res = _fresh("-c", script)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "True True True\n"
    # one point-0 coefficient spelled two ways, with the same data at inf
    outputs = []
    for spelling in ["rt(-2 - z(4), 3)^3*t^(-1)", "(-2 - z(4))*t^(-1)"]:
        path = tmp_path / "p.json"
        path.write_text(json.dumps(_point0_problem(spelling)))
        for cmd in (["stokes-arcs", "--point", "inf"], ["fourier"]):
            res = _fresh("-m", "rigidconn.cli", *cmd, str(path))
            outputs.append((cmd[0], res.returncode, res.stdout, res.stderr))
    assert outputs[:2] == outputs[2:]


def _point0_problem(phi0: str) -> dict:
    def factors(phi):
        return [{"phi": p, "reg": [{"exp": "0", "blocks": [1]}]} for p in (phi, "0")]

    return {
        "version": 1,
        "N": 1,
        "points": [
            {"loc": "0", "factors": factors(phi0)},
            {"loc": "inf", "factors": factors("rt(3 + 4*z(4), 2)*t^(-1)")},
        ],
    }


def test_equality_with_anything_but_a_number_is_false():
    r = croot(c(2), 2)
    assert (r == None) is False and r != None  # noqa: E711
    assert r != "rt(2, 2)" and r == croot(c(2), 2) and r != c(2)


def test_radical_values_hash():
    # equal values are built apart, so they are equal structures, not one object
    r, s = croot(c(2), 2), croot(c(8), 2)
    half = cmul(s, c(F(1, 2)))
    assert r == half and r is not half and hash(r) == hash(half)
    assert len({r, half, s}) == 2
    unit = RegularPart.make([(F(0), 1)])
    phi, phi2 = (PolarPart.unramified({1: x}) for x in (r, half))
    t, t2 = (FormalType.make([(p, unit), (PolarPart.zero(), unit)]) for p in (phi, phi2))
    P, P2 = (Problem.make(1, [(Location.of(0), u), (INF, u)]) for u in (t, t2))
    for x, y in [(phi, phi2), (t, t2), (P, P2)]:
        assert x == y and hash(x) == hash(y) and len({x, y}) == 1


def _one_number_two_radicands():
    """sqrt(1 + i) and (2i)^(1/4): both are 2^(1/4) zeta_16 on the
    principal branch."""
    return croot(c(1) + CycloNum.zeta(4), 2), croot(c(2) * CycloNum.zeta(4), 4)


def _one_number_as_a_power():
    """(2 + i)^(2/3) and ((2 + i)^2)^(1/3): equal on the principal
    branch, since 2 arg(2 + i) < pi, but under radicands 2 + i and 3 + 4i."""
    a = c(2) + CycloNum.zeta(4)
    y = croot(a, 3)
    return cmul(y, y), croot(a * a, 3)


def test_one_number_under_two_radicands():
    a, b = _one_number_two_radicands()
    assert ceq(cpow(a, 4), cpow(b, 4)) and ceq(cpow(a, 4), c(2) * CycloNum.zeta(4))
    assert encloses(cembed(a), ref_value(b)) and encloses(cembed(b), ref_value(a))


@pytest.mark.xfail(
    strict=True,
    reason="radicands other than rationals have no canonical form, so equal "
    "radicals compare unequal and split one factor in two (ROADMAP direction 5)",
)
@pytest.mark.parametrize("pair", [_one_number_two_radicands, _one_number_as_a_power])
def test_equal_radicals_compare_equal_and_give_one_rigidity_index(pair):
    a, b = pair()
    zero = FormalType.regular(RegularPart.make([(F(0), 2)]))

    def problem(factors):
        return Problem.make(1, [(Location.of(0), zero), (INF, FormalType.make(factors))])

    unit = RegularPart.make([(F(0), 1)])
    split = problem([(PolarPart.unramified({1: a}), unit), (PolarPart.unramified({1: b}), unit)])
    whole = problem([(PolarPart.unramified({1: a}), RegularPart.make([(F(0), 1), (F(0), 1)]))])
    assert rig_index(whole) == 6
    assert ceq(a, b)
    assert rig_index(split) == rig_index(whole)
