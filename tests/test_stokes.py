"""Order arcs, boundary directions, Galois equivariance."""

import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

import rigidconn
from rigidconn.cyclo import CycloNum, same_turn, shift
from rigidconn.puiseux import PolarPart, PuiseuxError, galois_act
from rigidconn.radicals import croot
from rigidconn.stokes import FULL_CIRCLE, Arc, _rotate_arc, boundary_directions, order_arcs

from helpers import REF_BITS, ref_turns, ref_value

F = Fraction
ZERO = PolarPart.zero()


def _inside(theta, arcs) -> bool:
    """Whether the direction theta in [0, 1) lies on one of the open arcs
    with exact endpoints, each counterclockwise from start to end."""
    return any(a.start < theta < a.end if a.start < a.end else not a.end <= theta <= a.start for a in arcs)


def _act(phi: PolarPart, m: int) -> PolarPart:
    """z -> zeta_p^m z on a p-fold cover, acting on a part of ramification dividing p."""
    return galois_act(phi, m % phi.ram)


def test_order_arcs_needs_a_common_ramification():
    psi = PolarPart.make(2, [(1, CycloNum.one())])
    assert len(order_arcs(psi, ZERO, 4)[1]) == 2
    with pytest.raises(PuiseuxError, match="common ramification"):
        order_arcs(psi, ZERO, 3)


def test_basic_arc():
    # psi = 0 vs phi = t^{-1}: psi - phi = -t^{-1}, strict locus is
    # (-1/4, 1/4) turns, stored as (3/4, 1/4)
    le, strict = order_arcs(ZERO, PolarPart.unramified({1: 1}))
    assert le == strict == (Arc(F(3, 4), F(1, 4)),)


def test_equal_polar_parts_full_circle():
    phi = PolarPart.unramified({2: 3})
    le, strict = order_arcs(phi, phi)
    assert le is FULL_CIRCLE and strict == ()
    assert boundary_directions(phi, phi) == ()


def test_boundary_count():
    for q in (1, 2, 3):
        bd = boundary_directions(ZERO, PolarPart.unramified({q: 1}))
        assert len(bd) == 2 * q
        assert bd == tuple(sorted(bd))


def test_trichotomy_off_boundaries():
    # off the boundary directions exactly one of psi < phi, phi < psi holds
    phi = PolarPart.unramified({2: -5})
    bd = set(boundary_directions(ZERO, phi))
    _, below = order_arcs(ZERO, phi)
    _, above = order_arcs(phi, ZERO)
    for k in range(40):
        theta = F(k, 40)
        if theta in bd:
            assert not _inside(theta, below) and not _inside(theta, above)
        else:
            assert _inside(theta, below) != _inside(theta, above)


def test_galois_equivariance():
    # z -> nu z with nu = zeta_2^m rotates the arcs of every pair by -m/2;
    # the rotation may list the arcs in another order
    ram = PolarPart.make(2, [(1, 1)])
    parts = [ram, galois_act(ram, 1), ZERO, PolarPart.unramified({1: 1})]
    for m in (0, 1):
        for psi in parts:
            for phi in parts:
                le1, strict1 = order_arcs(psi, phi, 2)
                le2, strict2 = order_arcs(_act(psi, m), _act(phi, m), 2)
                assert (le1 is FULL_CIRCLE) == (le2 is FULL_CIRCLE) == (psi == phi)
                assert set(strict2) == {_rotate_arc(arc, F(-m, 2)) for arc in strict1}


def test_galois_equivariance_with_interval_endpoints():
    # 2 + zeta_5 and its cube root have irrational angles, so the arcs
    # are intervals, rotated and matched modulo 1
    c = CycloNum.from_rational(2) + CycloNum.zeta(5)
    for coeff in (c, croot(c, 3)):
        ram = PolarPart.make(2, [(1, coeff)])
        for psi, phi in ((ram, ZERO), (ZERO, ram), (ram, galois_act(ram, 1))):
            (arc,) = order_arcs(psi, phi, 2)[1]
            (image,) = order_arcs(_act(psi, 1), _act(phi, 1), 2)[1]
            assert not isinstance(arc.start, Fraction)
            rotated = _rotate_arc(arc, F(-1, 2))
            assert same_turn(image.start, rotated.start) and same_turn(image.end, rotated.end)
            assert not same_turn(image.start, arc.start)


def test_ball_endpoints_for_irrational_angle():
    # leading coefficient 1 + 2*zeta_3 = i*sqrt(3): angle 1/4 exactly is
    # still certified; use a genuinely irrational-angle coefficient
    c = CycloNum.from_rational(2) + CycloNum.zeta(5)
    phi = PolarPart.unramified({1: c})
    le, strict = order_arcs(ZERO, phi)
    assert len(strict) == 1
    assert not isinstance(strict[0].start, Fraction)


def test_radical_monomial_over_positive_rationals_has_exact_arcs():
    # sqrt(2) has angle 0 and sqrt(-3/5) = zeta_4 sqrt(3/5) angle 1/4:
    # the arc of phi <= 0 runs from alpha - 3/4 to alpha - 1/4
    for radicand, alpha in ((2, F(0)), (F(-3, 5), F(1, 4))):
        phi = PolarPart.unramified({1: croot(CycloNum.from_rational(radicand), 2)})
        _, strict = order_arcs(phi, ZERO)
        assert strict == (Arc((alpha - F(3, 4)) % 1, (alpha - F(1, 4)) % 1),)


@pytest.mark.parametrize("q", [1, 2])
def test_order_arcs_locate_an_irrational_boundary_within_1e20(q):
    # psi = 0, phi = c t^(-q): the leading difference -c has an
    # irrational angle alpha, and psi <_theta phi iff cos 2 pi (alpha -
    # q theta) < 0, which flips where alpha - q theta = 1/4 or 3/4 mod 1;
    # one certified arc endpoint lies between directions 1e-20 either side
    c = CycloNum.from_rational(2) + CycloNum.zeta(5)
    phi = PolarPart.unramified({q: c})
    ends = [x for arc in order_arcs(ZERO, phi)[1] for x in (arc.start, arc.end)]
    assert len(ends) == 2 * q
    with mpmath.workprec(REF_BITS):
        alpha = ref_turns(-ref_value(c))
        for quarter in (F(1, 4), F(3, 4)):
            boundary = (alpha - mpmath.mpf(quarter.numerator) / quarter.denominator) / q
            near = F(int(mpmath.nint(boundary * 10**40)), 10**40)
            signs = []
            for theta in (near - F(1, 10**20), near + F(1, 10**20)):
                cos = mpmath.cospi(2 * (alpha - q * mpmath.mpf(theta.numerator) / theta.denominator))
                assert 1e-21 < abs(cos) < 1e-18
                signs.append(cos < 0)
            assert signs[0] != signs[1]
            between = []
            for x in ends:
                d = shift(x, -near)
                d = d - int(mpmath.nint(d.mid))
                between.append(-1e-20 < d.a and d.b < 1e-20)
            assert between.count(True) == 1


def test_mpmath_loads_on_the_first_interval_operation():
    # commands that need no interval never import mpmath; the angle of
    # -(1 + i) has two rational candidates, 1/8 and 5/8, and picking one
    # takes the first interval
    script = textwrap.dedent(
        """
        import sys
        import rigidconn.adk, rigidconn.cli, rigidconn.stokes
        from rigidconn.cyclo import CycloNum
        from rigidconn.puiseux import PolarPart

        print("mpmath" in sys.modules)
        phi = PolarPart.unramified({1: CycloNum.one() + CycloNum.zeta(4)})
        print(rigidconn.stokes.order_arcs(PolarPart.zero(), phi)[1])
        print("mpmath" in sys.modules)
        """
    )
    env = dict(os.environ, PYTHONPATH=str(Path(rigidconn.__file__).resolve().parents[1]))
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert res.returncode == 0, res.stderr
    want = (Arc(F(7, 8), F(3, 8)),)
    assert res.stdout == f"False\n{want}\nTrue\n"
