"""Order arcs, filtration dimensions, Galois equivariance."""

from fractions import Fraction

import mpmath
import pytest

from rigidconn.cyclo import CycloNum
from rigidconn.puiseux import PolarPart, galois_act
from rigidconn.radicals import croot
from rigidconn.stokes import (
    FULL_CIRCLE,
    Arc,
    BoundaryDirection,
    GradedStokes,
    IndexNotClosed,
    StokesError,
    boundary_directions,
    check_galois_equivariance,
    filtration_dims,
    order_arcs,
    strictly_less,
)

from helpers import REF_BITS, ref_turns, ref_value

F = Fraction
ZERO = PolarPart.zero()


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


def test_strictly_less_and_boundary_error():
    phi = PolarPart.unramified({1: 1})
    assert strictly_less(ZERO, phi, F(0))
    assert not strictly_less(phi, ZERO, F(0))
    with pytest.raises(BoundaryDirection):
        strictly_less(ZERO, phi, F(1, 4))


def test_trichotomy_off_boundaries():
    phi = PolarPart.unramified({2: -5})
    bd = set(boundary_directions(ZERO, phi))
    for k in range(40):
        theta = F(k, 40)
        if theta in bd:
            continue
        assert strictly_less(ZERO, phi, theta) != strictly_less(phi, ZERO, theta)


def test_filtration_dims():
    G = GradedStokes.make([(ZERO, 1), (PolarPart.unramified({1: 1}), 1)])
    out = dict(filtration_dims(G, F(0)))
    assert out[PolarPart.unramified({1: 1})] == (2, 1)
    assert out[ZERO] == (1, 0)


def test_filtration_single_element():
    G = GradedStokes.make([(PolarPart.unramified({1: 1}), 3)])
    assert filtration_dims(G, F(0)) == [(PolarPart.unramified({1: 1}), (3, 0))]


def test_graded_stokes_validation():
    with pytest.raises(StokesError):
        GradedStokes.make([(ZERO, 0)])  # total dimension must be positive
    with pytest.raises(StokesError):
        GradedStokes.make([(ZERO, 1), (ZERO, 2)])  # duplicate index


def test_galois_equivariance():
    phi = PolarPart.unramified({1: 1})
    sigma = PolarPart.unramified({1: -1})
    G = GradedStokes.make([(phi, 1), (sigma, 1), (ZERO, 1)])
    assert check_galois_equivariance(G, 0)
    assert check_galois_equivariance(G, 1)  # m is reduced mod cover = 1
    ram = PolarPart.make(2, [(1, 1)])
    G2 = GradedStokes.make([(ram, 2), (galois_act(ram, 1), 2)])
    assert check_galois_equivariance(G2, 1)
    G3 = GradedStokes.make([(ram, 2), (galois_act(ram, 1), 1)])
    assert not check_galois_equivariance(G3, 1)


def test_galois_equivariance_with_interval_endpoints():
    # 2 + zeta_5 and its cube root have irrational angles, so the arcs
    # are intervals, rotated and matched modulo 1
    c = CycloNum.from_rational(2) + CycloNum.zeta(5)
    for coeff in (c, croot(c, 3)):
        ram = PolarPart.make(2, [(1, coeff)])
        G = GradedStokes.make([(ram, 1), (galois_act(ram, 1), 1), (ZERO, 1)])
        assert not isinstance(order_arcs(ram, ZERO)[1][0].start, Fraction)
        assert check_galois_equivariance(G, 1)
        assert not check_galois_equivariance(GradedStokes.make([(ram, 2), (galois_act(ram, 1), 1)]), 1)


def test_galois_index_not_closed():
    ram = PolarPart.make(2, [(1, 1)])
    G = GradedStokes.make([(ram, 1)])
    with pytest.raises(IndexNotClosed):
        check_galois_equivariance(G, 1)


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
def test_strictly_less_decides_1e20_off_an_irrational_boundary(q):
    # psi = 0, phi = c t^(-q): the leading difference -c has an
    # irrational angle alpha, and psi <_theta phi iff cos 2 pi (alpha -
    # q theta) < 0, which flips where alpha - q theta = 1/4 or 3/4 mod 1
    c = CycloNum.from_rational(2) + CycloNum.zeta(5)
    phi = PolarPart.unramified({q: c})
    with mpmath.workprec(REF_BITS):
        alpha = ref_turns(-ref_value(c))
        for quarter in (F(1, 4), F(3, 4)):
            boundary = (alpha - mpmath.mpf(quarter.numerator) / quarter.denominator) / q
            near = F(int(mpmath.nint(boundary * 10**40)), 10**40)
            got = []
            for theta in (near - F(1, 10**20), near + F(1, 10**20)):
                cos = mpmath.cospi(2 * (alpha - q * mpmath.mpf(theta.numerator) / theta.denominator))
                assert 1e-21 < abs(cos) < 1e-18
                got.append(strictly_less(ZERO, phi, theta))
                assert got[-1] == (cos < 0)
            assert got[0] != got[1]
