"""Polar parts, Galois orbits, and certified series inversion."""

from fractions import Fraction

import pytest

from rigidconn.cyclo import CycloNum
from rigidconn.puiseux import (
    Lser,
    PolarPart,
    PuiseuxError,
    SeriesNotCertified,
    _raw_ramify,
    binomial_pow,
    canonical_rep,
    diff_pole_order,
    galois_act,
    orbit,
    polar_add,
    polar_neg,
    polar_terms,
    slope,
    solve_series,
    substitute,
)

F = Fraction
ONE = CycloNum.one()


def c(q) -> CycloNum:
    return CycloNum.from_rational(F(q))


def test_normal_form_reduces_ramification():
    # a_2 t^(-2/2) is really a_2 t^(-1)
    phi = PolarPart.make(2, [(2, c(3))])
    assert phi.ram == 1 and phi.terms == ((1, c(3)),)


def test_slope():
    assert slope(PolarPart.unramified({2: c(1)})) == 2
    assert slope(PolarPart.make(2, [(1, c(1))])) == F(1, 2)
    assert slope(PolarPart.make(3, [(4, c(1))])) == F(4, 3)


def test_galois_act_and_orbit():
    phi = PolarPart.make(2, [(1, c(1))])
    sigma = galois_act(phi, 1)
    assert sigma == PolarPart.make(2, [(1, c(-1))])
    assert galois_act(sigma, 1) == phi
    assert len(orbit(phi)) == 2
    assert len(orbit(PolarPart.unramified({1: c(5)}))) == 1


def test_canonical_rep_is_orbit_invariant():
    phi = PolarPart.make(2, [(1, c(1))])
    rep1 = canonical_rep(phi)
    assert canonical_rep(galois_act(phi, 1)) == rep1
    assert canonical_rep(rep1) == rep1


def test_polar_add_neg():
    phi = PolarPart.unramified({1: c(2), 3: c(1)})
    assert polar_add(phi, polar_neg(phi)).is_zero()
    psi = PolarPart.make(2, [(1, c(1))])
    both = polar_add(phi, psi)
    assert both.ram == 2 and slope(both) == 3


def test_ramify_is_pullback():
    # the numerators _raw_ramify writes at level ram*q, read at level ram,
    # are the pullback under t = u^q: t^(-1) becomes u^(-3) for q = 3, and
    # t^(-1/2) becomes u^(-1) for q = 2
    phi = PolarPart.unramified({1: c(2)})
    assert _raw_ramify(phi, 3) == (3, {3: c(2)})
    up = PolarPart.make(1, _raw_ramify(phi, 3)[1])
    assert up == PolarPart.unramified({3: c(2)}) and slope(up) == 3
    half = PolarPart.make(2, [(1, c(1))])
    assert _raw_ramify(half, 2) == (4, {2: c(1)})
    assert PolarPart.make(2, _raw_ramify(half, 2)[1]) == PolarPart.unramified({1: c(1)})


def test_lser_inverse():
    a = Lser({0: ONE, 1: c(1)}, 8)  # 1 + w
    inv = a.inverse()
    assert (a * inv) == Lser.const(ONE, 8)
    # geometric series coefficients
    assert inv.terms[3] == c(-1)


def test_solve_series_catalan():
    # w = u + u^2  =>  u = w - w^2 + 2 w^3 - 5 w^4 + ...
    S = Lser({1: ONE, 2: ONE}, 50)
    u = solve_series(S, 1, 6)
    assert u.terms[1] == ONE
    assert u.terms[2] == c(-1)
    assert u.terms[3] == c(2)
    assert u.terms[4] == c(-5)
    assert u.terms[5] == c(14)


def test_solve_series_square():
    # u^2 = w^2  =>  u = w
    u = solve_series(Lser({2: ONE}, 40), 2, 6)
    assert u == Lser({1: ONE}, 7)
    assert u.terms[1] == ONE


def test_solve_series_identity():
    u = solve_series(Lser({1: ONE}, 40), 1, 6)
    assert u == Lser({1: ONE}, 7)
    assert u.terms[1] == ONE


def test_binomial_pow_square_root_squares_back():
    h = Lser({1: c(3), 2: c(-1)}, 10)  # 1 + h = 1 + 3w - w^2
    root = binomial_pow(h, F(1, 2), 10)
    assert root * root == Lser.const(ONE, 10) + h
    assert root.trunc == 10


def test_substitute_matches_term_by_term_powers():
    # S(u) for u = w + 2 w^2 with terms on both sides of w^0
    u = Lser({1: ONE, 2: c(2)}, 12)
    S = Lser({-3: c(2), -1: c(-1), 0: c(5), 2: c(7)}, 40)
    ui = u.inverse()
    want = ui.pow(3).scale(c(2)) + ui.scale(c(-1)) + Lser.const(c(5), 12) + u.pow(2).scale(c(7))
    got = substitute(S, u, 8)
    assert got.trunc == min(want.trunc, 8)
    assert got == want


def test_polar_terms_of_a_resolved_series():
    W = Lser({-2: c(3), -1: c(-1), 0: c(4), 3: ONE}, 5)
    assert polar_terms(W) == {2: c(3), 1: c(-1)}


def test_under_resolved_series_is_rejected():
    # certified only below w^0: the w^-1 coefficient is not known yet
    with pytest.raises(SeriesNotCertified, match="under-resolved"):
        polar_terms(Lser({-2: c(3)}, 0))


@pytest.mark.parametrize("S, m", [(Lser({2: ONE}, 40), 1), (Lser({1: ONE}, 40), 0), (Lser({1: 2}, 40), 1)])
def test_solve_series_checks_its_leading_term(S, m):
    # the leading term must be exactly w^m: a non-monic S is rejected
    with pytest.raises(SeriesNotCertified):
        solve_series(S, m, 6)


@pytest.mark.parametrize("j", [0, -1])
def test_polar_part_exponents_must_be_positive(j):
    # a raise, not an assert: CI also runs this file under python -O
    with pytest.raises(PuiseuxError, match="exponents must be positive"):
        PolarPart.make(2, [(1, ONE), (j, ONE)])


def test_diff_pole_order_needs_a_common_level():
    phi, psi = PolarPart.make(2, [(1, ONE)]), PolarPart.make(3, [(1, ONE)])
    assert diff_pole_order(phi, psi, level=6) == 3
    with pytest.raises(PuiseuxError, match="level 4 is not a common ramification"):
        diff_pole_order(phi, psi, level=4)
