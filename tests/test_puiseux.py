"""Polar parts, Galois orbits, and polar parts pulled back along series."""

from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

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
    slope,
    pullback_polar,
)

F = Fraction
ONE = CycloNum.one()
ZERO = CycloNum.zero()


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
    assert _raw_ramify(phi, 3) == {3: c(2)}
    up = PolarPart.make(1, _raw_ramify(phi, 3))
    assert up == PolarPart.unramified({3: c(2)}) and slope(up) == 3
    half = PolarPart.make(2, [(1, c(1))])
    assert _raw_ramify(half, 2) == {2: c(1)}
    assert PolarPart.make(2, _raw_ramify(half, 2)) == PolarPart.unramified({1: c(1)})


def test_lser_inverse():
    a = Lser({0: ONE, 1: c(1)}, 8)  # 1 + w
    inv = a.inverse()
    prod = a * inv
    assert prod.terms == {0: ONE} and prod.trunc == 8
    # geometric series coefficients
    assert inv.terms[3] == c(-1)


def test_binomial_pow_square_root_squares_back():
    h = Lser({1: c(3), 2: c(-1)}, 10)  # 1 + h = 1 + 3w - w^2
    root = binomial_pow(h, F(1, 2), 10)
    square = root * root
    assert square.terms == (Lser.const(ONE, 10) + h).terms and square.trunc == 10
    assert root.trunc == 10


def _pole(k: int) -> Lser:
    """u^(-k), exact through u^0."""
    return Lser({-k: ONE}, 1)


def test_pullback_polar_catalan():
    # w = u + u^2  =>  u = w - w^2 + 2 w^3 - 5 w^4 + 14 w^5 - ..., and
    # u^(-k) = w^(-k) (1 + u)^k has these polar terms (the w^-1 term of
    # u^(-3) cancels: 3*(-1) + 3*1 = 0)
    S = Lser({1: ONE, 2: ONE}, 50)
    assert pullback_polar(S, 1, _pole(1)) == {1: ONE}
    assert pullback_polar(S, 1, _pole(2)) == {2: ONE, 1: c(2)}
    assert pullback_polar(S, 1, _pole(3)) == {3: ONE, 2: c(3)}


def test_solve_series_square():
    # u^2 = w^2  =>  u = w, so each u^(-k) pulls back to w^(-k) alone
    for k in range(1, 7):
        assert pullback_polar(Lser({2: ONE}, 40), 2, _pole(k)) == {k: ONE}


def test_solve_series_identity():
    # u = w: every u^(-k) pulls back to itself
    for k in range(1, 7):
        assert pullback_polar(Lser({1: ONE}, 40), 1, _pole(k)) == {k: ONE}


def test_pullback_polar_of_a_monomial():
    # 4 u^2 = w^2 gives u = w/2, and 3/u = 1/w gives u = 3 w
    assert pullback_polar(Lser({2: c(4)}, 40), 2, _pole(1)) == {1: c(2)}
    assert pullback_polar(Lser({-1: c(3)}, 40), -1, _pole(2)) == {2: c(F(1, 9))}


def test_under_resolved_series_is_rejected():
    # u^(-3) needs S through w^3; S = u + u^2 + O(u^3) is known below w^3 only
    with pytest.raises(SeriesNotCertified, match="under-resolved"):
        pullback_polar(Lser({1: ONE, 2: ONE}, 3), 1, _pole(3))
    # certified only below w^-1: the w^-1 coefficient of phi is not known
    with pytest.raises(SeriesNotCertified, match="under-resolved"):
        pullback_polar(Lser({1: ONE}, 40), 1, Lser({-2: c(3)}, -1))


@pytest.mark.parametrize(
    "S, m",
    [(Lser({2: ONE}, 40), 1), (Lser({1: ONE}, 40), 0), (Lser({}, 40), 1)],
    ids=["valuation", "m=0", "zero"],
)
def test_pullback_polar_checks_its_leading_term(S, m):
    # S must be nonzero with its leading term at w^m, m != 0
    with pytest.raises(SeriesNotCertified, match="valuation m"):
        pullback_polar(S, m, _pole(1))


# -- reference: fixed point with naive substitution -------------------


def _mul(a: dict, b: dict, n: int) -> dict:
    out: dict = {}
    for i, x in a.items():
        for j, y in b.items():
            if i + j < n:
                out[i + j] = out.get(i + j, ZERO) + x * y
    return out


def _binom(y: dict, e: F, n: int) -> dict:
    """(1 + y)^e mod x^n, y of positive valuation."""
    out, term = {0: ONE}, {0: ONE}
    for k in range(1, n):
        term = {i: t * c(F(e - k + 1, k)) for i, t in _mul(term, y, n).items()}
        for i, t in term.items():
            out[i] = out.get(i, ZERO) + t
    return out


def _reference_polar(h: dict, m: int, phi: dict) -> dict:
    """Polar terms of sum_i phi[i] U^(-i), U = x V solving U^m (1 + h(U)) = x^m,
    from the fixed point V = (1 + h(x V))^(-1/m) mod x^q: each round fixes one
    more coefficient of V."""
    q = max(phi)
    V = {0: ONE}
    for _ in range(q):
        xV = {k + 1: v for k, v in V.items()}
        hU, power = {}, {0: ONE}
        for k in range(1, max(h, default=0) + 1):
            power = _mul(power, xV, q)
            for i, v in power.items():
                hU[i] = hU.get(i, ZERO) + h.get(k, ZERO) * v
        V = _binom(hU, F(-1, m), q)
    V_inv = _binom({k: v for k, v in V.items() if k}, F(-1), q)
    out, power = {}, {0: ONE}
    for i in range(1, q + 1):
        power = _mul(power, V_inv, q)  # V^(-i)
        if i in phi:
            for k, v in power.items():
                if k < i:
                    out[i - k] = out.get(i - k, ZERO) + phi[i] * v
    return {j: d for j, d in out.items() if not d.is_zero()}


def _cyclo_terms(top: int):
    coeff = st.builds(
        lambda a, n, k: c(a) * CycloNum.zeta(n, k),
        st.sampled_from([F(1), F(-2), F(1, 3)]),
        st.sampled_from([1, 3, 4]),
        st.integers(0, 3),
    )
    return st.dictionaries(st.integers(1, top), coeff, max_size=top)


@seed(0)
@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([1, 2, 3, -1, -2, -3]),
    _cyclo_terms(3),
    _cyclo_terms(3).filter(bool),
)
def test_pullback_polar_matches_fixed_point_reference(m, h, phi):
    S = Lser({m: ONE, **{m + k: v for k, v in h.items()}}, 40)
    got = pullback_polar(S, m, Lser({-i: v for i, v in phi.items()}, 1))
    assert got == _reference_polar(h, m, phi)


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
