"""Ramified polar parts and truncated Puiseux series.

A PolarPart encodes sum_j a_j t^(-j/p), the exponential part of a
formal solution; the zero polar part (p = 1, no terms) stands for
regular factors.  Normal form divides out common factors of p and the
exponent numerators, so stored parts are minimal or zero.

Truncated Laurent series (Lser) carry the stationary-phase legs of the
Fourier transform and the Moebius transport: binomial_pow gives
(1 + h)^e (behind Lser.inverse and the Moebius p-th root), and
pullback_polar, the one entry point of the legs and the transport,
reads the polar part of phi(u) along S(u) = w^m by Lagrange inversion,
taking the one root of S's leading coefficient at the boundary.  A
coefficient read at or beyond a series' truncation, or a malformed S,
raises SeriesNotCertified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .cyclo import CycloNum
from .errors import RigidconnError
from .radicals import (
    RadicalCoeff,
    cadd,
    cinv,
    cis_zero,
    cmul,
    cneg,
    croot,
    csort_key,
    csub,
)


class PuiseuxError(RigidconnError):
    pass


class SeriesNotCertified(PuiseuxError):
    """A truncated-series result failed its own check."""


def _norm_coeff(c):
    if isinstance(c, (CycloNum, RadicalCoeff)):
        return c
    return CycloNum.from_rational(c)


@dataclass(frozen=True)
class PolarPart:
    """sum_j a_j t^(-j/ram); terms sorted by descending j."""

    ram: int
    terms: tuple  # ((j, coeff), ...) j positive int, coeff nonzero

    @staticmethod
    def make(ram: int, terms) -> "PolarPart":
        by_order = {}  # like terms merged
        for j, c in terms.items() if isinstance(terms, dict) else terms:
            by_order[j] = cadd(by_order[j], c) if j in by_order else c
        clean = [(j, _norm_coeff(c)) for j, c in by_order.items() if not cis_zero(c)]
        if not clean:
            return PolarPart(1, ())
        if any(j <= 0 for j, _ in clean):
            raise PuiseuxError("polar part exponents must be positive")
        g = math.gcd(ram, math.gcd(*[j for j, _ in clean]))
        if g > 1:
            clean = [(j // g, c) for j, c in clean]
            ram //= g
        clean.sort(key=lambda jc: -jc[0])
        return PolarPart(ram, tuple(clean))

    @staticmethod
    def zero() -> "PolarPart":
        return PolarPart(1, ())

    @staticmethod
    def unramified(coeff_by_order) -> "PolarPart":
        """Polar part sum c_j t^-j with integer orders."""
        return PolarPart.make(1, coeff_by_order)

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def lead(self) -> int:
        """Leading exponent numerator j (slope j/ram); 0 for the zero part."""
        return self.terms[0][0] if self.terms else 0

    def coeff(self, j: int):
        for jj, c in self.terms:
            if jj == j:
                return c
        return CycloNum.zero()

    def sort_key(self):
        # ram breaks the tie between parts that differ only in it
        return tuple((-j, csort_key(c)) for j, c in self.terms) or ((0, ()),), self.ram

    def __repr__(self):
        if self.is_zero():
            return "PolarPart(0)"
        body = " + ".join(f"({c!r})*t^(-{j}/{self.ram})" for j, c in self.terms)
        return f"PolarPart[{body}]"


# -- operations ------------------------------------------------------


def slope(phi: PolarPart) -> Fraction:
    return Fraction(phi.lead, phi.ram)


def is_minimal(phi: PolarPart) -> bool:
    if phi.is_zero():
        raise PuiseuxError("minimality of the zero polar part")
    # PolarPart.make reduces pullbacks, so stored parts are minimal
    g = math.gcd(phi.ram, math.gcd(*[j for j, _ in phi.terms]))
    return g == 1


def _raw_ramify(phi: PolarPart, q: int) -> dict:
    """Exponent map at level ram*q without normal-form reduction."""
    return {j * q: c for j, c in phi.terms}


def galois_act(phi: PolarPart, m: int) -> PolarPart:
    """Coefficient a_j -> a_j * zeta_p^(-j*m); z -> nu z on the cover."""
    p = phi.ram
    if not 0 <= m < p:
        raise PuiseuxError(f"galois index {m} not in [0, {p})")
    if m == 0 or phi.is_zero():
        return phi
    out = [(j, cmul(c, CycloNum.zeta(p, (-j * m) % p))) for j, c in phi.terms]
    return PolarPart(p, tuple((j, c) for j, c in out if not cis_zero(c)))


def orbit(phi: PolarPart) -> list[PolarPart]:
    return [galois_act(phi, m) for m in range(phi.ram)]


def canonical_rep(phi: PolarPart) -> PolarPart:
    """Deterministic representative of the Galois orbit of phi."""
    if phi.is_zero():
        return phi
    if not is_minimal(phi):
        raise PuiseuxError(f"not minimal: {phi!r}")
    return min(orbit(phi), key=PolarPart.sort_key)


def diff_pole_order(phi: PolarPart, psi: PolarPart, level: int | None = None) -> int:
    """Largest exponent numerator of phi - psi at the common (or given)
    ramification level; 0 when equal."""
    e = level or math.lcm(phi.ram, psi.ram)
    if e % phi.ram or e % psi.ram:
        raise PuiseuxError(f"level {e} is not a common ramification of {phi.ram} and {psi.ram}")
    m1 = _raw_ramify(phi, e // phi.ram)
    m2 = _raw_ramify(psi, e // psi.ram)
    diff = dict(m1)
    for j, c in m2.items():
        diff[j] = csub(diff.get(j, CycloNum.zero()), c)
    orders = [j for j, c in diff.items() if not cis_zero(c)]
    return max(orders) if orders else 0


def polar_add(phi: PolarPart, psi: PolarPart) -> PolarPart:
    e = math.lcm(phi.ram, psi.ram)
    m1 = _raw_ramify(phi, e // phi.ram)
    m2 = _raw_ramify(psi, e // psi.ram)
    for j, c in m2.items():
        m1[j] = cadd(m1.get(j, CycloNum.zero()), c)
    return PolarPart.make(e, m1)


def polar_neg(phi: PolarPart) -> PolarPart:
    return PolarPart(phi.ram, tuple((j, cneg(c)) for j, c in phi.terms))


def unramified_head(phi: PolarPart) -> PolarPart:
    """The integer-exponent sub-polar-part of phi."""
    p = phi.ram
    return PolarPart.make(1, [(j // p, c) for j, c in phi.terms if j % p == 0])


# -- truncated integer-exponent Laurent series -----------------------


class Lser:
    """Finite Laurent series sum c_k w^k with terms certified for
    exponents < trunc."""

    __slots__ = ("terms", "trunc")

    def __init__(self, terms: dict, trunc: int):
        self.terms = {k: c for k, c in terms.items() if k < trunc and not cis_zero(c)}
        self.trunc = trunc

    @staticmethod
    def const(c, trunc: int) -> "Lser":
        return Lser({0: c}, trunc)

    def valuation(self) -> int:
        if not self.terms:
            return self.trunc
        return min(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "Lser") -> "Lser":
        t = min(self.trunc, other.trunc)
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = cadd(out.get(k, CycloNum.zero()), c)
        return Lser(out, t)

    def __neg__(self) -> "Lser":
        return Lser({k: cneg(c) for k, c in self.terms.items()}, self.trunc)

    def __sub__(self, other: "Lser") -> "Lser":
        return self + (-other)

    def __mul__(self, other: "Lser") -> "Lser":
        va, vb = self.valuation(), other.valuation()
        t = min(self.trunc + vb, other.trunc + va)
        out: dict = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                k = k1 + k2
                if k < t:
                    out[k] = cadd(out.get(k, CycloNum.zero()), cmul(c1, c2))
        return Lser(out, t)

    def scale(self, c) -> "Lser":
        return Lser({k: cmul(v, c) for k, v in self.terms.items()}, self.trunc)

    def truncate(self, n: int) -> "Lser":
        """self below w^n (or below its own truncation, if that is lower)."""
        return Lser(self.terms, min(self.trunc, n))

    def shift(self, d: int) -> "Lser":
        return Lser({k + d: c for k, c in self.terms.items()}, self.trunc + d)

    def inverse(self) -> "Lser":
        """Multiplicative inverse; leading coefficient must be
        invertible (cyclotomic or single radical monomial)."""
        if self.is_zero():
            raise PuiseuxError("inverse of zero series")
        v = self.valuation()
        inv_lead = cinv(self.terms[v])
        rest = Lser({k - v: cmul(c, inv_lead) for k, c in self.terms.items() if k != v}, self.trunc - v)
        return binomial_pow(rest, -1, self.trunc - v).scale(inv_lead).shift(-v)

    def coeff(self, k: int):
        """The coefficient of w^k, which must be certified."""
        if k >= self.trunc:
            raise SeriesNotCertified(f"series under-resolved: w^{k} read, certified below w^{self.trunc} only")
        return self.terms.get(k, CycloNum.zero())

    def __repr__(self):
        body = " + ".join(f"({self.terms[k]!r})w^{k}" for k in sorted(self.terms))
        return f"Lser[{body or '0'}; O(w^{self.trunc})]"


def binomial_pow(h: Lser, e, order: int) -> Lser:
    """(1 + h)^e for h of positive valuation, to w^order."""
    acc = term = Lser.const(CycloNum.one(), order)
    k = 0
    while True:
        k += 1
        term = (term * h).truncate(order).scale(Fraction(e - k + 1, k))
        if term.is_zero() or term.valuation() >= order:
            return acc
        acc = acc + term


def pullback_polar(S: Lser, m: int, phi: Lser) -> dict:
    """{j: c} for the terms c w^(-j) of phi(u), u solving S(u) = w^m.

    Write S = c_m u^m (1 + h(u)) and lam^m = 1/c_m, lam the one root taken.
    Then u(w) = U(lam w), where U = x + O(x^2) solves U^m (1 + h(U)) = x^m,
    and Lagrange inversion gives the terms d_j x^(-j) of phi(U) in closed form:
    d_j = -(1/j) [u^(-j-1)] phi'(u) B(u)^j with B = (1 + h)^(1/m).  Only
    B^j below u^(q-j+1) is read, q the pole order of phi; the result is
    d_j lam^(-j)."""
    if m == 0 or S.is_zero() or S.valuation() != m:
        raise SeriesNotCertified(f"pullback_polar needs m != 0 and S of valuation m, got m = {m}")
    if phi.trunc < 0:
        raise SeriesNotCertified(f"series under-resolved: certified below w^{phi.trunc} only")
    c_m = S.terms[m]
    inv_lead = cinv(c_m)
    lam = croot(inv_lead, m) if m > 0 else croot(c_m, -m)
    h = Lser({k - m: cmul(c, inv_lead) for k, c in S.terms.items() if k != m}, S.trunc - m)
    # i*a_i for the terms a_i u^(-i) of phi: -phi' has them at u^(-i-1)
    ia = {-k: cmul(c, Fraction(-k)) for k, c in phi.terms.items() if k < 0}
    q = max(ia, default=0)
    B = binomial_pow(h, Fraction(1, m), q)
    lam_inv, power, Bj, out = cinv(lam), CycloNum.one(), Lser.const(CycloNum.one(), q), {}
    for j in range(1, q + 1):
        power = cmul(power, lam_inv)
        Bj = Bj.truncate(q - j + 1) * B  # B^j below u^(q-j+1)
        d = CycloNum.zero()
        for i, c in ia.items():
            if i >= j:
                d = cadd(d, cmul(c, Bj.coeff(i - j)))
        if not cis_zero(d):
            out[j] = cmul(cmul(d, Fraction(1, j)), power)
    return out
