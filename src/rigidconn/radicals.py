"""Controlled radical extensions of cyclotomic fields.

Stationary-phase inversion extracts fractional-power roots of leading
coefficients; those roots live here as formal monomials b^e, each
factor naming its radicand b by value.  Monomials with integer exponents
fold back into the cyclotomic coefficient, so a RadicalCoeff with no
genuine radical content collapses to a plain CycloNum.  A RadicalCoeff
is in normal form, so == compares structure and values hash.

A radicand is the value croot was given, or one of its rational primes,
and it is never rewritten: the branch of croot(c, n) depends on (c, n)
alone.  Radicands are taken to be multiplicatively independent modulo
roots of unity, so two radicals equal only through a power relation
between their radicands compare unequal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .cyclo import CycloNum, _positive_rational_angle, embed
from .errors import RigidconnError


class RadicalError(RigidconnError):
    pass


class RadicalTower:
    """The radicands named so far, in first-use order, counted by traced
    benchmark runs.  A monomial holds its radicands by value, so no
    computation reads them back from here."""

    def __init__(self):
        self.entries: dict[CycloNum, None] = {}

    def register(self, c: CycloNum) -> CycloNum:
        self.entries.setdefault(c)
        return c


TOWER = RadicalTower()

# ((radicand, exponent), ...) sorted by the radicand's csort_key
Monomial = tuple[tuple[CycloNum, Fraction], ...]


@dataclass(frozen=True)
class RadicalCoeff:
    """CycloNum-linear combination of radical monomials prod b_i^{e_i},
    exponents in (0,1), in normal form."""

    terms: tuple[tuple[Monomial, CycloNum], ...]

    @staticmethod
    def make(terms):
        """Normalize a list of (monomial, coeff) pairs; collapse to a
        CycloNum when no radical content remains."""
        by_mono: dict[Monomial, CycloNum] = {}
        for mono, coeff in terms:
            mono, coeff = _normalize_monomial(mono, coeff)
            if mono in by_mono:
                coeff = by_mono[mono] + coeff
            by_mono[mono] = coeff
        merged = sorted(
            ((m, c) for m, c in by_mono.items() if not c.is_zero()),
            key=lambda mc: _monomial_key(mc[0]),
        )
        if not merged:
            return CycloNum.zero()
        if len(merged) == 1 and merged[0][0] == ():
            return merged[0][1]
        return RadicalCoeff(tuple(merged))

    def is_zero(self) -> bool:
        return not self.terms

    def __repr__(self):
        return f"RadicalCoeff({self.terms!r})"


def _normalize_monomial(mono, coeff: CycloNum):
    acc: dict[CycloNum, Fraction] = {}
    for r, e in mono:
        acc[r] = acc.get(r, 0) + e
    out = []
    for r, e in acc.items():
        n = math.floor(e)
        if n:
            coeff = coeff * r**n
        if e != n:
            out.append((r, e - n))
    out.sort(key=lambda be: csort_key(be[0]))
    return tuple(out), coeff


def _monomial_key(mono: Monomial):
    return tuple((csort_key(r), e.numerator, e.denominator) for r, e in mono)


# -- uniform coefficient operations (CycloNum | RadicalCoeff) --------


def _terms_of(c) -> tuple[tuple[Monomial, CycloNum], ...]:
    if isinstance(c, RadicalCoeff):
        return c.terms
    if not isinstance(c, CycloNum):
        c = CycloNum.from_rational(c)
    return (((), c),)


def cadd(a, b):
    if isinstance(a, CycloNum) and isinstance(b, CycloNum):
        return a + b
    return RadicalCoeff.make(list(_terms_of(a)) + list(_terms_of(b)))


def cneg(a):
    if isinstance(a, CycloNum):
        return -a
    return RadicalCoeff.make([(m, -c) for m, c in _terms_of(a)])


def csub(a, b):
    return cadd(a, cneg(b))


def cmul(a, b):
    if isinstance(a, CycloNum) and isinstance(b, CycloNum):
        return a * b
    out = []
    for m1, c1 in _terms_of(a):
        for m2, c2 in _terms_of(b):
            out.append((tuple(list(m1) + list(m2)), c1 * c2))
    return RadicalCoeff.make(out)


def cis_zero(a) -> bool:
    if isinstance(a, (CycloNum, RadicalCoeff)):
        return a.is_zero()
    return a == 0


def ceq(a, b) -> bool:
    return a == b


def cinv(a):
    """Inverse of a CycloNum or single-monomial radical; the series engine
    inverts radicals only at a leg's boundary (puiseux.pullback_polar)."""
    terms = _terms_of(a)
    if not isinstance(a, RadicalCoeff):
        c = terms[0][1]
        if c.is_zero():
            raise RadicalError("inverse of zero")
        return c.inv()
    if len(a.terms) != 1:
        raise RadicalError("inverse of a multi-term radical coefficient is not supported")
    mono, c = a.terms[0]
    coeff = c.inv()
    for r, _ in mono:
        coeff = coeff * r.inv()  # b^-e = b^(1-e) / b
    return RadicalCoeff.make([(tuple((r, 1 - e) for r, e in mono), coeff)])


def cpow(a, k: int):
    if k < 0:
        return cpow(cinv(a), -k)
    result = CycloNum.one()
    base = a
    while k:
        if k & 1:
            result = cmul(result, base)
        base = cmul(base, base)
        k >>= 1
    return result


def rational_nth_root(q: Fraction, n: int) -> Fraction | None:
    """Exact n-th root of a positive rational, or None."""
    if q <= 0:
        return None

    def iroot(m: int):
        if n == 2:
            r = math.isqrt(m)
        else:
            # integer Newton from above: decreases to floor(m^(1/n))
            r = 1 << -(-m.bit_length() // n)
            while True:
                s = ((n - 1) * r + m // r ** (n - 1)) // n
                if s >= r:
                    break
                r = s
        return r if r**n == m else None

    a = iroot(q.numerator)
    b = iroot(q.denominator)
    if a is None or b is None:
        return None
    return Fraction(a, b)


def _prime_factorization(m: int) -> dict[int, int] | None:
    """Trial-division factorization; None when a huge cofactor survives."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= m:
        while m % d == 0:
            out[d] = out.get(d, 0) + 1
            m //= d
        d += 1 if d == 2 else 2
        if d > 10**6:
            break
    if m > 1:
        if m > 10**12:
            return None
        out[m] = out.get(m, 0) + 1
    return out


def _rational_root_monomial(rho: Fraction, n: int):
    """(monomial, rational factor) with rho^(1/n) = factor * monomial,
    radicands restricted to primes so products of roots stay canonical."""
    num = _prime_factorization(rho.numerator)
    den = _prime_factorization(rho.denominator)
    if num is None or den is None:
        return ((TOWER.register(CycloNum.from_rational(rho)), Fraction(1, n)),), Fraction(1)
    exps = dict(num)
    for p, a in den.items():
        exps[p] = exps.get(p, 0) - a
    mono = []
    rat = Fraction(1)
    for p in sorted(exps):
        e = Fraction(exps[p], n)
        whole = math.floor(e)
        frac = e - whole
        if whole:
            rat *= Fraction(p) ** whole
        if frac:
            mono.append((TOWER.register(CycloNum.from_rational(p)), frac))
    return tuple(mono), rat


def croot(a, n: int):
    """An n-th root of a nonzero coefficient (one branch; the others are
    roots-of-unity multiples, i.e. Galois conjugates downstream).  The
    branch depends on (a, n) alone: the radicands it names are never
    rewritten, whatever was rooted before."""
    if n == 1:
        return a
    if cis_zero(a):
        raise RadicalError("root of zero")
    if isinstance(a, RadicalCoeff):
        if len(a.terms) != 1:
            raise RadicalError("root of a multi-term radical coefficient")
        mono, c = a.terms[0]
        root_c = croot(c, n)
        out_mono = [(r, e / n) for r, e in mono]
        return cmul(RadicalCoeff.make([(tuple(out_mono), CycloNum.one())]), root_c)
    if not isinstance(a, CycloNum):
        a = CycloNum.from_rational(a)
    ang = _positive_rational_angle(a)
    if ang is not None:
        # a = rho * e^(2 pi i ang) with rho a positive rational
        t = ang.denominator
        s = ang.numerator
        zeta_part = CycloNum.zeta(t * n, s) if ang else CycloNum.one()
        rho = (a * CycloNum.zeta(2 * t, (-s * 2) % (2 * t))).as_rational()
        if rho <= 0:
            raise RadicalError("the modulus of a nonzero coefficient must be positive")
        rr = rational_nth_root(rho, n)
        if rr is not None:
            return zeta_part * rr
        mono, rat = _rational_root_monomial(rho, n)
        return cmul(RadicalCoeff.make([(mono, CycloNum.from_rational(rat))]), zeta_part)
    return RadicalCoeff.make([(((TOWER.register(a), Fraction(1, n)),), CycloNum.one())])


def cembed(a):
    """Complex interval (an mpmath ivmpc) containing a coefficient,
    principal branch for radicals."""
    total = 0
    for mono, c in _terms_of(a):
        z = embed(c)
        for r, e in mono:
            ctx = z.ctx
            z *= ctx.power(embed(r), ctx.mpf(e.numerator) / e.denominator)
        total += z
    return total


def csort_key(a):
    """Representation-independent total-order key for coefficients."""
    if isinstance(a, RadicalCoeff):
        return (1, tuple((_monomial_key(mono),) + csort_key(c)[1:] for mono, c in a.terms))
    if not isinstance(a, CycloNum):
        a = CycloNum.from_rational(a)
    # an int orders like the equal Fraction, so the order is that of coeffs
    return (0, a.level, a.nums if a.den == 1 else a.coeffs)
