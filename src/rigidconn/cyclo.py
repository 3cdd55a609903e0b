"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Elements are stored as coefficient vectors over Q in the power basis
1, z, ..., z^(phi(N)-1) of Q[x]/(Phi_N(x)), with z standing for the
primitive N-th root of unity exp(2*pi*i/N).  Working modulo the
cyclotomic polynomial (rather than x^N - 1) keeps zero-testing exact.
Cross-level operations promote both operands to the lcm level through
the embedding zeta_N = zeta_M^(M/N); every result is then brought back
to its minimal level, so each element has one stored form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from mpmath.ctx_iv import MPIntervalContext

DEFAULT_PRECISION_BITS = 128
PRECISION_CAP_BITS = 2048


class CycloError(Exception):
    pass


class DivisionByZero(CycloError):
    pass


class NotCoprime(CycloError):
    pass


class ZeroArgument(CycloError):
    pass


class UndecidedSign(CycloError):
    """Raised when doubling the working precision up to the cap still
    does not separate a quantity from zero."""


@lru_cache(maxsize=None)
def totient(n: int) -> int:
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


@lru_cache(maxsize=None)
def cyclotomic_coeffs(n: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_n, lowest degree first."""
    if n == 1:
        return (-1, 1)
    # divide x^n - 1 by the product of Phi_d over proper divisors d
    num = [0] * (n + 1)
    num[0], num[n] = -1, 1
    for d in range(1, n):
        if n % d == 0:
            den = list(cyclotomic_coeffs(d))
            num = _polydiv_exact(num, den)
    return tuple(num)


def _polydiv_exact(num: list[int], den: list[int]) -> list[int]:
    # exact division of integer polynomials, den monic up to sign
    num = list(num)
    dd = len(den) - 1
    lead = den[dd]
    q = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c == 0:
            continue
        assert c % lead == 0
        f = c // lead
        q[i - dd] = f
        for j, dc in enumerate(den):
            num[i - dd + j] -= f * dc
    assert all(c == 0 for c in num)
    return q


def _reduce_mod_phi(coeffs: list[Fraction], n: int) -> tuple[Fraction, ...]:
    """Reduce a polynomial in zeta_n (arbitrary degree) mod Phi_n."""
    phi = cyclotomic_coeffs(n)
    deg = len(phi) - 1
    c = list(coeffs)
    for i in range(len(c) - 1, deg - 1, -1):
        f = c[i]
        if f == 0:
            continue
        for j in range(deg + 1):
            c[i - deg + j] -= f * phi[j]
    c = c[:deg]
    c += [Fraction(0)] * (deg - len(c))
    return tuple(c)


@dataclass(frozen=True)
class CycloNum:
    """An element of Q(zeta_level); coeffs has length totient(level).

    Invariant: every value returned by the constructors below, the
    arithmetic operators and galois_apply is stored at its minimal
    level, the smallest N with the value in Q(zeta_N).  A value thus has
    one representation: equality is (level, coeffs) equality, and the
    hash agrees with it, a level-1 value hashing as its rational (so it
    also agrees with == on int and Fraction).  The raw dataclass
    constructor and promote are the only ways to get a non-minimal
    representation; mixed-level arithmetic uses them internally, and
    tests use them to build inputs for minimize_level.
    """

    level: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        assert len(self.coeffs) == totient(self.level)

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_rational(q) -> "CycloNum":
        return CycloNum(1, (Fraction(q),))

    @staticmethod
    def zeta(n: int, k: int = 1) -> "CycloNum":
        g = math.gcd(k, n)
        n //= g
        k = k // g % n
        if n % 4 == 2:
            # k and n/2 are odd: zeta_n^k = -zeta_n^(k + n/2)
            return -CycloNum.zeta(n // 2, (k + n // 2) // 2)
        # a primitive n-th root of unity with n != 2 mod 4 has level n
        raw = [Fraction(0)] * (k + 1)
        raw[k] = Fraction(1)
        return CycloNum(n, _reduce_mod_phi(raw, n))

    @staticmethod
    def zero() -> "CycloNum":
        return CycloNum.from_rational(0)

    @staticmethod
    def one() -> "CycloNum":
        return CycloNum.from_rational(1)

    # -- structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("not a rational")
        return self.coeffs[0]

    def promote(self, m: int) -> "CycloNum":
        """Re-express at level m (level must divide m); the result is
        not minimal when m > level."""
        if m == self.level:
            return self
        assert m % self.level == 0
        step = m // self.level
        raw = [Fraction(0)] * ((len(self.coeffs) - 1) * step + 1)
        for i, c in enumerate(self.coeffs):
            raw[i * step] += c
        return CycloNum(m, _reduce_mod_phi(raw, m))

    @staticmethod
    def _common(a: "CycloNum", b: "CycloNum"):
        m = math.lcm(a.level, b.level)
        return a.promote(m), b.promote(m)

    # -- arithmetic ---------------------------------------------------
    # A rational operand takes a fast path: adding a rational, or
    # multiplying by a nonzero one, keeps the other operand's level.

    def __add__(self, other) -> "CycloNum":
        other = _coerce(other)
        if other.level == 1:
            return _plus_rational(self, other.coeffs[0])
        if self.level == 1:
            return _plus_rational(other, self.coeffs[0])
        a, b = CycloNum._common(self, other)
        return minimize_level(CycloNum(a.level, tuple(x + y for x, y in zip(a.coeffs, b.coeffs))))

    def __neg__(self) -> "CycloNum":
        return CycloNum(self.level, tuple(-x for x in self.coeffs))

    def __sub__(self, other) -> "CycloNum":
        return self + (-_coerce(other))

    def __mul__(self, other) -> "CycloNum":
        other = _coerce(other)
        if other.level == 1:
            return _times_rational(self, other.coeffs[0])
        if self.level == 1:
            return _times_rational(other, self.coeffs[0])
        a, b = CycloNum._common(self, other)
        raw = [Fraction(0)] * (len(a.coeffs) + len(b.coeffs) - 1)
        for i, x in enumerate(a.coeffs):
            if x == 0:
                continue
            for j, y in enumerate(b.coeffs):
                if y == 0:
                    continue
                raw[i + j] += x * y
        return minimize_level(CycloNum(a.level, _reduce_mod_phi(raw, a.level)))

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other):
        return _coerce(other) - self

    def inv(self) -> "CycloNum":
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        if self.is_rational():
            return CycloNum.from_rational(1 / self.coeffs[0])
        # 1/a generates the same field as a, so the level stays minimal
        phi = [Fraction(c) for c in cyclotomic_coeffs(self.level)]
        g, s = _poly_gcdext(list(self.coeffs), phi)
        assert len(g) == 1 and g[0] != 0, "Phi_N is irreducible over Q"
        inv_coeffs = [c / g[0] for c in s]
        return CycloNum(self.level, _reduce_mod_phi(inv_coeffs, self.level))

    def __truediv__(self, other) -> "CycloNum":
        return self * _coerce(other).inv()

    def __rtruediv__(self, other):
        return _coerce(other) * self.inv()

    def __pow__(self, k: int) -> "CycloNum":
        if k < 0:
            return self.inv() ** (-k)
        result = CycloNum.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, CycloNum):
            return self.level == other.level and self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.level == 1 and self.coeffs[0] == other
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs[0]) if self.level == 1 else hash((self.level, self.coeffs))

    def __repr__(self):
        return f"CycloNum({self.level}, {format_cyclo(self)!r})"


def _plus_rational(a: CycloNum, q: Fraction) -> CycloNum:
    if q == 0:
        return a
    return CycloNum(a.level, (a.coeffs[0] + q,) + a.coeffs[1:])


def _times_rational(a: CycloNum, q: Fraction) -> CycloNum:
    if q == 0:
        return CycloNum.zero()
    if q == 1:
        return a
    return CycloNum(a.level, tuple(c * q for c in a.coeffs))


def _coerce(x) -> CycloNum:
    if isinstance(x, CycloNum):
        return x
    if isinstance(x, (int, Fraction)):
        return CycloNum.from_rational(x)
    raise TypeError(f"cannot coerce {x!r} to CycloNum")


def _poly_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_divmod(a, b):
    a = list(a)
    q = [Fraction(0)] * max(1, len(a) - len(b) + 1)
    db = len(b) - 1
    while len(a) - 1 >= db and _poly_trim(a):
        da = len(a) - 1
        if da < db:
            break
        f = a[da] / b[db]
        q[da - db] = f
        for j in range(db + 1):
            a[da - db + j] -= f * b[j]
        a.pop()
    return q, _poly_trim(a)


def _poly_gcdext(a, b):
    """Return (g, s) with s*a = g mod b, g the gcd of a and b."""
    a = _poly_trim([Fraction(c) for c in a])
    b = _poly_trim([Fraction(c) for c in b])
    r0, r1 = a, b
    s0, s1 = [Fraction(1)], []
    while r1:
        q, r = _poly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
    return r0, s0


def _poly_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _poly_trim(out)


def _poly_sub(a, b):
    n = max(len(a), len(b))
    out = [Fraction(0)] * n
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i] -= x
    return _poly_trim(out)


# -- operations ------------------------------------------------------


def galois_apply(k: int, a: CycloNum) -> CycloNum:
    """The automorphism zeta_N -> zeta_N^k, k coprime to the level.  It
    maps every subfield Q(zeta_d) onto itself, so the level stays minimal."""
    n = a.level
    if math.gcd(k, n) != 1:
        raise NotCoprime(f"gcd({k}, {n}) != 1")
    raw = [Fraction(0)] * ((len(a.coeffs) - 1) * (k % n) + 1 or 1)
    for i, c in enumerate(a.coeffs):
        if c == 0:
            continue
        e = (i * k) % n
        while e >= len(raw):
            raw.append(Fraction(0))
        raw[e] += c
    return CycloNum(n, _reduce_mod_phi(raw, n))


@lru_cache(maxsize=None)
def _iv_context(bits: int) -> MPIntervalContext:
    """A private mpmath interval context at the given precision; the
    shared mpmath.iv is never touched."""
    ctx = MPIntervalContext()
    ctx.prec = bits
    return ctx


@lru_cache(maxsize=None)
def _unit_roots(n: int, bits: int) -> tuple:
    """Intervals containing exp(2*pi*i*k/n) for k < totient(n)."""
    ctx = _iv_context(bits)
    return tuple(ctx.exp(2j * ctx.pi * k / n) for k in range(totient(n)))


def embed(a: CycloNum, precision_bits: int = DEFAULT_PRECISION_BITS):
    """Complex interval (an mpmath ivmpc) containing the image of a
    under zeta_N -> exp(2*pi*i/N), computed at the given precision."""
    ctx = _iv_context(precision_bits)
    z = ctx.mpc(0)
    for c, w in zip(a.coeffs, _unit_roots(a.level, precision_bits)):
        if c:
            z += ctx.mpf(c.numerator) / c.denominator * w
    return z


def turns(z):
    """Real interval containing arg(z)/(2*pi) in (-1/2, 1/2], read
    modulo 1, for a complex interval z; None when z may contain 0.  A box
    in the left half-plane is turned by a half first, so that it never
    meets the cut of arg along the negative real axis."""
    if 0 in z:
        return None
    ctx = z.ctx
    if z.real < 0:
        return ctx.arg(-z) / (2 * ctx.pi) + (-0.5 if z.imag < 0 else 0.5)
    return ctx.arg(z) / (2 * ctx.pi)


def shift(x, f: Fraction):
    """x + f, for x a Fraction or a real interval."""
    if isinstance(x, Fraction):
        return x + f
    return x + x.ctx.mpf(f.numerator) / f.denominator


def same_turn(x, y) -> bool:
    """Whether x - y may be an integer, for x, y each a Fraction or a
    real interval: whether they may name the same direction in turns."""
    if isinstance(x, Fraction):
        x, y = y, x
    d = shift(x, -y) if isinstance(y, Fraction) else x - y
    if isinstance(d, Fraction):
        return d.denominator == 1
    k = int(d.a)  # truncated, so ceil(d.a) is k or k + 1
    return any(d.a <= j <= d.b for j in (k, k + 1))


def _refine(a: CycloNum, decide):
    """decide(embed(a, bits)) for bits doubling up to the cap, until it
    returns something other than None."""
    bits = DEFAULT_PRECISION_BITS
    while bits <= PRECISION_CAP_BITS:
        out = decide(embed(a, bits))
        if out is not None:
            return out
        bits *= 2
    raise UndecidedSign(f"undecided at {PRECISION_CAP_BITS} bits")


def _positive_rational_angle(a: CycloNum):
    """If a = rho * zeta_level^k with rho rational != 0, return the
    exact angle in turns, else None."""
    n = a.level
    if not (a * galois_apply(-1, a)).is_rational():
        return None  # |a|^2 = rho^2 would be rational
    for k in range(n):
        b = a * CycloNum.zeta(n, (-k) % n)
        if b.is_rational():
            q = b.as_rational()
            if q > 0:
                return Fraction(k, n) % 1
            if q < 0:
                return (Fraction(k, n) + Fraction(1, 2)) % 1
    return None


def angle_exact(a: CycloNum):
    """Angle of a in turns.  When some power a^m, m <= 8, is a rational
    multiple of a root of unity, the angle is one of m rational branch
    candidates, and it is returned as that Fraction in [0, 1): the only
    candidate inside a certified interval for arg(a)/(2*pi).  Otherwise
    it is returned as that interval (an mpmath ivmpf, read modulo 1).
    The precision doubles up to PRECISION_CAP_BITS before UndecidedSign."""
    if a.is_zero():
        raise ZeroArgument("angle of zero")
    candidates = None
    power = a
    for m in range(1, 9):
        ang = _positive_rational_angle(power)
        if ang is not None:
            candidates = [(ang + j) / m % 1 for j in range(m)]
            break
        power = power * a
    if candidates is not None and len(candidates) == 1:
        return candidates[0]

    def decide(z):
        t = turns(z)
        if t is None or candidates is None:
            return t
        inside = [c for c in candidates if same_turn(c, t)]
        return inside[0] if len(inside) == 1 else None

    return _refine(a, decide)


def certified_re_sign(a: CycloNum) -> int:
    """Sign of Re(embedding of a): -1, 0, +1; exact zero only when the
    element itself certifies it."""
    if a.is_zero():
        return 0
    # Re(a) = (a + conj(a))/2 is the Galois image under k = -1
    re2 = a + galois_apply(-1 % a.level if a.level > 1 else 1, a)
    if re2.is_zero():
        return 0
    # interval comparisons are True or False when decided, None when not
    return _refine(re2, lambda z: 1 if z.real > 0 else -1 if z.real < 0 else None)


def minimize_level(a: CycloNum) -> CycloNum:
    """Re-express a at the smallest cyclotomic level containing it.

    The one canonicaliser behind the CycloNum invariant: arithmetic calls
    it on each result whose level may drop.  Descends one prime at a
    time: the levels whose field contains a are closed under gcd, so any
    descent path reaches the same minimum."""
    if a.level == 1:
        return a
    if a.is_rational():
        return CycloNum.from_rational(a.coeffs[0])
    descended = True
    while descended:
        descended = False
        for p in _prime_factors(a.level):
            down = _descend(a, p)
            if down is not None:
                a = down
                descended = True
                break
    return a


@lru_cache(maxsize=None)
def _prime_factors(n: int) -> tuple[int, ...]:
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return tuple(out)


def _descend(a: CycloNum, p: int) -> CycloNum | None:
    """a at level n/p when it lies in Q(zeta_(n/p)), else None; p is a
    prime dividing n = a.level."""
    n = a.level
    d = n // p
    if d % p == 0:
        # Phi_n(x) = Phi_d(x^p): the subfield is spanned by the powers
        # of zeta_n that are multiples of p
        if any(c != 0 for i, c in enumerate(a.coeffs) if i % p):
            return None
        down = CycloNum(d, a.coeffs[::p])
    else:
        # zeta_n = zeta_d^x * zeta_p^y; group a = sum_j B_j zeta_p^j with
        # B_j in Q(zeta_d).  As zeta_p^(p-1) = -(1 + ... + zeta_p^(p-2)),
        # a lies in Q(zeta_d) iff B_1 = ... = B_(p-1), and then equals
        # B_0 - B_(p-1).
        x, y = pow(p, -1, d), pow(d, -1, p)
        raw = [[Fraction(0)] * d for _ in range(p)]
        for i, c in enumerate(a.coeffs):
            if c != 0:
                raw[y * i % p][x * i % d] += c
        groups = [_reduce_mod_phi(r, d) for r in raw]
        if any(g != groups[-1] for g in groups[1:-1]):
            return None
        down = CycloNum(d, tuple(u - v for u, v in zip(groups[0], groups[-1])))
    if down.promote(n).coeffs != a.coeffs:
        raise CycloError(f"subfield descent from level {n} to {d} does not round-trip")
    return down


def format_cyclo(a: CycloNum) -> str:
    """Render in the problem-file coefficient syntax at a's own level."""
    if a.is_zero():
        return "0"
    parts = []
    for i, c in enumerate(a.coeffs):
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        elif i == 1:
            parts.append(f"{c}*z({a.level})")
        else:
            parts.append(f"{c}*z({a.level})^{i}")
    return _join_terms(parts)


def _join_terms(parts: list[str]) -> str:
    """Join signed terms with " + ", folding a leading minus into " - "."""
    out = parts[0]
    for p in parts[1:]:
        if p.startswith("-"):
            out += " - " + p[1:]
        else:
            out += " + " + p
    return out
