"""Exact arithmetic in cyclotomic fields Q(zeta_N).

An element is stored as one integer vector over one positive integer
denominator, (nums[0] + nums[1] z + ... + nums[phi(N)-1] z^(phi(N)-1))/den,
in the power basis of Q[x]/(Phi_N(x)), with z standing for the
primitive N-th root of unity exp(2*pi*i/N) and gcd(den, *nums) = 1.
Working modulo the cyclotomic polynomial (rather than x^N - 1) keeps
zero-testing exact, and as Phi_N is monic, sums, products and the
reduction all run on integers, with one gcd pass per result.  The
inverse is the product of the other Galois conjugates over the rational
norm.  Cross-level operations promote both operands to the lcm level
through the embedding zeta_N = zeta_M^(M/N); every result is then
brought back to its minimal level, so each element has one stored form.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .errors import RigidconnError

DEFAULT_PRECISION_BITS = 128
PRECISION_CAP_BITS = 2048


class CycloError(RigidconnError):
    pass


class NotCoprime(CycloError):
    pass


class UndecidedSign(CycloError):
    """Raised when doubling the working precision up to the cap still
    does not separate a quantity from zero."""


@lru_cache(maxsize=None)
def totient(n: int) -> int:
    for p in _prime_factors(n):
        n = n // p * (p - 1)
    return n


@lru_cache(maxsize=None)
def cyclotomic_coeffs(n: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_n, lowest degree first: x^n - 1
    divided by the monic Phi_d of the proper divisors d of n."""
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            den = cyclotomic_coeffs(d)
            dd = len(den) - 1
            # synthetic division; the quotient replaces the top of num
            for i in range(len(num) - 1, dd - 1, -1):
                for j in range(dd):
                    num[i - dd + j] -= num[i] * den[j]
            num = num[dd:]
    return tuple(num)


@lru_cache(maxsize=None)
def _phi_tail(n: int) -> tuple[tuple[int, int], ...]:
    """The nonzero terms (j, c) of Phi_n below its leading one."""
    return tuple((j, c) for j, c in enumerate(cyclotomic_coeffs(n)[:-1]) if c)


def _reduce_mod_phi(raw: list[int], n: int) -> tuple[int, ...]:
    """Reduce an integer polynomial in zeta_n (arbitrary degree) mod
    Phi_n; Phi_n is monic, so the reduction stays over Z."""
    deg = totient(n)
    tail = _phi_tail(n)
    c = list(raw)
    for i in range(len(c) - 1, deg - 1, -1):
        f = c[i]
        if f:
            for j, phi_j in tail:
                c[i - deg + j] -= f * phi_j
    c = c[:deg]
    c += [0] * (deg - len(c))
    return tuple(c)


def _mul_nums(n: int, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """The product of two integer vectors at level n."""
    raw = [0] * (len(a) + len(b) - 1)
    bs = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if x:
            for j, y in bs:
                raw[i + j] += x * y
    return _reduce_mod_phi(raw, n)


class CycloNum:
    """The immutable value (nums[0] + nums[1] z + ...) / den in Q(zeta_level),
    z = zeta_level: len(nums) == totient(level), den > 0 and
    gcd(den, *nums) == 1.

    Invariant: every value returned by the constructors below, the
    arithmetic operators and galois_apply is stored at its minimal
    level, the smallest N with the value in Q(zeta_N).  A value thus has
    one representation: equality is (level, nums, den) equality, and the
    hash agrees with it, a level-1 value hashing as its rational (so it
    also agrees with == on int and Fraction).  The raw constructor
    CycloNum(level, coeffs), from rational coefficients, and promote are
    the only ways to get a non-minimal representation; mixed-level
    arithmetic uses them internally, and tests use them to build inputs
    for minimize_level."""

    __slots__ = ("level", "nums", "den")

    def __new__(cls, level: int, coeffs):
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) != totient(level):
            raise CycloError(f"level {level} needs {totient(level)} coefficients, got {len(coeffs)}")
        # over the lcm of the denominators the numerators are coprime to it
        den = math.lcm(*(c.denominator for c in coeffs))
        return _raw(level, tuple(c.numerator * (den // c.denominator) for c in coeffs), den)

    def __setattr__(self, name, value):
        raise AttributeError(f"CycloNum is immutable: cannot set {name}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return _raw, (self.level, self.nums, self.den)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The power-basis coefficients, as Fractions."""
        return tuple(Fraction(c, self.den) for c in self.nums)

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_rational(q) -> "CycloNum":
        if type(q) is not int:
            q = Fraction(q)
            return _raw(1, (q.numerator,), q.denominator)
        return _raw(1, (q,), 1)

    @staticmethod
    def zeta(n: int, k: int = 1) -> "CycloNum":
        g = math.gcd(k, n)
        n //= g
        k = k // g % n
        if n % 4 == 2:
            # k and n/2 are odd: zeta_n^k = -zeta_n^(k + n/2)
            return -CycloNum.zeta(n // 2, (k + n // 2) // 2)
        # a primitive n-th root of unity with n != 2 mod 4 has level n
        raw = [0] * (k + 1)
        raw[k] = 1
        return _raw(n, _reduce_mod_phi(raw, n), 1)

    @staticmethod
    def zero() -> "CycloNum":
        return _ZERO

    @staticmethod
    def one() -> "CycloNum":
        return _ONE

    # -- structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.nums)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("not a rational")
        return Fraction(self.nums[0], self.den)

    def promote(self, m: int) -> "CycloNum":
        """Re-express at level m (level must divide m); the result is
        not minimal when m > level."""
        if m == self.level:
            return self
        if m % self.level:
            raise CycloError(f"level {self.level} does not divide {m}")
        step = m // self.level
        raw = [0] * ((len(self.nums) - 1) * step + 1)
        raw[::step] = self.nums
        # Z[zeta_level] is a direct summand of Z[zeta_m]: the content stays 1
        return _raw(m, _reduce_mod_phi(raw, m), self.den)

    # -- arithmetic ---------------------------------------------------
    # A rational operand takes a fast path: adding a rational, or
    # multiplying by a nonzero one, keeps the other operand's level.

    def __add__(self, other) -> "CycloNum":
        other = _coerce(other)
        if other.level == 1:
            return _plus_rational(self, other.nums[0], other.den)
        if self.level == 1:
            return _plus_rational(other, self.nums[0], self.den)
        m = math.lcm(self.level, other.level)
        a, b = self.promote(m).nums, other.promote(m).nums
        da, db = self.den, other.den
        g = math.gcd(da, db)
        fa, fb = db // g, da // g
        return minimize_level(_canonical(m, [x * fa + y * fb for x, y in zip(a, b)], da * fa))

    def __neg__(self) -> "CycloNum":
        return _raw(self.level, tuple(-x for x in self.nums), self.den)

    def __sub__(self, other) -> "CycloNum":
        return self + (-_coerce(other))

    def __mul__(self, other) -> "CycloNum":
        other = _coerce(other)
        if other.level == 1:
            return _times_rational(self, other.nums[0], other.den)
        if self.level == 1:
            return _times_rational(other, self.nums[0], self.den)
        m = math.lcm(self.level, other.level)
        nums = _mul_nums(m, self.promote(m).nums, other.promote(m).nums)
        return minimize_level(_canonical(m, nums, self.den * other.den))

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other):
        return _coerce(other) - self

    def inv(self) -> "CycloNum":
        """1/a = (prod of the conjugates sigma_k(a), k != 1) / N(a), the
        norm N(a) = a * prod sigma_k(a) being rational."""
        if self.is_zero():
            raise CycloError("inverse of zero")
        n, v = self.level, self.nums
        conj = (1,) + (0,) * (len(v) - 1)
        for k in range(2, n):
            if math.gcd(k, n) == 1:
                conj = _mul_nums(n, conj, _galois_nums(k, n, v))
        norm = _mul_nums(n, v, conj)
        if any(norm[1:]):
            raise CycloError(f"norm at level {n} is not rational")
        # a = v/den, so 1/a = den * conj(v) / N(v); 1/a generates the same
        # field as a, so the level stays minimal
        f = self.den if norm[0] > 0 else -self.den
        return _canonical(n, [c * f for c in conj], abs(norm[0]))

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
            return self.level == other.level and self.den == other.den and self.nums == other.nums
        if isinstance(other, int):
            return self.level == 1 and self.den == 1 and self.nums[0] == other
        if isinstance(other, Fraction):
            return self.level == 1 and self.nums[0] == other.numerator and self.den == other.denominator
        return NotImplemented

    def __hash__(self):
        if self.level > 1:
            return hash((self.level, self.nums, self.den))
        return hash(self.nums[0]) if self.den == 1 else hash(Fraction(self.nums[0], self.den))

    def __repr__(self):
        return f"CycloNum({self.level}, {format_cyclo(self)!r})"


_set_level = CycloNum.level.__set__
_set_nums = CycloNum.nums.__set__
_set_den = CycloNum.den.__set__


def _raw(level: int, nums: tuple[int, ...], den: int) -> CycloNum:
    """The value with these fields, which must already satisfy den > 0
    and gcd(den, *nums) == 1."""
    a = object.__new__(CycloNum)
    _set_level(a, level)
    _set_nums(a, nums)
    _set_den(a, den)
    return a


_ZERO = _raw(1, (0,), 1)
_ONE = _raw(1, (1,), 1)


def _canonical(level: int, nums, den: int) -> CycloNum:
    """The value nums/den at this level, den > 0, with the common factor
    of den and nums divided out."""
    g = math.gcd(den, *nums)
    if g != 1:
        return _raw(level, tuple(x // g for x in nums), den // g)
    return _raw(level, tuple(nums), den)


def _plus_rational(a: CycloNum, num: int, den: int) -> CycloNum:
    if num == 0:
        return a
    g = math.gcd(den, a.den)
    fa, fb = den // g, a.den // g
    nums = [x * fa for x in a.nums]
    nums[0] += num * fb
    return _canonical(a.level, nums, a.den * fa)


def _times_rational(a: CycloNum, num: int, den: int) -> CycloNum:
    if num == 0:
        return _ZERO
    if num == den:
        return a
    return _canonical(a.level, [x * num for x in a.nums], a.den * den)


def _coerce(x) -> CycloNum:
    if isinstance(x, CycloNum):
        return x
    if isinstance(x, (int, Fraction)):
        return CycloNum.from_rational(x)
    raise TypeError(f"cannot coerce {x!r} to CycloNum")


# -- operations ------------------------------------------------------


def galois_apply(k: int, a: CycloNum) -> CycloNum:
    """The automorphism zeta_N -> zeta_N^k, k coprime to the level.  It
    maps every subfield Q(zeta_d) onto itself, so the level stays minimal,
    and Z[zeta_N] onto itself, so the content stays 1."""
    n = a.level
    if math.gcd(k, n) != 1:
        raise NotCoprime(f"gcd({k}, {n}) != 1")
    return _raw(n, _galois_nums(k % n, n, a.nums), a.den)


def _galois_nums(k: int, n: int, v: tuple[int, ...]) -> tuple[int, ...]:
    raw = [0] * n
    for i, c in enumerate(v):
        if c:
            raw[i * k % n] += c
    return _reduce_mod_phi(raw, n)


@lru_cache(maxsize=None)
def _iv_context(bits: int):
    """A private mpmath interval context at the given precision; the
    shared mpmath.iv is never touched.  mpmath is imported here, on the
    first interval operation, so work that needs no interval never loads
    it."""
    from mpmath.ctx_iv import MPIntervalContext

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
    for c, w in zip(a.nums, _unit_roots(a.level, precision_bits)):
        if c:
            z += ctx.mpf(c) * w
    return z / a.den if a.den != 1 else z


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
        raise CycloError("angle of zero")
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


def minimize_level(a: CycloNum) -> CycloNum:
    """Re-express a at the smallest cyclotomic level containing it.

    The one canonicaliser behind the CycloNum invariant: arithmetic calls
    it on each result whose level may drop.  Descends one prime at a
    time: the levels whose field contains a are closed under gcd, so any
    descent path reaches the same minimum."""
    if a.level == 1:
        return a
    if a.is_rational():
        # a rational has the same content in every power basis
        return _raw(1, a.nums[:1], a.den)
    while True:
        for p in _prime_factors(a.level):
            down = _descend(a, p)
            if down is not None:
                a = down
                break
        else:
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
    prime dividing n = a.level.  Z[zeta_(n/p)] is Z[zeta_n] cut with
    Q(zeta_(n/p)), so the content, and the denominator, stay."""
    n = a.level
    d = n // p
    if d % p == 0:
        # Phi_n(x) = Phi_d(x^p): the subfield is spanned by the powers
        # of zeta_n that are multiples of p
        if any(any(a.nums[r::p]) for r in range(1, p)):
            return None
        down = _raw(d, a.nums[::p], a.den)
    else:
        # zeta_n = zeta_d^x * zeta_p^y; group a = sum_j B_j zeta_p^j with
        # B_j in Q(zeta_d).  As zeta_p^(p-1) = -(1 + ... + zeta_p^(p-2)),
        # a lies in Q(zeta_d) iff B_1 = ... = B_(p-1), and then equals
        # B_0 - B_(p-1).  The groups are reduced one at a time, so the
        # first mismatch rejects.
        x, y = pow(p, -1, d), pow(d, -1, p)
        raw = [[0] * d for _ in range(p)]
        for i, c in enumerate(a.nums):
            if c:
                raw[y * i % p][x * i % d] += c
        last = _reduce_mod_phi(raw[-1], d)
        if any(_reduce_mod_phi(r, d) != last for r in raw[1:-1]):
            return None
        down = _raw(d, tuple(u - v for u, v in zip(_reduce_mod_phi(raw[0], d), last)), a.den)
    if down.promote(n).nums != a.nums:
        raise CycloError(f"subfield descent from level {n} to {d} does not round-trip")
    return down


def format_cyclo(a: CycloNum) -> str:
    """Render in the problem-file coefficient syntax at a's own level."""
    parts = []
    for i, c in enumerate(a.nums):
        if c:
            c = Fraction(c, a.den)
            parts.append(str(c) if i == 0 else f"{c}*z({a.level})" + (f"^{i}" if i > 1 else ""))
    return _join_terms(parts) if parts else "0"


def _join_terms(parts: list[str]) -> str:
    """Join signed terms with " + ", folding a leading minus into " - "."""
    out = parts[0]
    for p in parts[1:]:
        out += " - " + p[1:] if p.startswith("-") else " + " + p
    return out
