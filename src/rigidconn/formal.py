"""Formal local data at a puncture: elementary factors, ranks,
irregularity, formal-monodromy exponents and horizontal-hom dimensions.

A FormalType is a merged multiset of factors (phi, R): phi a canonical
minimal-or-zero polar part, R the regular part given by Jordan blocks
(exponent, size).  The factor of ramification p and regular rank s
contributes rank p*s.

Exponent convention: the factor (phi, p, block (alpha, k)) has formal
monodromy exponents alpha + j/p, j = 0..p-1, each with multiplicity k.
So alpha matters only mod 1/p, and FormalType.make stores it in
[0, 1/p): equal types compare equal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .cyclo import CycloNum
from .errors import RigidconnError
from .puiseux import (
    PolarPart,
    canonical_rep,
    diff_pole_order,
    orbit,
    polar_add,
)
from .radicals import csort_key


class FormalError(RigidconnError):
    pass


@dataclass(frozen=True)
class Location:
    """A point of the projective line: a coefficient value or infinity."""

    value: CycloNum | None  # None encodes infinity

    @staticmethod
    def inf() -> "Location":
        return Location(None)

    @staticmethod
    def of(x) -> "Location":
        if isinstance(x, Location):
            return x
        if isinstance(x, CycloNum):
            return Location(x)
        if isinstance(x, (int, Fraction)):
            return Location(CycloNum.from_rational(x))
        raise FormalError(f"a location must be cyclotomic, got {x!r}")

    @property
    def is_inf(self) -> bool:
        return self.value is None

    def sort_key(self):
        if self.is_inf:
            return (1, ())
        return (0, csort_key(self.value))

    def __repr__(self):
        return "inf" if self.is_inf else f"Loc({self.value!r})"


INF = Location.inf()


@dataclass(frozen=True)
class RegularPart:
    """Jordan data of a regular connection: blocks (exponent mod 1, size)."""

    blocks: tuple[tuple[Fraction, int], ...]

    @staticmethod
    def make(blocks) -> "RegularPart":
        # an exponent that is already a Fraction in [0, 1) is kept as it is
        clean = sorted(
            ((a if type(a) is Fraction and 0 <= a < 1 else Fraction(a) % 1, int(s)) for a, s in blocks if s > 0),
            key=lambda b: (b[0], -b[1]),
        )
        if not clean:
            raise FormalError("regular part must have positive rank")
        return RegularPart(tuple(clean))

    @staticmethod
    def single(exponent, size: int = 1) -> "RegularPart":
        return RegularPart.make([(exponent, size)])

    def rank(self) -> int:
        return sum(s for _, s in self.blocks)

    def shifted(self, b) -> "RegularPart":
        return RegularPart.make([(a + Fraction(b), s) for a, s in self.blocks])

    def __repr__(self):
        return "Reg[" + ", ".join(f"({a},{s})" for a, s in self.blocks) + "]"


@dataclass(frozen=True)
class ExpFactor:
    phi: PolarPart  # canonical (minimal or zero)
    reg: RegularPart

    def rank(self) -> int:
        return self.phi.ram * self.reg.rank()

    def __repr__(self):
        return f"El({self.phi!r}, {self.reg!r})"


def _mod_ram(reg: RegularPart, p: int) -> RegularPart:
    """reg with each block exponent a stored as (p*a mod 1)/p."""
    if p == 1 or all(p * a < 1 for a, _ in reg.blocks):
        return reg
    return RegularPart.make([((p * a) % 1 / p, s) for a, s in reg.blocks])


@dataclass(frozen=True)
class FormalType:
    factors: tuple[ExpFactor, ...]

    @staticmethod
    def make(factors) -> "FormalType":
        """Canonicalize phis, merge factors on equal orbits, store each
        block exponent of ramification p in [0, 1/p), sort."""
        merged: dict[PolarPart, RegularPart] = {}
        for f in factors:
            if isinstance(f, ExpFactor):
                phi, reg = f.phi, f.reg
            else:
                phi, reg = f
            rep = canonical_rep(phi)
            if rep in merged:
                reg = RegularPart.make(merged[rep].blocks + reg.blocks)
            merged[rep] = reg
        out = [ExpFactor(phi, _mod_ram(reg, phi.ram)) for phi, reg in merged.items()]
        out.sort(key=lambda f: (f.phi.sort_key(), f.reg.blocks))
        if not out:
            raise FormalError("formal type must have at least one factor")
        return FormalType(tuple(out))

    @staticmethod
    def regular(reg: RegularPart) -> "FormalType":
        return FormalType.make([(PolarPart.zero(), reg)])

    @staticmethod
    def trivial(r: int) -> "FormalType":
        """The type of a smooth point: r copies of exponent 0, size 1."""
        return FormalType.regular(RegularPart.make([(Fraction(0), 1)] * r))

    @cached_property
    def defect(self) -> int:
        """Rigidity defect Irr(End T) + r^2 - h0(End T) of this type,
        computed once per instance and kept out of the dataclass fields."""
        return hom_irregularity(self, self) + rank(self) ** 2 - hom_h0(self, self)

    @cached_property
    def exponent_sum(self) -> Fraction:
        """Sum of the formal-monodromy exponents, computed once per
        instance: a block (a, s) of ramification p adds s*(p*a + (p-1)/2)."""
        total, halves = Fraction(0), 0
        for f in self.factors:
            p = f.phi.ram
            for a, s in f.reg.blocks:
                total += p * s * a
                halves += (p - 1) * s
        return total + Fraction(halves, 2)

    def is_trivial(self) -> bool:
        return (
            len(self.factors) == 1
            and self.factors[0].phi.is_zero()
            and all(a == 0 and s == 1 for a, s in self.factors[0].reg.blocks)
        )

    def __repr__(self):
        return "Type{" + ", ".join(repr(f) for f in self.factors) + "}"


@dataclass(frozen=True)
class Problem:
    """Formal data of a connection: one FormalType per singular point,
    common total rank, quasi-unipotency order N.  A point of trivial type
    is smooth and is not listed, so equal data compare equal; the trivial
    connection lists the one point (INF, trivial type)."""

    N: int
    points: tuple[tuple[Location, FormalType], ...]

    @staticmethod
    def make(N: int, points) -> "Problem":
        pts = [(Location.of(loc), t) for loc, t in points]
        seen = set()
        for a, _ in pts:
            if a in seen:
                raise FormalError(f"duplicate location {a!r}")
            seen.add(a)
        ranks = {rank(t) for _, t in pts}
        if len(ranks) > 1:
            raise FormalError(f"rank mismatch across points: {sorted(ranks)}")
        if not pts:
            raise FormalError("a problem needs at least one point")
        r = ranks.pop()
        pts = [pt for pt in pts if not pt[1].is_trivial()] or [(INF, FormalType.trivial(r))]
        pts.sort(key=lambda pt: pt[0].sort_key())
        return Problem(int(N), tuple(pts))

    def rank(self) -> int:
        return rank(self.points[0][1])

    def at(self, loc: Location) -> FormalType:
        """The type at loc; trivial where no point is listed."""
        for l, t in self.points:
            if l == loc:
                return t
        return FormalType.trivial(self.rank())

    def locations(self) -> list[Location]:
        return [l for l, _ in self.points]


# -- operations ------------------------------------------------------


def rank(t: FormalType) -> int:
    return sum(f.rank() for f in t.factors)


def irregularity(t: FormalType) -> int:
    """Sum of slopes with multiplicity: slope j/p on rank p*s adds j*s."""
    return sum(f.phi.lead * f.reg.rank() for f in t.factors)


def monodromy_exponents(t: FormalType) -> list[Fraction]:
    out = []
    for f in t.factors:
        p = f.phi.ram
        for a, s in f.reg.blocks:
            for k in range(p):
                out.extend([a + Fraction(k, p)] * s)
    out.sort()
    return out


def hom_irregularity(m: FormalType, nt: FormalType) -> int:
    """Irregularity of the horizontal-hom module, via the adjunction
    over the common ramification cover."""
    rams = [f.phi.ram for f in m.factors] + [f.phi.ram for f in nt.factors]
    e = math.lcm(*rams)
    nt_orbits = [(fj.reg.rank(), orbit(fj.phi)) for fj in nt.factors]
    total = 0
    for fi in m.factors:
        ri = fi.reg.rank()
        for phi_s in orbit(fi.phi):
            for rj, psi_orbit in nt_orbits:
                total += ri * rj * sum(diff_pole_order(phi_s, psi, level=e) for psi in psi_orbit)
    if total % e:
        raise FormalError("hom irregularity must be integral")
    return total // e


def hom_h0(m: FormalType, nt: FormalType) -> int:
    """Dimension of horizontal homs between the formal modules."""
    total = 0
    for fi in m.factors:
        for fj in nt.factors:
            if not fi.phi == fj.phi:
                continue
            for a, k in fi.reg.blocks:
                for b, l in fj.reg.blocks:
                    if a == b:
                        total += min(k, l)
    return total


def twist_local(t: FormalType, psi: PolarPart, b) -> FormalType:
    """Tensor by the rank-one datum (psi, exponent shift b)."""
    return FormalType.make([(polar_add(f.phi, psi), f.reg.shifted(b)) for f in t.factors])


def quasi_order(t: FormalType) -> int:
    """Least N with every formal-monodromy exponent in (1/N)Z: the
    exponents a + j/p of a block generate <a, 1/p>, of order lcm(den a, p)."""
    return math.lcm(*(math.lcm(a.denominator, f.phi.ram) for f in t.factors for a, _ in f.reg.blocks))


def is_quasi_unipotent(p: Problem) -> bool:
    return all(p.N % quasi_order(t) == 0 for _, t in p.points)
