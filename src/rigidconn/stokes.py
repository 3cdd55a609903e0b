"""Order arcs and graded Stokes bookkeeping on the circle of directions.

For polar parts psi, phi at a common ramification p, the relation
psi <=_theta phi holds where psi = phi or Re((psi-phi)(eps e^{i theta}))
is eventually negative.  With leading term a z^{-q} of the difference on
the p-fold cover, the strict locus is {theta : cos(arg a - q theta) < 0}
-- a union of q open arcs with 2q boundary directions.  Angles are in
turns.  They are exact Fractions whenever the leading coefficient has a
rational angle: a CycloNum whose angle angle_exact finds, or a radical
monomial over positive rational radicands times such a CycloNum.
Otherwise they are mpmath real intervals (ivmpf) certified to contain
the angle, read modulo 1; a direction is then decided only when its
interval stays off the boundary, and UndecidedSign is raised if not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from mpmath.ctx_iv import ivmpf

from .cyclo import CycloNum, UndecidedSign, angle_exact, same_turn, shift, turns
from .puiseux import PolarPart, galois_act, polar_add, polar_neg
from .radicals import RadicalCoeff, cembed, is_positive_monomial


class StokesError(Exception):
    pass


class BoundaryDirection(StokesError):
    pass


class IndexNotClosed(StokesError):
    pass


@dataclass(frozen=True)
class Arc:
    """Open arc on the cover circle, counterclockwise from start to end;
    endpoints in turns, normalized to [0, 1) when exact, and with the
    midpoint in [0, 1) when an interval."""

    start: Fraction | ivmpf
    end: Fraction | ivmpf


class _FullCircle:
    def __repr__(self):
        return "FullCircle"


FULL_CIRCLE = _FullCircle()


def _coeff_angle(a):
    """Angle of a coefficient in turns: a Fraction when exact, else a
    real interval."""
    if isinstance(a, RadicalCoeff):
        (mono, c), *rest = a.terms
        if rest or not is_positive_monomial(mono):
            t = turns(cembed(a))
            if t is None:
                raise UndecidedSign("angle of a coefficient whose interval contains 0")
            return t
        a = c
    return angle_exact(a if isinstance(a, CycloNum) else CycloNum.from_rational(a))


def _leading_difference(psi: PolarPart, phi: PolarPart, p: int):
    """(q, a) of the leading term a z^{-q} of psi - phi on the p-fold
    cover, or None when psi = phi."""
    diff = polar_add(psi, polar_neg(phi))
    if diff.is_zero():
        return None
    assert p % diff.ram == 0, "polar parts not at a common ramification"
    j, a = diff.terms[0]
    return j * (p // diff.ram), a


def _mod1(x):
    """x reduced into [0, 1): exactly for a Fraction, by the integer part
    of its midpoint for an interval."""
    if isinstance(x, Fraction):
        return x % 1
    return x - math.floor(float(x.mid))


def _rotate_arc(arc: Arc, delta: Fraction) -> Arc:
    return Arc(_mod1(shift(arc.start, delta)), _mod1(shift(arc.end, delta)))


def order_arcs(psi: PolarPart, phi: PolarPart, p: int | None = None):
    """(le_locus, strict_locus) of psi <=_theta phi on the cover circle;
    le_locus is FULL_CIRCLE when psi = phi, else equals the strict
    locus, a tuple of q disjoint open arcs."""
    p = p or math.lcm(psi.ram, phi.ram)
    lead = _leading_difference(psi, phi, p)
    if lead is None:
        return FULL_CIRCLE, ()
    q, a = lead
    alpha = _coeff_angle(a)
    arcs = tuple(
        Arc(
            _mod1(shift(alpha, -Fraction(3, 4) - k) / q),
            _mod1(shift(alpha, -Fraction(1, 4) - k) / q),
        )
        for k in range(q)
    )
    return arcs, arcs


def boundary_directions(psi: PolarPart, phi: PolarPart, p: int | None = None):
    """The 2q directions where the strict order flips: the endpoints of
    the order arcs; empty for equal polar parts."""
    _, strict = order_arcs(psi, phi, p)
    out = [x for arc in strict for x in (arc.end, arc.start)]
    if all(isinstance(x, Fraction) for x in out):
        out.sort()
    return tuple(out)


def strictly_less(psi: PolarPart, phi: PolarPart, theta: Fraction, p: int | None = None) -> bool:
    """psi <_theta phi at an exact direction theta (turns on the cover)."""
    p = p or math.lcm(psi.ram, phi.ram)
    lead = _leading_difference(psi, phi, p)
    if lead is None:
        return False
    q, a = lead
    u = _mod1(shift(_coeff_angle(a), -q * Fraction(theta)))
    if isinstance(u, Fraction):
        if u == Fraction(1, 4) or u == Fraction(3, 4):
            raise BoundaryDirection(f"theta = {theta} is a Stokes direction")
        return Fraction(1, 4) < u < Fraction(3, 4)
    # interval comparisons: True or False when decided, None when not;
    # the quarter points are dyadic, so the floats are exact
    above, below = u > 0.25, u < 0.75
    if above is None or below is None:
        raise UndecidedSign("direction too close to a Stokes boundary to certify")
    return above and below


@dataclass(frozen=True)
class GradedStokes:
    """Dimension function of a graded local system: (polar part, rank of
    the phi-graded piece) pairs; zero-dimension padding entries allowed."""

    dims: tuple[tuple[PolarPart, int], ...]

    @staticmethod
    def make(pairs) -> "GradedStokes":
        clean = []
        for phi, d in pairs:
            d = int(d)
            assert d >= 0
            if any(phi == q for q, _ in clean):
                raise StokesError(f"duplicate index {phi!r}")
            clean.append((phi, d))
        g = GradedStokes(tuple(clean))
        if g.total() < 1:
            raise StokesError("total dimension must be positive")
        return g

    def total(self) -> int:
        return sum(d for _, d in self.dims)

    def dim(self, phi: PolarPart) -> int:
        for q, d in self.dims:
            if q == phi:
                return d
        raise IndexNotClosed(f"{phi!r} not in the index set")

    def cover(self) -> int:
        return math.lcm(*(q.ram for q, _ in self.dims))


def filtration_dims(G: GradedStokes, theta: Fraction):
    """[(phi, (dim L_{<=phi,theta}, dim L_{<phi,theta}))] at an exact
    non-boundary direction."""
    p = G.cover()
    theta = Fraction(theta)
    out = []
    for phi, d in G.dims:
        lt = 0
        for psi, dpsi in G.dims:
            if psi == phi:
                continue
            if strictly_less(psi, phi, theta, p):
                lt += dpsi
        out.append((phi, (lt + d, lt)))
    return out


def _arcs_agree(a, b) -> bool:
    if a is FULL_CIRCLE or b is FULL_CIRCLE:
        return a is FULL_CIRCLE and b is FULL_CIRCLE
    if len(a) != len(b):
        return False
    used = [False] * len(b)
    for arc in a:
        for i, other in enumerate(b):
            if not used[i] and same_turn(arc.start, other.start) and same_turn(arc.end, other.end):
                used[i] = True
                break
        else:
            return False
    return True


def check_galois_equivariance(G: GradedStokes, m: int) -> bool:
    """Whether dims and order arcs are equivariant under z -> nu z with
    nu = zeta_p^m on the cover."""
    p = G.cover()
    m = m % p

    def act(phi: PolarPart) -> PolarPart:
        return galois_act(phi, m % phi.ram) if not phi.is_zero() else phi

    images = []
    for phi, d in G.dims:
        sigma = act(phi)
        if not any(sigma == q for q, _ in G.dims):
            raise IndexNotClosed(f"orbit leaves the index set at {phi!r}")
        images.append((phi, sigma, d))
    for _, sigma, d in images:
        if G.dim(sigma) != d:
            return False
    delta = Fraction(-m, p)
    for phi, sphi, _ in images:
        for psi, spsi, _ in images:
            le1, strict1 = order_arcs(psi, phi, p)
            le2, strict2 = order_arcs(spsi, sphi, p)
            rotated = (
                FULL_CIRCLE
                if le1 is FULL_CIRCLE
                else tuple(_rotate_arc(arc, delta) for arc in strict1)
            )
            if not _arcs_agree(le2, rotated):
                return False
    return True
