"""Order arcs on the circle of directions, as the stokes-arcs command
prints them.

For polar parts psi, phi at a common ramification p, the relation
psi <=_theta phi holds where psi = phi or Re((psi-phi)(eps e^{i theta}))
is eventually negative.  With leading term a z^{-q} of the difference on
the p-fold cover, the strict locus is {theta : cos(arg a - q theta) < 0}
-- a union of q open arcs with 2q boundary directions.  Angles are in
turns.  They are exact Fractions whenever the leading coefficient has a
rational angle: a CycloNum whose angle angle_exact finds, or a radical
monomial over positive rational radicands times such a CycloNum.
Otherwise they are mpmath real intervals (ivmpf) certified to contain
the angle, read modulo 1, and UndecidedSign is raised where no such
interval can be certified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .cyclo import CycloNum, UndecidedSign, angle_exact, shift, turns
from .puiseux import PolarPart, PuiseuxError, polar_add, polar_neg
from .radicals import RadicalCoeff, cembed

if TYPE_CHECKING:
    from mpmath.ctx_iv import ivmpf


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
        if rest or not all(r.is_rational() and r.as_rational() > 0 for r, _ in mono):
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
    if p % diff.ram:
        raise PuiseuxError("polar parts not at a common ramification")
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
