"""The reduction loop: normalization, case analysis, greedy
rank-decreasing steps, certificates and replay.

A run alternates normalize_problem (a Moebius move that takes the
ramified point to infinity) with reduce_step (Twist+MC when infinity is
unramified, Twist+Fourier when a ramified factor sits at infinity)
until rank one.  reduce_step scores each twist option per point, off
the untwisted type, and twists the problem only by the twist it applies.
Each move is a frozen record of its kind -- Moebius, Twist, Mc or
Fourier -- holding its parameters and predicted_rank, the rank it
leaves behind; apply(P) makes the move and undo(P) inverts it.  The
Certificate is the list of records, and replay_certificate undoes them
from the terminal problem back to the origin, which it must equal.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar

from .cyclo import CycloNum
from .errors import RigidconnError
from .formal import (
    INF,
    FormalType,
    Location,
    Problem,
)
from .puiseux import (
    Lser,
    PolarPart,
    binomial_pow,
    cinv,
    croot,
    polar_add,
    polar_neg,
    pullback_polar,
    unramified_head,
)
from .rigidity import rig_index
from .transforms import (
    InvariantViolation,
    RankOneData,
    fourier_global,
    fourier_inverse,
    middle_convolution,
    point_rank_term,
    twist_global,
)


class TwoSpecialPoints(RigidconnError):
    pass


class ReplayMismatch(RigidconnError):
    def __init__(self, diff: str):
        super().__init__(diff)
        self.diff = diff


# -- verdict types ---------------------------------------------------


@dataclass(frozen=True)
class NotRigid:
    reason: str
    stuck_at_rig2: bool = False  # greedy search failed though rig = 2


@dataclass(frozen=True)
class Stuck:
    rank: int


# -- Moebius transport -----------------------------------------------


def moebius_coeffs(s_inf: Location, s0: Location, s1: Location | None):
    """(a, b, c, d) for the map sending s_inf to infinity, s0 to 0, and
    (when given) s1 to 1."""
    one = CycloNum.one()
    zero = CycloNum.zero()
    if s_inf.is_inf:
        if s1 is None:
            return one, -s0.value, zero, one  # translation
        return one, -s0.value, zero, s1.value - s0.value
    xs = s_inf.value
    if s0.is_inf:
        # pole at xs, zero at infinity
        k = (s1.value - xs) if s1 is not None else one
        return zero, k, one, -xs
    if s1 is None or s1.is_inf:
        return one, -s0.value, one, -xs
    k = (s1.value - xs) * (s1.value - s0.value).inv()
    return k, -k * s0.value, one, -xs


def moebius_apply_loc(loc: Location, a, b, c, d) -> Location:
    if loc.is_inf:
        if c.is_zero():
            return INF
        return Location.of(a * c.inv())
    den = c * loc.value + d
    if den.is_zero():
        return INF
    return Location.of((a * loc.value + b) * den.inv())


def _transport_polar(phi: PolarPart, src: Location, dst: Location, a, b, c, d) -> PolarPart:
    """Polar part in the local coordinate at the image point."""
    if phi.is_zero():
        return phi
    p = phi.ram
    q = phi.terms[0][0]
    big = p + q  # pullback_polar reads z' below z^(q+1), so w below z^(p+q)
    if src.is_inf:
        t = Lser({-p: CycloNum.one()}, big)
    else:
        t = Lser({0: src.value, p: CycloNum.one()}, big)
    num = t.scale(a) + Lser.const(b, big)
    den = t.scale(c) + Lser.const(d, big)
    if dst.is_inf:
        w = den * num.inverse()
    else:
        w = (num - den.scale(dst.value)) * den.inverse()
    if w.valuation() != p:
        raise InvariantViolation("Moebius image coordinate must vanish to order p")
    u0 = w.terms[p]
    rest = w.shift(-p).scale(cinv(u0)) - Lser.const(CycloNum.one(), big)
    zprime = (binomial_pow(rest, Fraction(1, p), q).scale(croot(u0, p))).shift(1)
    phi_ser = Lser({-j: coeff for j, coeff in phi.terms}, big)
    return PolarPart.make(p, pullback_polar(zprime, 1, phi_ser))


# -- step records ----------------------------------------------------


@dataclass(frozen=True)
class Moebius:
    kind: ClassVar[str] = "moebius"
    coeffs: tuple  # (a, b, c, d) of t -> (a t + b) / (c t + d)
    predicted_rank: int

    def apply(self, P: Problem) -> Problem:
        pts = []
        for loc, t in P.points:
            dst = moebius_apply_loc(loc, *self.coeffs)
            factors = [(_transport_polar(f.phi, loc, dst, *self.coeffs), f.reg) for f in t.factors]
            pts.append((dst, FormalType.make(factors)))
        return Problem.make(P.N, pts)

    def undo(self, P: Problem) -> Problem:
        a, b, c, d = self.coeffs
        return Moebius((d, -b, -c, a), self.predicted_rank).apply(P)


@dataclass(frozen=True)
class Twist:
    kind: ClassVar[str] = "twist"
    points: RankOneData
    predicted_rank: int

    def apply(self, P: Problem) -> Problem:
        return twist_global(P, self.points)

    def undo(self, P: Problem) -> Problem:
        return twist_global(P, self.points.inverse())


@dataclass(frozen=True)
class Mc:
    kind: ClassVar[str] = "mc"
    chi_exponent: Fraction
    predicted_rank: int

    def apply(self, P: Problem) -> Problem:
        return middle_convolution(P, self.chi_exponent)

    def undo(self, P: Problem) -> Problem:
        return middle_convolution(P, (-self.chi_exponent) % 1)


@dataclass(frozen=True)
class Fourier:
    kind: ClassVar[str] = "fourier"
    predicted_rank: int

    def apply(self, P: Problem) -> Problem:
        return fourier_global(P)

    def undo(self, P: Problem) -> Problem:
        return fourier_inverse(P)


StepRecord = Moebius | Twist | Mc | Fourier


@dataclass(frozen=True)
class Certificate:
    steps: tuple[StepRecord, ...]
    terminal: Problem
    origin: Problem  # starting problem; replay must land exactly here


# -- normalization ---------------------------------------------------


def _special_locations(P: Problem) -> list[Location]:
    return [loc for loc, t in P.points if any(f.phi.ram >= 2 for f in t.factors)]


def normalize_problem(P: Problem) -> tuple[Problem, list[StepRecord]]:
    """P with its special point, the one with a ramified factor, at
    infinity, and the Moebius move that took it there (none when it is
    there already or P has no special point)."""
    special = _special_locations(P)
    if len(special) >= 2:
        raise TwoSpecialPoints(f"ramified factors at {special[0]!r} and {special[1]!r}")
    if not special or special[0].is_inf:
        return P, []
    s_inf = special[0]
    # choose destinations for 0 and 1 among the other singular points,
    # preferring to keep 0 and 1 where they are
    rank_of = {Location.of(0): 0, Location.of(1): 1}
    others = [l for l in P.locations() if l != s_inf]
    ordered = sorted(others, key=lambda l: (rank_of.get(l, 2), l.sort_key()))
    # a single-point problem gets a plain shift of the special point
    s0 = ordered[0] if ordered else Location.of(0)
    s1 = ordered[1] if len(ordered) > 1 else None
    step = Moebius(moebius_coeffs(s_inf, s0, s1), P.rank())
    return step.apply(P), [step]


# -- reduction step --------------------------------------------------


def _exponents_at(t: FormalType) -> list[Fraction]:
    out = []
    for f in t.factors:
        for a, _ in f.reg.blocks:
            if a not in out:
                out.append(a)
    return sorted(out)


def _twist_psis(factors) -> list[PolarPart]:
    """Polar parts a rank-one twist may use to cancel a head: zero, then
    the negated unramified heads in canonical order."""
    heads = {unramified_head(f.phi) for f in factors} - {PolarPart.zero()}
    return [PolarPart.zero()] + [polar_neg(h) for h in sorted(heads, key=PolarPart.sort_key)]


def reduce_step(P: Problem):
    """One compound rank-decreasing move, or Stuck."""
    rig = rig_index(P)
    if rig != 2:
        raise RigidconnError(f"rig_index = {rig}")
    r = P.rank()
    if r < 2:
        raise InvariantViolation(f"reduction step at rank {r}")
    tinf = P.at(INF)
    ramified_at_inf = any(f.phi.ram >= 2 for f in tinf.factors)
    if ramified_at_inf:
        return _reduce_case_b(P, tinf, r)
    return _reduce_case_a(P, tinf, r)


def _apply_twist_then(P: Problem, twist: Twist, move: Mc | Fourier):
    if twist.points.is_trivial():
        return move.apply(P), [move]
    return move.apply(twist.apply(P)), [twist, move]


def _twist_reads(t: FormalType, psi: PolarPart) -> tuple[int, int, Counter]:
    """Irr, the Fourier term at infinity and the unshifted block
    exponents of the cancelled factors of t twisted by (psi, any shift).
    An unramified psi keeps each ramification p: on rank p*s the leading
    numerator j of phi + psi adds j*s to Irr, (j - p)*s above p."""
    irr = four = 0
    cancelled = Counter()
    for f in t.factors:
        j, s = polar_add(f.phi, psi).lead, f.reg.rank()
        irr += j * s
        four += max(j - f.phi.ram, 0) * s
        if j == 0:
            cancelled.update(a for a, _ in f.reg.blocks)
    return irr, four, cancelled


def _point_options(t: FormalType, r: int):
    """[(psi, alpha, rank term of t twisted by (psi, alpha)), ...] in
    canonical order: Irr once per psi, less the cancelled blocks whose
    exponent the shift alpha takes to 0."""
    alphas = sorted({(-a) % 1 for a in _exponents_at(t)})
    out = []
    for psi in _twist_psis(t.factors):
        irr, _, cancelled = _twist_reads(t, psi)
        out += [(psi, al, irr + r - cancelled[(-al) % 1]) for al in alphas]
    return out


def _finite_options(P: Problem, r: int):
    """Per finite point: (location, _point_options of its type)."""
    return [(loc, _point_options(t, r)) for loc, t in P.points if not loc.is_inf]


def _reduce_case_a(P: Problem, tinf: FormalType, r: int):
    # the MC rank is a sum of per-point terms, each read off the
    # untwisted type; MC needs a twist that leaves infinity regular, and
    # the twisted blocks at infinity with exponent g = a + b_inf cancel
    finite = _finite_options(P, r)
    inf_psis = [psi for psi in _twist_psis(tinf.factors) if _twist_reads(tinf, psi)[0] == 0]
    inf_blocks = Counter(a for f in tinf.factors for a, _ in f.reg.blocks)
    for combo in itertools.product(*[opts for _, opts in finite]):
        b_inf = (-sum((al for _, al, _ in combo), Fraction(0))) % 1
        finite_terms = sum(term for _, _, term in combo)
        for psi_inf in inf_psis:
            for g, n in sorted(((a + b_inf) % 1, n) for a, n in inf_blocks.items()):
                predicted = finite_terms - n
                if g != 0 and predicted < r:
                    twist_pts = [
                        (loc, psi, al) for (loc, _), (psi, al, _) in zip(finite, combo)
                    ] + [(INF, psi_inf, b_inf)]
                    return _apply_twist_then(P, Twist(RankOneData.make(twist_pts), r), Mc(g, predicted))
    return Stuck(r)


def _reduce_case_b(P: Problem, tinf: FormalType, r: int):
    # twist away the integral-exponent head of a ramified factor, then
    # Fourier; the twist changes only infinity's term of the rank, and
    # no exponent shift changes that term, so the twist has none
    finite_terms = sum(point_rank_term(t, r) for loc, t in P.points if not loc.is_inf)
    best = None
    for psi in _twist_psis(f for f in tinf.factors if f.phi.ram >= 2):
        predicted = finite_terms + _twist_reads(tinf, psi)[1]
        if predicted < r and (best is None or predicted < best[0]):
            best = (predicted, psi)
    if best is None:
        return Stuck(r)
    predicted, psi = best
    # fourier_global raises unless its output has the predicted rank
    return _apply_twist_then(P, Twist(RankOneData.make([(INF, psi, 0)]), r), Fourier(predicted))


# -- driver ----------------------------------------------------------


def run_adk(P: Problem):
    rig = rig_index(P)
    if rig != 2:
        return NotRigid(f"rig_index = {rig}")
    steps: list[StepRecord] = []
    cur = P
    r0 = P.rank()
    compound = 0
    while cur.rank() >= 2:
        try:
            cur, norm_steps = normalize_problem(cur)
        except TwoSpecialPoints as e:
            return NotRigid(f"two special points: {e}")
        steps.extend(norm_steps)
        res = reduce_step(cur)
        if isinstance(res, Stuck):
            return NotRigid(
                f"no rank-decreasing candidate at rank {res.rank}", stuck_at_rig2=True
            )
        cur, red_steps = res
        steps.extend(red_steps)
        compound += 1
        if rig_index(cur) != 2:
            raise InvariantViolation("rigidity index must stay 2 along a successful run")
        if compound > r0 - 1:
            raise InvariantViolation("too many compound steps for the starting rank")
    return Certificate(tuple(steps), cur, P)


# -- replay ----------------------------------------------------------


def replay_certificate(C: Certificate) -> Problem:
    """Walk the certificate backwards with inverse steps; returns the
    reconstructed original problem.  Fails only with ReplayMismatch: a
    step whose inverse raises a RigidconnError is reported as one."""
    cur = C.terminal
    for i, step in reversed(list(enumerate(C.steps))):
        if step.predicted_rank != cur.rank():
            raise ReplayMismatch(
                f"step {i} ({step.kind}): rank {cur.rank()} != recorded {step.predicted_rank}"
            )
        try:
            cur = step.undo(cur)
        except RigidconnError as e:
            raise ReplayMismatch(f"step {i} ({step.kind}) failed to invert: {e}") from e
    diff = _problem_diff(cur, C.origin)
    if diff is not None:
        raise ReplayMismatch("replayed problem differs from recorded origin: " + diff)
    return cur


def _problem_diff(got: Problem, want: Problem) -> str | None:
    """First discrepancy between the singular data of two problems, or
    None; N is ignored (it may grow along a legitimate round trip)."""
    if got.points == want.points:
        return None
    # both sides are canonical, so they differ at a point one of them lists
    locs = sorted({*got.locations(), *want.locations()}, key=Location.sort_key)
    loc = next(l for l in locs if got.at(l) != want.at(l))
    return f"at {loc!r}: {got.at(loc)!r} != {want.at(loc)!r}"
