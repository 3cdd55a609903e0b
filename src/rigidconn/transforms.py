"""Global transforms on formal data: rank-one twist, Fourier transform
via local stationary phase, middle convolution, and the tame matrix
oracle.

Kernel convention: e^{-t tau} throughout; the inverse transform is the
same engine composed with the coordinate sign flip t -> -t.

Each stationary-phase leg writes s = d(phi)/dt on the cover t = z^e,
and the critical value phi - t*s as one Laurent polynomial: a*z^(-j)
in phi becomes (1 + j/e)*a*z^(-j).  One pullback_polar call reads the
polar part of the critical value at u solving s(u) = w^m, in closed
form; the output ramification is |m|.  The regular part R goes with it
as R tensor L_{(-1)^q}, q the leading numerator of phi, read on the
output cover (Sabbah 2008): a block (a, k) becomes ((|e|*a + q/2)/|m|,
k).  A slope-zero factor at a finite point passes R through unchanged.
fourier_global rejects data whose exponent sum is not an integer (no
connection has them) and checks that its output keeps the sum integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .cyclo import CycloNum
from .errors import RigidconnError
from .formal import (
    INF,
    ExpFactor,
    FormalType,
    Location,
    Problem,
    RegularPart,
    irregularity,
    quasi_order,
    twist_local,
)
from .linalg import (
    LinAlgError,
    Matrix,
    identity,
    jordan_blocks,
    kernel_basis,
    mat_inv,
    mat_mul,
    mat_sub,
    quotient_action,
)
from .puiseux import Lser, PolarPart, cmul, polar_add, polar_neg, pullback_polar, slope
from .rigidity import rig_index


class TransformsError(RigidconnError):
    pass


class TrivialChi(TransformsError):
    pass


class InvariantViolation(TransformsError):
    """A transform's output breaks an invariant it must preserve."""


class DegenerateQuotient(TransformsError):
    pass


# -- rank-one twist data ---------------------------------------------


@dataclass(frozen=True)
class RankOneData:
    """Rank-one twist: per location an unramified polar part psi and an
    exponent shift b (mod 1)."""

    points: tuple  # ((Location, PolarPart, Fraction), ...)

    @staticmethod
    def make(points) -> "RankOneData":
        out = []
        for loc, psi, b in points:
            loc = Location.of(loc)
            if psi.ram != 1:
                raise TransformsError("rank-one twist data must be unramified")
            out.append((loc, psi, Fraction(b) % 1))
        return RankOneData(tuple(out))

    def is_trivial(self) -> bool:
        return all(psi.is_zero() and b == 0 for _, psi, b in self.points)

    def inverse(self) -> "RankOneData":
        return RankOneData(tuple((loc, polar_neg(psi), (-b) % 1) for loc, psi, b in self.points))


def twist_global(P: Problem, L: RankOneData) -> Problem:
    """Tensor by L; at a location P does not list, L acts on the trivial
    type there."""
    pts = dict(P.points)
    for loc, psi, b in L.points:
        pts[loc] = twist_local(P.at(loc), psi, b)
    return Problem.make(P.N, pts.items())


# -- stationary-phase legs -------------------------------------------

_BIG = 10**6  # truncation marker for exact Laurent polynomials


def _critical_value_polar(phi_terms, reg: RegularPart, e: int, m: int) -> ExpFactor:
    """The factor (in w, ramification |m|) of the critical value phi - t*s at
    u solving s(u) = w^m, s = d(phi)/dt on the cover t = z^e (e = p at a
    finite point, -p at infinity): a*z^(-j) in phi gives s the term
    -(j/e)*a*z^(-j-e), phi - t*s (1 + j/e)*a*z^(-j).  A block (a, k) of reg
    becomes ((|e|*a + q/2)/|m|, k), q the leading numerator of phi."""
    s = Lser({-j - e: cmul(a, Fraction(-j, e)) for j, a in phi_terms}, _BIG)
    value = Lser({-j: cmul(a, 1 + Fraction(j, e)) for j, a in phi_terms}, _BIG)
    half_q = Fraction(phi_terms[0][0], 2)
    blocks = [((abs(e) * a + half_q) / abs(m), k) for a, k in reg.blocks]
    return ExpFactor(PolarPart.make(abs(m), pullback_polar(s, m, value)), RegularPart.make(blocks))


def finite_to_inf(x: CycloNum, f: ExpFactor) -> ExpFactor:
    """Leg at a finite point x: contributes at tau = infinity."""
    phi = f.phi
    linear = PolarPart.make(1, [(1, -x)])  # the -x*t part of the exponent: -x*tau
    if phi.is_zero():
        return ExpFactor(linear, f.reg)
    g = _critical_value_polar(list(phi.terms), f.reg, phi.ram, -(phi.ram + phi.terms[0][0]))
    return ExpFactor(polar_add(g.phi, linear), g.reg)


def inf_to_inf(f: ExpFactor) -> ExpFactor:
    """Leg at infinity with slope > 1: contributes at tau = infinity."""
    phi = f.phi
    if slope(phi) <= 1:
        raise TransformsError(f"inf_to_inf needs slope > 1, got {slope(phi)}")
    p = phi.ram
    return _critical_value_polar(list(phi.terms), f.reg, -p, p - phi.terms[0][0])


def inf_to_finite(f: ExpFactor) -> tuple[CycloNum, ExpFactor]:
    """Leg at infinity with slope <= 1: contributes vanishing data at
    the finite point tau = c, c the coefficient of the linear head c*t."""
    phi = f.phi
    if slope(phi) > 1:
        raise TransformsError(f"inf_to_finite needs slope <= 1, got {slope(phi)}")
    p = phi.ram
    c = phi.coeff(p)
    if not isinstance(c, CycloNum):
        raise TransformsError("linear head is not cyclotomic; cannot name the target point")
    tail = [(j, a) for j, a in phi.terms if j != p]
    if not tail:
        return c, ExpFactor(PolarPart.zero(), f.reg)
    return c, _critical_value_polar(tail, f.reg, -p, p - tail[0][0])


# -- vanishing cycles and reconstruction -----------------------------


def vc_factors(t: FormalType) -> list[ExpFactor]:
    """Middle-extension correction at a finite point: shrink every
    exponent-0 block of the slope-0 factor by one."""
    out = []
    for f in t.factors:
        if f.phi.is_zero():
            blocks = [(a, k - 1 if a == 0 else k) for a, k in f.reg.blocks]
            blocks = [(a, k) for a, k in blocks if k > 0]
            if blocks:
                out.append(ExpFactor(f.phi, RegularPart.make(blocks)))
        else:
            out.append(f)
    return out


def reconstruct_type(vanishing: list[ExpFactor], r: int) -> FormalType:
    """Inverse of vc at a finite output point: grow exponent-0 blocks of
    the slope-0 part by one and pad with unit blocks up to full rank."""
    v = sum(f.rank() for f in vanishing)
    grown = []
    z = 0
    has_zero_phi = False
    for f in vanishing:
        if f.phi.is_zero():
            has_zero_phi = True
            blocks = []
            for a, k in f.reg.blocks:
                if a == 0:
                    z += 1
                    blocks.append((a, k + 1))
                else:
                    blocks.append((a, k))
            grown.append((f.phi, blocks))
        else:
            grown.append((f.phi, list(f.reg.blocks)))
    m = r - v - z
    if m < 0:
        raise TransformsError("vanishing data exceed the ambient rank")
    if m > 0:
        if has_zero_phi:
            for i, (phi, blocks) in enumerate(grown):
                if phi.is_zero():
                    grown[i] = (phi, blocks + [(Fraction(0), 1)] * m)
                    break
        else:
            grown.append((PolarPart.zero(), [(Fraction(0), 1)] * m))
    return FormalType.make([(phi, RegularPart.make(b)) for phi, b in grown])


# -- global Fourier transform ----------------------------------------


def _exponent_sum(P: Problem) -> Fraction:
    return sum((t.exponent_sum for _, t in P.points), Fraction(0))


def fourier_global(P: Problem) -> Problem:
    """Fourier transform of the formal data of an irreducible middle
    extension, localized at infinity."""
    total = _exponent_sum(P)
    if total.denominator != 1:
        raise TransformsError(f"exponent sum {total} is not an integer: no connection has these data")
    inf_factors: list[ExpFactor] = []
    vanishing: list[tuple[Location, ExpFactor]] = []
    for loc, t in P.points:
        if loc.is_inf:
            continue
        for f in vc_factors(t):
            inf_factors.append(finite_to_inf(loc.value, f))
    for f in P.at(INF).factors:
        if slope(f.phi) > 1:
            inf_factors.append(inf_to_inf(f))
        else:
            c, g = inf_to_finite(f)
            vanishing.append((Location.of(c), g))
    rp = sum(f.rank() for f in inf_factors)
    if rp == 0:
        raise TransformsError("transform of a successive extension of exponentials")
    if rp != fourier_rank_prediction(P):
        raise InvariantViolation("leg ranks disagree with the rank formula")

    groups: dict[Location, list[ExpFactor]] = {}
    for loc, g in vanishing:
        groups.setdefault(loc, []).append(g)
    new_points = [(INF, FormalType.make(inf_factors))]
    new_points += [(loc, reconstruct_type(gs, rp)) for loc, gs in groups.items()]
    n2 = math.lcm(P.N, *(quasi_order(t) for _, t in new_points))
    out = Problem.make(n2, new_points)
    if _exponent_sum(out).denominator != 1:
        raise InvariantViolation(f"Fourier transform breaks the Fuchs relation: exponent sum {_exponent_sum(out)}")
    return out


def negate_polar(phi: PolarPart) -> PolarPart:
    """Pullback under t -> -t (one branch on the cover; canonical form
    downstream removes the branch choice)."""
    p = phi.ram
    terms = [(j, cmul(c, CycloNum.zeta(2 * p, j % (2 * p)))) for j, c in phi.terms]
    return PolarPart.make(p, terms)


def negate_problem(P: Problem) -> Problem:
    pts = []
    for loc, t in P.points:
        new_loc = INF if loc.is_inf else Location.of(-loc.value)
        pts.append((new_loc, FormalType.make([(negate_polar(f.phi), f.reg) for f in t.factors])))
    return Problem.make(P.N, pts)


def fourier_inverse(P: Problem) -> Problem:
    """Kernel e^{+t tau}: the inverse of fourier_global."""
    return negate_problem(fourier_global(P))


# -- middle convolution ----------------------------------------------


def _scalar_exponent_at_inf(t: FormalType) -> Fraction | None:
    """The exponent when t is regular scalar (all blocks size 1, one
    exponent); None otherwise."""
    if len(t.factors) != 1 or not t.factors[0].phi.is_zero():
        return None
    exps = {a for a, _ in t.factors[0].reg.blocks}
    sizes = {k for _, k in t.factors[0].reg.blocks}
    if len(exps) == 1 and sizes == {1}:
        return next(iter(exps))
    return None


def point_rank_term(t: FormalType, r: int, e=0) -> int:
    """One point's term of the MC and Fourier rank formulas (Katz 1996):
    Irr + r - (blocks of the slope-zero factor with exponent e)."""
    z = sum(1 for f in t.factors if f.phi.is_zero() for a, _ in f.reg.blocks if a == e)
    return irregularity(t) + r - z


def fourier_inf_term(t: FormalType) -> int:
    """Infinity's term of the Fourier rank formula: the sum over slopes
    j/p > 1 of (j/p - 1) * rank, that is (j - p) * s on rank p*s."""
    return sum((f.phi.lead - f.phi.ram) * f.reg.rank() for f in t.factors if f.phi.lead > f.phi.ram)


def mc_rank_prediction(P: Problem, chi_exponent) -> int:
    """r' = sum over finite x of point_rank_term(t_x, r)
          + point_rank_term(t_inf, r, chi) - r."""
    r = P.rank()
    finite = sum(point_rank_term(t, r) for loc, t in P.points if not loc.is_inf)
    return finite + point_rank_term(P.at(INF), r, Fraction(chi_exponent) % 1) - r


def fourier_rank_prediction(P: Problem) -> int:
    """r' = sum over finite x of point_rank_term(t_x, r) + fourier_inf_term(t_inf)."""
    r = P.rank()
    finite = sum(point_rank_term(t, r) for loc, t in P.points if not loc.is_inf)
    return finite + fourier_inf_term(P.at(INF))


def _finite_irregular_values(P: Problem):
    out = []
    for loc, t in P.points:
        if loc.is_inf:
            continue
        for f in t.factors:
            if not f.phi.is_zero():
                out.append((loc.sort_key(), f.phi.sort_key()))
    out.sort()
    return out


def middle_convolution(P: Problem, chi_exponent) -> Problem:
    """MC_chi via Fourier, Kummer twist at {0, inf} of the dual line,
    inverse Fourier.  The outcome, a problem or a typed raise, is
    memoized per (P, chi mod 1); a memoized raise is raised again as a
    fresh instance of its type."""
    out = _mc_outcome(P, Fraction(chi_exponent) % 1)
    if isinstance(out, Problem):
        return out
    kind, args = out
    raise kind(*args)


@lru_cache(maxsize=1024)
def _mc_outcome(P: Problem, g: Fraction):
    """middle_convolution(P, g), or the (type, args) of the typed error
    it raises.  Problems compare and hash by structure, so the key is
    exact; twist orbits of the ADK search keep landing on the same few
    (P, g)."""
    try:
        if g == 0:
            raise TrivialChi("middle convolution with the trivial character")
        tinf = P.at(INF)
        if any(not f.phi.is_zero() for f in tinf.factors):
            raise TransformsError("infinity must be regular; twist the polar part away first")
        # scalar monodromy at infinity is the textbook situation; the engine
        # is exact for any regular infinity, and the chi^{-1} bullet below is
        # checked whenever the scalar hypothesis actually holds
        scalar_inf = _scalar_exponent_at_inf(tinf)
        predicted = mc_rank_prediction(P, g)

        kummer = RankOneData.make([(0, PolarPart.zero(), -g), (INF, PolarPart.zero(), g)])
        out = fourier_inverse(twist_global(fourier_global(P), kummer))
        n2 = math.lcm(P.N, g.denominator)
        out = Problem.make(math.lcm(n2, *(quasi_order(t) for _, t in out.points)), out.points)

        if out.rank() != predicted:
            raise InvariantViolation("middle convolution rank formula violated")
        if rig_index(out) != rig_index(P):
            raise InvariantViolation("middle convolution must preserve rigidity index")
        if _finite_irregular_values(out) != _finite_irregular_values(P):
            raise InvariantViolation("middle convolution must preserve finite irregular values")
        tinf_out = out.at(INF)
        if any(not f.phi.is_zero() for f in tinf_out.factors):
            raise InvariantViolation("middle convolution output must be regular at infinity")
        if scalar_inf == g and _scalar_exponent_at_inf(tinf_out) != (-g) % 1:
            raise InvariantViolation("output at infinity must be scalar chi^{-1}")
    except RigidconnError as e:
        return type(e), e.args
    return out


# -- matrix-level oracle (tame case) ---------------------------------


@dataclass(frozen=True)
class MatrixTuple:
    """Monodromy tuple (A_1..A_n) at chosen finite points; the infinity
    monodromy is (A_n ... A_1)^{-1}."""

    r: int
    matrices: tuple

    @staticmethod
    def make(matrices) -> "MatrixTuple":
        ms = tuple(tuple(tuple(row) for row in m) for m in matrices)
        if not ms:
            raise TransformsError("empty tuple")
        r = len(ms[0])
        if any(len(m) != r or any(len(row) != r for row in m) for m in ms):
            raise TransformsError(f"matrices must all be square of size {r}")
        return MatrixTuple(r, ms)

    def mats(self) -> list[Matrix]:
        return [[list(row) for row in m] for m in self.matrices]

    def inf_monodromy(self) -> Matrix:
        prod = identity(self.r)
        for m in self.mats():
            prod = mat_mul(m, prod)
        return mat_inv(prod)


def dr_mc_oracle(T: MatrixTuple, lam: CycloNum) -> MatrixTuple:
    """Middle convolution on monodromy tuples (the Dettweiler-Reiter
    construction): B_k = I + E_k on W = V^n, then quotient by K + L."""
    if lam.is_zero():
        raise TransformsError("lambda must be nonzero")
    mats = T.mats()
    n, r = len(mats), T.r
    big = n * r
    eye = identity(r)
    bs: list[Matrix] = []
    for k in range(n):
        b = identity(big)
        for j in range(n):
            blk = mat_sub(mats[j], eye)
            if j == k:
                blk = mat_sub([[lam * x for x in row] for row in mats[k]], eye)
            elif j > k:
                blk = [[lam * x for x in row] for row in blk]
            for i in range(r):
                for i2 in range(r):
                    b[k * r + i][j * r + i2] = b[k * r + i][j * r + i2] + blk[i][i2]
        bs.append(b)
    sub: list[list[CycloNum]] = []
    for j in range(n):
        for v in kernel_basis(mat_sub(mats[j], eye)):
            w = [CycloNum.zero()] * big
            w[j * r:(j + 1) * r] = v
            sub.append(w)
    stacked = []
    for b in bs:
        stacked.extend(mat_sub(b, identity(big)))
    sub.extend(kernel_basis(stacked))
    dim, induced = quotient_action(bs, sub)
    if dim == 0:
        raise DegenerateQuotient("middle convolution quotient is zero")
    return MatrixTuple.make(induced)


def tuple_formal_data(T: MatrixTuple, locations, N: int) -> Problem:
    """Formal (tame) data of a monodromy tuple: Jordan structure at each
    finite location and at infinity, eigenvalues in mu_N."""
    exponent = {CycloNum.zeta(N, k): k for k in range(N)}
    candidates = list(exponent)
    pts = []
    ms = T.mats() + [T.inf_monodromy()]
    locs = [Location.of(l) for l in locations] + [INF]
    if len(locs) != len(ms):
        raise TransformsError("location count mismatch")
    for loc, m in zip(locs, ms):
        try:
            jordan = jordan_blocks(m, candidates)
        except LinAlgError:
            raise TransformsError(f"monodromy at {loc!r} has an eigenvalue outside mu_{N}") from None
        blocks = []
        for lam, sizes in jordan:
            blocks.extend([(Fraction(exponent[lam], N), s) for s in sizes])
        pts.append((loc, FormalType.regular(RegularPart.make(blocks))))
    return Problem.make(N, pts)
