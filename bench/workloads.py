"""The benchmark workloads: seeded inputs, one operation each, and a
reference check for every output that does not come from the measured
code path.

A workload's shapes (rank, ramification, slope, cyclotomic level, slice
bounds) are fixed lists; the seed draws values only (locations,
eigenvalue exponents, coefficients, chi), so every seed costs about the
same.  Operations reach library functions through their module
attributes (``transforms.fourier_global``, not a name imported here), so
the trace wrappers see every call an operation makes.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from rigidconn import adk, cli, rigidity, stokes, transforms
from rigidconn import enumerate as enum
from rigidconn.cyclo import CycloNum
from rigidconn.formal import INF, FormalType, Location, Problem, RegularPart
from rigidconn.puiseux import PolarPart
from rigidconn.radicals import ceq

F = Fraction


def _no_close(verdict: bool) -> list:
    return []


def _result_kind(out) -> str:
    return "result"


class Op:
    """One operation: ``run()`` is timed; ``check(result)`` is not, and
    returns the names of the reference checks that failed; ``kind(result)``
    names the verdict for the report.  ``close(verdict)`` runs after
    them, also when ``run()`` raised, and returns the failed checks of a
    group of operations that this one completes."""

    __slots__ = ("shape", "run", "check", "kind", "close")

    def __init__(self, shape, run, check, kind=_result_kind, close=_no_close):
        self.shape = shape
        self.run = run
        self.check = check
        self.kind = kind
        self.close = close


# -- benchmark-local references ---------------------------------------


def _type_key(t: FormalType):
    return [(f.phi, f.reg.blocks) for f in t.factors]


def same_data(P: Problem, Q: Problem, drop_trivial: bool = False) -> bool:
    """Same formal type at the same locations; N is ignored.  With
    drop_trivial, points of trivial type are left out on both sides."""
    def pts(R):
        return [(l, t) for l, t in R.points if not (drop_trivial and t.is_trivial())]

    a, b = pts(P), pts(Q)
    if len(a) != len(b):
        return False
    for (l1, t1), (l2, t2) in zip(a, b):
        if not l1 == l2 or len(t1.factors) != len(t2.factors):
            return False
        for (p1, b1), (p2, b2) in zip(_type_key(t1), _type_key(t2)):
            if not (p1 == p2 and b1 == b2):
                return False
    return True


def exponent_sum(P: Problem) -> Fraction:
    """Sum of all formal-monodromy exponents: a factor of ramification p
    with block (a, k) contributes k * (p*a + (p-1)/2)."""
    total = F(0)
    for _, t in P.points:
        for f in t.factors:
            p = f.phi.ram
            for a, k in f.reg.blocks:
                total += k * (p * a + F(p - 1, 2))
    return total


def _conj_square_sum(sizes) -> int:
    """sum_i (lambda'_i)^2 for the partition with the given parts."""
    return sum(sum(1 for s in sizes if s > i) ** 2 for i in range(max(sizes, default=0)))


def tame_rig(P: Problem) -> int:
    """rig = (2 - n) r^2 + sum_x sum_lambda sum_i (lambda'_i)^2 for
    regular data, lambda the Jordan partition of each eigenvalue."""
    r = P.rank()
    total = (2 - len(P.points)) * r * r
    for _, t in P.points:
        by_exp: dict = {}
        for f in t.factors:
            if not f.phi.is_zero():
                raise ValueError("the tame formula needs regular data")
            for a, k in f.reg.blocks:
                by_exp.setdefault(a, []).append(k)
        total += sum(_conj_square_sum(s) for s in by_exp.values())
    return total


def _partitions(s: int, mx: int | None = None):
    mx = s if mx is None else mx
    if s == 0:
        yield ()
        return
    for first in range(min(s, mx), 0, -1):
        for rest in _partitions(s - first, first):
            yield (first,) + rest


def tame_slice_counts(n: int, N: int, r: int) -> tuple[int, int]:
    """(candidates, rig = 2 candidates) of the tame slice with n points,
    exponents in (1/N)Z and rank r, by a dynamic programme over points
    on (exponent sum mod 1, sum of centralizer dimensions)."""
    local: dict = {}
    for sizes in itertools.product(range(r + 1), repeat=N):
        if sum(sizes) != r:
            continue
        for parts in itertools.product(*(list(_partitions(s)) for s in sizes)):
            c = sum(_conj_square_sum(p) for p in parts)
            e = sum(k * s for k, s in enumerate(sizes)) % N
            local[(e, c)] = local.get((e, c), 0) + 1
    states = {(0, 0): 1}
    for _ in range(n):
        nxt: dict = {}
        for (e1, c1), m1 in states.items():
            for (e2, c2), m2 in local.items():
                key = ((e1 + e2) % N, c1 + c2)
                nxt[key] = nxt.get(key, 0) + m1 * m2
        states = nxt
    total = sum(m for (e, _), m in states.items() if e == 0)
    rig2 = sum(m for (e, c), m in states.items() if e == 0 and (2 - n) * r * r + c == 2)
    return total, rig2


def _q_leading(psi: PolarPart, phi: PolarPart, p: int) -> int:
    """Pole order of psi - phi on the p-fold cover; 0 when equal."""
    def cover(x):
        return {j * (p // x.ram): c for j, c in x.terms}

    a, b = cover(psi), cover(phi)
    zero = CycloNum.zero()
    diff = [e for e in set(a) | set(b) if not ceq(a.get(e, zero), b.get(e, zero))]
    return max(diff, default=0)


# -- mc_oracle ----------------------------------------------------------

# A shape fixes the rank of the input tuple, the level N and the rank of
# the convolution ("out"), which the values decide through congruences on
# the exponents: for a pair (zeta^k1, zeta^k2) and chi = k/N the output has
# rank 1 exactly when k1 + k2 + k = 0 mod N; for the rank-2 tuple built
# from a pair at lam = zeta^l, when l + k or l + k + k1 + k2 is 0 mod N.
# At N = 12 ("primitive") every exponent is a unit mod 12, so each entry is
# a primitive 12th root of unity; other exponents give sparser level-12
# numbers that cost up to half as much.  Rank-1 pairs at N = 6 are half the
# operations so that the median lands inside their cluster of costs; the
# N = 12 rank-2 tuples hold the tail.
MC_SHAPES = (
    [{"rank": 1, "N": 6, "out": 2}] * 5
    + [{"rank": 1, "N": 6, "out": 1}]
    + [{"rank": 2, "N": 6, "out": 2}, {"rank": 2, "N": 6, "out": 1}]
    + [{"rank": 1, "N": 12, "out": 2, "primitive": True}]
    + [{"rank": 2, "N": 12, "out": 2, "primitive": True}]
)
MC_ROUNDS = 128


def _mc_out_rank(N: int, k1: int, k2: int, k: int, lam: int | None) -> int:
    if lam is None:
        return 1 if (k1 + k2 + k) % N == 0 else 2
    return 1 if (lam + k) % N == 0 or (lam + k + k1 + k2) % N == 0 else 2


def _mc_input(rng: random.Random, shape: dict, stratum):
    N = shape["N"]
    exps = [e for e in range(1, N) if math.gcd(e, N) == 1 or not shape.get("primitive")]
    while True:
        k1, k2, k = rng.choice(exps), rng.choice(exps), rng.choice(exps)
        # the Dettweiler-Reiter tuple of (a, b) at lam is irreducible of
        # rank 2 when lam * a * b != 1
        lam = rng.choice(exps) if shape["rank"] == 2 else None
        if lam is not None and (k1 + k2 + lam) % N == 0:
            continue
        if _mc_out_rank(N, k1, k2, k, lam) == shape["out"]:
            break
    z = lambda e: CycloNum.zeta(N, e)  # noqa: E731
    if lam is None:
        mats = [[[z(k1)]], [[z(k2)]]]
    else:
        a, b, l = z(k1), z(k2), z(lam)
        one, zero = CycloNum.one(), CycloNum.zero()
        mats = [[[l * a, l * (b - one)], [zero, one]], [[one, zero], [a - one, l * b]]]
    return {"T": transforms.MatrixTuple.make(mats), "N": N, "k": k}


def _mc_op(shape, inp):
    locs = [Location.of(0), Location.of(1)]
    T, N, k = inp["T"], inp["N"], inp["k"]

    def run():
        try:
            mc = transforms.middle_convolution(transforms.tuple_formal_data(T, locs, N), F(k, N))
        except transforms.TransformsError:
            mc = None
        try:
            lam = CycloNum.zeta(N, k)
            ref = transforms.tuple_formal_data(transforms.dr_mc_oracle(T, lam), locs, N)
        except transforms.TransformsError:
            ref = None
        return mc, ref

    def check(out):
        mc, ref = out
        if mc is None or ref is None:
            return [] if mc is None and ref is None else ["mc_vs_oracle"]
        return [] if same_data(mc, ref, drop_trivial=True) else ["mc_vs_oracle"]

    def kind(out):
        return "rejected" if out[0] is None else "convolved"

    return Op(shape, run, check, kind)


# -- certify --------------------------------------------------------------

# Location patterns: "01" is {0, 1, inf}, which normalization keeps in
# place; "xy" is two finite points off {0, 1} or straddling it, which
# needs an apparent point.  Every "xy" pair gives the same verdict counts
# and cost, so the seed moves values, not outcomes.  The pool coefficient
# c of c/t is part of the shape: it changes the cost of a slice by up to
# a third (c = -1 is the cheapest, c = 3 the dearest of {±1, ±2, 3, 1/2}).
CERTIFY_SHAPES = [
    {"points": "01", "N": 2, "r": 2, "pool": [1]},
    {"points": "01", "N": 3, "r": 2, "pool": []},
    {"points": "xy", "N": 2, "r": 2, "pool": [1]},
    {"points": "01", "N": 2, "r": 3, "pool": []},
    {"points": "012", "N": 2, "r": 2, "pool": []},
]
# The baseline inventory of each slice, the same for every seed:
# candidates and rig = 2 candidates enumerated, operations that ended in
# a verdict, and certificates that replayed exactly.  A finished slice
# must enumerate the same counts and may not fall below the verdicts or
# the replayed certificates: a lost verdict or certificate fails a check,
# a fix that turns an error into a certificate does not.
CERTIFY_INVENTORY = [
    {"candidates": 1480, "rig2": 400, "verdicts": 288, "replayed": 64},
    {"candidates": 243, "rig2": 72, "verdicts": 36, "replayed": 27},
    {"candidates": 1480, "rig2": 400, "verdicts": 288, "replayed": 3},
    {"candidates": 500, "rig2": 96, "verdicts": 24, "replayed": 12},
    {"candidates": 353, "rig2": 112, "verdicts": 64, "replayed": 8},
]
CERTIFY_ROUNDS = 8
_CERTIFY_LOCS = {
    "01": [(0, 1)],
    "xy": [(0, 2), (0, 3), (-1, 1), (2, 3), (0, -1), (1, 2), (-1, 2)],
    "012": [(0, 1, 2)],
}


def _certify_input(rng: random.Random, shape: dict, stratum):
    locs = list(rng.choice(_CERTIFY_LOCS[shape["points"]])) + [INF]
    pool = [PolarPart.unramified({1: c}) for c in shape["pool"]]
    return {"locs": locs, "pool": pool, "N": shape["N"], "r": shape["r"]}


class _Slice:
    """Counts of one slice, checked once its last operation is done."""

    def __init__(self, shape: dict, inp: dict):
        self.shape, self.inp = shape, inp
        self.expect = CERTIFY_INVENTORY[CERTIFY_SHAPES.index(shape)]
        self.candidates = self.rig2 = self.verdicts = self.replayed = 0
        self.enumerated = False

    def check(self) -> list[str]:
        e = self.expect
        failed = []
        if (self.candidates, self.rig2) != (e["candidates"], e["rig2"]):
            failed.append("slice_counts")
        if not self.inp["pool"]:
            # tame slice: the benchmark-local formula counts it too
            n = len(self.inp["locs"])
            if tame_slice_counts(n, self.inp["N"], self.inp["r"]) != (self.candidates, self.rig2):
                failed.append("tame_rig")
        if self.verdicts < e["verdicts"] or self.replayed < e["replayed"]:
            failed.append("lost_verdict")
        return failed


def _certify_op(sl: _Slice, P: Problem):
    def run():
        res = adk.run_adk(P)
        if not isinstance(res, adk.Certificate):
            return res, None, None
        cert = cli.parse_certificate(cli.print_certificate(res))
        try:
            back = adk.replay_certificate(cert)
        except adk.ReplayMismatch:
            back = None
        return res, cert, back

    def check(out):
        res, cert, back = out
        failed = []
        if not sl.inp["pool"] and tame_rig(P) != 2:
            failed.append("tame_rig")
        if cert is not None:
            if back is not None and same_data(back, P) and same_data(cert.origin, P):
                sl.replayed += 1
            else:
                failed.append("replay")
        return failed

    def close(verdict: bool):
        sl.verdicts += verdict
        return sl.check() if sl.enumerated else []

    def kind(out):
        return type(out[0]).__name__

    return Op(sl.shape, run, check, kind, close)


def _certify_feed(inputs):
    """Rig = 2 candidates of each slice, streamed: the enumeration and
    the rig filter run between operations, inside the timed run.  Each
    candidate is held back until the next one is found, so the last
    operation of a slice is known and closes it with the slice check."""
    for shape, inp in inputs:
        sl = _Slice(shape, inp)
        held = None
        for P in enum.enumerate_candidates(inp["locs"], inp["pool"], inp["N"], inp["r"]):
            sl.candidates += 1
            if rigidity.rig_index(P) == 2:
                sl.rig2 += 1
                if held is not None:
                    yield held
                held = _certify_op(sl, P)
        sl.enumerated = True
        if held is not None:
            yield held


# -- fourier_stokes -------------------------------------------------------

# A point is (location, factors); a factor is (ramification, polar terms
# [(numerator, coefficient level)], regular blocks).  Slope of a term is
# numerator / ramification.
FOURIER_SHAPES = [
    {"name": "r1_fin_s1", "points": [["0", [[1, [[1, 1]], 1]]], ["inf", [[1, [], 1]]]]},
    {"name": "r1_inf_s2", "points": [["0", [[1, [], 1]]], ["inf", [[1, [[2, 3]], 1]]]]},
    {"name": "r1_two_fin_s1", "points": [["0", [[1, [[1, 4]], 1]]], ["x", [[1, [[1, 4]], 1]]], ["inf", [[1, [], 1]]]]},
    {"name": "r2_fin_s1/2", "points": [["0", [[2, [[1, 6]], 1]]], ["x", [[1, [], 2]]], ["inf", [[1, [], 2]]]]},
    {"name": "r2_inf_s3/2", "points": [["0", [[1, [], 2]]], ["inf", [[2, [[3, 1]], 1]]]]},
    {"name": "r2_inf_s5/2", "points": [["0", [[1, [], 2]]], ["inf", [[2, [[5, 3]], 1]]]]},
    {"name": "r2_fin_s3/2", "points": [["0", [[2, [[3, 4]], 1]]], ["inf", [[1, [], 2]]]]},
    {"name": "r2_fin_s5/2", "points": [["0", [[2, [[5, 6]], 1]]], ["inf", [[1, [], 2]]]]},
    {"name": "r2_fin_s1_mixed", "points": [["0", [[1, [[1, 4]], 1], [1, [], 1]]], ["inf", [[1, [], 2]]]]},
    {"name": "r2_inf_s2_s2", "points": [["0", [[1, [], 2]]], ["inf", [[1, [[2, 6]], 1], [1, [[2, 6]], 1]]]]},
    {"name": "r2_inf_s1_s2", "points": [["0", [[1, [], 2]]], ["inf", [[1, [[1, 1]], 1], [1, [[2, 3]], 1]]]]},
    {"name": "r3_fin_s2/3", "points": [["0", [[3, [[2, 3]], 1]]], ["inf", [[1, [], 3]]]]},
    {"name": "r3_fin_s1_mixed", "points": [["0", [[1, [[1, 1]], 1], [1, [], 2]]], ["x", [[1, [], 3]]], ["inf", [[1, [], 3]]]]},
    {"name": "r3_inf_s4/3", "points": [["0", [[1, [], 3]]], ["inf", [[3, [[4, 4]], 1]]]]},
    {"name": "r3_inf_s4/3_z7", "points": [["0", [[1, [], 3]]], ["inf", [[3, [[4, 7]], 1]]]]},
]
FOURIER_ROUNDS = 55
_FOURIER_SCALE = [F(1), F(2), F(-1), F(1, 2), F(3), F(-2)]
_FOURIER_X = [1, 2, -1, 3, F(1, 2)]
_EXP_DEN = 12
# rounds in which each stratified value is drawn once: the Fuchs exponent
# takes the 11 nonzero values of (1/12)Z/Z, the apparent point one round
_STRATA = _EXP_DEN - 1


def _coefficient(rng: random.Random, level: int) -> CycloNum:
    """A rational times a primitive root of unity of exactly this level."""
    s = CycloNum.from_rational(rng.choice(_FOURIER_SCALE))
    if level == 1:
        return s
    k = rng.choice([k for k in range(1, level) if math.gcd(k, level) == 1])
    return s * CycloNum.zeta(level, k)


def _fourier_input(rng: random.Random, shape: dict, stratum) -> Problem:
    """In one round of every _STRATA, the one whose Fuchs exponent is
    1/12, the first point whose only factor is regular gets trivial
    formal type: an apparent point, which the library accepts.  In the
    other rounds values are drawn again until no point is trivial, so
    the share of apparent points, and the Fuchs exponents they displace,
    do not move with the seed."""
    apparent = stratum(shape["name"], _STRATA) == 0
    while True:
        P = _fourier_draw(rng, shape, stratum, apparent)
        if apparent or not any(t.is_trivial() for _, t in P.points):
            return P


def _fourier_draw(rng: random.Random, shape: dict, stratum, apparent: bool) -> Problem:
    pts = []
    first_irregular = True
    for loc, factors in shape["points"]:
        where = {"0": Location.of(0), "inf": INF}.get(loc) or Location.of(rng.choice(_FOURIER_X))
        fs = []
        for ram, terms, nblocks in factors:
            phi = PolarPart.make(ram, [(j, _coefficient(rng, lv)) for j, lv in terms])
            blocks = [(F(rng.randrange(_EXP_DEN), _EXP_DEN), 1) for _ in range(nblocks)]
            if terms and first_irregular:
                # this exponent decides the Fuchs check of most shapes:
                # stratified over rounds, never 0
                blocks[0] = (F(1 + stratum(shape["name"], _STRATA), _EXP_DEN), 1)
                first_irregular = False
            fs.append([phi, blocks])
        pts.append((where, fs))
    trivial = None
    if apparent:
        trivial = next(i for i, (_, fs) in enumerate(pts) if len(fs) == 1 and fs[0][0].is_zero())
        fs = pts[trivial][1]
        fs[0][1] = [(F(0), 1)] * len(fs[0][1])
    # shift one block so the global exponent sum is an integer: the last
    # regular block off the apparent point, else the last block there is
    total = F(0)
    for _, fs in pts:
        for phi, blocks in fs:
            total += sum(k * (phi.ram * a + F(phi.ram - 1, 2)) for a, k in blocks)
    others = [f for i, (_, fs) in enumerate(pts) if i != trivial for f in fs]
    phi, blocks = ([f for f in others if f[0].is_zero()] or others)[-1]
    a, k = blocks[-1]
    blocks[-1] = (a - (total % 1) / (phi.ram * k), k)
    N = math.lcm(*(x.denominator for _, fs in pts for _, b in fs for x, _ in b))
    return Problem.make(
        N, [(w, FormalType.make([(phi, RegularPart.make(b)) for phi, b in fs])) for w, fs in pts]
    )


def _fourier_op(shape, P: Problem):
    def run():
        FP = transforms.fourier_global(P)
        back = transforms.fourier_inverse(FP)
        arcs = []
        for _, t in FP.points:
            phis = [f.phi for f in t.factors]
            p = math.lcm(*(q.ram for q in phis))
            for psi in phis:
                for phi in phis:
                    le, strict = stokes.order_arcs(psi, phi, p)
                    arcs.append((psi, phi, p, le is stokes.FULL_CIRCLE, len(strict)))
        return FP, back, arcs

    def check(out):
        FP, back, arcs = out
        failed = []
        if not same_data(back, P, drop_trivial=True):
            failed.append("involution")
        elif not same_data(back, P):
            # the inverse dropped an apparent point of the input
            failed.append("apparent_point")
        if rigidity.rig_index(FP) != rigidity.rig_index(P):
            failed.append("rig")
        if exponent_sum(FP).denominator != 1:
            failed.append("fuchs")
        for psi, phi, p, full, n in arcs:
            q = _q_leading(psi, phi, p)
            if (full, n) != (q == 0, q):
                failed.append("arcs")
                break
        return failed

    return Op(shape, run, check)


# -- registry -------------------------------------------------------------


class Workload:
    """A run measures whole blocks of `block` rounds, so every run has the
    same mix of shapes and of stratified values, whatever its speed."""

    def __init__(self, name, shapes, rounds, make_input, make_op, feed=None, block=1):
        assert rounds % block == 0
        self.name = name
        self.shapes = shapes
        self.rounds = rounds
        self.block = block
        self._make_input = make_input
        self._make_op = make_op
        self._feed = feed

    def inputs(self, seed: int):
        """[(shape, input)], the shape list repeated `rounds` times with
        values drawn from the seed.  ``stratum(key, n)`` gives an input
        the next value of a seeded permutation of range(n) for that key,
        one step per round, so over n rounds each value is drawn once."""
        rng = random.Random(f"{self.name}:{seed}")
        perms: dict = {}

        def stratum_at(i):
            def stratum(key, n):
                if key not in perms:
                    perms[key] = rng.sample(range(n), n)
                return perms[key][i % n]

            return stratum

        return [
            (shape, self._make_input(rng, shape, stratum_at(i)))
            for i in range(self.rounds)
            for shape in self.shapes
        ]

    def ops(self, inputs):
        """Endless stream of operations with None after every block; a
        run longer than the inputs cycles through them again."""
        size = self.block * len(self.shapes)
        while True:
            for i in range(0, len(inputs), size):
                chunk = inputs[i : i + size]
                if self._feed is not None:
                    yield from self._feed(chunk)
                else:
                    for shape, inp in chunk:
                        yield self._make_op(shape, inp)
                yield None


WORKLOADS = {
    w.name: w
    for w in [
        Workload("mc_oracle", MC_SHAPES, MC_ROUNDS, _mc_input, _mc_op),
        Workload("certify", CERTIFY_SHAPES, CERTIFY_ROUNDS, _certify_input, None, _certify_feed),
        Workload("fourier_stokes", FOURIER_SHAPES, FOURIER_ROUNDS, _fourier_input, _fourier_op,
                 block=_STRATA),
    ]
}
