"""Desk-scale enumeration of candidate formal data with bounded
invariants, and certification of the rigid ones.

A candidate assigns to each location a formal type of total rank r whose
elementary factors are drawn from a finite polar-part pool (plus the
regular factor), with exponents in (1/N)Z and Jordan partitions of all
shapes.  The determinant-integrality filter keeps exactly the data whose
global exponent sum is an integer.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .adk import Certificate, NotRigid, run_adk
from .errors import RigidconnError
from .formal import (
    FormalType,
    Location,
    Problem,
    RegularPart,
    is_quasi_unipotent,
)
from .puiseux import PolarPart, canonical_rep
from .rigidity import rig_index


class EnumerationError(RigidconnError):
    pass


def _partitions(s: int, mx: int | None = None):
    """Partitions of s, decreasing lexicographic order."""
    if mx is None:
        mx = s
    if s == 0:
        yield ()
        return
    for first in range(min(s, mx), 0, -1):
        for rest in _partitions(s - first, first):
            yield (first,) + rest


def _regular_parts(s: int, N: int):
    """All regular parts of rank s with exponents in (1/N)Z."""
    exps = [Fraction(k, N) for k in range(N)]

    def gen(i: int, rem: int):
        if i == len(exps) - 1:
            for part in _partitions(rem):
                yield [(exps[i], k) for k in part]
            return
        for t in range(rem, -1, -1):
            for part in _partitions(t):
                head = [(exps[i], k) for k in part]
                for rest in gen(i + 1, rem - t):
                    yield head + rest

    for blocks in gen(0, s):
        yield RegularPart.make(blocks)


def _canonical_pool(phi_pool) -> list[PolarPart]:
    """Distinct canonical orbit representatives of the pool plus the
    regular factor, in canonical order."""
    reps = {PolarPart.zero()} | {canonical_rep(phi) for phi in phi_pool}
    return sorted(reps, key=PolarPart.sort_key)


def _types_of_rank(reps: list[PolarPart], r: int, N: int):
    """All formal types of rank r with factors among the given
    representatives (one regular part per chosen factor)."""

    def gen(i: int, rem: int):
        if i == len(reps):
            if rem == 0:
                yield []
            return
        p = reps[i].ram
        for s in range(rem // p, -1, -1):
            if s == 0:
                yield from gen(i + 1, rem)
                continue
            for reg in _regular_parts(s, N):
                for rest in gen(i + 1, rem - s * p):
                    yield [(reps[i], reg)] + rest

    for factors in gen(0, r):
        yield FormalType.make(factors)


def enumerate_candidates(locations, phi_pool, N: int, r: int):
    """Stream of problems over the given locations; total rank r at every
    point, factors from the pool (modulo Galois relabeling), exponents in
    (1/N)Z, integral global exponent sum."""
    if r < 1 or N < 1:
        raise EnumerationError(f"enumeration needs rank >= 1 and order >= 1, got rank {r}, order {N}")
    locs = [Location.of(l) for l in locations]
    reps = _canonical_pool(phi_pool)
    order = math.lcm(N, *(q.ram for q in reps))
    # the candidates of a slice share these type objects, so each type's
    # cached exponent sum (and rigidity defect) is computed once
    per_point = list(_types_of_rank(reps, r, N))
    for combo in itertools.product(per_point, repeat=len(locs)):
        total = sum((t.exponent_sum for t in combo), Fraction(0))
        if total.denominator != 1:
            continue
        yield Problem.make(order, list(zip(locs, combo)))


def classify_candidate(P: Problem):
    """(rig, verdict, reduction result) of one candidate.  The verdict
    is "certified" (ADK certificate), "unresolved" (rig = 2 but the
    greedy reduction could not finish) or "not_rigid"; the result is
    None when rig != 2 and run_adk is not tried."""
    rig = rig_index(P)
    if rig != 2:
        return rig, "not_rigid", None
    res = run_adk(P)
    if isinstance(res, Certificate):
        return rig, "certified", res
    if isinstance(res, NotRigid) and res.stuck_at_rig2:
        return rig, "unresolved", res
    return rig, "not_rigid", res


def count_rigid(locations, phi_pool, N: int, r: int):
    """Partition the candidate stream into ADK-certified problems,
    rig = 2 problems the greedy reduction could not resolve, and a count
    of rig != 2 data."""
    certified: list[tuple[Problem, Certificate]] = []
    unresolved: list = []
    non_rigid = 0
    for P in enumerate_candidates(locations, phi_pool, N, r):
        _, verdict, res = classify_candidate(P)
        if verdict == "certified":
            if not is_quasi_unipotent(P):
                raise EnumerationError("a certified candidate must be quasi-unipotent")
            certified.append((P, res))
        elif verdict == "unresolved":
            unresolved.append((P, res))
        else:
            non_rigid += 1
    return certified, unresolved, non_rigid
