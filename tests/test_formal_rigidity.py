"""Formal types, local invariants, and the rigidity index."""

from dataclasses import fields
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidconn.cli import print_problem
from rigidconn.cyclo import CycloNum
from rigidconn.enumerate import enumerate_candidates
from rigidconn.formal import (
    INF,
    FormalError,
    FormalType,
    Location,
    Problem,
    RegularPart,
    hom_h0,
    hom_irregularity,
    irregularity,
    is_quasi_unipotent,
    monodromy_exponents,
    rank,
    twist_local,
)
from rigidconn.puiseux import PolarPart, galois_act, polar_neg
from rigidconn.rigidity import rig_index

from helpers import (
    CENSUS_SLICES,
    F,
    el,
    fourier_battery,
    fourpoint,
    hypergeometric,
    kloosterman,
    non_realizable_battery,
    reg,
)


def test_regular_part_exponents_mod_one():
    assert RegularPart.make([(F(4, 3), 1)]) == RegularPart.make([(F(1, 3), 1)])
    assert RegularPart.make([(F(-1, 4), 1)]) == RegularPart.make([(F(3, 4), 1)])


def test_rank_and_irregularity():
    t = kloosterman().at(INF)
    assert rank(t) == 2
    assert irregularity(t) == 1  # slope 1/2 times rank 2
    t2 = el(1, {2: 1}, (0, 1))
    assert irregularity(t2) == 2


def test_monodromy_exponents():
    t = reg((F(1, 3), 1), (0, 2))
    assert sorted(monodromy_exponents(t)) == [0, 0, F(1, 3)]


def test_types_equal_up_to_galois():
    phi = PolarPart.make(2, [(1, 1)])
    a = FormalType.make([(phi, RegularPart.single(0))])
    b = FormalType.make([(galois_act(phi, 1), RegularPart.single(0))])
    assert a == b
    # under t^(-1/2) a block exponent matters mod 1/2: 0 and 1/2 both give
    # the exponents {0, 1/2}, and 1/4 gives {1/4, 3/4}
    c = FormalType.make([(phi, RegularPart.single(F(1, 2)))])
    assert a == c and hash(a) == hash(c)
    d = FormalType.make([(phi, RegularPart.single(F(1, 4)))])
    assert a != d


_RAMIFIED_PHIS = [
    PolarPart.make(2, [(1, 1)]),
    PolarPart.make(2, [(3, CycloNum.zeta(3)), (1, -1)]),
    PolarPart.make(3, [(1, 2)]),
    PolarPart.make(3, [(2, 1), (1, 1)]),
    PolarPart.make(4, [(3, 1)]),
]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_a_ramified_block_exponent_is_stored_mod_one_over_p(data):
    # a and a + j/p give one factor: make stores one form, so the types
    # are equal, hash alike and have the same invariants
    factors, shifted = [], []
    for phi in data.draw(st.lists(st.sampled_from(_RAMIFIED_PHIS + [PolarPart.zero()]), min_size=1, max_size=3)):
        blocks = data.draw(st.lists(st.tuples(st.integers(0, 23), st.integers(1, 2)), min_size=1, max_size=2))
        factors.append((phi, RegularPart.make([(F(k, 24), s) for k, s in blocks])))
        moved = [(F(k, 24) + F(data.draw(st.integers(-3, 3)), phi.ram), s) for k, s in blocks]
        shifted.append((phi, RegularPart.make(moved)))
    a, b = FormalType.make(factors), FormalType.make(shifted)
    assert a == b and hash(a) == hash(b)
    assert monodromy_exponents(a) == monodromy_exponents(b)
    assert a.defect == b.defect and a.exponent_sum == b.exponent_sum == sum(monodromy_exponents(a))
    assert all(f.phi.ram * x < 1 for f in a.factors for x, _ in f.reg.blocks)


def test_factor_order_does_not_depend_on_input_order():
    # -t^(-1) and -t^(-1/2) differ only in the ramification
    factors = [(PolarPart.make(p, {1: -1}), RegularPart.single(0)) for p in (1, 2)]
    a, b = FormalType.make(factors), FormalType.make(factors[::-1])
    assert a == b and hash(a) == hash(b)


def test_hom_invariants_kloosterman():
    t = kloosterman().at(INF)
    assert hom_irregularity(t, t) == 1
    assert hom_h0(t, t) == 1


def test_hom_h0_regular():
    t = reg((F(1, 3), 1), (0, 1))
    assert hom_h0(t, t) == 2  # two distinct eigenvalues
    u = reg((0, 2))
    assert hom_h0(u, u) == 2  # centralizer of a single J2 block


def test_rank_mismatch_rejected():
    with pytest.raises(FormalError):
        Problem.make(1, [(Location.of(0), reg((0, 1))), (INF, reg((0, 2)))])


def test_duplicate_point_rejected():
    with pytest.raises(FormalError):
        Problem.make(1, [(Location.of(0), reg((0, 1))), (Location.of(0), reg((0, 1)))])


# locations to put a trivial point at, infinity included
_LOCATIONS = [INF, *(Location.of(x) for x in (0, 1, 2, -1, F(1, 2))), Location.of(CycloNum.zeta(3))]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_a_trivial_point_is_not_listed(data):
    # a smooth point is the same connection listed or not: equal problems, equal hashes
    P = data.draw(st.sampled_from(_helper_problems()))
    kept = data.draw(st.lists(st.sampled_from(P.points), min_size=1, unique=True))
    Q = Problem.make(P.N, kept)
    free = [loc for loc in _LOCATIONS if loc not in Q.locations()]
    added = data.draw(st.lists(st.sampled_from(free), min_size=1, unique=True))
    trivial = FormalType.trivial(P.rank())
    R = Problem.make(P.N, [*kept, *((loc, trivial) for loc in added)])
    assert R == Q and hash(R) == hash(Q)
    assert all(R.at(loc) == trivial for loc in added)


def test_the_trivial_connection_lists_one_point_at_infinity():
    for r in (1, 3):
        t = FormalType.trivial(r)
        P = Problem.make(1, [(Location.of(0), t), (Location.of(1), t)])
        assert P.points == ((INF, t),) and P.rank() == r
        assert P == Problem.make(1, [(INF, t)]) and rig_index(P) == 2 * r * r


def test_rig_index_values():
    assert rig_index(hypergeometric()) == 2
    assert rig_index(kloosterman()) == 2
    assert rig_index(fourpoint()) == 0


def test_is_quasi_unipotent():
    assert is_quasi_unipotent(hypergeometric())
    P = Problem.make(
        1,
        [
            (Location.of(0), el(1, {1: 1}, (0, 1))),
            (INF, reg((0, 1))),
        ],
    )
    assert is_quasi_unipotent(P)


def _helper_problems() -> list[Problem]:
    return [hypergeometric(), kloosterman(), fourpoint(), *fourier_battery(), *non_realizable_battery()]


def _census_and_helper_types() -> set[FormalType]:
    """Every per-point type of the census slices and the helper problems."""
    types = {t for P in _helper_problems() for _, t in P.points}
    for _, locs, pool, N, r in CENSUS_SLICES:
        types |= {t for P in enumerate_candidates(locs, pool, N, r) for _, t in P.points}
    return types


def test_cached_invariants_equal_fresh_values():
    for t in _census_and_helper_types():
        assert t.defect == hom_irregularity(t, t) + rank(t) ** 2 - hom_h0(t, t), t
        assert t.exponent_sum == sum(monodromy_exponents(t)), t


def test_cached_invariants_leave_equality_hash_repr_and_printers_alone():
    for P in _helper_problems():
        fresh = {loc: FormalType.make(t.factors) for loc, t in P.points}
        before = [(hash(t), repr(t)) for _, t in P.points], print_problem(P)
        for _, t in P.points:
            t.defect, t.exponent_sum
        assert ([(hash(t), repr(t)) for _, t in P.points], print_problem(P)) == before
        # a read type still equals, and hashes like, one never read
        assert all(t == fresh[loc] and hash(t) == hash(fresh[loc]) for loc, t in P.points)
    assert [f.name for f in fields(FormalType)] == ["factors"]


def test_equal_types_built_by_different_routes_give_equal_invariants():
    psi, b = PolarPart.unramified({1: 1}), F(1, 3)
    for t in _census_and_helper_types():
        direct = FormalType.make(t.factors)
        back = twist_local(twist_local(t, psi, b), polar_neg(psi), -b)
        assert direct == back == t and direct is not back
        assert (direct.defect, direct.exponent_sum) == (back.defect, back.exponent_sum) == (t.defect, t.exponent_sum)
