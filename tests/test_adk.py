"""Reduction loop, certificates, and exact replay."""

import dataclasses
import functools
import itertools
import math
from fractions import Fraction
from pathlib import Path

import pytest

from rigidconn import transforms
from rigidconn.cli import parse_certificate, print_certificate, step_from_dict, step_to_dict
from rigidconn.cyclo import CycloNum
from rigidconn.enumerate import enumerate_candidates
from rigidconn.formal import (
    INF,
    FormalType,
    Location,
    Problem,
    RegularPart,
    irregularity,
    monodromy_exponents,
    quasi_order,
    rank,
    twist_local,
)
from rigidconn.errors import RigidconnError
from rigidconn.puiseux import PolarPart, polar_neg, slope, unramified_head
from rigidconn.adk import (
    Certificate,
    Fourier,
    Mc,
    Moebius,
    NotRigid,
    ReplayMismatch,
    Stuck,
    Twist,
    TwoSpecialPoints,
    _point_options,
    _twist_reads,
    normalize_problem,
    reduce_step,
    replay_certificate,
    run_adk,
)
from rigidconn.rigidity import rig_index
from rigidconn.transforms import InvariantViolation, RankOneData, TransformsError, fourier_inf_term, twist_global

from helpers import (
    CENSUS_SLICES,
    RAMIFIED_SLICES,
    F,
    el,
    fourier_battery,
    fourpoint,
    hypergeometric,
    kloosterman,
    non_realizable_battery,
    problems_equal,
    reg,
)


def test_run_adk_hypergeometric():
    P = hypergeometric()
    cert = run_adk(P)
    assert isinstance(cert, Certificate)
    assert cert.terminal.rank() == 1
    assert problems_equal(replay_certificate(cert), P)


def test_run_adk_kloosterman():
    P = kloosterman()
    cert = run_adk(P)
    assert isinstance(cert, Certificate)
    assert problems_equal(replay_certificate(cert), P)


def test_run_adk_not_rigid():
    res = run_adk(fourpoint())
    assert not isinstance(res, Certificate)


def test_normalize_moves_special_point_to_infinity():
    # ramified point at 5: a Moebius map must bring it to infinity and
    # transport the polar part with the slope preserved
    P = Problem.make(
        1,
        [
            (Location.of(0), reg((0, 2))),
            (Location.of(5), el(2, {1: 1}, (0, 1))),
        ],
    )
    N, steps = normalize_problem(P)
    assert any(isinstance(s, Moebius) for s in steps)
    d = dict(N.points)
    assert INF in d
    polar_slopes = [slope(f.phi) for f in d[INF].factors if not f.phi.is_zero()]
    assert polar_slopes == [F(1, 2)]


def test_normalize_two_special_points_rejected():
    P = Problem.make(
        2,
        [
            (Location.of(3), el(2, {1: 1}, (0, 1))),
            (Location.of(5), el(2, {1: CycloNum.from_rational(2)}, (0, 1))),
        ],
    )
    with pytest.raises(TwoSpecialPoints):
        normalize_problem(P)


def test_reduction_of_translated_kloosterman():
    # same data as Kloosterman but with the wild point at 5 instead of
    # infinity: run, certify, replay back to the original
    P = Problem.make(
        4,
        [
            (Location.of(0), reg((0, 2))),
            (Location.of(5), el(2, {1: 1}, (F(1, 4), 1))),
        ],
    )
    assert rig_index(P) == 2
    cert = run_adk(P)
    assert isinstance(cert, Certificate)
    assert problems_equal(replay_certificate(cert), P)


def test_corrupted_certificate_rejected():
    cert = run_adk(hypergeometric())
    assert isinstance(cert, Certificate)
    bad_steps = tuple(
        dataclasses.replace(s, chi_exponent=s.chi_exponent + F(1, 5)) if isinstance(s, Mc) else s
        for s in cert.steps
    )
    assert bad_steps != cert.steps
    with pytest.raises(ReplayMismatch):
        replay_certificate(Certificate(bad_steps, cert.terminal, cert.origin))


def test_degenerate_moebius_step_is_a_replay_mismatch():
    # (1, 1, 1, 1) has ad - bc = 0: its undo (1, -1, -1, 1) sends every
    # point to -1, where the points collide
    P = hypergeometric()
    one = CycloNum.one()
    with pytest.raises(ReplayMismatch, match=r"step 0 \(moebius\) failed to invert: duplicate location"):
        replay_certificate(Certificate((Moebius((one, one, one, one), 2),), P, P))


def test_certificate_records_origin():
    P = hypergeometric()
    cert = run_adk(P)
    assert problems_equal(cert.origin, P)


def test_fourier_rank_disagreement_raises(fresh_memos, monkeypatch):
    # the Fourier output rank is checked by a raise, not an assert, so
    # the check holds under python -O and replay reports it
    cert = run_adk(kloosterman())
    assert any(isinstance(s, Fourier) for s in cert.steps)
    monkeypatch.setattr(transforms, "fourier_rank_prediction", lambda P: 0)
    with pytest.raises(InvariantViolation, match="leg ranks disagree with the rank formula"):
        transforms.fourier_global(kloosterman())
    with pytest.raises(InvariantViolation):
        run_adk(kloosterman())
    with pytest.raises(ReplayMismatch, match="failed to invert"):
        replay_certificate(cert)
    assert issubclass(InvariantViolation, TransformsError)


# --- step records ---------------------------------------------------------

GOLDEN = Path(__file__).parent / "golden"


@functools.cache
def _slice_certificates(name: str) -> tuple:
    """The certificates of the rig = 2 candidates of one census slice."""
    _, locs, pool, N, r = next(s for s in CENSUS_SLICES if s[0] == name)
    certs = []
    for P in enumerate_candidates(locs, pool, N, r):
        if rig_index(P) != 2:
            continue
        try:
            res = run_adk(P)
        except TransformsError:
            continue
        if isinstance(res, Certificate):
            certs.append(res)
    return tuple(certs)


def _census_certificates() -> tuple:
    return tuple(c for name, *_ in CENSUS_SLICES for c in _slice_certificates(name))


@functools.cache
def _certificates() -> tuple:
    """The golden certificates, the only ones with Moebius and Fourier
    steps, and every certificate of two tame census slices: points
    {0, 1, inf} with N = 3 and {0, 1, 2, inf} with N = 2, rank 2."""
    golden = [parse_certificate((GOLDEN / f"cert_{n}.json").read_text(encoding="utf-8")) for n in ("hyper", "kloos", "kloos0")]
    return (*golden, *_slice_certificates("01-N3-r2"), *_slice_certificates("012-N2-r2"))


def _moves(cert: Certificate):
    """(step, problem before, problem after) along the forward run."""
    cur = cert.origin
    for s in cert.steps:
        nxt = s.apply(cur)
        yield s, cur, nxt
        cur = nxt


def test_records_cover_every_kind():
    kinds = {type(s) for cert in _certificates() for s in cert.steps}
    assert kinds == {Moebius, Twist, Mc, Fourier}
    assert len(_certificates()) == 3 + 27 + 32


def test_forward_replay_reaches_the_terminal():
    for cert in _certificates():
        *_, (_, _, last) = _moves(cert)
        assert last == cert.terminal
        for s, _, after in _moves(cert):
            assert s.predicted_rank == after.rank()


def test_step_records_round_trip_through_json():
    for cert in _certificates():
        for s in cert.steps:
            assert step_from_dict(step_to_dict(s)) == s


def test_undo_inverts_apply():
    # no move changes a problem's form behind its back: a point a move
    # leaves trivial is not listed, and undo finds the trivial type there
    for cert in _census_certificates():
        for s, before, after in _moves(cert):
            assert s.undo(after) == before


def test_small_ramified_slices_certify_only_realizable_data():
    # every problem along every certificate of the three small ramified
    # slices keeps an integral exponent sum (the Fuchs relation), and
    # every certificate replays from its printed file
    rig2 = certs = 0
    for _, locs, pool, N, r in RAMIFIED_SLICES[:3]:
        for P in enumerate_candidates(locs, pool, N, r):
            if rig_index(P) != 2:
                continue
            rig2 += 1
            try:
                res = run_adk(P)
            except TransformsError:
                continue
            if not isinstance(res, Certificate):
                continue
            certs += 1
            for *_, after in _moves(res):
                assert sum(sum(monodromy_exponents(t)) for _, t in after.points).denominator == 1
            assert replay_certificate(parse_certificate(print_certificate(res))) == P
    assert (rig2, certs) == (66, 28)


def test_census_twist_whose_point_the_mc_drops_replays():
    P = Problem.make(
        2,
        [
            (Location.of(0), reg((0, 2))),
            (Location.of(1), reg((0, 2))),
            (Location.of(2), reg((F(1, 2), 1), (F(1, 2), 1))),
            (INF, reg((0, 2))),
        ],
    )
    cert = run_adk(P)
    twist, mc = cert.steps
    assert isinstance(twist, Twist) and isinstance(mc, Mc)
    # the twist leaves the point 2 trivial, so the twisted problem does not list it
    assert Location.of(2) not in twist.apply(P).locations()
    assert twist.apply(P).at(Location.of(2)).is_trivial()
    assert replay_certificate(cert) == P


def test_every_census_certificate_replays_from_its_printed_file():
    certs = _census_certificates()
    assert len(certs) == 263
    for cert in certs:
        assert replay_certificate(parse_certificate(print_certificate(cert))) == cert.origin


def test_twist_by_a_shift_and_its_undo_land_on_the_same_residue():
    # the ramified factor of the Kloosterman data at infinity keeps its
    # block exponent mod 1/2, however the shift moves it
    P, t = kloosterman(), kloosterman().at(INF)
    for k in range(-12, 13):
        b = F(k, 12)
        twist = Twist(RankOneData.make([(0, PolarPart.zero(), -b), (INF, PolarPart.zero(), b)]), 2)
        after = twist.apply(P)
        assert after.at(INF) == twist_local(t, PolarPart.zero(), b)
        assert after.at(INF).factors[0].reg.blocks == ((2 * (F(1, 4) + b) % 1 / 2, 1),)
        back = twist.undo(after)
        assert back == P and back.at(INF).factors[0].reg.blocks == ((F(1, 4), 1),)


def test_census_origin_with_a_trivial_point_replays():
    # Problem.make drops the trivial point at 2, so the origin the
    # certificate records is the data the middle convolution gives back
    P = Problem.make(
        2,
        [
            (Location.of(0), reg((0, 2))),
            (Location.of(1), reg((0, 2))),
            (Location.of(2), reg((0, 1), (0, 1))),
            (INF, reg((F(1, 2), 2))),
        ],
    )
    cert = run_adk(P)
    assert [type(s) for s in cert.steps] == [Mc]
    assert replay_certificate(cert) == P


# --- the scored search against the whole-problem search -------------------


def _reference_psis(factors):
    heads = sorted({unramified_head(f.phi) for f in factors} - {PolarPart.zero()}, key=PolarPart.sort_key)
    return [PolarPart.zero()] + [polar_neg(h) for h in heads]


def _reference_shifts(t):
    return sorted({(-a) % 1 for f in t.factors for a, _ in f.reg.blocks})


def _reference_mc_moves(P):
    """Every rank-decreasing twist and MC of the search that twists the
    whole problem for every candidate and reads the rank formula off it,
    in its order; P must be unramified at infinity."""
    r, tinf = P.rank(), P.at(INF)
    finite = [
        [(loc, psi, al) for psi in _reference_psis(t.factors) for al in _reference_shifts(t)]
        for loc, t in P.points
        if not loc.is_inf
    ]
    for combo in itertools.product(*finite):
        b_inf = -sum((al for _, _, al in combo), F(0))
        for psi_inf in _reference_psis(tinf.factors):
            twist = Twist(RankOneData.make(list(combo) + [(INF, psi_inf, b_inf)]), r)
            Pt = twist.apply(P)
            if all(f.phi.is_zero() for f in Pt.at(INF).factors):
                for g in sorted({a for f in Pt.at(INF).factors for a, _ in f.reg.blocks} - {0}):
                    predicted = transforms.mc_rank_prediction(Pt, g)
                    if predicted < r:
                        yield twist, Mc(g, predicted)


def _reference_moves(P):
    """The first twist and move of the whole-problem search."""
    r, tinf = P.rank(), P.at(INF)
    if any(f.phi.ram >= 2 for f in tinf.factors):
        best = None
        for psi in _reference_psis(f for f in tinf.factors if f.phi.ram >= 2):
            for b in sorted({F(0), *_reference_shifts(tinf)}):
                twist = Twist(RankOneData.make([(INF, psi, b)]), r)
                predicted = transforms.fourier_rank_prediction(twist.apply(P))
                if predicted < r and (best is None or predicted < best[1].predicted_rank):
                    best = (twist, Fourier(predicted))
        return best
    return next(_reference_mc_moves(P), None)


def _reference_step(P):
    moves = _reference_moves(P)
    if moves is None:
        return Stuck(P.rank())
    twist, move = moves
    return move.apply(twist.apply(P)), [move] if twist.points.is_trivial() else [twist, move]


def _outcome(step, P):
    try:
        return step(P)
    except RigidconnError as e:
        return type(e), str(e)


def _reference_problems():
    yield from (hypergeometric(), kloosterman(), fourpoint())
    yield from fourier_battery()
    yield from non_realizable_battery()
    # Kloosterman data twisted at infinity: the Fourier move needs a twist first
    for psi in (PolarPart.unramified({1: 1}), PolarPart.unramified({1: 2, 2: 1})):
        for b in (F(0), F(1, 3)):
            yield twist_global(kloosterman(), RankOneData.make([(0, PolarPart.zero(), -b), (INF, psi, b)]))
    for locs, N in (([0, 1, INF], 3), ([0, 1, 2, INF], 2)):
        yield from enumerate_candidates(locs, [], N, 2)
    # the only enumerated data whose reduction twists, then Fourier transforms
    for _, locs, pool, N, r in RAMIFIED_SLICES:
        yield from enumerate_candidates(locs, pool, N, r)


def test_scored_search_matches_the_whole_problem_search():
    seen = set()
    for P in _reference_problems():
        if rig_index(P) != 2:
            continue
        cur = P
        while cur.rank() >= 2:
            try:
                cur, _ = normalize_problem(cur)
            except TwoSpecialPoints:
                break
            got = _outcome(reduce_step, cur)
            assert got == _outcome(_reference_step, cur)
            if isinstance(got, Stuck) or not isinstance(got[0], Problem):
                seen.add("stuck" if isinstance(got, Stuck) else "raise")
                break
            cur, steps = got
            seen.add(tuple(s.kind for s in steps))
    assert seen == {("mc",), ("twist", "mc"), ("fourier",), ("twist", "fourier"), "stuck", "raise"}


# --- the integer reads against the objects they replace -------------------


def _per_point_types() -> list[FormalType]:
    """Every per-point type of the census and ramified slices, of the
    helper problems and of the Fourier batteries."""
    types = set()
    for _, locs, pool, N, r in CENSUS_SLICES + RAMIFIED_SLICES:
        for P in enumerate_candidates(locs, pool, N, r):
            types.update(t for _, t in P.points)
    for P in (hypergeometric(), kloosterman(), fourpoint(), *fourier_battery(), *non_realizable_battery()):
        types.update(t for _, t in P.points)
    # the type of a smooth point, which no problem lists
    types.update(FormalType.trivial(r) for r in (1, 2, 3))
    return sorted(types, key=repr)


def test_twist_scores_read_off_the_untwisted_type():
    types = _per_point_types()
    # ramified types whose block exponents differ by 1/p are one type:
    # six such pairs among these data
    assert len(types) == 109
    for t in types:
        r = rank(t)
        assert irregularity(t) == sum(slope(f.phi) * f.rank() for f in t.factors)
        assert fourier_inf_term(t) == sum((slope(f.phi) - 1) * f.rank() for f in t.factors if slope(f.phi) > 1)
        assert quasi_order(t) == math.lcm(*(a.denominator for a in monodromy_exponents(t)))
        # every finite option's score is the rank term of its twisted type
        assert _point_options(t, r) == [
            (psi, al, transforms.point_rank_term(twist_local(t, psi, al), r))
            for psi in _reference_psis(t.factors)
            for al in _reference_shifts(t)
        ]
        for psi in _reference_psis(t.factors):
            irr, four, cancelled = _twist_reads(t, psi)
            for b in sorted({F(0), *_reference_shifts(t)}):
                tt = twist_local(t, psi, b)
                assert (irr, four) == (irregularity(tt), fourier_inf_term(tt))
                # infinity: the cancel test, then the term of every exponent g
                assert (irr == 0) == all(f.phi.is_zero() for f in tt.factors)
                for g in {F(0), *(a for f in tt.factors for a, _ in f.reg.blocks)}:
                    assert irr + r - cancelled[(g - b) % 1] == transforms.point_rank_term(tt, r, g)


# --- every first step of the search leads to the same verdict -------------


def _kind(P: Problem) -> str:
    try:
        res = run_adk(P)
    except RigidconnError:
        return "raise"
    return "certificate" if isinstance(res, Certificate) else "not_rigid"


def test_every_rank_decreasing_first_step_ends_alike():
    # the search takes the first candidate; any other would end in the
    # same kind of outcome, and a candidate with none is stuck
    widest = 0
    for name in ("012-N2-r2", "01-N3-r2"):
        _, locs, pool, N, r = next(s for s in CENSUS_SLICES if s[0] == name)
        for P in enumerate_candidates(locs, pool, N, r):
            if rig_index(P) != 2:
                continue
            cur, _ = normalize_problem(P)
            kinds = []
            for twist, mc in _reference_mc_moves(cur):
                try:
                    kinds.append(_kind(mc.apply(twist.apply(cur))))
                except RigidconnError:
                    kinds.append("raise")
            widest = max(widest, len(kinds))
            assert set(kinds) == ({_kind(P)} if kinds else set()), P
            if not kinds:
                assert isinstance(run_adk(P), NotRigid)
    assert widest >= 2
