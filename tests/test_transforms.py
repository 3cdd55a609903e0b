"""Fourier legs, global transforms, twists, and middle convolution."""

import os
import subprocess
import sys
import textwrap
import traceback
from fractions import Fraction
from pathlib import Path

import pytest

import rigidconn
from rigidconn import puiseux, transforms
from rigidconn.adk import Certificate, Fourier, run_adk
from rigidconn.cli import parse_loc, parse_polar, polar_str
from rigidconn.cyclo import CycloNum
from rigidconn.enumerate import enumerate_candidates
from rigidconn.errors import RigidconnError
from rigidconn.formal import INF, ExpFactor, FormalType, Location, Problem, RegularPart, monodromy_exponents, twist_local
from rigidconn.linalg import mat
from rigidconn.puiseux import PolarPart, SeriesNotCertified, slope
from rigidconn.rigidity import rig_index
from rigidconn.transforms import (
    InvariantViolation,
    MatrixTuple,
    RankOneData,
    TransformsError,
    TrivialChi,
    dr_mc_oracle,
    finite_to_inf,
    fourier_global,
    fourier_inverse,
    inf_to_finite,
    inf_to_inf,
    mc_rank_prediction,
    middle_convolution,
    tuple_formal_data,
    twist_global,
)

from helpers import (
    CENSUS_SLICES,
    RAMIFIED_SLICES,
    F,
    el,
    fourier_battery,
    hypergeometric,
    kloosterman,
    non_realizable_battery,
    problems_equal,
    reg,
    zeta6,
)

ZERO, ONE = CycloNum.zero(), CycloNum.one()


def test_local_leg_gaussian():
    g = inf_to_inf(ExpFactor(PolarPart.unramified({2: 1}), RegularPart.single(0)))
    assert g.phi == PolarPart.unramified({2: F(-1, 4)})


def test_local_leg_slope_map():
    g = finite_to_inf(
        CycloNum.zero(),
        ExpFactor(PolarPart.make(2, [(1, CycloNum.one())]), RegularPart.single(0)),
    )
    assert g.phi.ram == 3 and slope(g.phi) == F(1, 3)


def test_local_leg_inf_to_finite_names_the_point():
    # E^{3t} tensor regular: lands at tau = 3 with no residual pole
    f = ExpFactor(PolarPart.unramified({1: 3}), RegularPart.single(F(1, 4)))
    c, g = inf_to_finite(f)
    assert c == CycloNum.from_rational(3)
    assert g.phi.is_zero() and g.reg == RegularPart.single(F(1, 4))


def _leg_at_zero(text):
    return finite_to_inf(ZERO, ExpFactor(parse_polar(text), RegularPart.single(0)))


def test_leg_series_stay_cyclotomic(fresh_memos, monkeypatch):
    # the leg's one root, rt(-3/2, 3), is taken after the polar part is
    # read, so no series that binomial_pow sees or returns carries it
    seen = []
    power = puiseux.binomial_pow

    def record(h, e, order):
        out = power(h, e, order)
        seen.extend(list(h.terms.values()) + list(out.terms.values()))
        return out

    monkeypatch.setattr(puiseux, "binomial_pow", record)
    _leg_at_zero("3*t^(-1/2)")
    assert seen and all(isinstance(c, CycloNum) for c in seen)


@pytest.mark.parametrize(
    "text, want",
    [
        ("rt(2, 2)*t^(-1/2)", "-3/2*z(3)*rt(2, 3)^2*t^(-1/3)"),
        (
            # a dense part: five terms under one leading term
            "t^(-5/2) + t^(-2) + t^(-3/2) + t^(-1) + t^(-1/2)",
            "-7/10*z(7)*rt(2, 7)^5*rt(5, 7)^2*t^(-5/7)"
            " + 1/5*z(7)^5*rt(2, 7)^4*rt(5, 7)^3*t^(-4/7)"
            " - 27/175*z(7)^2*rt(2, 7)^3*rt(5, 7)^4*t^(-3/7)"
            " + (-901/6125 - 901/6125*z(7) - 901/6125*z(7)^2 - 901/6125*z(7)^3 - 901/6125*z(7)^4"
            " - 901/6125*z(7)^5)*rt(2, 7)^2*rt(5, 7)^5*t^(-2/7)"
            " - 13201/85750*z(7)^3*rt(2, 7)*rt(5, 7)^6*t^(-1/7)",
        ),
        (
            # fourteen terms: sum_{j <= 14} t^(-j/2)
            " + ".join(f"t^(-{j}/2)" for j in range(14, 0, -1)),
            "-8/7*z(16)*rt(7, 8)*t^(-7/8)"
            " - 1/7*z(32)^3*rt(7, 16)^3*t^(-13/16)"
            " - 279/3136*z(8)*rt(7, 4)*t^(-3/4)"
            " - 50237/702464*z(32)^5*rt(7, 16)^5*t^(-11/16)"
            " - 1445027/22478848*z(16)^3*rt(7, 8)^3*t^(-5/8)"
            " - 8679167739/140987334656*z(32)^7*rt(7, 16)^7*t^(-9/16)"
            " - 135270517/2202927104*z(4)*rt(7, 2)*t^(-1/2)"
            " - 6240729212198335/99038527051792384*z(32)^9*rt(7, 16)^9*t^(-7/16)"
            " - 26154789239273085/396154108207169536*z(16)^5*rt(7, 8)^5*t^(-3/8)"
            " - 399110916063403936851/5679265295257982468096*z(32)^11*rt(7, 16)^11*t^(-5/16)"
            " - 2940069741554410777/38823102604302614528*z(8)^3*rt(7, 4)^3*t^(-1/4)"
            " - 6709866967469074885999893/81417947272818436662624256*z(32)^13*rt(7, 16)^13*t^(-3/16)"
            " - 6440093561543595172043343/71240703863716132079796224*z(16)^7*rt(7, 8)^7*t^(-1/8)"
            " - 232985169355548310009484470303/2334415384206250215990762668032*z(32)^15*rt(7, 16)^15*t^(-1/16)",
        ),
    ],
    ids=["radical", "dense", "dense14"],
)
def test_finite_leg_output_is_pinned(text, want):
    assert polar_str(_leg_at_zero(text).phi) == want


def test_infinite_leg_outputs_are_pinned():
    # a ramified slope-3/2 part with a tail leaves infinity for infinity
    f = ExpFactor(parse_polar("z(3)*t^(-3/2) - t^(-1) + t^(-1/2)"), RegularPart.single(0))
    want = "-4/27*z(3)*t^(-3) - 4/9*z(3)*t^(-2) + (-2/3 - 10/9*z(3))*t^(-1)"
    assert polar_str(inf_to_inf(f).phi) == want
    # the linear head 3*t names the point 3; the ramified tail t^(-1/3) lands there
    c, g = inf_to_finite(ExpFactor(parse_polar("3*t^(-1) + t^(-1/3)"), RegularPart.single(0)))
    assert c == CycloNum.from_rational(3) and polar_str(g.phi) == "2/9*rt(3, 2)*t^(-1/2)"


# One problem per stationary-phase leg, and the factor that leg makes
# under the Fourier transform (kernel e^{-t tau}) and under its inverse
# (e^{+t tau}): its polar part, and its blocks, R tensor L_{(-1)^q} read
# on the output cover, stored mod 1/(output ramification).
LEG_GOLDENS = [
    (
        "finite_to_inf",
        Problem.make(2, [(Location.of(0), el(2, {1: 1}, (0, 1))), (INF, reg((F(1, 2), 1), (0, 1)))]),
        ("inf", "-3/2*rt(2, 3)*t^(-1/3)"),
        ("inf", "3/2*rt(2, 3)*t^(-1/3)"),
        [(F(1, 6), 1)],  # (2*0 + 1/2)/3
    ),
    (
        "inf_to_inf",
        Problem.make(2, [(Location.of(0), reg((F(1, 2), 1), (0, 1))), (INF, el(2, {3: 1}, (0, 1)))]),
        ("inf", "-4/27*t^(-3)"),
        ("inf", "4/27*t^(-3)"),
        [(F(1, 2), 1)],  # (2*0 + 3/2)/1
    ),
    (
        "inf_to_finite",
        Problem.make(
            4,
            [
                (Location.of(0), reg((F(1, 2), 1), (F(1, 4), 1), (F(1, 4), 1))),
                (INF, FormalType.make([(parse_polar("3*t^(-1) + t^(-1/3)"), RegularPart.single(0))])),
            ],
        ),
        ("3", "-2/9*rt(3, 2)*t^(-1/2)"),
        ("-3", "-2/9*z(4)*rt(3, 2)*t^(-1/2)"),
        [(F(1, 4), 1)],  # (3*0 + 1/2)/2, the tail t^(-1/3) giving q = 1
    ),
]


@pytest.mark.parametrize("P, forward, inverse, blocks", [g[1:] for g in LEG_GOLDENS], ids=[g[0] for g in LEG_GOLDENS])
def test_leg_outputs_are_pinned_in_both_directions(P, forward, inverse, blocks):
    for Q, (loc, phi) in ((fourier_global(P), forward), (fourier_inverse(P), inverse)):
        (f,) = [f for f in Q.at(parse_loc(loc)).factors if not f.phi.is_zero()]
        assert (polar_str(f.phi), list(f.reg.blocks)) == (phi, blocks)
        assert sum(t.exponent_sum for _, t in Q.points).denominator == 1
    assert problems_equal(fourier_inverse(fourier_global(P)), P)
    assert problems_equal(fourier_global(fourier_inverse(P)), P)


def test_non_realizable_data_are_rejected(fresh_memos):
    # exponents that do not sum to an integer break the Fuchs relation:
    # every transform refuses them with a plain TransformsError
    for P in non_realizable_battery():
        total = sum(sum(monodromy_exponents(t)) for _, t in P.points)
        assert total.denominator != 1
        transforms_of_P = [fourier_global, fourier_inverse]
        if all(f.phi.is_zero() for f in P.at(INF).factors):
            transforms_of_P.append(lambda Q: middle_convolution(Q, F(1, 3)))
        for transform in transforms_of_P:
            with pytest.raises(TransformsError) as e:
                transform(P)
            assert type(e.value) is TransformsError
            assert str(e.value) == f"exponent sum {total} is not an integer: no connection has these data"


def test_an_output_that_breaks_the_fuchs_relation_raises(monkeypatch):
    # with the regular part passed through a ramified leg unchanged, the
    # Kloosterman transform would end at 1/4*t^(-1) with exponent 1/4
    leg = transforms._critical_value_polar
    monkeypatch.setattr(transforms, "_critical_value_polar", lambda terms, reg, e, m: ExpFactor(leg(terms, reg, e, m).phi, reg))
    with pytest.raises(InvariantViolation, match="^Fourier transform breaks the Fuchs relation: exponent sum 1/4$"):
        fourier_global(kloosterman())


def test_fourier_kloosterman_roundtrip():
    P = kloosterman()
    FP = fourier_global(P)
    assert rig_index(FP) == 2
    assert problems_equal(fourier_inverse(FP), P)


def test_twist_inverse():
    P = hypergeometric()
    L = RankOneData.make(
        [(Location.of(0), PolarPart.unramified({1: 2}), F(1, 3))]
    )
    Q = twist_global(P, L)
    assert Q != P
    assert problems_equal(twist_global(Q, L.inverse()), P)


def test_twist_at_an_unlisted_location_acts_on_the_trivial_type():
    P = hypergeometric()
    two, psi = Location.of(2), PolarPart.unramified({1: 2})
    L = RankOneData.make([(two, psi, F(1, 3)), (INF, PolarPart.zero(), F(2, 3))])
    Q = twist_global(P, L)
    assert Q.at(two) == twist_local(FormalType.trivial(2), psi, F(1, 3))
    assert Q.at(INF) == twist_local(P.at(INF), PolarPart.zero(), F(2, 3))
    assert [loc for loc, _ in Q.points] == [Location.of(0), Location.of(1), two, INF]


@pytest.mark.parametrize(
    "t",
    [reg((F(1, 2), 1), (F(1, 2), 1)), el(1, {1: 3}, (F(1, 3), 1), (F(1, 3), 1)), el(1, {2: 1, 1: -1}, (F(5, 6), 1), (F(5, 6), 1))],
    ids=["scalar", "scalar_irregular", "scalar_slope_2"],
)
def test_twist_that_trivialises_a_point_is_undone_after_the_point_is_dropped(t):
    # a point of scalar type (psi, b) is trivialised by the twist (-psi, -b),
    # so the twisted problem does not list it; the inverse twist acts on the
    # trivial type there and brings it back
    x = Location.of(2)
    f = t.factors[0]
    H = hypergeometric()
    P = Problem.make(H.N, [*H.points, (x, t)])
    L = RankOneData.make(
        [(Location.of(0), PolarPart.zero(), F(1, 3)), (x, puiseux.polar_neg(f.phi), -f.reg.blocks[0][0])]
    )
    Q = twist_global(P, L)
    assert x not in Q.locations() and Q.at(x).is_trivial()
    assert twist_global(Q, L.inverse()) == P


def test_mc_trivial_chi_rejected():
    P = hypergeometric()
    for chi in (F(0), F(1), F(-2)):
        with pytest.raises(TrivialChi):
            middle_convolution(P, chi)


def test_mc_rank_prediction_agrees():
    P = hypergeometric()
    for k in (1, 2, 5):
        Q = middle_convolution(P, F(k, 6))
        assert Q.rank() == mc_rank_prediction(P, F(k, 6))


def test_mc_inverse():
    P = hypergeometric()
    Q = middle_convolution(P, F(1, 6))
    back = middle_convolution(Q, F(-1, 6))
    assert problems_equal(back, P)


def _outcome(transform, *args):
    """transform(*args), or the type and message of its raise."""
    try:
        return transform(*args)
    except RigidconnError as e:
        return type(e), str(e)


def _mc_cases():
    """(P, chi) over hypergeometric() and every rig = 2 candidate of the
    01-N3-r2 census slice, with results and raises both present."""
    cases = [(hypergeometric(), F(k, 6)) for k in range(6)]
    _, locs, pool, N, r = next(s for s in CENSUS_SLICES if s[0] == "01-N3-r2")
    for P in enumerate_candidates(locs, pool, N, r):
        if rig_index(P) == 2:
            cases += [(P, F(k, N)) for k in range(1, N)]
    return cases


def test_memoized_mc_gives_what_a_fresh_computation_gives(fresh_memos):
    cases = _mc_cases()
    fresh = []
    for P, chi in cases:
        transforms._mc_outcome.cache_clear()
        fresh.append(_outcome(middle_convolution, P, chi))
    transforms._mc_outcome.cache_clear()
    filled = [_outcome(middle_convolution, P, chi) for P, chi in cases]
    misses = transforms._mc_outcome.cache_info().misses
    memoized = [_outcome(middle_convolution, P, chi + 1) for P, chi in cases]  # chi is read mod 1
    assert fresh == filled == memoized
    assert transforms._mc_outcome.cache_info().misses == misses
    assert any(isinstance(o, Problem) for o in fresh) and any(isinstance(o, tuple) for o in fresh)


def test_memoized_mc_raise_is_a_fresh_instance_each_time(fresh_memos):
    vanishing = (TransformsError, "vanishing data exceed the ambient rank")
    P, chi = next(c for c in _mc_cases() if _outcome(middle_convolution, *c) == vanishing)
    transforms._mc_outcome.cache_clear()
    raised = []
    for _ in range(3):
        with pytest.raises(TransformsError, match=vanishing[1]) as info:
            middle_convolution(P, chi)
        raised.append(info.value)
    assert transforms._mc_outcome.cache_info()[:2] == (2, 1)  # hits, misses
    assert len({id(e) for e in raised}) == 3
    assert len({type(e) for e in raised}) == 1 and len({str(e) for e in raised}) == 1
    # a re-raised stored instance would carry one more frame per raise
    depths = [len(traceback.extract_tb(e.__traceback__)) for e in raised]
    assert len(set(depths)) == 1


def test_mc_memo_is_bounded():
    assert transforms._mc_outcome.cache_info().maxsize == 1024


def _fourier_cases():
    """fourier_battery() and both ends of every Fourier step of the
    certificates of the three small ramified slices."""
    cases = fourier_battery()
    for _, locs, pool, N, r in RAMIFIED_SLICES[:3]:
        for P in enumerate_candidates(locs, pool, N, r):
            if rig_index(P) != 2:
                continue
            try:
                cert = run_adk(P)
            except TransformsError:
                continue
            if not isinstance(cert, Certificate):
                continue
            cur = cert.origin
            for s in cert.steps:
                nxt = s.apply(cur)
                if isinstance(s, Fourier):
                    cases += [cur, nxt]
                cur = nxt
    return cases


def test_memoized_legs_give_what_fresh_legs_give(fresh_memos):
    calls = [(transform, P) for P in _fourier_cases() for transform in (fourier_global, fourier_inverse)]
    fresh = []
    for transform, P in calls:
        transforms._leg_polar.cache_clear()
        fresh.append(_outcome(transform, P))
    transforms._leg_polar.cache_clear()
    filled = [_outcome(transform, P) for transform, P in calls]
    misses = transforms._leg_polar.cache_info().misses
    memoized = [_outcome(transform, P) for transform, P in calls]
    assert fresh == filled == memoized
    assert transforms._leg_polar.cache_info().misses == misses
    assert len(calls) > 2 * len(fourier_battery()) and all(isinstance(o, Problem) for o in fresh)


def test_one_polar_part_under_two_regular_parts_is_one_leg(fresh_memos):
    # the polar half reads neither the point nor its regular part; the
    # blocks (2*a + 1/2)/3 are worked out for each factor
    phi = PolarPart.make(2, [(1, ONE)])
    g0 = finite_to_inf(ZERO, ExpFactor(phi, RegularPart.single(0)))
    g1 = finite_to_inf(ONE, ExpFactor(phi, RegularPart.single(F(1, 4))))
    assert transforms._leg_polar.cache_info()[:2] == (1, 1)  # hits, misses
    assert g0.reg == RegularPart.single(F(1, 6)) and g1.reg == RegularPart.single(F(1, 3))
    assert g0.phi == puiseux.polar_add(g1.phi, PolarPart.unramified({1: ONE}))


def test_a_leg_raise_is_not_memoized(fresh_memos, monkeypatch):
    power = puiseux.binomial_pow
    # (1 + h)^(1/m) now comes one order short of what the legs read
    monkeypatch.setattr(puiseux, "binomial_pow", lambda h, e, order: power(h, e, order - 1))
    f = kloosterman().at(INF).factors[0]
    for _ in range(3):
        with pytest.raises(SeriesNotCertified, match="under-resolved"):
            inf_to_finite(f)
    assert transforms._leg_polar.cache_info()[1:] == (3, 1024, 0)  # misses, maxsize, currsize


def test_leg_memo_is_bounded():
    assert transforms._leg_polar.cache_info().maxsize == 1024


def test_tuple_formal_data_scalar():
    T = MatrixTuple.make([[[zeta6(1)]], [[zeta6(2)]]])
    P = tuple_formal_data(T, [Location.of(0), Location.of(1)], 6)
    d = dict(P.points)
    assert d[Location.of(0)] == reg((F(1, 6), 1))
    assert d[Location.of(1)] == reg((F(1, 3), 1))
    assert d[INF] == reg((F(1, 2), 1))  # inverse of the product


def test_dr_mc_oracle_rank():
    # hypergeometric seed: MC of two nontrivial scalars has rank 2
    T = MatrixTuple.make([[[zeta6(1)]], [[zeta6(2)]]])
    TD = dr_mc_oracle(T, zeta6(1))
    assert len(TD.mats()[0]) == 2


def test_matrix_tuple_rejects_non_square_matrices():
    with pytest.raises(TransformsError):
        MatrixTuple.make([mat([[1, 2]]), mat([[1]])])


def test_matrix_tuple_rejects_matrices_of_different_sizes():
    with pytest.raises(TransformsError):
        MatrixTuple.make([[[zeta6(1), ZERO], [ZERO, ONE]], [[zeta6(1)]]])


def test_tuple_formal_data_names_the_location_of_a_foreign_eigenvalue():
    T = MatrixTuple.make([[[zeta6(2)]], [[zeta6(1)]]])  # zeta6 is not a cube root of 1
    with pytest.raises(TransformsError, match=r"monodromy at Loc\(CycloNum\(1, '1'\)\)"):
        tuple_formal_data(T, [Location.of(0), Location.of(1)], 3)


def test_mc_invariant_checks_survive_optimized_mode():
    # under python -O asserts vanish; the checks at the end of
    # middle_convolution must still reject a rank off by one
    script = textwrap.dedent(
        """
        from fractions import Fraction
        from rigidconn import transforms
        from helpers import hypergeometric

        predicted = transforms.mc_rank_prediction
        transforms.mc_rank_prediction = lambda P, chi: predicted(P, chi) + 1
        try:
            transforms.middle_convolution(hypergeometric(), Fraction(1, 6))
        except transforms.InvariantViolation as e:
            print(__debug__, e)
        """
    )
    src = str(Path(rigidconn.__file__).resolve().parents[1])
    tests = str(Path(__file__).resolve().parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, tests]))
    res = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout == "False middle convolution rank formula violated\n"
    assert issubclass(InvariantViolation, TransformsError)


def test_series_checks_survive_optimized_mode():
    # under python -O the truncation check of the stationary-phase legs
    # must still fail, and replay must report it as a mismatch
    script = textwrap.dedent(
        """
        from pathlib import Path
        from rigidconn import adk, puiseux
        from rigidconn.cli import parse_certificate

        power = puiseux.binomial_pow
        # (1 + h)^(1/m) now comes one order short of what the legs read
        puiseux.binomial_pow = lambda h, e, order: power(h, e, order - 1)
        cert = parse_certificate(Path(GOLDEN, "cert_kloos.json").read_text(encoding="utf-8"))
        try:
            adk.replay_certificate(cert)
        except adk.ReplayMismatch as e:
            print(__debug__, e)
        """
    )
    src = str(Path(rigidconn.__file__).resolve().parents[1])
    golden = str(Path(__file__).resolve().parent / "golden")
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run(
        [sys.executable, "-O", "-c", f"GOLDEN = {golden!r}\n" + script],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout == "False step 0 (fourier) failed to invert: series under-resolved: w^0 read, certified below w^0 only\n"
