"""Acceptance criteria: one test (and one printed pass/fail line) per
criterion, exact equality everywhere, wall-clock budgets enforced."""

from __future__ import annotations

import dataclasses
import random
import time
from fractions import Fraction

import pytest

from rigidconn.adk import Certificate, Mc, ReplayMismatch, replay_certificate, run_adk
from rigidconn.cyclo import CycloNum
from rigidconn.enumerate import count_rigid, enumerate_candidates
from rigidconn.formal import (
    INF,
    ExpFactor,
    FormalType,
    Location,
    Problem,
    RegularPart,
    hom_h0,
    hom_irregularity,
)
from rigidconn.linalg import jordan_blocks, mat_mul
from rigidconn.puiseux import PolarPart, galois_act, slope
from rigidconn.rigidity import rig_index
from rigidconn.stokes import Arc, order_arcs, _rotate_arc
from rigidconn.transforms import (
    DegenerateQuotient,
    MatrixTuple,
    TransformsError,
    dr_mc_oracle,
    finite_to_inf,
    fourier_global,
    fourier_inverse,
    inf_to_inf,
    middle_convolution,
    tuple_formal_data,
)

from helpers import (
    F,
    el,
    fourier_battery,
    hypergeometric,
    kloosterman,
    problems_equal,
    reg,
    zeta6,
)


def _report(n: int, name: str, t0: float, budget: float) -> None:
    dt = time.perf_counter() - t0
    assert dt < budget, f"criterion {n} exceeded budget: {dt:.2f}s >= {budget}s"
    print(f"criterion {n} ({name}): PASS in {dt:.2f}s")


def test_criterion_01_rank_one_rigidity():
    t0 = time.perf_counter()
    rng = random.Random(20260823)
    for _ in range(100):
        n = rng.randint(2, 5)
        N = rng.randint(1, 6)
        finite = rng.sample([0, 1, 2, -1, 3], n - 1)
        pool = [
            PolarPart.zero(),
            PolarPart.unramified({1: rng.randint(1, 3)}),
            PolarPart.unramified({1: -1, 2: rng.randint(1, 2)}),
        ][: rng.randint(1, 3)]
        pts = []
        total = F(0)
        for x in finite:
            e = F(rng.randrange(N), N)
            total += e
            pts.append(
                (Location.of(x), FormalType.make([(rng.choice(pool), RegularPart.single(e))]))
            )
        pts.append(
            (INF, FormalType.make([(rng.choice(pool), RegularPart.single((-total) % 1))]))
        )
        P = Problem.make(N, pts)
        assert rig_index(P) == 2, f"rank-one problem not rigid: {P}"
    _report(1, "rank-one rigidity", t0, 1.0)


def test_criterion_02_hypergeometric():
    t0 = time.perf_counter()
    P = hypergeometric()
    assert rig_index(P) == 2
    cert = run_adk(P)
    assert isinstance(cert, Certificate), f"reduction failed: {cert}"
    back = replay_certificate(cert)
    assert problems_equal(back, P)
    _report(2, "hypergeometric", t0, 1.0)


def test_criterion_03_kloosterman():
    t0 = time.perf_counter()
    P = kloosterman()
    # hand-derived at infinity: End of El(t^{-1/2}) has irregularity 1
    # (the off-diagonal Homs contribute slope 1/2 in rank 2), and exactly
    # one flat endomorphism survives (h0 = 1).
    tinf = dict(P.points)[INF]
    assert hom_irregularity(tinf, tinf) == 1
    assert hom_h0(tinf, tinf) == 1
    assert rig_index(P) == 2
    _report(3, "Kloosterman", t0, 1.0)


@pytest.fixture(scope="module")
def battery():
    return fourier_battery()


def test_criterion_04_fourier_preserves_rigidity(battery):
    t0 = time.perf_counter()
    assert len(battery) == 42
    for P in battery:
        assert rig_index(fourier_global(P)) == rig_index(P), f"rig changed for {P}"
    _report(4, "Fourier preserves rig", t0, 30.0)


def test_criterion_05_fourier_involution(battery):
    t0 = time.perf_counter()
    for P in battery:
        back = fourier_inverse(fourier_global(P))
        assert problems_equal(back, P), f"not involutive for {P}"
    _report(5, "Fourier involution", t0, 30.0)


def _mc_sides_match(P, T, k, locs):
    """Formal middle convolution vs the matrix oracle at chi = k/6; both
    must succeed with matching formal data, or both must reject the
    input."""
    try:
        QM = middle_convolution(P, F(k, 6))
    except TransformsError:
        QM = None
    try:
        QD = tuple_formal_data(dr_mc_oracle(T, zeta6(k)), locs, 6)
    except (DegenerateQuotient, TransformsError):
        QD = None
    if QM is None or QD is None:
        return QM is None and QD is None
    return problems_equal(QM, QD)


def test_criterion_06_mc_oracle_grid():
    t0 = time.perf_counter()
    locs = [Location.of(0), Location.of(1)]
    rank2: list[MatrixTuple] = []
    for k1 in range(6):
        for k2 in range(6):
            if k1 == 0 and k2 == 0:
                continue
            T = MatrixTuple.make([[[zeta6(k1)]], [[zeta6(k2)]]])
            P = tuple_formal_data(T, locs, 6)
            for k in range(1, 6):
                assert _mc_sides_match(P, T, k, locs), f"rank-1 mismatch at {(k1, k2, k)}"
                try:
                    TD = dr_mc_oracle(T, zeta6(k))
                except DegenerateQuotient:
                    continue
                if len(TD.mats()[0]) == 2:
                    rank2.append(TD)
    seen = set()
    for T in rank2:
        key = tuple(tuple(tuple(repr(x) for x in row) for row in m) for m in T.mats())
        if key in seen:
            continue
        seen.add(key)
        P = tuple_formal_data(T, locs, 6)
        for k in range(1, 6):
            assert _mc_sides_match(P, T, k, locs), f"rank-2 mismatch at chi = {k}/6"
    # scalar 2x2 worked example
    a, b, lam = zeta6(1), zeta6(2), zeta6(1)
    TD = dr_mc_oracle(MatrixTuple.make([[[a]], [[b]]]), lam)
    B1, B2 = TD.mats()
    one = CycloNum.one()
    eigs = {repr(v) for v, _ in jordan_blocks(B1, [lam * a, one])}
    assert eigs == {repr(lam * a), repr(one)}
    Binf = mat_mul(B2, B1)
    assert Binf[0][0] + Binf[1][1] == lam * (a * b + one)
    assert Binf[0][0] * Binf[1][1] - Binf[0][1] * Binf[1][0] == lam * lam * a * b
    _report(6, "MC oracle grid", t0, 120.0)


def test_criterion_07_enumeration_count():
    t0 = time.perf_counter()
    locs = [0, 1, INF]
    cands = list(enumerate_candidates(locs, [], 2, 1))
    assert len(cands) == 4
    certified, unresolved, non_rigid = count_rigid(locs, [], 2, 1)
    assert len(certified) == 4 and not unresolved and non_rigid == 0
    # closed form: |per-point selections|^n * N^(n-1), here one polar
    # choice per point, against brute enumeration
    pools = {"zero": [], "with-pole": [PolarPart.unramified({1: 1})]}
    for pool in pools.values():
        k = len(pool) + 1
        for n in range(2, 5):
            pts = [0, 1, 2, INF][:n]
            for N in range(1, 4):
                got = sum(1 for _ in enumerate_candidates(pts, pool, N, 1))
                assert got == k**n * N ** (n - 1), f"count mismatch n={n} N={N}"
    _report(7, "enumeration count", t0, 10.0)


def test_criterion_08_stokes_arcs():
    t0 = time.perf_counter()
    zero = PolarPart.zero()
    # q = 1, a = -1: strict arc (-1/4, 1/4) i.e. (3/4, 1/4) normalized
    le, strict = order_arcs(zero, PolarPart.unramified({1: 1}))
    assert strict == (Arc(F(3, 4), F(1, 4)),) and le == strict
    # 2q boundary directions for q = 1, 2, 3
    from rigidconn.stokes import boundary_directions

    for q in (1, 2, 3):
        phi = PolarPart.unramified({q: 1})
        assert len(boundary_directions(zero, phi)) == 2 * q
    # rotation equivariance under the Galois action, exact endpoints
    psi = PolarPart.make(2, [(1, CycloNum.one())])
    for m in range(2):
        _, s1 = order_arcs(psi, zero, 2)
        _, s2 = order_arcs(galois_act(psi, m), zero, 2)
        delta = F(-m, 2)
        assert s2 == tuple(_rotate_arc(arc, delta) for arc in s1)
    _report(8, "Stokes arcs", t0, 1.0)


def test_criterion_09_stationary_phase_golden():
    t0 = time.perf_counter()
    # E^{t^2} at infinity maps to E^{-tau^2/4}
    g = inf_to_inf(ExpFactor(PolarPart.unramified({2: 1}), RegularPart.single(0)))
    assert g.phi == PolarPart.unramified({2: F(-1, 4)})
    # regular exponent a at the finite point 0 maps to exponent a+1 at
    # infinity (exponents live mod 1, so a+1 is reduced)
    a = F(1, 3)
    P = Problem.make(3, [(Location.of(0), reg((a, 1))), (INF, reg(((-a) % 1, 1)))])
    FP = fourier_global(P)
    assert dict(FP.points)[INF] == reg(((a + 1) % 1, 1))
    # finite slope 1/2 (p, q) = (2, 1) maps to ramification 3, slope 1/3
    g = finite_to_inf(
        CycloNum.zero(), ExpFactor(PolarPart.make(2, [(1, CycloNum.one())]), RegularPart.single(0))
    )
    assert g.phi.ram == 3 and slope(g.phi) == F(1, 3)
    _report(9, "stationary phase", t0, 1.0)


def test_criterion_10_certificate_replay():
    t0 = time.perf_counter()
    pool: list[Problem] = [hypergeometric()]
    locs = [Location.of(0), Location.of(1)]
    for k1 in range(6):
        for k2 in range(1, 6):
            T = MatrixTuple.make([[[zeta6(k1)]], [[zeta6(k2)]]])
            pool.append(tuple_formal_data(T, locs, 6))
    certified, _, _ = count_rigid([0, 1, INF], [], 2, 1)
    replayed = 0
    for P in pool:
        if rig_index(P) != 2:
            continue
        cert = run_adk(P)
        if not isinstance(cert, Certificate):
            continue
        assert problems_equal(replay_certificate(cert), P)
        replayed += 1
    for P, cert in certified:
        assert problems_equal(replay_certificate(cert), P)
        replayed += 1
    assert replayed >= 10
    # corrupted certificate: altered convolution parameter must be caught
    cert = run_adk(hypergeometric())
    bad_steps = tuple(
        dataclasses.replace(s, chi_exponent=s.chi_exponent + F(1, 5)) if isinstance(s, Mc) else s
        for s in cert.steps
    )
    assert bad_steps != cert.steps
    with pytest.raises(ReplayMismatch):
        replay_certificate(Certificate(bad_steps, cert.terminal, cert.origin))
    _report(10, "certificate replay", t0, 30.0)
