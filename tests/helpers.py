"""Shared constructors and comparison helpers for the test suite."""

from __future__ import annotations

from fractions import Fraction

import mpmath

from rigidconn.cyclo import PRECISION_CAP_BITS, CycloNum
from rigidconn.formal import (
    INF,
    FormalType,
    Location,
    Problem,
    RegularPart,
)
from rigidconn.linalg import (
    LinAlgError,
    Matrix,
    identity,
    mat_mul,
    mat_rank,
    mat_scale,
    mat_sub,
)
from rigidconn.puiseux import PolarPart
from rigidconn.radicals import RadicalCoeff

F = Fraction


def reg(*blocks) -> FormalType:
    """Purely regular formal type with the given (exponent, size) blocks."""
    return FormalType.regular(RegularPart.make(list(blocks)))


def el(p, terms, *blocks) -> FormalType:
    """Single elementary factor El(phi) tensor Reg(blocks) at ramification p."""
    return FormalType.make([(PolarPart.make(p, terms), RegularPart.make(list(blocks)))])


def problems_equal(P: Problem, Q: Problem) -> bool:
    """Same formal data at the same locations; the declared common
    denominator N is bookkeeping and is ignored."""
    return P.points == Q.points


def hypergeometric() -> Problem:
    """Non-resonant rank-2 regular problem at {0, 1, inf}."""
    return Problem.make(
        12,
        [
            (Location.of(0), reg((F(1, 3), 1), (0, 1))),
            (Location.of(1), reg((F(1, 4), 1), (0, 1))),
            (INF, reg((F(1, 6), 1), (F(1, 4), 1))),
        ],
    )


def kloosterman() -> Problem:
    """Katz's local data of Kl_2 (Katz 1988): unipotent J2 at 0, and at
    infinity El(t^{-1/2}) with exponents 1/4 and 3/4, so the exponents sum
    to the integer 1 (the Fuchs relation)."""
    return Problem.make(
        4,
        [
            (Location.of(0), reg((0, 2))),
            (INF, el(2, {1: 1}, (F(1, 4), 1))),
        ],
    )


def fourpoint() -> Problem:
    """Rank-2 regular problem with four half-integer points: rig = 0."""
    half = reg((F(1, 2), 1), (0, 1))
    return Problem.make(
        2,
        [
            (Location.of(0), half),
            (Location.of(1), half),
            (Location.of(-1), half),
            (INF, half),
        ],
    )


# The census: the first location set of each certify slice of the
# benchmark, as (name, locations, polar pool, N, rank); "pool" is the
# polar pool {1/t}, and xy02 the location set {0, 2, inf}.
CENSUS_SLICES = [
    ("01-N2-r2-pool", [0, 1, INF], [PolarPart.unramified({1: 1})], 2, 2),
    ("01-N3-r2", [0, 1, INF], [], 3, 2),
    ("xy02-N2-r2-pool", [0, 2, INF], [PolarPart.unramified({1: 1})], 2, 2),
    ("01-N2-r3", [0, 1, INF], [], 2, 3),
    ("012-N2-r2", [0, 1, 2, INF], [], 2, 2),
]

# ramified pools t^(-1/2) and t^(-1/3): the reduction reaches its
# ramified-infinity branch (twist, then Fourier) only on these slices
RAMIFIED_SLICES = [
    ("0-N2-r2-sqrt", [0, INF], [PolarPart.make(2, [(1, 1)])], 2, 2),
    ("01-N2-r2-sqrt", [0, 1, INF], [PolarPart.make(2, [(1, 1)])], 2, 2),
    ("0-N4-r2-sqrt", [0, INF], [PolarPart.make(2, [(1, 1)])], 4, 2),
    ("01-N2-r3-sqrt", [0, 1, INF], [PolarPart.make(2, [(1, 1)])], 2, 3),
    ("0-N3-r3-cbrt", [0, INF], [PolarPart.make(3, [(1, 1)])], 3, 3),
]


def fourier_battery() -> list[Problem]:
    """42 admissible problems, mixed tame/irregular, rank <= 3, integral
    global exponent sum (the Fuchs relation: realizable determinant)."""
    battery: list[Problem] = []
    # rank 1, tame, three points
    for a, b in [(F(1, 3), F(1, 4)), (F(1, 2), F(1, 3)), (F(2, 3), F(1, 6)), (F(1, 5), F(2, 5))]:
        battery.append(
            Problem.make(
                60,
                [
                    (Location.of(0), reg((a, 1))),
                    (Location.of(1), reg((b, 1))),
                    (INF, reg(((-a - b) % 1, 1))),
                ],
            )
        )
    # rank 1, irregular at a finite point
    for c in (1, 2, -1):
        for a in (F(0), F(1, 2), F(1, 3)):
            battery.append(
                Problem.make(
                    6,
                    [
                        (
                            Location.of(0),
                            FormalType.make(
                                [(PolarPart.unramified({1: c}), RegularPart.single(a))]
                            ),
                        ),
                        (INF, reg(((-a) % 1, 1))),
                    ],
                )
            )
    # rank 1, slope 2 at infinity
    for c in (1, -1, 2):
        battery.append(
            Problem.make(
                2,
                [
                    (Location.of(0), reg((F(1, 2), 1))),
                    (INF, el(1, {2: c}, (F(1, 2), 1))),
                ],
            )
        )
    # rank 2, tame three-point
    for a1, a2, b1, b2, c1, c2 in [
        (F(1, 3), 0, F(1, 4), 0, F(1, 6), F(1, 4)),
        (F(1, 2), 0, F(1, 3), 0, F(1, 12), F(1, 12)),
        (F(1, 6), F(5, 6), F(1, 2), 0, F(1, 3), F(1, 6)),
    ]:
        battery.append(
            Problem.make(
                12,
                [
                    (Location.of(0), reg((a1, 1), (a2, 1))),
                    (Location.of(1), reg((b1, 1), (b2, 1))),
                    (INF, reg((c1, 1), (c2, 1))),
                ],
            )
        )
    # rank 2 with Jordan blocks
    battery.append(
        Problem.make(
            2,
            [
                (Location.of(0), reg((0, 2))),
                (Location.of(1), reg((F(1, 2), 2))),
                (INF, reg((F(1, 2), 2))),
            ],
        )
    )
    battery.append(kloosterman())
    # rank 2, ramified at infinity, slope 3/2
    for c in (1, -1):
        battery.append(
            Problem.make(
                2,
                [
                    (Location.of(0), reg((F(1, 2), 1), (0, 1))),
                    (INF, el(2, {3: c}, (0, 1))),
                ],
            )
        )
    # rank 3, ramification 3 at infinity (slope 4/3)
    battery.append(
        Problem.make(
            3,
            [
                (Location.of(0), reg((F(1, 3), 1), (F(2, 3), 1), (0, 1))),
                (INF, el(3, {4: 1}, (0, 1))),
            ],
        )
    )
    # rank 1, two irregular finite points
    for c1, c2 in [(1, 2), (1, -1), (2, 3)]:
        battery.append(
            Problem.make(
                2,
                [
                    (
                        Location.of(0),
                        FormalType.make(
                            [(PolarPart.unramified({1: c1}), RegularPart.single(F(1, 2)))]
                        ),
                    ),
                    (
                        Location.of(1),
                        FormalType.make(
                            [(PolarPart.unramified({1: c2}), RegularPart.single(0))]
                        ),
                    ),
                    (INF, reg((F(1, 2), 1))),
                ],
            )
        )
    # rank 2, ramified slope 1/2 at a finite point
    for c in (1, 2):
        battery.append(
            Problem.make(
                2,
                [
                    (Location.of(0), el(2, {1: c}, (0, 1))),
                    (Location.of(1), reg((F(1, 2), 2))),
                    (INF, reg((F(1, 2), 1), (0, 1))),
                ],
            )
        )
    # 13 rank-1 tame seeds over sevenths
    pairs = [(F(k, 7), F(m, 7)) for k in range(1, 5) for m in range(1, 5)][:13]
    for a, b in pairs:
        battery.append(
            Problem.make(
                7,
                [
                    (Location.of(0), reg((a, 1))),
                    (Location.of(2), reg((b, 1))),
                    (INF, reg(((-a - b) % 1, 1))),
                ],
            )
        )
    assert len(battery) == 42
    return battery


def non_realizable_battery() -> list[Problem]:
    """9 problems of the same kinds whose exponents sum to a non-integer:
    no connection has these data, and the transforms reject them."""
    battery: list[Problem] = []
    # rank 2, irregular factor plus regular factor at a finite point
    for c in (1, 2):
        for a in (F(1, 4), F(1, 2)):
            battery.append(
                Problem.make(
                    4,
                    [
                        (
                            Location.of(0),
                            FormalType.make(
                                [
                                    (PolarPart.unramified({1: c}), RegularPart.single(F(1, 4))),
                                    (PolarPart.zero(), RegularPart.single(a)),
                                ]
                            ),
                        ),
                        (INF, reg(((F(3, 4) - a) % 1, 1), ((-a) % 1 if a else F(1, 4), 1))),
                    ],
                )
            )
    # rank 2, two slope-2 factors at infinity
    battery.append(
        Problem.make(
            2,
            [
                (Location.of(0), reg((F(1, 2), 2))),
                (
                    INF,
                    FormalType.make(
                        [
                            (PolarPart.unramified({2: 1}), RegularPart.single(0)),
                            (PolarPart.unramified({2: -1}), RegularPart.single(F(1, 2))),
                        ]
                    ),
                ),
            ],
        )
    )
    # rank 3, tame
    for a, b, c in [(F(1, 3), F(1, 4), F(1, 5)), (F(1, 2), F(1, 3), F(1, 7))]:
        battery.append(
            Problem.make(
                420,
                [
                    (Location.of(0), reg((a, 1), (0, 2))),
                    (Location.of(1), reg((b, 1), (0, 1), (F(1, 2), 1))),
                    (INF, reg((c, 1), (F(2, 3), 1), (F(3, 4), 1))),
                ],
            )
        )
    # rank 3, irregular finite point plus a tame point
    battery.append(
        Problem.make(
            6,
            [
                (
                    Location.of(0),
                    FormalType.make(
                        [
                            (PolarPart.unramified({1: 3}), RegularPart.single(F(1, 6))),
                            (PolarPart.zero(), RegularPart.make([(F(1, 2), 2)])),
                        ]
                    ),
                ),
                (Location.of(1), reg((F(1, 3), 1), (0, 2))),
                (INF, reg((F(1, 6), 1), (F(5, 6), 1), (0, 1))),
            ],
        )
    )
    # the Kloosterman data with exponents 0 and 1/2 at infinity: sum 1/2
    battery.append(
        Problem.make(
            2,
            [
                (Location.of(0), reg((0, 2))),
                (INF, el(2, {1: 1}, (0, 1))),
            ],
        )
    )
    assert len(battery) == 9
    return battery


def zeta6(k: int) -> CycloNum:
    return CycloNum.zeta(6) ** k


def jordan_blocks_reference(a: Matrix, candidates: list[CycloNum]) -> list[tuple[CycloNum, list[int]]]:
    """Jordan structure from kernel dimensions alone: dim ker (a - lam I)^k
    for k = 1..n at every candidate, the n powers formed even when lam
    is not an eigenvalue.  The slow, obviously right oracle for
    linalg.jordan_blocks."""
    n = len(a)
    out = []
    total = 0
    for lam in candidates:
        b = mat_sub(a, mat_scale(identity(n), lam))
        dims = []
        p = identity(n)
        for _ in range(n):
            p = mat_mul(p, b)
            dims.append(n - mat_rank(p))
        if dims[0] == 0:
            continue
        geq = [dims[0]] + [dims[k] - dims[k - 1] for k in range(1, n)] + [0]
        sizes = []
        for k in range(n, 0, -1):
            sizes.extend([k] * (geq[k - 1] - geq[k]))
        out.append((lam, sizes))
        total += sum(sizes)
    if total != n:
        raise LinAlgError("eigenvalues outside the candidate set")
    return out


# -- 1000-bit references for the certified numerics -------------------

REF_BITS = 1000
# a bound on the error of a REF_BITS reference for the small values the
# tests draw
REF_TOL = mpmath.mpf(2) ** -900


def ref_value(x):
    """x to REF_BITS with mpmath's plain (not interval) arithmetic: a
    CycloNum through exp(2*pi*i/N), a radical coefficient through the
    principal powers of its radicands."""
    with mpmath.workprec(REF_BITS):
        if isinstance(x, RadicalCoeff):
            return mpmath.fsum(
                ref_value(c)
                * mpmath.fprod(
                    mpmath.power(ref_value(r), mpmath.mpf(e.numerator) / e.denominator)
                    for r, e in mono
                )
                for mono, c in x.terms
            )
        z = mpmath.exp(2j * mpmath.pi / x.level)
        total, zi = mpmath.mpc(0), mpmath.mpc(1)
        for n in x.nums:  # (sum of nums[i] z^i) / den
            if n:
                total += n * zi
            zi *= z
        return total / x.den


def ref_turns(z):
    """arg(z)/(2*pi) of a reference value, in (-1/2, 1/2]."""
    with mpmath.workprec(REF_BITS):
        return mpmath.arg(z) / (2 * mpmath.pi)


def holds(iv, x) -> bool:
    """Whether the real mpmath interval iv contains the real reference x,
    up to the reference's own error."""
    with mpmath.workprec(4 * PRECISION_CAP_BITS):  # endpoints read exactly
        return mpmath.mpf(iv.a) - REF_TOL <= x <= mpmath.mpf(iv.b) + REF_TOL


def encloses(z, x) -> bool:
    """Whether the complex mpmath interval z contains the reference x."""
    return holds(z.real, mpmath.re(x)) and holds(z.imag, mpmath.im(x))


def angle_holds(t, x) -> bool:
    """Whether an angle in turns -- a Fraction, or a real interval read
    modulo 1 -- is, or contains, the reference angle x modulo 1."""
    with mpmath.workprec(REF_BITS):
        x -= mpmath.floor(x)
        if isinstance(t, Fraction):
            d = x - mpmath.mpf(t.numerator) / t.denominator
            return abs(d - mpmath.nint(d)) <= REF_TOL
        return any(holds(t, x + k) for k in (-1, 0, 1))
