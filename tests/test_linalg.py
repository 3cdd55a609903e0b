"""Exact dense linear algebra over cyclotomic numbers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidconn.cyclo import CycloNum
from rigidconn.linalg import (
    LinAlgError,
    charpoly,
    identity,
    jordan_blocks,
    kernel_basis,
    mat,
    mat_inv,
    mat_mul,
    mat_rank,
    quotient_action,
    rref,
    zeros,
)

from helpers import jordan_blocks_reference

ONE = CycloNum.one()


def test_rref_pivots():
    m, pivots = rref(mat([[1, 2, 3], [2, 4, 6], [0, 0, 1]]))
    assert pivots == [0, 2]
    assert mat_rank(mat([[1, 2], [3, 4]])) == 2
    assert mat_rank(mat([[1, 2], [2, 4]])) == 1


def test_kernel_basis():
    ker = kernel_basis(mat([[1, 2, 3]]))
    assert len(ker) == 2
    for v in ker:
        s = sum((c * x for c, x in zip(mat([[1, 2, 3]])[0], v)), CycloNum.zero())
        assert s.is_zero()


def test_mat_inv_roundtrip():
    z = CycloNum.zeta(5)
    a = [[ONE, z], [z * z, ONE]]
    assert mat_mul(a, mat_inv(a)) == identity(2)
    with pytest.raises(LinAlgError):
        mat_inv(mat([[1, 2], [2, 4]]))


def test_jordan_blocks():
    a = mat([[1, 1], [0, 1]])
    assert jordan_blocks(a, [ONE]) == [(ONE, [2])]
    b = mat([[0, 1], [1, 0]])
    out = jordan_blocks(b, [ONE, -ONE])
    assert [(repr(lam), sizes) for lam, sizes in out] == [
        (repr(ONE), [1]),
        (repr(-ONE), [1]),
    ]
    with pytest.raises(LinAlgError):
        jordan_blocks(b, [ONE])  # -1 missing from the candidate list


def _partitions(n, largest=None):
    largest = n if largest is None else largest
    if n == 0:
        yield []
    for k in range(min(n, largest), 0, -1):
        for rest in _partitions(n - k, k):
            yield [k] + rest


def test_jordan_blocks_every_partition_of_one_eigenvalue():
    # every way the rank scan can stop: one block left, at most one
    # dimension left, or the kernel dimension reaching the multiplicity
    z = CycloNum.zeta(3)
    for n in range(1, 7):
        for sizes in _partitions(n):
            j = zeros(n, n)
            start = 0
            for s in sizes:
                for i in range(start, start + s):
                    j[i][i] = z
                    if i > start:
                        j[i - 1][i] = ONE
                start += s
            assert jordan_blocks(j, [ONE, z]) == [(z, sizes)]


# small entries in Q(zeta_12): 0 half the time, else +-1 or one of four
# roots of unity of order 12
SMALL = [CycloNum.zero()] * 6 + [ONE, -ONE] + [CycloNum.zeta(12, k) for k in (1, 2, 5, 7)]


def _small_entry(draw) -> CycloNum:
    return draw(st.sampled_from(SMALL))


@st.composite
def conjugated_jordan_forms(draw):
    """(P J P^-1, candidate list): J a Jordan form of size n <= 5 with
    eigenvalues in mu_N, P = L U with unit triangular L, U of small
    entries; the candidates are mu_N in a random order, sometimes cut
    short."""
    level = draw(st.sampled_from([1, 2, 3, 4, 6, 12]))
    roots = [CycloNum.zeta(level, k) for k in range(level)]
    n = draw(st.integers(1, 5))
    j = zeros(n, n)
    start = 0
    while start < n:
        lam = draw(st.sampled_from(roots))
        size = draw(st.integers(1, n - start))
        for i in range(start, start + size):
            j[i][i] = lam
            if i > start:
                j[i - 1][i] = ONE
        start += size
    low, up = identity(n), identity(n)
    for r in range(n):
        for c in range(r):
            low[r][c] = _small_entry(draw)
            up[c][r] = _small_entry(draw)
    p = mat_mul(low, up)
    a = mat_mul(mat_mul(p, j), mat_inv(p))
    candidates = draw(st.permutations(roots))
    if draw(st.booleans()):
        candidates = candidates[: draw(st.integers(0, level - 1))]
    return a, candidates


def _outcome(f, a, candidates):
    try:
        return f(a, candidates)
    except LinAlgError:
        return LinAlgError


@settings(max_examples=25, deadline=None)
@given(conjugated_jordan_forms())
def test_jordan_blocks_matches_kernel_dimension_reference(case):
    a, candidates = case
    assert _outcome(jordan_blocks, a, candidates) == _outcome(jordan_blocks_reference, a, candidates)


def _poly_at_matrix(c, a):
    """p(a) for p with coefficients c, constant term first (Horner)."""
    n = len(a)
    out = zeros(n, n)
    for x in reversed(c):
        out = mat_mul(out, a)
        for i in range(n):
            out[i][i] = out[i][i] + x
    return out


@st.composite
def small_matrices(draw):
    n = draw(st.integers(1, 4))
    return [[_small_entry(draw) for _ in range(n)] for _ in range(n)]


@settings(max_examples=40, deadline=None)
@given(small_matrices())
def test_charpoly_cayley_hamilton_and_trace(a):
    n = len(a)
    c = charpoly(a)
    assert len(c) == n + 1 and c[n] == ONE
    assert _poly_at_matrix(c, a) == zeros(n, n)
    assert c[n - 1] == -sum((a[i][i] for i in range(n)), CycloNum.zero())


def test_charpoly_constant_term_is_signed_determinant():
    z = CycloNum.zeta(12)
    a = [[ONE, z], [z * z, 3 * ONE]]
    assert charpoly(a)[0] == ONE * 3 - z**3  # (-1)^2 det a
    b = mat([[2, 1, 0], [0, 3, 1], [1, 0, 4]])
    assert charpoly(b)[0] == -25  # det b = 2*12 - 1*(0 - 1) = 25
    assert charpoly(mat([[1, 2, 3], [4, 5, 6], [7, 8, 9]])) == [0, -18, -15, 1]


def test_quotient_action():
    # invariant subspace span(e1+e2, e3) in dimension 3, map swaps
    # e1,e2 and doubles e3; the quotient class of e2 maps to -[e2]
    maps = [mat([[0, 1, 0], [1, 0, 0], [0, 0, 2]])]
    sub = [[ONE, ONE, CycloNum.zero()], [CycloNum.zero(), CycloNum.zero(), ONE]]
    dim, q = quotient_action(maps, sub)
    assert dim == 1
    assert q[0] == [[-ONE]]


def test_quotient_action_shifted_pivots():
    # subspace whose pivot coordinates are not an initial segment: the
    # complement must be chosen by coordinate position, not vector index
    maps = [mat([[1, 0, 0], [0, 2, 0], [0, 0, 3]])]
    sub = [[CycloNum.zero(), ONE, CycloNum.zero()], [CycloNum.zero(), CycloNum.zero(), ONE]]
    dim, q = quotient_action(maps, sub)
    assert dim == 1
    assert q[0] == [[ONE]]
