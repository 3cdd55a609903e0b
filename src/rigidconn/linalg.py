"""Dense exact linear algebra over cyclotomic fields.

Desk-scale Gaussian elimination: kernels, inverses and quotient actions.
Jordan data against a candidate eigenvalue list comes from the
characteristic polynomial: the multiplicity of each candidate as a root,
with ranks of powers only for repeated eigenvalues.  Matrices are lists
of rows of CycloNum.
"""

from __future__ import annotations

from fractions import Fraction

from .cyclo import CycloNum
from .errors import RigidconnError

Matrix = list[list[CycloNum]]


class LinAlgError(RigidconnError):
    pass


def _c(x) -> CycloNum:
    if isinstance(x, CycloNum):
        return x
    return CycloNum.from_rational(Fraction(x))


def mat(rows) -> Matrix:
    return [[_c(x) for x in row] for row in rows]


def identity(n: int) -> Matrix:
    return [[CycloNum.one() if i == j else CycloNum.zero() for j in range(n)] for i in range(n)]


def zeros(n: int, m: int) -> Matrix:
    return [[CycloNum.zero() for _ in range(m)] for _ in range(n)]


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a: Matrix, c) -> Matrix:
    c = _c(c)
    return [[x * c for x in row] for row in a]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n, k, m = len(a), len(b), len(b[0])
    out = zeros(n, m)
    for i in range(n):
        for l in range(k):
            x = a[i][l]
            if x.is_zero():
                continue
            for j in range(m):
                if not b[l][j].is_zero():
                    out[i][j] = out[i][j] + x * b[l][j]
    return out


def rref(a: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and pivot columns."""
    m = [row[:] for row in a]
    if not m:
        return m, []
    rows, cols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, rows) if not m[i][c].is_zero()), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c].inv()
        m[r] = [x * pv for x in m[r]]
        for i in range(rows):
            if i != r and not m[i][c].is_zero():
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def mat_rank(a: Matrix) -> int:
    return len(rref(a)[1])


def kernel_basis(a: Matrix) -> list[list[CycloNum]]:
    """Basis of the right kernel."""
    if not a:
        return []
    red, pivots = rref(a)
    cols = len(a[0])
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [CycloNum.zero()] * cols
        v[fc] = CycloNum.one()
        for i, pc in enumerate(pivots):
            v[pc] = -red[i][fc]
        basis.append(v)
    return basis


def mat_inv(a: Matrix) -> Matrix:
    n = len(a)
    aug = [row[:] + identity(n)[i] for i, row in enumerate(a)]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        raise LinAlgError("matrix not invertible")
    return [row[n:] for row in red]


def charpoly(a: Matrix) -> list[CycloNum]:
    """Coefficients c_0..c_n of det(x I - a), constant term first, by
    Faddeev-LeVerrier: M_1 = I, c_{n-k} = -tr(a M_k) / k and
    M_{k+1} = a M_k + c_{n-k} I; n products, divisions by 1..n only."""
    n = len(a)
    c = [CycloNum.zero()] * n + [CycloNum.one()]
    m = identity(n)
    for k in range(1, n + 1):
        am = mat_mul(a, m)
        c[n - k] = -sum((am[i][i] for i in range(n)), CycloNum.zero()) * Fraction(1, k)
        m = am
        for i in range(n):
            m[i][i] = m[i][i] + c[n - k]
    return c


def _divide_linear(p: list[CycloNum], lam: CycloNum) -> tuple[list[CycloNum], CycloNum]:
    """Synthetic division of p (constant term first) by x - lam:
    (quotient, remainder p(lam))."""
    acc = CycloNum.zero()
    q = []
    for c in reversed(p):
        acc = acc * lam + c
        q.append(acc)
    r = q.pop()
    return q[::-1], r


def _block_sizes(a: Matrix, lam: CycloNum, m: int) -> list[int]:
    """Jordan block sizes, descending, of the eigenvalue lam of algebraic
    multiplicity m, from d_k = dim ker (a - lam I)^k for k = 1, 2, ...:
    g_k = d_k - d_{k-1} blocks have size >= k, and together they exceed
    k by m - d_k.  The scan stops once at most one block can be longer
    than k (g_k = 1 or m - d_k <= 1): that block takes the whole excess."""
    if m == 1:
        return [1]
    n = len(a)
    b = mat_sub(a, mat_scale(identity(n), lam))
    dims = [0]
    power = b
    while True:
        dims.append(n - mat_rank(power))
        k = len(dims) - 1
        g, excess = dims[k] - dims[k - 1], m - dims[k]
        if g == 1 or excess <= 1:
            break
        power = mat_mul(power, b)
    sizes = [k + excess] + [k] * (g - 1)
    for j in range(k - 1, 0, -1):
        sizes.extend([j] * (2 * dims[j] - dims[j - 1] - dims[j + 1]))
    return sizes


def jordan_blocks(a: Matrix, candidates: list[CycloNum]) -> list[tuple[CycloNum, list[int]]]:
    """Jordan structure of a, all of whose eigenvalues must lie in the
    candidate list: [(eigenvalue, block sizes in descending order)], in
    candidate order.

    The characteristic polynomial is computed once.  Synthetic division
    gives each candidate's multiplicity m as a root: candidates with
    m = 0 cost no rank, m = 1 is the single block [1], and only m >= 2
    computes ranks of powers of a - lam I, up to the first power that
    determines the block sizes.  The scan stops once the multiplicities
    add up to the size of a."""
    p = charpoly(a)  # deflated by each eigenvalue found: degree n - sum of m
    out = []
    for lam in candidates:
        if len(p) == 1:
            break
        m = 0
        while len(p) > 1:
            q, r = _divide_linear(p, lam)
            if not r.is_zero():
                break
            p, m = q, m + 1
        if m:
            out.append((lam, _block_sizes(a, lam, m)))
    if len(p) > 1:
        raise LinAlgError("eigenvalues outside the candidate set")
    return out


def quotient_action(maps: list[Matrix], subspace: list[list[CycloNum]]) -> tuple[int, list[Matrix]]:
    """Induced action of invariant maps on V / span(subspace), in the
    classes of the standard vectors at the non-pivot coordinates of the
    subspace's rref: clearing an image's pivot coordinates with the rref
    rows leaves its quotient coordinates."""
    n = len(maps[0]) if maps else 0
    red, pivots = rref(subspace)
    comp = [j for j in range(n) if j not in pivots]
    out = []
    for mp in maps:
        q = zeros(len(comp), len(comp))
        for jc, j in enumerate(comp):
            img = [mp[i][j] for i in range(n)]
            for p, row in zip(pivots, red):
                f = img[p]
                if not f.is_zero():
                    img = [x - f * y for x, y in zip(img, row)]
            for ic, i in enumerate(comp):
                q[ic][jc] = img[i]
        out.append(q)
    return len(comp), out
