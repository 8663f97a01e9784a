"""Elementary divisor calculus for finite-index sublattices.

A lattice of rank g is given by a square integer matrix whose columns are a
basis. For nested lattices M <= L the basis change L^-1 M is an integer
matrix and the p-adic valuations of its Smith normal form diagonal are the
elementary divisors of the inclusion over Z_p; their sum plays the role of
a conductor. Everything here is exact integer arithmetic: determinants
and basis changes come from fraction-free (Bareiss, Math. Comp. 22 (1968))
elimination. The public functions validate each matrix argument once;
their private cores (_quotient, _smith) take validated rows.

The random instances use public random.Random methods only, and
random_unimodular draws its two distinct indices i, j exactly as
rng.sample(range(n), 2) would, without its type check, pool list and
bookkeeping. For n <= 21 sample keeps a pool of the n indices: it takes
slot i = randrange(n), moves the last index into that slot, and takes
slot j = randrange(n - 1) of what is left, which holds j unless j = i,
when it holds n - 1. For a larger n it redraws randrange(n) until the
second index differs from the first. sample makes each of these draws as
one draw below k, the same one randrange(k) makes, so the indices, and
the generator's state after them, are the same.
"""

from __future__ import annotations

from math import isqrt
from operator import mul

from .errors import (NotASublattice, PreconditionFailed, ShapeMismatch,
                     SingularMatrix)


def _as_matrix(M):
    rows = [list(r) for r in M]
    if not rows or any(len(r) != len(rows[0]) for r in rows):
        raise ShapeMismatch("matrix rows must be nonempty and equal length")
    for r in rows:
        for x in r:
            if not isinstance(x, int) or isinstance(x, bool):
                raise ShapeMismatch(f"matrix entries must be integers, got {x!r}")
    return rows


def _square(M, rank=None):
    """M as a fresh list of rows, validated square (and of the given rank)."""
    rows = _as_matrix(M)
    if len(rows) != len(rows[0]):
        raise ShapeMismatch("expected a square matrix")
    if rank is not None and len(rows) != rank:
        raise ShapeMismatch("lattices must have the same rank")
    return rows


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def matmul(A, B):
    """A . B for matrices given as lists of rows. Raises ShapeMismatch when
    either is empty or ragged or the inner dimensions differ."""
    cols = list(zip(*B))
    if not cols or len({*map(len, A)}) != 1 or {*map(len, B)} != {len(cols)}:
        raise ShapeMismatch("matrix rows must be nonempty and equal length")
    if len(A[0]) != len(B):
        raise ShapeMismatch("inner dimensions do not match")
    return [[sum(map(mul, row, col)) for col in cols] for row in A]


def det(M):
    """Exact determinant by fraction-free (Bareiss) elimination."""
    A = [row[:] for row in _square(M)]
    n = len(A)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if A[k][k] == 0:
            for i in range(k + 1, n):
                if A[i][k] != 0:
                    A[k], A[i] = A[i], A[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
        prev = A[k][k]
    return sign * A[n - 1][n - 1]


def lattice_quotient(outer, inner):
    """The integer matrix X with outer . X = inner.

    One fraction-free Gauss-Jordan elimination (Bareiss 1968) on the
    augmented matrix [outer | inner]: each step k makes column k zero off
    the diagonal and divides the update by the previous pivot, exactly,
    since every entry is a minor of the augmented matrix. The left block
    ends as d.I with d = +-det(outer), the right block as d.X.

    Raises SingularMatrix if outer is not a basis and NotASublattice if the
    column lattice of inner is not contained in that of outer.
    """
    outer = _square(outer)
    return _quotient(outer, _square(inner, len(outer)))


def _quotient(outer, inner):
    """lattice_quotient on validated square matrices of one rank."""
    n = len(outer)
    rows = [a + b for a, b in zip(outer, inner)]
    prev = 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if rows[i][k]), None)
        if pivot is None:
            raise SingularMatrix("outer basis matrix is singular")
        rows[k], rows[pivot] = rows[pivot], rows[k]
        top = rows[k]
        p = top[k]
        for i in range(n):
            if i != k:
                c = rows[i][k]
                rows[i] = [(p * x - c * y) // prev for x, y in zip(rows[i], top)]
        prev = p
    X = []
    for row in rows:
        out = []
        for x in row[n:]:
            q, r = divmod(x, prev)
            if r != 0:
                raise NotASublattice("inner lattice is not inside the outer one")
            out.append(q)
        X.append(out)
    return X


def smith_normal_form(M):
    """(U, D, V) with U . M . V = D diagonal, d_1 | d_2 | ... | d_n > 0,
    and U, V unimodular. M must be square and nonsingular."""
    return _smith(_square(M))


def _smith(M, transforms=True):
    """smith_normal_form on a validated square matrix, left unchanged.
    With transforms=False only D is computed, and U and V are None."""
    A = [row[:] for row in M]
    n = len(A)
    U = identity(n) if transforms else None
    V = identity(n) if transforms else None

    def row_op(i, j, q):  # row_i -= q * row_j
        A[i] = [a - q * b for a, b in zip(A[i], A[j])]
        if transforms:
            U[i] = [a - q * b for a, b in zip(U[i], U[j])]

    def col_op(i, j, q):  # col_i -= q * col_j
        for r in range(n):
            A[r][i] -= q * A[r][j]
        if transforms:
            for r in range(n):
                V[r][i] -= q * V[r][j]

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        if transforms:
            U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for r in range(n):
            A[r][i], A[r][j] = A[r][j], A[r][i]
        if transforms:
            for r in range(n):
                V[r][i], V[r][j] = V[r][j], V[r][i]

    for t in range(n):
        while True:
            # Bring the smallest nonzero entry of the trailing block to (t, t).
            best = None
            for i in range(t, n):
                for j in range(t, n):
                    if A[i][j] != 0 and (best is None or abs(A[i][j]) < abs(A[best[0]][best[1]])):
                        best = (i, j)
            if best is None:  # rank t < n, as unimodular steps keep the rank
                raise SingularMatrix("matrix is singular")
            bi, bj = best
            if bi != t:
                swap_rows(t, bi)
            if bj != t:
                swap_cols(t, bj)
            dirty = False
            for i in range(t + 1, n):
                if A[i][t] != 0:
                    row_op(i, t, A[i][t] // A[t][t])
                    if A[i][t] != 0:
                        dirty = True
            for j in range(t + 1, n):
                if A[t][j] != 0:
                    col_op(j, t, A[t][j] // A[t][t])
                    if A[t][j] != 0:
                        dirty = True
            if dirty:
                continue
            # Pivot divides every remaining entry, or fold a bad row in.
            bad = None
            for i in range(t + 1, n):
                for j in range(t + 1, n):
                    if A[i][j] % A[t][t] != 0:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            row_op(t, bad, -1)
        if A[t][t] < 0:
            A[t] = [-a for a in A[t]]
            if transforms:
                U[t] = [-a for a in U[t]]
    return U, A, V


def diagonal(D):
    return [D[i][i] for i in range(len(D))]


def _valuation(x, p):
    if x == 0:
        raise SingularMatrix("zero has no finite valuation")
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def _check_prime(p):
    if not isinstance(p, int) or p < 2 or any(p % q == 0 for q in range(2, isqrt(p) + 1)):
        raise PreconditionFailed(f"p must be prime, got {p!r}")


def elementary_divisors(inner, outer, p):
    """Non-decreasing tuple of p-adic valuations of the elementary divisors
    of the inclusion inner <= outer."""
    _check_prime(p)
    return _divisor_valuations(lattice_quotient(outer, inner), p)


def _divisor_valuations(X, p):
    _, D, _ = _smith(X, transforms=False)
    return tuple(_valuation(d, p) for d in diagonal(D))


def conductor(inner, outer, p):
    """Sum of the elementary divisor valuations of inner <= outer at p."""
    return sum(elementary_divisors(inner, outer, p))


def check_sandwich(l0, l1, l2, p, n):
    """Divisor bounds for a sandwich p^n L1 <= L0 <= L1 <= L2.

    Returns True iff c_i(L2/L1) <= c_i(L2/L0) <= c_i(L2/L1) + n holds for
    every i. Raises PreconditionFailed when the lattices are not nested
    that way.
    """
    _check_prime(p)
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise PreconditionFailed(f"n must be a non-negative integer, got {n!r}")
    try:  # each argument validated once, in the order of the quotients
        l1 = _square(l1)
        l0 = _square(l0, len(l1))
        x10 = _quotient(l1, l0)
        l2 = _square(l2, len(l1))
        x21 = _quotient(l2, l1)
        _quotient(l0, [[p ** n * x for x in row] for row in l1])
    except (NotASublattice, SingularMatrix) as exc:
        raise PreconditionFailed(f"sandwich precondition fails: {exc}") from exc
    c1 = _divisor_valuations(x21, p)  # c(L2/L1)
    c0 = _divisor_valuations(matmul(x21, x10), p)  # c(L2/L0): L2 X21 X10 = L0
    return all(a <= b <= a + n for a, b in zip(c1, c0))


def chain_complement(v, w):
    """Divisors of M inside N from those of N inside L, for M <= N <= L
    with c(L/M) = v of the shape (0, ..., 0, a, ..., a).

    The complement reverses the nontrivial block: entry i of the tail
    becomes a - w[g - 1 - i].
    """
    v = tuple(v)
    w = tuple(w)
    if len(v) != len(w):
        raise ShapeMismatch("v and w must have the same length")
    if any(not isinstance(x, int) or isinstance(x, bool) for x in v):
        raise ShapeMismatch("v must be a tuple of integers")
    g = len(v)
    zeros = 0
    while zeros < g and v[zeros] == 0:
        zeros += 1
    a = v[zeros] if zeros < g else 0
    if any(x != a for x in v[zeros:]) or a < 0:
        raise ShapeMismatch("v must look like (0, ..., 0, a, ..., a) with a >= 0")
    if any(not isinstance(x, int) or isinstance(x, bool) for x in w):
        raise PreconditionFailed("w must be a tuple of integers")
    if any(w[i] > w[i + 1] for i in range(g - 1)):
        raise PreconditionFailed("w must be non-decreasing")
    if any(not 0 <= w[i] <= v[i] for i in range(g)):
        raise PreconditionFailed("w must satisfy 0 <= w_i <= v_i")
    return tuple([0] * zeros + [a - w[g - 1 - t] for t in range(g - zeros)])


def column_hnf(M):
    """Staircase basis of the column lattice of an integer matrix.

    Returns (columns, pivot_rows): the basis vectors as tuples and the row
    index of each column's leading entry.
    """
    rows = _as_matrix(M)
    r = len(rows)
    cols = [list(col) for col in zip(*rows)]
    t = 0
    pivots = []
    for row in range(r):
        while True:
            active = [j for j in range(t, len(cols)) if cols[j][row] != 0]
            if not active:
                break
            j0 = min(active, key=lambda j: abs(cols[j][row]))
            cols[t], cols[j0] = cols[j0], cols[t]
            done = True
            for j in range(t + 1, len(cols)):
                if cols[j][row] != 0:
                    q = cols[j][row] // cols[t][row]
                    cols[j] = [a - q * b for a, b in zip(cols[j], cols[t])]
                    if cols[j][row] != 0:
                        done = False
            if done:
                break
        if t < len(cols) and cols[t][row] != 0:
            if cols[t][row] < 0:
                cols[t] = [-a for a in cols[t]]
            pivots.append(row)
            t += 1
    return [tuple(c) for c in cols[:t]], pivots


# -- random instances for the verification suites ----------------------------

def random_unimodular(rng, n):
    """Product of random shears and swaps; determinant is +-1. Raises
    PreconditionFailed, before any draw, unless n is a positive int."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise PreconditionFailed(f"n must be a positive integer, got {n!r}")
    U = identity(n)
    for _ in range(8):
        if n > 1:
            # two distinct indices, drawn as rng.sample(range(n), 2) draws
            # them (see the module docstring)
            i = rng.randrange(n)
            if n <= 21:
                j = rng.randrange(n - 1)
                if j == i:
                    j = n - 1
            else:
                j = rng.randrange(n)
                while j == i:
                    j = rng.randrange(n)
            if rng.random() < 0.8:
                c = rng.choice((-2, -1, 1, 2))
                U[i] = [a + c * b for a, b in zip(U[i], U[j])]
            else:
                U[i], U[j] = U[j], U[i]
        if rng.random() < 0.2:
            k = rng.randrange(n)
            U[k] = [-a for a in U[k]]
    return U


def _twisted_diagonal(rng, n, diag):
    """U . diag(diag) . V for random unimodular U and V, drawn in that
    order; the diagonal factor scales the columns of U."""
    U = random_unimodular(rng, n)
    return matmul([[u * d for u, d in zip(row, diag)] for row in U],
                  random_unimodular(rng, n))


def random_sandwich_instance(rng, g, p, n):
    """(l0, l1, l2) with p^n L1 <= L0 <= L1 <= L2, by construction."""
    l2 = random_unimodular(rng, g)
    m1 = _twisted_diagonal(rng, g, [rng.choice([1, p, p * p, rng.randrange(1, 7)])
                                    for _ in range(g)])
    l1 = matmul(l2, m1)
    m0 = _twisted_diagonal(rng, g, [p ** rng.randint(0, n) for _ in range(g)])
    l0 = matmul(l1, m0)
    return l0, l1, l2


def random_complement_instance(rng, g, p):
    """(l1, l2, l3, v) with L1 <= L2 <= L3 and c(L3/L1) = v of the shape
    (0, ..., 0, a, ..., a)."""
    zeros = rng.randint(0, g - 1)
    a = rng.randint(1, 3)
    v = tuple([0] * zeros + [a] * (g - zeros))
    l3 = random_unimodular(rng, g)
    l1 = matmul(l3, _twisted_diagonal(rng, g, [p ** c for c in v]))
    k = rng.randint(1, g)
    T = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(g)]
    extra = matmul(l3, T)
    stacked = [l1[i] + extra[i] for i in range(g)]
    cols, _ = column_hnf(stacked)
    l2 = [[c[i] for c in cols] for i in range(g)]
    return l1, l2, l3, v
