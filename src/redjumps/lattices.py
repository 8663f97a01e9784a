"""Elementary divisor calculus for finite-index sublattices.

A lattice of rank g is given by a square integer matrix whose columns are a
basis. For nested lattices M <= L the basis change L^-1 M is an integer
matrix and the p-adic valuations of its Smith normal form diagonal are the
elementary divisors of the inclusion over Z_p; their sum plays the role of
a conductor. Everything here is exact integer arithmetic: determinants
and basis changes come from fraction-free (Bareiss, Math. Comp. 22 (1968))
elimination. The public functions validate each matrix argument once;
their private cores (_det, _quotient, _matmul, _smith, _divisor_valuations,
_sandwich) take validated rows, and the verification suite calls them on
the matrices it drew itself. _column_hnf has no checked form: its callers
pass rows they built themselves.

smith_normal_form runs its row and column steps on one block matrix B =
[[M, I], [I, 0]] of size 2n and reads every pivot and multiplier off the
top-left block. A row step acts on the first n rows and a column step on the
first n columns, so the other blocks only record them, and B ends as
[[D, U], [V, 0]] with U . M . V = D.

The p-adic valuations of the Smith diagonal come from one elimination
over the local ring Z_(p) (Cohen, GTM 138, section 2.4), without the Smith form:
multiplying a row or a column by an integer prime to p is invertible over
Z_(p) and leaves those valuations as they are. Each step takes the entry
u p^v (p not dividing u) of least valuation in the trailing block to the
corner and clears the column below it by row_i <- u row_i - (c_i / p^v)
row_0, an integer step as v <= v_p(c_i). Clearing the corner's row would
only scale the other columns by u, so the step drops it and keeps the rest
of the block, all of whose entries have valuation >= v. The corner
valuations, in order, are the answer; an all-zero block means X is
singular.

The random instances draw every integer with _values._below: k =
n.bit_length() bits from rng.getrandbits, again while the draw is >= n
(random_unimodular writes that loop out for its own bounds). For a
random.Random that is the draw its randrange, randint and choice make, so
the instances, and the generator's state after each, are the same as
theirs, without the argument handling around it. A generator that
overrides random() but not getrandbits() is not supported: random.Random
would then draw its integers from random() instead. random_unimodular
draws its two distinct indices i, j exactly as rng.sample(range(n), 2)
would. For n <= 21 sample keeps a pool of the n indices: it takes slot i
below n, moves the last index into that slot, and takes slot j below n - 1
of what is left, which holds j unless j = i, when it holds n - 1. For a
larger n it redraws below n until the second index differs from the first.
The generators multiply their own well-formed matrices unchecked, with
_matmul.
"""

from __future__ import annotations

from operator import mul

from ._values import _below, _check_int
from .errors import (NotASublattice, PreconditionFailed, ShapeMismatch,
                     SingularMatrix)


def _as_matrix(M):
    """M as a fresh list of int rows. Raises ShapeMismatch unless M is a
    nonempty iterable of nonempty iterable rows of one length."""
    try:
        rows = [list(r) for r in M]
    except TypeError:  # M or a row is not iterable: refused as empty
        rows = []
    if not rows or not rows[0] or any(len(r) != len(rows[0]) for r in rows):
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
    """A . B for integer matrices given as lists of rows. Raises
    ShapeMismatch when either is not a matrix or the inner dimensions
    differ."""
    A, B = _as_matrix(A), _as_matrix(B)
    if len(A[0]) != len(B):
        raise ShapeMismatch("inner dimensions do not match")
    return _matmul(A, B)


def _matmul(A, B):
    """matmul on well-formed operands, unchecked."""
    cols = list(zip(*B))
    return [[sum(map(mul, row, col)) for col in cols] for row in A]


def det(M):
    """Exact determinant by fraction-free (Bareiss) elimination."""
    return _det(_square(M))


def _det(M):
    """det of a validated square matrix, left unchanged."""
    A = [row[:] for row in M]
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
    and U, V unimodular. M must be square and nonsingular. The steps run
    on B = [[M, I], [I, 0]] (see the module docstring)."""
    return _smith(_square(M))


def _smith(A):
    """smith_normal_form of a validated square matrix, left unchanged."""
    n = len(A)
    E = identity(n)
    B = [a + e for a, e in zip(A, E)] + [e + [0] * n for e in E]
    for t in range(n):
        while True:
            # Bring the smallest nonzero entry of the trailing block, the
            # first in row-major order, to (t, t).
            best = None
            for i in range(t, n):
                row = B[i]
                for j in range(t, n):
                    x = row[j]
                    if x and (best is None or abs(x) < least):
                        best, least = (i, j), abs(x)
            if best is None:  # rank t < n, as unimodular steps keep the rank
                raise SingularMatrix("matrix is singular")
            bi, bj = best
            B[t], B[bi] = B[bi], B[t]
            if bj != t:
                for row in B:
                    row[t], row[bj] = row[bj], row[t]
            top = B[t]
            d = top[t]
            dirty = False
            for i in range(t + 1, n):  # row_i -= q row_t
                if B[i][t]:
                    q = B[i][t] // d
                    B[i] = [a - q * b for a, b in zip(B[i], top)]
                    dirty = dirty or B[i][t] != 0
            for j in range(t + 1, n):  # col_j -= q col_t
                if top[j]:
                    q = top[j] // d
                    for row in B:
                        row[j] -= q * row[t]
                    dirty = dirty or top[j] != 0
            if dirty:
                continue
            # The pivot divides every remaining entry, or the first row
            # holding a non-multiple is added to row t.
            bad = next((B[i] for i in range(t + 1, n)
                        if any(x % d for x in B[i][t + 1:n])), None)
            if bad is None:
                break
            B[t] = [a + b for a, b in zip(top, bad)]
        if B[t][t] < 0:
            B[t] = [-a for a in B[t]]
    return ([row[n:] for row in B[:n]], [row[:n] for row in B[:n]],
            [row[:n] for row in B[n:]])


def diagonal(D):
    return [D[i][i] for i in range(len(D))]


# Miller-Rabin to the first 13 primes as bases decides every n below
# _PRIME_LIMIT (Sorenson-Webster, Math. Comp. 86 (2017)). A base that divides
# n fails its round, so the rounds also do trial division by the bases.
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_LIMIT = 3_317_044_064_679_887_385_961_981


def _check_prime(p):
    if not isinstance(p, int) or p < 2:
        raise PreconditionFailed(f"p must be prime, got {p!r}")
    if p in _BASES:
        return
    if p >= _PRIME_LIMIT:
        raise PreconditionFailed(
            f"p must be below {_PRIME_LIMIT}, got a {p.bit_length()}-bit p")
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d 2^s with d odd
    d = (p - 1) >> s
    for a in _BASES:  # p passes base a iff a^d = 1 or a^(d 2^k) = -1 for a k < s
        if pow(a, d, p) != 1 and all(pow(a, d << k, p) != p - 1 for k in range(s)):
            raise PreconditionFailed(f"p must be prime, got {p!r}")


def elementary_divisors(inner, outer, p):
    """Non-decreasing tuple of p-adic valuations of the elementary divisors
    of the inclusion inner <= outer."""
    _check_prime(p)
    return _divisor_valuations(lattice_quotient(outer, inner), p)


def _divisor_valuations(X, p):
    """The p-adic valuations of the Smith diagonal of a validated square X,
    non-decreasing, by elimination over Z_(p) (see the module docstring).
    Raises SingularMatrix when X is singular."""
    A = [list(row) for row in X]
    out = []
    while A:
        # the entry of least valuation, stopping at the first unit
        best = None
        for i, row in enumerate(A):
            for j, x in enumerate(row):
                if x:
                    v = 0
                    while x % p == 0:
                        x //= p
                        v += 1
                    if best is None or v < best[0]:
                        best = (v, i, j)
                        if not v:
                            break
            if best is not None and not best[0]:
                break
        if best is None:
            raise SingularMatrix("matrix is singular")
        v, i, j = best
        A[0], A[i] = A[i], A[0]
        if j:
            for row in A:
                row[0], row[j] = row[j], row[0]
        # row_i <- u row_i - (c_i / p^v) row_0 clears column 0 below the
        # pivot u p^v; the last block is the rest
        q = p ** v
        top = A[0]
        u = top[0] // q
        A = [[u * x - c * y for x, y in zip(row[1:], top[1:])] if (c := row[0] // q)
             else row[1:] for row in A[1:]]
        out.append(v)
    return tuple(out)


def check_sandwich(l0, l1, l2, p, n):
    """Divisor bounds for a sandwich p^n L1 <= L0 <= L1 <= L2.

    Returns True iff c_i(L2/L1) <= c_i(L2/L0) <= c_i(L2/L1) + n holds for
    every i. Raises PreconditionFailed when the lattices are not nested
    that way.
    """
    _check_prime(p)
    _check_int("n", n, 0)
    return _sandwich(l0, l1, l2, p, n, _square)


def _sandwich(l0, l1, l2, p, n, square=lambda M, rank=None: M):
    """check_sandwich for a prime p and an int n >= 0. square validates
    each lattice once, in the order of the quotients; by default the
    lattices are taken as validated square matrices of one rank."""
    try:
        l1 = square(l1)
        l0 = square(l0, len(l1))
        x10 = _quotient(l1, l0)
        l2 = square(l2, len(l1))
        x21 = _quotient(l2, l1)
        _quotient(l0, [[p ** n * x for x in row] for row in l1])
    except (NotASublattice, SingularMatrix) as exc:
        raise PreconditionFailed(f"sandwich precondition fails: {exc}") from exc
    c1 = _divisor_valuations(x21, p)  # c(L2/L1)
    c0 = _divisor_valuations(_matmul(x21, x10), p)  # c(L2/L0): L2 X21 X10 = L0
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


def _column_hnf(rows):
    """Staircase basis of the column lattice of a nonempty rectangular list
    of int rows, left unchanged. Returns (columns, pivot_rows): the basis
    vectors as tuples and the row index of each column's leading entry."""
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

_SHEARS = (-2, -1, 1, 2)


def random_unimodular(rng, n):
    """Product of random shears and swaps; determinant is +-1. Raises
    PreconditionFailed, before any draw, unless n is a positive int."""
    _check_int("n", n)
    # _below(rng, n), _below(rng, n - 1) and _below(rng, 4) written out:
    # this loop makes nearly all of the instances' draws
    getrandbits, random = rng.getrandbits, rng.random
    kn, kj = n.bit_length(), (n - 1).bit_length()
    U = identity(n)
    for _ in range(8):
        if n > 1:
            # two distinct indices, drawn as rng.sample(range(n), 2) draws
            # them (see the module docstring)
            i = getrandbits(kn)
            while i >= n:
                i = getrandbits(kn)
            if n <= 21:
                j = getrandbits(kj)
                while j >= n - 1:
                    j = getrandbits(kj)
                if j == i:
                    j = n - 1
            else:
                j = _below(rng, n)
                while j == i:
                    j = _below(rng, n)
            if random() < 0.8:
                c = getrandbits(3)
                while c >= 4:
                    c = getrandbits(3)
                c = _SHEARS[c]
                U[i] = [a + c * b for a, b in zip(U[i], U[j])]
            else:
                U[i], U[j] = U[j], U[i]
        if random() < 0.2:
            k = getrandbits(kn)
            while k >= n:
                k = getrandbits(kn)
            U[k] = [-a for a in U[k]]
    return U


def _twisted_diagonal(rng, n, diag):
    """U . diag(diag) . V for random unimodular U and V, drawn in that
    order; the diagonal factor scales the columns of U."""
    U = random_unimodular(rng, n)
    return _matmul([[u * d for u, d in zip(row, diag)] for row in U],
                   random_unimodular(rng, n))


def random_sandwich_instance(rng, g, p, n):
    """(l0, l1, l2) with p^n L1 <= L0 <= L1 <= L2, by construction. Raises
    PreconditionFailed, before any draw, unless g is a positive int and n a
    non-negative one."""
    _check_int("g", g)
    _check_int("n", n, 0)
    l2 = random_unimodular(rng, g)
    # the tuple, and so its last entry, is drawn before the index into it
    diag = [(1, p, p * p, 1 + _below(rng, 6))[_below(rng, 4)] for _ in range(g)]
    l1 = _matmul(l2, _twisted_diagonal(rng, g, diag))
    m0 = _twisted_diagonal(rng, g, [p ** _below(rng, n + 1) for _ in range(g)])
    l0 = _matmul(l1, m0)
    return l0, l1, l2


def random_complement_instance(rng, g, p):
    """(l1, l2, l3, v) with L1 <= L2 <= L3 and c(L3/L1) = v of the shape
    (0, ..., 0, a, ..., a). Raises PreconditionFailed, before any draw,
    unless g is a positive int."""
    _check_int("g", g)
    zeros = _below(rng, g)
    a = 1 + _below(rng, 3)
    v = tuple([0] * zeros + [a] * (g - zeros))
    l3 = random_unimodular(rng, g)
    l1 = _matmul(l3, _twisted_diagonal(rng, g, [p ** c for c in v]))
    k = 1 + _below(rng, g)
    T = [[_below(rng, 7) - 3 for _ in range(k)] for _ in range(g)]
    extra = _matmul(l3, T)
    cols, _ = _column_hnf([l1[i] + extra[i] for i in range(g)])
    l2 = [[c[i] for c in cols] for i in range(g)]
    return l1, l2, l3, v
