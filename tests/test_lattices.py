"""Exact integer lattice calculus: Smith form, divisors, sandwich bounds.

The Smith normal form cases were frozen from an independent hand/row-
reduction computation before the implementation existed.
"""

import hashlib
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redjumps.errors import (
    NotASublattice,
    PreconditionFailed,
    RedjumpsError,
    ShapeMismatch,
    SingularMatrix,
)
from redjumps import lattices, verify
from redjumps.lattices import (
    _column_hnf,
    _divisor_valuations,
    _twisted_diagonal,
    chain_complement,
    check_sandwich,
    det,
    diagonal,
    elementary_divisors,
    identity,
    lattice_quotient,
    matmul,
    random_complement_instance,
    random_sandwich_instance,
    random_unimodular,
    smith_normal_form,
)

# (matrix, smith diagonal, determinant) frozen oracle cases
SNF_CASES = [
    ([[2, 4], [6, 8]], (2, 4), -8),
    ([[2, 4, 4], [-6, 6, 12], [10, -4, -16]], (2, 6, 12), -144),
    ([[1, 0], [0, 1]], (1, 1), 1),
    ([[2, 0], [0, 3]], (1, 6), 6),
    ([[6, 0, 0], [0, 10, 0], [0, 0, 15]], (1, 30, 30), 900),
    ([[3, 1, 2], [0, 5, 7], [0, 0, 11]], (1, 1, 165), 165),
    ([[-4, 2], [2, -4]], (2, 6), 12),
]


def unimodular(M):
    return det(M) in (1, -1)


@pytest.mark.parametrize("matrix,diag,expected_det", SNF_CASES)
def test_smith_normal_form_oracle(matrix, diag, expected_det):
    U, D, V = smith_normal_form(matrix)
    assert diagonal(D) == list(diag)
    assert unimodular(U) and unimodular(V)
    assert matmul(matmul(U, matrix), V) == D
    assert det(matrix) == expected_det
    # invariant factors divide in order and multiply to |det|
    ds = diagonal(D)
    for a, b in zip(ds, ds[1:]):
        assert b % a == 0
    prod = 1
    for d in ds:
        prod *= d
    assert prod == abs(expected_det)


def test_smith_normal_form_rejects_singular_and_nonsquare():
    for singular in ([[1, 2], [2, 4]], [[1, 2, 3], [4, 5, 6], [5, 7, 9]]):
        with pytest.raises(SingularMatrix):
            smith_normal_form(singular)
    with pytest.raises(ShapeMismatch):
        smith_normal_form([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ShapeMismatch):
        smith_normal_form([[1, 2], [3, "x"]])


def test_lattice_quotient():
    assert lattice_quotient(identity(2), [[2, 0], [0, 3]]) == [[2, 0], [0, 3]]
    # inner not contained in outer
    with pytest.raises(NotASublattice):
        lattice_quotient([[2, 0], [0, 2]], identity(2))
    with pytest.raises(SingularMatrix):
        lattice_quotient([[1, 1], [1, 1]], identity(2))


# -- the fraction-free solve against the cofactor route it replaced -----------

def reference_square(M):
    rows = [list(r) for r in M]
    if (not rows or any(len(r) != len(rows) for r in rows)
            or any(not isinstance(x, int) or isinstance(x, bool)
                   for r in rows for x in r)):
        raise ShapeMismatch("not a square integer matrix")
    return rows


def reference_quotient(outer, inner):
    """The adjugate as n^2 cofactor determinants, applied to inner and
    divided exactly by det(outer)."""
    outer, inner = reference_square(outer), reference_square(inner)
    n = len(outer)
    if len(inner) != n:
        raise ShapeMismatch("lattices must have the same rank")
    d = det(outer)
    if d == 0:
        raise SingularMatrix("outer basis matrix is singular")
    adj = [[1]] if n == 1 else [
        [(-1) ** (i + j) * det([row[:i] + row[i + 1:] for r, row in enumerate(outer) if r != j])
         for j in range(n)] for i in range(n)]
    X = []
    for row in matmul(adj, inner):
        if any(x % d for x in row):
            raise NotASublattice("inner lattice is not inside the outer one")
        X.append([x // d for x in row])
    return X


def reference_divisors(inner, outer, p):
    return valuations(reference_quotient(outer, inner), p)


def reference_sandwich(l0, l1, l2, p, n):
    try:
        x10 = reference_quotient(l1, l0)
        x21 = reference_quotient(l2, l1)
        reference_quotient(l0, [[p ** n * x for x in row] for row in l1])
    except (NotASublattice, SingularMatrix) as exc:
        raise PreconditionFailed(str(exc)) from exc
    c1, c0 = valuations(x21, p), valuations(matmul(x21, x10), p)
    return all(a <= b <= a + n for a, b in zip(c1, c0))


def valuations(X, p):
    """p-adic valuations of the Smith form diagonal of X."""
    out = []
    for x in diagonal(smith_normal_form(X)[1]):
        v = 0
        while x % p == 0:
            x //= p
            v += 1
        out.append(v)
    return tuple(out)


def outcome(f, *args):
    try:
        return f(*args)
    except RedjumpsError as exc:
        return type(exc)


def random_square(rng, n, entries):
    flat = rng.choices(entries, k=n * n)
    return [flat[i:i + n] for i in range(0, n * n, n)]


def quotient_cases(rng, count):
    """(outer, inner) pairs: planted sublattices, arbitrary right-hand
    sides, singular outers, sparse ones that force row swaps, and shapes
    that must be refused."""
    dense, sparse = range(-9, 10), (-1, 0, 0, 0, 1, 2)
    malformed = ([], [[]], [[1, 2], [3]], [[1, 2, 3], [4, 5, 6]], [[1, True], [0, 1]],
                 [[1.0, 0], [0, 1]], [[1, "x"], [0, 1]], identity(3))
    for k in range(count):
        n = rng.randint(1, 5)
        outer = random_square(rng, n, sparse if k % 3 == 0 else dense)
        kind = k % 5
        if kind == 0:  # planted: inner = outer . X
            inner = matmul(outer, random_square(rng, n, range(-4, 5)))
        elif kind == 1 and n > 1:  # singular outer: one row a multiple of another
            i, j = rng.sample(range(n), 2)
            c = rng.choice((1, 2, -1))
            outer[i] = [c * x for x in outer[j]]
            inner = random_square(rng, n, dense)
        elif kind == 2:  # one wrong entry in a planted inner
            inner = matmul(outer, random_square(rng, n, range(-4, 5)))
            inner[rng.randrange(n)][rng.randrange(n)] += rng.choice((-1, 1))
        else:
            inner = random_square(rng, n, dense)
        if k % 50 == 0:  # a malformed argument on either side
            bad = rng.choice(malformed)
            outer, inner = (bad, inner) if rng.random() < 0.5 else (outer, bad)
        yield outer, inner


def test_quotient_matches_the_cofactor_route():
    rng = random.Random(20260819)
    for k, (outer, inner) in enumerate(quotient_cases(rng, 20_000)):
        expected = outcome(reference_quotient, outer, inner)
        assert outcome(lattice_quotient, outer, inner) == expected, (outer, inner)
        if k % 4 == 0:
            p = rng.choice((2, 3, 5))
            assert (outcome(elementary_divisors, inner, outer, p)
                    == outcome(reference_divisors, inner, outer, p)), (outer, inner, p)


def test_sandwich_matches_the_cofactor_route():
    rng = random.Random(20260820)
    for k in range(1_000):
        g, p, n = rng.randint(1, 4), rng.choice((2, 3, 5)), rng.randint(0, 3)
        l0, l1, l2 = random_sandwich_instance(rng, g, p, n)
        if k % 4 == 1:  # out of order: l1 need not lie in l0
            l0, l1 = l1, l0
        elif k % 4 == 2:  # one lattice replaced, possibly by a singular or odd-rank one
            lattices = [l0, l1, l2]
            lattices[rng.randrange(3)] = random_square(
                rng, rng.choice((g, g, g + 1)), (-1, 0, 0, 1, 2))
            l0, l1, l2 = lattices
        assert (outcome(check_sandwich, l0, l1, l2, p, n)
                == outcome(reference_sandwich, l0, l1, l2, p, n)), (l0, l1, l2, p, n)


def test_elementary_divisors_examples():
    assert elementary_divisors([[4, 0], [0, 8]], identity(2), 2) == (2, 3)
    assert elementary_divisors([[2, 1], [0, 2]], identity(2), 2) == (0, 2)
    # p-parts of diag(6, 12)
    assert elementary_divisors([[6, 0], [0, 12]], identity(2), 2) == (1, 2)
    assert elementary_divisors([[6, 0], [0, 12]], identity(2), 3) == (1, 1)
    assert elementary_divisors([[6, 0], [0, 12]], identity(2), 5) == (0, 0)
    assert elementary_divisors(identity(3), identity(3), 7) == (0, 0, 0)


def test_conductor_sums_valuations():
    assert sum(elementary_divisors([[4, 0], [0, 8]], identity(2), 2)) == 5
    assert sum(elementary_divisors(identity(2), identity(2), 3)) == 0


def test_prime_is_validated():
    for p in (4, 1, 0, -7, True, 2.0):
        with pytest.raises(PreconditionFailed, match="must be prime"):
            elementary_divisors(identity(2), identity(2), p)
    # 43^2, Carmichael numbers and strong pseudoprimes to the first bases
    for p in (1849, 561, 41041, 3215031751, 3825123056546413051,
              318665857834031151167461):
        with pytest.raises(PreconditionFailed, match="must be prime"):
            elementary_divisors(identity(2), identity(2), p)
    for p in (2, 3, 5, 41, 43, 2**31 - 1, 10**14 + 31, 2**61 - 1):
        assert elementary_divisors(identity(2), identity(2), p) == (0, 0)
    limit = lattices._PRIME_LIMIT
    for p in (limit, 2**89 - 1, 10**400):  # 2^89 - 1 is prime, but above the limit
        with pytest.raises(PreconditionFailed, match=f"below {limit}"):
            elementary_divisors(identity(2), identity(2), p)


def test_check_prime_agrees_with_trial_division():
    for p in range(2, 20_000):
        prime = all(p % q for q in range(2, math.isqrt(p) + 1))
        try:
            lattices._check_prime(p)
        except PreconditionFailed:
            assert not prime, p
        else:
            assert prime, p


def test_check_sandwich_accepts_a_true_chain():
    l2 = identity(2)
    l1 = [[2, 0], [0, 1]]
    l0 = [[4, 0], [0, 2]]
    assert check_sandwich(l0, l1, l2, 2, 1)


def test_check_sandwich_rejects_broken_chains():
    l2 = identity(2)
    with pytest.raises(PreconditionFailed):
        check_sandwich(identity(2), [[2, 0], [0, 2]], l2, 2, 1)  # l0 not in l1
    with pytest.raises(PreconditionFailed):
        check_sandwich([[4, 0], [0, 4]], identity(2), l2, 2, 1)  # p l1 not in l0
    with pytest.raises(PreconditionFailed):
        check_sandwich([[1, 1], [1, 1]], identity(2), l2, 2, 1)  # singular
    for n in (True, 1.0, -1):  # n must be a non-negative integer
        with pytest.raises(PreconditionFailed):
            check_sandwich([[4, 0], [0, 2]], [[2, 0], [0, 1]], l2, 2, n)


def test_chain_complement_examples():
    assert chain_complement((0, 0, 2, 2), (0, 0, 1, 2)) == (0, 0, 0, 1)
    assert chain_complement((3, 3, 3), (1, 2, 3)) == (0, 1, 2)
    assert chain_complement((0, 5), (0, 5)) == (0, 0)


def test_chain_complement_validates_shapes():
    with pytest.raises(ShapeMismatch):
        chain_complement((0, 1, 2), (0, 0, 0))  # not of the form (0^z, a^(g-z))
    with pytest.raises(ShapeMismatch):
        chain_complement((0, 0.5), (0, 0))
    with pytest.raises(ShapeMismatch):
        chain_complement((0, 2), (0, 1, 1))
    with pytest.raises(PreconditionFailed):
        chain_complement((0, 2, 2), (0, 2, 1))  # w not non-decreasing
    with pytest.raises(PreconditionFailed):
        chain_complement((0, 2, 2), (0, 1, 3))  # w exceeds v
    with pytest.raises(PreconditionFailed):
        chain_complement((0, 2), (0, 1.0))  # w not of integers


def test_column_hnf():
    cols, pivots = _column_hnf([[2, 0, 1], [0, 2, 1]])
    assert pivots == [0, 1]
    # the span has index 2 in Z^2: the staircase determinant is +-2
    a, b = cols
    assert abs(a[0] * b[1] - a[1] * b[0]) == 2
    cols, pivots = _column_hnf([[0, 0], [0, 0]])
    assert cols == [] and pivots == []


# -- randomized properties at unit scale (the acceptance suite runs the volume) --

@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 4))
def test_random_unimodular_is_unimodular(seed, n):
    assert unimodular(random_unimodular(random.Random(seed), n))


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 10_000), g=st.integers(1, 4),
       p=st.sampled_from([2, 3, 5]), n=st.integers(0, 3))
def test_random_sandwich_instances_pass(seed, g, p, n):
    l0, l1, l2 = random_sandwich_instance(random.Random(seed), g, p, n)
    assert check_sandwich(l0, l1, l2, p, n)


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 10_000), g=st.integers(1, 4), p=st.sampled_from([2, 3, 5]))
def test_random_complement_instances_match(seed, g, p):
    l1, l2, l3, v = random_complement_instance(random.Random(seed), g, p)
    w = elementary_divisors(l1, l2, p)
    assert elementary_divisors(l2, l3, p) == chain_complement(v, w)


@settings(deadline=None, max_examples=80)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 6), twisted=st.booleans())
def test_smith_normal_form_properties(seed, n, twisted):
    rng = random.Random(seed)
    if twisted:  # U . diag . V with the diagonal carrying up to p^5
        p = rng.choice((2, 3, 5, 7))
        M = _twisted_diagonal(rng, n, [rng.choice((1, p, p ** 5, p ** rng.randint(0, 5)))
                                       for _ in range(n)])
    else:
        M = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)]
        if det(M) == 0:
            return
    U, D, V = smith_normal_form(M)
    assert unimodular(U) and unimodular(V)
    assert matmul(matmul(U, M), V) == D
    ds = diagonal(D)
    assert all(d > 0 for d in ds)
    for a, b in zip(ds, ds[1:]):
        assert b % a == 0
    assert math.prod(ds) == abs(det(M))


# -- the Smith form without its transforms ----------------------------------------

def gate_matrices(rng, count):
    """Nonsingular matrices drawn as criterion 09 draws its Smith forms, and
    the basis changes of its sandwich instances."""
    for _ in range(count):
        d = 0
        while d == 0:
            g = rng.randint(1, 4)
            M = [[rng.randrange(-9, 10) for _ in range(g)] for _ in range(g)]
            d = det(M)
        yield M
        g, p, n = rng.randint(1, 4), rng.choice((2, 3, 5)), rng.randint(0, 3)
        l0, l1, l2 = random_sandwich_instance(rng, g, p, n)
        yield lattice_quotient(l2, l1)
        yield lattice_quotient(l2, l0)


def test_divisor_valuations_match_the_full_smith_form():
    rng = random.Random(20261018)
    for M in gate_matrices(rng, 1_000):
        for p in (2, 3, 5, 7):
            assert _divisor_valuations(M, p) == valuations(M, p), (M, p)
    # ranks 5 and 6, dense and twisted, the diagonals carrying up to p^5
    # next to units and other primes
    for _ in range(150):
        g, p = rng.randint(5, 6), rng.choice((2, 3, 5, 7))
        diag = [rng.choice((1, p, p ** 5, rng.choice((2, 3, 5, 7)) * p ** rng.randint(0, 5)))
                for _ in range(g)]
        M = random_square(rng, g, range(-9, 10))
        for X in ([M] if det(M) else []) + [_twisted_diagonal(rng, g, diag)]:
            for q in (2, 3, 5, 7):
                assert _divisor_valuations(X, q) == valuations(X, q), (X, q)


def test_divisor_valuations_refuse_singular_matrices():
    for singular in ([[0]], [[1, 2], [2, 4]], [[1, 2, 3], [4, 5, 6], [5, 7, 9]]):
        with pytest.raises(SingularMatrix):
            _divisor_valuations(singular, 2)


# -- the instance draws, pinned to the sample-based generators they replaced ------

def reference_random_unimodular(rng, n, steps=8):
    """random_unimodular as it drew its indices with rng.sample."""
    U = identity(n)
    for _ in range(steps):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if n > 1 and rng.random() < 0.8:
            c = rng.choice([-2, -1, 1, 2])
            U[i] = [a + c * b for a, b in zip(U[i], U[j])]
        elif n > 1:
            U[i], U[j] = U[j], U[i]
        if rng.random() < 0.2:
            k = rng.randrange(n)
            U[k] = [-a for a in U[k]]
    return U


def reference_matmul(A, B):
    n, k, m = len(A), len(B), len(B[0])
    if len(A[0]) != k:
        raise ShapeMismatch("inner dimensions do not match")
    return [[sum(A[i][t] * B[t][j] for t in range(k)) for j in range(m)]
            for i in range(n)]


def reference_twisted_diagonal(rng, n, diag):
    """U . diag . V with the diagonal as a full matrix, U drawn first."""
    return reference_matmul(
        reference_matmul(reference_random_unimodular(rng, n),
                         [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]),
        reference_random_unimodular(rng, n))


def test_random_unimodular_draws_as_sample_drew():
    # sample keeps a pool of the indices up to n = 21 and redraws past it
    cases = [(seed, n) for seed in range(300) for n in (1, 2, 3, 4)]
    cases += [(seed, n) for seed in range(5) for n in (5, 8, 21, 22, 23, 40)]
    for seed, n in cases:
        new, old = random.Random(seed), random.Random(seed)
        for _ in range(3):
            assert random_unimodular(new, n) == reference_random_unimodular(old, n), (seed, n)
            assert new.getstate() == old.getstate(), (seed, n)
            diag = [new.randint(-9, 9) for _ in range(n)]
            old.setstate(new.getstate())
            assert (_twisted_diagonal(new, n, diag)
                    == reference_twisted_diagonal(old, n, diag)), (seed, n)
            assert new.getstate() == old.getstate(), (seed, n)


def suite_draws(count, suite_count=10_000):
    """(g, p, n, instance) for the first count sandwich instances and (g, p,
    instance) for the first count complement instances of
    lattice_suite(20260819, suite_count), in its draw order: by default
    criterion 09's suite."""
    rng = random.Random(20260819)
    sandwiches, complements = [], []
    for k in range(suite_count):
        g, p, n = rng.randint(1, 4), rng.choice((2, 3, 5)), rng.randint(0, 3)
        instance = random_sandwich_instance(rng, g, p, n)
        if k < count:
            sandwiches.append((g, p, n, instance))
    for _ in range(count):
        g, p = rng.randint(1, 4), rng.choice((2, 3, 5))
        complements.append((g, p, random_complement_instance(rng, g, p)))
    return sandwiches, complements, rng.getstate()


def test_instances_draw_as_the_sample_based_generators_drew(monkeypatch):
    # criterion 09's draw order at a tenth of its count
    new = suite_draws(1_000, 1_000)
    monkeypatch.setattr(lattices, "random_unimodular", reference_random_unimodular)
    monkeypatch.setattr(lattices, "_twisted_diagonal", reference_twisted_diagonal)
    monkeypatch.setattr(lattices, "_matmul", reference_matmul)
    assert suite_draws(1_000, 1_000) == new


def test_criterion_09_instances_are_pinned():
    # sha256 of the first 2,000 instances of each kind, taken from the
    # sample-based generators before they were replaced
    sandwiches, complements, _ = suite_draws(2_000)
    digests = [hashlib.sha256("".join(map(repr, kind)).encode()).hexdigest()
               for kind in (sandwiches, complements)]
    assert digests == [
        "44a0034b6daa262692494e879c99a3851dbba815d86022c4e9ebd9c66b766597",
        "51e8529fb62170e7dc4710ede8a0c4401e7a44647dd67cf8fd6e7483db6d87f3",
    ]


def test_lattice_suite_checks_the_pinned_draws(monkeypatch):
    # the pin above hashes suite_draws, this file's copy of the suite's
    # draw order: the instances lattice_suite hands its tally, the sizes it
    # draws them with, and the generator's state after the last complement
    # are held to that copy here, and its snf matrices to randint and
    # randrange draws from that state (the checks themselves are not run)
    checked, sizes = [], []

    def sandwich(rng, g, p, n):
        sizes.append((g, p, n))
        return random_sandwich_instance(rng, g, p, n)

    def complement(rng, g, p):
        sizes.append((g, p))
        instance = random_complement_instance(rng, g, p)
        sizes.append(rng.getstate())
        return instance

    monkeypatch.setattr(lattices, "random_sandwich_instance", sandwich)
    monkeypatch.setattr(lattices, "random_complement_instance", complement)
    monkeypatch.setattr(verify._Tally, "check",
                        lambda tally, name, instance, predicate: checked.append((name, instance)))
    verify.lattice_suite(20260819, 1_000)
    sandwiches, complements, state = suite_draws(1_000, 1_000)
    assert checked[:1_000] == [("sandwich", (*inst, p, n)) for _, p, n, inst in sandwiches]
    assert checked[1_000:2_000] == [("complement", (*inst, p)) for _, p, inst in complements]
    assert sizes[:1_000] == [(g, p, n) for g, p, n, _ in sandwiches]
    assert sizes[1_000::2] == [(g, p) for g, p, _ in complements]
    assert sizes[-1] == state
    rng, matrices = random.Random(), []  # then the nonsingular snf matrices
    rng.setstate(state)
    while len(matrices) < 1_000:
        g = rng.randint(1, 4)
        M = [[rng.randrange(-9, 10) for _ in range(g)] for _ in range(g)]
        if det(M):
            matrices.append(("snf", M))
    assert checked[2_000:] == matrices


def test_random_unimodular_refuses_a_rank_under_one_before_any_draw():
    for n in (0, -1, -5, 2.0, True, "3", None):
        rng = random.Random(7)
        state = rng.getstate()
        with pytest.raises(PreconditionFailed):
            random_unimodular(rng, n)
        assert rng.getstate() == state, n


def test_instance_generators_refuse_bad_sizes_before_any_draw():
    bad_g, bad_n = (0, -1, 2.0, True, "3", None), (-1, 1.0, True, "0", None)
    bad_p = (0, 1, 4, -3, 2.5, True)
    calls = [lambda rng, g=g: random_complement_instance(rng, g, 2) for g in bad_g]
    calls += [lambda rng, g=g: random_sandwich_instance(rng, g, 2, 1) for g in bad_g]
    calls += [lambda rng, n=n: random_sandwich_instance(rng, 2, 2, n) for n in bad_n]
    calls += [lambda rng, p=p: random_complement_instance(rng, 2, p) for p in bad_p]
    calls += [lambda rng, p=p: random_sandwich_instance(rng, 2, p, 1) for p in bad_p]
    for k, call in enumerate(calls):
        rng = random.Random(7)
        state = rng.getstate()
        with pytest.raises(PreconditionFailed):
            call(rng)
        assert rng.getstate() == state, k


def test_matmul_refuses_malformed_operands():
    A = [[1, 2], [3, 4]]
    assert matmul(A, [[1], [1]]) == [[3], [7]]
    assert matmul([[1, 2, 3]], [[1], [2], [3]]) == [[14]]
    for left, right in [([], A), (A, []), ([[]], A), (A, [[], []]),  # empty
                        ([[1, 2], [3]], A), ([[1], [3, 4]], A),  # ragged left
                        (A, [[1, 2], [3]]), (A, [[1], [3, 4]]),  # ragged right
                        (A, [[1, 2, 3]]), (A, [[1], [2], [3]]),  # inner dimensions
                        ([[1, 2, 3], [4, 5, 6]], A),
                        ([[1.5]], [[2]]), ([[2]], [[True]]),  # entries
                        ([[1]], [1]), (5, A), (A, 5), (None, A)]:  # not a matrix
        with pytest.raises(ShapeMismatch):
            matmul(left, right)


@pytest.mark.parametrize("bad", [5, None, [1, 2], [[]], [[], []], [[1, 2], [3]],
                                 [[1.5]], [[True]], ["ab"]])
def test_public_functions_refuse_what_is_not_an_integer_matrix(bad):
    good = [[1]]
    for call in (lambda: det(bad), lambda: matmul(bad, good), lambda: matmul(good, bad),
                 lambda: lattice_quotient(bad, good), lambda: lattice_quotient(good, bad),
                 lambda: smith_normal_form(bad),
                 lambda: elementary_divisors(bad, good, 2),
                 lambda: elementary_divisors(good, bad, 2)):
        with pytest.raises(ShapeMismatch):
            call()
