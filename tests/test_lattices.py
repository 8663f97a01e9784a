"""Exact integer lattice calculus: Smith form, divisors, sandwich bounds.

The Smith normal form cases were frozen from an independent hand/row-
reduction computation before the implementation existed.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redjumps.errors import (
    NotASublattice,
    PreconditionFailed,
    ShapeMismatch,
    SingularMatrix,
)
from redjumps.lattices import (
    chain_complement,
    check_sandwich,
    column_hnf,
    conductor,
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


def test_elementary_divisors_examples():
    assert elementary_divisors([[4, 0], [0, 8]], identity(2), 2) == (2, 3)
    assert elementary_divisors([[2, 1], [0, 2]], identity(2), 2) == (0, 2)
    # p-parts of diag(6, 12)
    assert elementary_divisors([[6, 0], [0, 12]], identity(2), 2) == (1, 2)
    assert elementary_divisors([[6, 0], [0, 12]], identity(2), 3) == (1, 1)
    assert elementary_divisors([[6, 0], [0, 12]], identity(2), 5) == (0, 0)
    assert elementary_divisors(identity(3), identity(3), 7) == (0, 0, 0)


def test_conductor_sums_valuations():
    assert conductor([[4, 0], [0, 8]], identity(2), 2) == 5
    assert conductor(identity(2), identity(2), 3) == 0


def test_prime_is_validated():
    with pytest.raises(PreconditionFailed):
        elementary_divisors(identity(2), identity(2), 4)
    with pytest.raises(PreconditionFailed):
        conductor(identity(2), identity(2), 1)
    with pytest.raises(PreconditionFailed):  # too large for a float square root
        elementary_divisors(identity(2), identity(2), 10**400)


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


def test_column_hnf():
    cols, pivots = column_hnf([[2, 0, 1], [0, 2, 1]])
    assert pivots == [0, 1]
    # the span has index 2 in Z^2: the staircase determinant is +-2
    a, b = cols
    assert abs(a[0] * b[1] - a[1] * b[0]) == 2
    cols, pivots = column_hnf([[0, 0], [0, 0]])
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


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 4))
def test_smith_normal_form_properties(seed, n):
    rng = random.Random(seed)
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
