"""The jumps kernel against a source outside the paper's formula: the sncd
models of y^n = x^m + pi, n < m coprime, whose spectrum the differential
basis of the good model predicts. These tests need no hypothesis, so they
also run on the oldest supported Python.

Over the tame extension pi = t^(nm), with x = t^n X and y = t^m Y, the
curve becomes Y^n = X^m + 1, of good reduction and genus
(n - 1)(m - 1)/2. Its basis x^i dx/y^j, 1 <= j < n, i >= 0, n(i + 1) < mj,
of differentials is t^(n(i + 1) - mj) times X^i dX/Y^j, which gives the
jump frac(j/n - (i + 1)/m) (Edixhoven, Compositio Math. 81 (1992)). The
kernel reads the jumps off a model instead, so the two agree only if the
paper's formula is right.
"""

from collections import Counter
from fractions import Fraction
from math import gcd

import pytest

from redjumps import ReductionGraph, Vertex, compute_jumps, kodaira_graph, run_checks

from formula_oracle import is_isomorphic

# every coprime pair with 2 <= n <= 15 and n < m <= 29, and one large m
PAIRS = [(n, m) for n in range(2, 16) for m in range(n + 1, 30) if gcd(n, m) == 1]


def hirzebruch_jung(top, first):
    """The chain x_1 = first, x_{k+1} = ceil(x_{k-1}/x_k) x_k - x_{k-1}
    with x_0 = top, up to the last value before 0."""
    chain, before = [], top
    while first:
        chain.append(first)
        before, first = first, -(-before // first) * first - before
    return chain


def superelliptic_star(n, m):
    """The minimal sncd model of y^n = x^m + pi for coprime 2 <= n < m: a
    genus-0 centre c of multiplicity nm with the arm [1] (vertex b) and
    the Hirzebruch-Jung chains of nm over n alpha (t0, t1, ...) and over
    m beta (s0, s1, ...), alpha = -1/n mod m and beta = -1/m mod n, every
    vertex of genus 0. (2, 3) is Kodaira's II."""
    arms = {"t": hirzebruch_jung(n * m, n * (-pow(n, -1, m) % m)),
            "s": hirzebruch_jung(n * m, m * (-pow(m, -1, n) % n))}
    vertices, edges = [Vertex("c", n * m), Vertex("b", 1)], [("b", "c")]
    for arm, chain in arms.items():
        vertices += [Vertex(f"{arm}{k}", x) for k, x in enumerate(chain)]
        edges += [("c", f"{arm}0")] + [(f"{arm}{k}", f"{arm}{k + 1}")
                                       for k in range(len(chain) - 1)]
    return ReductionGraph(vertices, edges, f"y^{n} = x^{m} + pi")


def predicted_spectrum(n, m):
    """The jumps of y^n = x^m + pi by the differential basis, with
    multiplicity."""
    return Counter((Fraction(j, n) - Fraction(i + 1, m)) % 1
                   for j in range(1, n) for i in range(m * j // n + 1) if n * (i + 1) < m * j)


@pytest.mark.parametrize("n, m", PAIRS + [(2, 101)])
def test_the_star_has_the_predicted_spectrum(n, m):
    g = superelliptic_star(n, m)
    assert g.is_minimal() and g.genus() == (n - 1) * (m - 1) // 2
    assert Counter(compute_jumps(g).as_dict()) == predicted_spectrum(n, m)
    assert [name for name, ok in run_checks(g) if not ok] == []


@pytest.mark.parametrize("m", [3, 5, 7, 9, 11, 21, 101])
def test_the_hyperelliptic_arms(m):
    # y^2 = x^m + pi: the arms [1], [m - 1, m - 3, ..., 2] and [m]
    g = superelliptic_star(2, m)
    assert len(g.vertices) == (m + 5) // 2
    assert [v.multiplicity for v in g.vertices] == [2 * m, 1, *range(m - 1, 1, -2), m]


def test_the_first_star_is_kodaira_ii():
    assert is_isomorphic(superelliptic_star(2, 3), kodaira_graph("II"))


def test_y3_is_x4_plus_pi():
    g = superelliptic_star(3, 4)
    assert [v.multiplicity for v in g.vertices] == [12, 1, 3, 8, 4]
    assert compute_jumps(g).as_dict() == {Fraction(1, 12): 1, Fraction(1, 6): 1,
                                          Fraction(5, 12): 1}


@pytest.mark.parametrize("m", [1001, 10001])
def test_the_kernel_reaches_large_genus(m):
    s = compute_jumps(superelliptic_star(2, m))
    assert s.genus == (m - 1) // 2
    assert Counter(s.as_dict()) == predicted_spectrum(2, m)
