"""The jumps kernel against a source outside the paper's formula: the sncd
models of y^2 = x^m + pi, m odd, whose spectrum the differential basis of
the good model predicts. These tests need no hypothesis, so they also run
on the oldest supported Python.

Over the tame extension pi = t^(2m), with x = t^2 X and y = t^m Y, the
curve becomes Y^2 = X^m + 1, of good reduction and genus (m - 1)/2. Its
basis x^i dx/y, 0 <= i < (m - 1)/2, of differentials is t^(2(i + 1) - m)
times X^i dX/Y, which gives the jump frac((m - 2(i + 1))/(2m)) =
frac(1/2 - (i + 1)/m) (Edixhoven, Compositio Math. 81 (1992)). The kernel
reads the jumps off a model instead, so the two agree only if the paper's
formula is right.
"""

from collections import Counter
from fractions import Fraction

import pytest

from redjumps import ReductionGraph, Vertex, compute_jumps, kodaira_graph, run_checks

from formula_oracle import is_isomorphic


def superelliptic_star(m):
    """The minimal sncd model of y^2 = x^m + pi for odd m >= 3: a genus-0
    centre of multiplicity 2m with the arms [m], [1] and [m - 1, m - 3,
    ..., 2], every vertex of genus 0. m = 3 is Kodaira's II."""
    chain = list(range(m - 1, 1, -2))
    vertices = [Vertex("c", 2 * m), Vertex("a", m), Vertex("b", 1)]
    vertices += [Vertex(f"t{k}", n) for k, n in enumerate(chain)]
    edges = [("a", "c"), ("b", "c"), ("c", "t0")]
    edges += [(f"t{k}", f"t{k + 1}") for k in range(len(chain) - 1)]
    return ReductionGraph(vertices, edges, f"y^2 = x^{m} + pi")


def predicted_spectrum(m):
    """The jumps of y^2 = x^m + pi by the differential basis, with
    multiplicity."""
    half = Fraction(1, 2)
    return Counter((half - Fraction(i + 1, m)) % 1 for i in range((m - 1) // 2))


@pytest.mark.parametrize("m", [3, 5, 7, 9, 11, 21, 101])
def test_the_star_has_the_predicted_spectrum(m):
    g = superelliptic_star(m)
    assert len(g.vertices) == (m + 5) // 2
    assert g.is_minimal() and g.genus() == (m - 1) // 2
    assert Counter(compute_jumps(g).as_dict()) == predicted_spectrum(m)
    assert [name for name, ok in run_checks(g) if not ok] == []


def test_the_first_star_is_kodaira_ii():
    assert is_isomorphic(superelliptic_star(3), kodaira_graph("II"))


@pytest.mark.parametrize("m", [1001, 10001])
def test_the_kernel_reaches_large_genus(m):
    s = compute_jumps(superelliptic_star(m))
    assert s.genus == (m - 1) // 2
    assert Counter(s.as_dict()) == predicted_spectrum(m)
