"""The blow-ups' path to the one semantic check: ``surgery._blown_up``
builds its result's integer form itself and hands it to
``ReductionGraph._settle``, skipping the constructor's structural pass.
These tests need no hypothesis, so they also run on the oldest supported
Python."""

import pytest

from redjumps import ReductionGraph, Vertex, catalog_graph, catalog_tags, dump_graph
from redjumps import blow_up_edge, blow_up_free_point, random_instance
from redjumps.errors import ValidationError
from redjumps.graph import _Compiled


class Backwards(str):
    """An id of a str subclass whose own order is the reverse of str's and
    whose str() is its text backwards: the constructor orders the ends of
    an edge by str() unless both are exact strs."""

    def __lt__(self, other):
        return str.__gt__(self, other)

    def __le__(self, other):
        return str.__ge__(self, other)

    def __gt__(self, other):
        return str.__lt__(self, other)

    def __ge__(self, other):
        return str.__le__(self, other)

    def __str__(self):
        return str.__str__(self)[::-1]


def assert_as_constructed(r, base=None):
    """r equals the graph the public constructor makes of its vertices,
    edges and name, on every field of the integer form too (``==`` reads
    vertices, edges and name only), and shares no list with base."""
    c = ReductionGraph(r.vertices, r.edges, r.name)
    assert r == c
    assert type(r.edges) is tuple and dump_graph(r) == dump_graph(c)
    for field in _Compiled._fields:
        assert getattr(r._compiled, field) == getattr(c._compiled, field), field
    if base is not None:
        for field in ("index", "N", "genus", "nbrs", "nbr_sum"):
            assert getattr(r._compiled, field) is not getattr(base._compiled, field), field
        assert not {id(ns) for ns in r._compiled.nbrs} & {id(ns) for ns in base._compiled.nbrs}


def with_backwards_ids(g):
    return ReductionGraph([Vertex(Backwards(v.id), v.multiplicity, v.genus) for v in g.vertices],
                          [(Backwards(a), Backwards(b)) for a, b in g.edges], g.name)


def test_backwards_ids_order_against_str():
    a, b = Backwards("ab"), Backwards("b1")
    assert b < a and str(a) > str(b) and str(b) == "1b"


def test_random_instances_are_as_constructed():
    cases = [(s, s % 40) for s in range(300)] + [(s, 192) for s in range(8)] + [(7, 1024)]
    for seed, moves in cases:
        inst = random_instance(seed, moves)
        assert_as_constructed(inst.graph, inst.base)


@pytest.mark.parametrize("tag", catalog_tags())
def test_blow_ups_of_str_subclass_ids_are_as_constructed(tag):
    # the new id b<n> is an exact str and the old ends are not: the ends of
    # the new edges are ordered by str(), as the constructor orders them
    g = with_backwards_ids(catalog_graph(tag))
    for v in g.vertices:
        assert_as_constructed(blow_up_free_point(g, v.id), g)
    for k in range(len(g.edges)):
        assert_as_constructed(blow_up_edge(g, k), g)


class Refusing(str):
    """An id whose str() raises: the constructor keeps every edge of a
    graph with one as it is given."""

    def __str__(self):
        raise RuntimeError("no text")


def test_blow_ups_of_ids_that_refuse_str_are_as_constructed():
    z = Refusing("z")
    g = ReductionGraph([Vertex(z, 1, 1), Vertex("a", 1, 0), Vertex("c", 1, 0)],
                       [(z, "a"), ("c", z)], "refusing")
    assert g.edges == ((z, "a"), ("c", z))
    assert blow_up_free_point(g, "a").edges == ((z, "a"), ("c", z), ("a", "b1"))
    assert blow_up_edge(g, 0).edges == (("c", z), ("a", "b1"), (z, "b1"))
    for h in [blow_up_free_point(g, v.id) for v in g.vertices] + [blow_up_edge(g, k) for k in (0, 1)]:
        assert_as_constructed(h, g)


def integer_form(vertices, edges):
    """The lists the constructor hands ReductionGraph._settle, derived
    anew: the index, the labels and the neighbours of each vertex."""
    index = {v.id: k for k, v in enumerate(vertices)}
    nbrs = [[] for _ in vertices]
    for a, b in edges:
        nbrs[index[a]].append(index[b])
        nbrs[index[b]].append(index[a])
    N = [v.multiplicity for v in vertices]
    return (index, N, [v.genus for v in vertices], nbrs,
            [sum(N[w] for w in ns) for ns in nbrs])


INVALID = {
    "gcd": ([Vertex("a", 2, 1)], []),
    "connected": ([Vertex("a", 1, 1), Vertex("b", 1, 1)], []),
    "self-intersection": ([Vertex("a", 2, 0), Vertex("b", 1, 1)], [("a", "b")]),
    "genus": ([Vertex("a", 1, 0)], []),
    "connected, gcd": ([Vertex("a", 2, 1), Vertex("b", 4, 1)], []),
}


@pytest.mark.parametrize("codes", INVALID)
def test_the_semantic_check_refuses_integer_lists_as_the_constructor(codes):
    vertices, edges = INVALID[codes]
    with pytest.raises(ValidationError) as public:
        ReductionGraph(vertices, edges, "bad")
    with pytest.raises(ValidationError) as shared:
        ReductionGraph.__new__(ReductionGraph)._settle(
            tuple(vertices), tuple(edges), "bad", *integer_form(vertices, edges), [])
    assert [v.code for v in shared.value.violations] == codes.split(", ")
    assert shared.value.violations == public.value.violations
    assert str(shared.value) == str(public.value)


def test_the_semantic_check_settles_valid_integer_lists_as_the_constructor():
    for tag in catalog_tags():
        g = catalog_graph(tag)
        h = ReductionGraph.__new__(ReductionGraph)
        h._settle(g.vertices, g.edges, g.name, *integer_form(g.vertices, g.edges), [])
        assert_as_constructed(h)
