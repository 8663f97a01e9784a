"""Construction, validation and model surgery on reduction graphs."""

import itertools
import json
import random
import time
from enum import IntEnum
from math import gcd
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from redjumps import ReductionGraph, Vertex
from redjumps import (
    analyze,
    blow_down,
    blow_up_edge,
    blow_up_free_point,
    candidate_values,
    catalog_graph,
    catalog_tags,
    contract_chains,
    dump_graph,
    kodaira_graph,
    minimize,
    parse_document,
    random_instance,
)
from redjumps.errors import (
    NotContractible,
    NotMinimal,
    OverBudget,
    PreconditionFailed,
    ShapeMismatch,
    UnknownEdge,
    UnknownVertex,
    UnsupportedType,
    ValidationError,
    WouldCreateLoop,
)
from redjumps.graph import Violation, _components
from redjumps.jumps import _members_by_denominator, run_checks
from redjumps.lattices import det, elementary_divisors
from redjumps.monoids import (AffineMonoid, SaturationChartCase1, SaturationChartCase2,
                              chart_saturation_index, verify_lemm_coker)
from redjumps.surgery import _blown_up

from blowup_chains import fibonacci_chain
from formula_oracle import contractible, is_isomorphic
from test_surgery import assert_as_constructed


def codes(exc: ValidationError):
    return {v.code for v in exc.violations}


# -- structural validation ---------------------------------------------------

def test_duplicate_vertex_id_rejected():
    with pytest.raises(ValidationError) as e:
        ReductionGraph((Vertex("a", 1), Vertex("a", 2)), ())
    assert "vertex-id" in codes(e.value)
    with pytest.raises(ValidationError) as e:
        ReductionGraph((Vertex(["a"], 1),), ())  # unhashable id
    assert codes(e.value) == {"vertex-id"}


def test_loop_edge_rejected():
    with pytest.raises(ValidationError) as e:
        ReductionGraph((Vertex("a", 1, 1),), (("a", "a"),))
    assert "loop" in codes(e.value)


def test_unknown_edge_endpoint_rejected():
    with pytest.raises(ValidationError) as e:
        ReductionGraph((Vertex("a", 1, 1),), (("a", "b"),))
    assert "edge-endpoint" in codes(e.value)
    # unhashable, unorderable against "a", then not a pair
    for edge in ((["a"], "a"), ("a", 1), ("a",), ("a", "a", "a"), 5):
        with pytest.raises(ValidationError) as e:
            ReductionGraph((Vertex("a", 1, 1),), (edge,))
        assert codes(e.value) == {"edge-endpoint"}


def test_vertex_that_is_not_a_vertex_rejected():
    with pytest.raises(ValidationError) as e:
        ReductionGraph(("a",), ())
    assert codes(e.value) == {"vertex"}
    with pytest.raises(ValidationError) as e:
        ReductionGraph((Vertex("a", 1, 1), ("b", 1, 0)), (("a", "b"),))
    assert codes(e.value) == {"vertex", "edge-endpoint"}


def test_bad_labels_rejected():
    with pytest.raises(ValidationError) as e:
        ReductionGraph((Vertex("a", 0, 1), Vertex("b", 2, -1), Vertex("", 1)), ())
    got = codes(e.value)
    assert {"multiplicity", "genus-label", "vertex-id"} <= got


def test_bool_labels_rejected():
    with pytest.raises(ValidationError) as e:
        ReductionGraph((Vertex("a", True, 1),), ())
    assert "multiplicity" in codes(e.value)


def test_empty_graph_rejected():
    with pytest.raises(ValidationError) as e:
        ReductionGraph((), ())
    assert "empty" in codes(e.value)


def test_edges_are_normalized():
    g = ReductionGraph((Vertex("b", 1, 1), Vertex("a", 1, 1)), (("b", "a"), ("a", "b")))
    assert g.edges == (("a", "b"), ("a", "b"))


def reference_edges(edges):
    """The edge normalization: ends sorted by str(), or every edge as given
    once an edge is no pair or str() refuses an end."""
    try:
        return tuple((a, b) if str(a) <= str(b) else (b, a) for a, b in edges)
    except (TypeError, ValueError):
        return tuple(edges)


def reference_structural_problems(vertices, edges):
    """The structural check as a pass of its own, after the edge
    normalization, as the constructor made it before it checked and
    compiled in one pass: the reference for that pass."""
    vertices, edges = tuple(vertices), reference_edges(edges)
    problems = []
    seen = set()
    for v in vertices:
        if not isinstance(v, Vertex):
            problems.append(Violation("vertex", f"{v!r} is not a Vertex", str(v)))
            continue
        if not isinstance(v.id, str) or not v.id:
            problems.append(Violation("vertex-id", "vertex ids must be non-empty strings", str(v.id)))
        elif v.id in seen:
            problems.append(Violation("vertex-id", f"duplicate vertex id {v.id!r}", v.id))
        if isinstance(v.id, str):
            seen.add(v.id)
        if not isinstance(v.multiplicity, int) or isinstance(v.multiplicity, bool) or v.multiplicity < 1:
            problems.append(Violation("multiplicity", f"vertex {v.id!r} needs integer multiplicity >= 1, got {v.multiplicity!r}", v.id))
        if not isinstance(v.genus, int) or isinstance(v.genus, bool) or v.genus < 0:
            problems.append(Violation("genus-label", f"vertex {v.id!r} needs integer genus >= 0, got {v.genus!r}", v.id))
    if not vertices:
        problems.append(Violation("empty", "graph needs at least one vertex"))
    for k, e in enumerate(edges):
        try:
            a, b = e
        except (TypeError, ValueError):
            problems.append(Violation("edge-endpoint", f"edge #{k} {e!r} is not a pair of vertex ids", str(e)))
            continue
        if not (isinstance(a, str) and a in seen and isinstance(b, str) and b in seen):
            problems.append(Violation("edge-endpoint", f"edge #{k} {a!r}-{b!r} references an unknown vertex", f"{a}-{b}"))
        if a == b:
            problems.append(Violation("loop", f"edge #{k} is a loop at {a!r}; loops are forbidden (resolve the node by a blow-up first)", a))
    return problems


class Name(str):
    """An id of a str subclass: it takes the isinstance tests."""


class Mute(str):
    """An id of a str subclass whose str() raises."""

    def __str__(self):
        raise TypeError("no str()")


class Small(IntEnum):
    ZERO = 0
    ONE = 1
    TWO = 2
    THREE = 3


class Node(Vertex):
    """A Vertex subclass."""

    __slots__ = ()


_NAMES = st.sampled_from("abcd")


@st.composite
def structures(draw):
    """Vertices and edges, malformed in every way the check reports, or
    well formed with subclass ids and labels mixed in."""
    if draw(st.booleans()):  # well formed ids and labels, some of subclass types
        ids = draw(st.lists(_NAMES, min_size=1, max_size=4, unique=True))
        ids = [draw(st.sampled_from((i, Name(i)))) for i in ids]
        label = st.one_of(st.integers(1, 3), st.sampled_from(list(Small)[1:]))
        vertices = [draw(st.sampled_from((Vertex, Node)))(i, draw(label),
                                                          draw(label) - 1) for i in ids]
        pairs = st.tuples(st.sampled_from(ids), st.sampled_from(ids)).filter(lambda e: e[0] != e[1])
        return vertices, draw(st.lists(pairs, max_size=6)) if len(ids) > 1 else []
    vid = st.one_of(_NAMES, _NAMES.map(Name), st.sampled_from(["", Name(""), 0, 2, None, ["a"]]))
    label = st.one_of(st.integers(-1, 3), st.booleans(), st.sampled_from([0.0, 1.0, 2.5]),
                      st.sampled_from(list(Small)))
    vertex = st.one_of(st.builds(Vertex, vid, label, label), st.builds(Node, vid, label, label),
                       st.sampled_from([None, ("a", 1, 0), 3, "a"]))
    end = st.one_of(st.sampled_from("abcdez"), _NAMES.map(Name), st.sampled_from(["", 1, None, ["a"]]))
    edge = st.one_of(st.tuples(end, end), st.lists(end, max_size=3).map(tuple),
                     st.sampled_from([None, 5, "ab", "abc"]))
    return draw(st.lists(vertex, max_size=5)), draw(st.lists(edge, max_size=5))


@settings(max_examples=800, deadline=None)
@example(([Vertex("a", True), Vertex("b", 1.0), Vertex("c", Small.TWO, Small.ONE)], []))
@example(([Vertex(Name("a"), 1), Vertex("", 1), Vertex("a", 1), Vertex(["x"], 1)], []))
@example(([Vertex("a", 1, 1), Vertex("b", 1)], [("zz", "a"), ("b", "b"), ("b", "a")]))
@example(([Vertex("a", 1, 1), Vertex("b", 1)], [("zz", "a"), ("b", "b"), "abc"]))
@example(([], []))
@example(([Vertex("a", 1, 1), Vertex("b", 1)], [(Mute("b"), "a")]))
@example(([Vertex("a", 1, 1), Vertex("b", 1)], [(Mute("b"), "a"), ("zz", "a")]))
@given(structures())
def test_one_pass_check_matches_the_separate_check(case):
    vertices, edges = case
    # the semantics are checked once the structure is sound
    expected = (tuple(reference_structural_problems(vertices, edges))
                or reference_validate(labels(vertices, edges)))
    try:
        g = ReductionGraph(vertices, edges)
    except ValidationError as exc:
        assert exc.violations == expected
        return
    assert expected == ()
    # subclass ids and labels compile to the form exact types give
    exact = ReductionGraph([Vertex(str.__str__(v.id), int(v.multiplicity), int(v.genus))
                            for v in vertices], [(str.__str__(a), str.__str__(b)) for a, b in edges])
    assert repr(g._compiled) == repr(exact._compiled)
    assert g.edges == reference_edges(edges)


# -- semantic validation ------------------------------------------------------

def test_disconnected_graph_reported():
    with pytest.raises(ValidationError) as e:
        ReductionGraph((Vertex("a", 1, 1), Vertex("b", 1, 1)), ())
    assert codes(e.value) == {"connected"}


def test_gcd_violation_reported():
    with pytest.raises(ValidationError) as e:
        ReductionGraph((Vertex("a", 2, 1),), ())
    assert codes(e.value) == {"gcd"}


def test_nonintegral_self_intersection_reported():
    # neighbour sum at b is 1, not divisible by 2
    with pytest.raises(ValidationError) as e:
        ReductionGraph((Vertex("a", 1), Vertex("b", 2)), (("a", "b"),))
    assert codes(e.value) == {"self-intersection"}
    assert [v.where for v in e.value.violations] == ["b"]


def test_genus_zero_reported():
    with pytest.raises(ValidationError) as e:
        ReductionGraph((Vertex("a", 1, 0),), ())
    assert codes(e.value) == {"genus"}


def test_constructor_accepts_plain_iterables():
    g = ReductionGraph([Vertex("a", 1, 1)], [], name="point")
    assert g.name == "point"
    assert g.vertices == (Vertex("a", 1, 1),) and g.edges == ()


def test_a_name_that_is_not_a_string_is_refused():
    # dump_graph would write it and parse_document refuse it; a list would
    # make the graph unhashable
    for name in (5, ["x"], None, 10 ** 5000):
        with pytest.raises(ValidationError) as e:
            ReductionGraph([Vertex("a", 1, 1)], [], name=name)
        assert codes(e.value) == {"name"}
        assert len(str(e.value)) <= 200
    with pytest.raises(ValidationError) as e:
        ReductionGraph([Vertex("a", 1, 1)], [], name=["x"])
    assert str(e.value) == "name: graph name must be a string, got ['x']"
    assert e.value.violations[0].where == "['x']"


def test_documents_round_trip(corpus):
    for item in corpus:
        for g in (item.inst.graph, item.minimized):
            assert parse_document(dump_graph(g)) == g, item.seed


class Unprintable:
    """An object whose repr() and str() raise."""

    def __repr__(self):
        raise RuntimeError("no repr")

    __str__ = __repr__


def test_huge_integers_are_refused_in_short_messages():
    # an int past the 4300 digits str() converts is named by its bit length,
    # and a tuple holding one by its type
    huge = 10 ** 5000
    # a valid graph whose largest multiplicity is wider than 128 bits
    heavy = fibonacci_chain("II", 200)
    assert max(v.multiplicity for v in heavy.vertices).bit_length() > 128
    ii, line = kodaira_graph("II"), AffineMonoid([(1, 0)])
    cases = [
        (lambda: ReductionGraph([Vertex("a", -huge)], []), ValidationError),
        (lambda: ReductionGraph([Vertex("a", 1, -huge)], []), ValidationError),
        (lambda: catalog_graph(huge), UnsupportedType),
        # gcd, a non-integral E^2, and connectivity, gcd and genus
        (lambda: ReductionGraph([Vertex("v0", huge)], []), ValidationError),
        (lambda: ReductionGraph([Vertex("a", huge), Vertex("b", 1)], [("a", "b")]),
         ValidationError),
        (lambda: ReductionGraph([Vertex("v0", huge), Vertex("v1", huge)], []), ValidationError),
        (lambda: candidate_values(heavy), OverBudget),
        (lambda: random_instance(0, -huge), PreconditionFailed),
        (lambda: elementary_divisors([[1]], [[1]], -huge), PreconditionFailed),
        *((lambda f=f: f(huge), UnknownVertex) for f in (
            ii.vertex, ii.degree, ii.neighbors, ii.multiplicity, ii.self_intersection,
            lambda v: blow_up_free_point(ii, v), lambda v: blow_down(ii, v))),
        (lambda: blow_up_edge(ii, huge), UnknownEdge),
        (lambda: blow_up_edge(ii, -huge), UnknownEdge),
        (lambda: SaturationChartCase1(3, huge), PreconditionFailed),
        (lambda: SaturationChartCase2(3, 2, huge), PreconditionFailed),
        (lambda: AffineMonoid([(1, -huge)]), PreconditionFailed),
        (lambda: line.contains((huge, 0)), PreconditionFailed),
        (lambda: line.is_saturated(huge), PreconditionFailed),
        (lambda: verify_lemm_coker(line, (1, 0), 1, huge), PreconditionFailed),
        (lambda: verify_lemm_coker(line, (1, 0), huge, 2), PreconditionFailed),
    ]
    unprintable = [  # a tuple with a huge entry, refused whole
        (lambda: line.contains((huge, 2.5)), PreconditionFailed),
        (lambda: line.group_contains((huge, 2.5)), PreconditionFailed),
        (lambda: verify_lemm_coker(line, (huge, 0.5), 2, 2), PreconditionFailed),
        (lambda: det([[1, (huge,)]]), ShapeMismatch),
        (lambda: chart_saturation_index((huge,)), PreconditionFailed),
    ]
    for k, (call, kind) in enumerate(cases + unprintable):
        with pytest.raises(kind) as e:
            call()
        shown = "-bit int>" if k < len(cases) else "<unprintable tuple>"
        assert shown in str(e.value) and len(str(e.value)) <= 200, k
    with pytest.raises(ValidationError) as e:
        ReductionGraph([Vertex("v0", huge), Vertex("v1", huge)], [])
    messages = [v.message for v in e.value.violations]
    assert "gcd of multiplicities is <16610-bit int>, must be 1" in messages
    assert "derived genus -<16611-bit int> < 1" in messages
    # the constructor's refusals, where the huge int may be an id, a
    # non-Vertex or (inside) an edge end, and an object whose repr raises
    refusals = [
        (lambda: ReductionGraph([Vertex(huge, 1)], []), "<16610-bit int>"),
        (lambda: ReductionGraph((huge,), ()), "<16610-bit int>"),
        (lambda: ReductionGraph([Vertex("a", 1, 1)], [("a", huge)]), "a-<16610-bit int>"),
        (lambda: ReductionGraph([Vertex("a", 1, 1)], [(("x", huge), "a")]),
         "<unprintable tuple>-a"),
        (lambda: ReductionGraph([Vertex("a", 1, 1)], [("x", huge, "a")]), "<unprintable tuple>"),
        (lambda: ReductionGraph([Unprintable()], []), "<unprintable Unprintable>"),
        (lambda: ReductionGraph([Vertex("a", 1, 1)], [(Unprintable(), "a")]),
         "<unprintable Unprintable>-a"),
    ]
    for k, (call, where) in enumerate(refusals):
        with pytest.raises(ValidationError) as e:
            call()
        assert e.value.violations[0].where == where, k
        assert len(str(e.value)) <= 200, k


# -- derived geometry ---------------------------------------------------------

def test_self_intersections_on_star():
    g = kodaira_graph("II")
    assert g.self_intersection("c") == -1
    assert sorted(g.self_intersection(t) for t in ("t1", "t2", "t3")) == [-6, -3, -2]


def test_unknown_vertex_raises():
    g = kodaira_graph("II")
    with pytest.raises(UnknownVertex):
        g.vertex("zz")
    with pytest.raises(UnknownVertex):
        g.degree("zz")


@pytest.mark.parametrize("vid", [["c"], {"c": 1}, {"c"}, 5, None, ("c",)])
def test_vertex_lookups_refuse_what_is_not_a_vertex_id(vid):
    # an unhashable id raised a bare TypeError from the id dictionaries
    g = kodaira_graph("II")
    for lookup in (g.vertex, g.degree, g.multiplicity, g.neighbors,
                   lambda v: blow_up_free_point(g, v), lambda v: blow_down(g, v)):
        with pytest.raises(UnknownVertex):
            lookup(vid)


def test_genus_of_catalog_entries():
    for tag in catalog_tags():
        g = catalog_graph(tag)
        expected = 2 if tag == "genus2" else 1
        assert g.genus() == expected, tag


def test_first_betti():
    assert kodaira_graph("I5").first_betti() == 1
    assert kodaira_graph("I1res").first_betti() == 1
    assert kodaira_graph("II").first_betti() == 0


def test_multiplicity_lcm():
    assert kodaira_graph("II").multiplicity_lcm() == 6
    assert kodaira_graph("I3*").multiplicity_lcm() == 2
    assert kodaira_graph("I4").multiplicity_lcm() == 1


def test_principal_components():
    assert kodaira_graph("II").principal_components() == {"c"}
    assert kodaira_graph("I5").principal_components() == set()
    assert catalog_graph("genus2").principal_components() == {"c"}


def test_stabilization_index():
    assert kodaira_graph("II").stabilization_index() == 6
    assert kodaira_graph("I5").stabilization_index() == 1
    assert kodaira_graph("I0*").stabilization_index() == 2
    assert catalog_graph("genus2").stabilization_index() == 2


def test_stabilization_index_requires_minimal_model():
    g = blow_up_free_point(kodaira_graph("II"), "c")
    with pytest.raises(NotMinimal):
        g.stabilization_index()


def tail_end(g, v0):
    """The first principal component on the genus-0 chain from tail v0."""
    prev, cur = v0, g.neighbors(v0)[0]
    while cur not in g.principal_components():
        assert g.vertex(cur).genus == 0 and g.degree(cur) == 2, (v0, cur)
        prev, cur = cur, [w for w in g.neighbors(cur) if w != prev][0]
    return cur


def test_tails_end_on_a_proper_multiple():
    # on a minimal model a genus-0 tail of multiplicity N_0 > 1 meets b N_0,
    # b >= 2, so its chain rises in multiples of N_0 to a principal component
    assert tail_end(kodaira_graph("II"), "t1") == tail_end(kodaira_graph("II"), "t2") == "c"
    assert tail_end(kodaira_graph("III*"), "a1_1") == "c"
    assert tail_end(kodaira_graph("II*"), "a2_2") == "c"  # two steps from the center
    for tag in catalog_tags():
        g = catalog_graph(tag)
        for v in g.vertices:
            if v.genus == 0 and g.degree(v.id) == 1 and v.multiplicity > 1:
                n = g.multiplicity(tail_end(g, v.id))
                assert n % v.multiplicity == 0 and n > v.multiplicity, (tag, v.id)


# -- blow-ups and blow-downs --------------------------------------------------

def test_blow_up_free_point_shape():
    g = kodaira_graph("II")
    h = blow_up_free_point(g, "c")
    assert h.ids[-1] == "b1"
    assert h.multiplicity("b1") == 6
    assert h.vertex("b1").genus == 0
    assert h.degree("b1") == 1
    assert h.genus() == g.genus()
    assert not h.is_minimal()


def test_blow_up_edge_shape():
    g = kodaira_graph("II")
    h = blow_up_edge(g, g.edges.index(("c", "t1")))
    assert h.ids[-1] == "b1"
    assert h.multiplicity("b1") == 9
    assert sorted(h.neighbors("b1")) == ["c", "t1"]
    assert ("c", "t1") not in h.edges
    assert h.genus() == g.genus()


def test_blow_up_edge_by_index():
    g = kodaira_graph("I2")
    h = blow_up_edge(g, 0)
    assert len(h.vertices) == 3
    assert h.genus() == 1


def test_blow_up_unknown_targets():
    g = kodaira_graph("II")
    with pytest.raises(UnknownVertex):
        blow_up_free_point(g, "zz")
    with pytest.raises(UnknownEdge):
        blow_up_edge(g, ("t1", "t2"))
    with pytest.raises(UnknownEdge):
        blow_up_edge(g, 99)


@pytest.mark.parametrize("edge", [True, False, 1.5, None, ("c",), ("c", "t1"), ["c", "t1"],
                                  ("t1", "c"), ("c", "t1", "t2"), ("c", 1), "ct",
                                  {"c", "t1"}, -1, 3])
def test_blow_up_edge_refuses_what_is_not_an_edge(edge):
    # an edge is a position in g.edges, an int but not a bool: True is not
    # edge 1, an endpoint pair is no position, and the rest raised
    # TypeError or IndexError
    g = kodaira_graph("II")
    with pytest.raises(UnknownEdge):
        blow_up_edge(g, edge)


def test_blow_down_inverts_blow_ups():
    g = kodaira_graph("III")
    assert blow_down(blow_up_free_point(g, "c"), "b1") == g
    assert is_isomorphic(blow_down(blow_up_edge(g, g.edges.index(("c", "t1"))), "b1"), g)


def test_blow_down_rejects_non_exceptional():
    g = kodaira_graph("II")
    with pytest.raises(NotContractible):
        blow_down(g, "t1")  # E^2 = -2
    star = catalog_graph("genus2")
    with pytest.raises(NotContractible):
        blow_down(star, "c")  # genus 1


# the messages blow_down gave before the surgery form moved to vertex indices
NEED = "need genus 0, degree 1 or 2, self-intersection -1"
REFUSALS = [
    (kodaira_graph("II"), "t1", NotContractible,
     f"vertex 't1': {NEED} (got genus 0, degree 1, E^2 -2)"),
    (catalog_graph("genus2"), "c", NotContractible,
     f"vertex 'c': {NEED} (got genus 1, degree 2, E^2 -1)"),
    (kodaira_graph("I0"), "e", NotContractible,
     f"vertex 'e': {NEED} (got genus 1, degree 0, E^2 0)"),
    # a -1 curve meeting three others
    (ReductionGraph([Vertex("c", 3), Vertex("t1", 1), Vertex("t2", 1), Vertex("t3", 1)],
                    [("c", "t1"), ("c", "t2"), ("c", "t3")]), "c", NotContractible,
     f"vertex 'c': {NEED} (got genus 0, degree 3, E^2 -1)"),
    (catalog_graph("I1"), "b", WouldCreateLoop,
     "vertex 'b' has both edges to 'u'; contraction would create a node"),
    (kodaira_graph("II"), "zz", UnknownVertex, "no vertex 'zz'"),
    (kodaira_graph("II"), ["c"], UnknownVertex, "no vertex ['c']"),
]


@pytest.mark.parametrize("g, v, error, message", REFUSALS)
def test_blow_down_refusals_keep_their_messages(g, v, error, message):
    with pytest.raises(error) as caught:
        blow_down(g, v)
    assert str(caught.value) == message


def test_blow_down_refuses_to_create_loop():
    # u and b joined by two parallel edges; b is exceptional but its
    # contraction would close a loop at u, so the graph is already minimal.
    g = ReductionGraph([Vertex("u", 1, 0), Vertex("b", 2, 0)], [("u", "b"), ("u", "b")])
    assert g.genus() == 1
    with pytest.raises(WouldCreateLoop):
        blow_down(g, "b")
    assert minimize(g) == g and g.is_minimal()


def test_minimize_round_trip():
    g = kodaira_graph("IV*")
    h = blow_up_free_point(g, "c")  # b1
    h = blow_up_edge(h, h.edges.index(("b1", "c")))  # b2
    h = blow_up_free_point(h, "b2")
    assert not h.is_minimal()
    assert is_isomorphic(minimize(h), g)


def test_minimize_of_minimal_is_identity():
    g = kodaira_graph("II*")
    assert minimize(g) is g


def fresh(g):
    """An equal graph object with nothing cached, so minimize runs anew."""
    return ReductionGraph(g.vertices, g.edges, g.name)


def test_minimize_runs_once_per_graph(worklist_runs):
    g = random_instance(3, 40).graph
    assert not g.is_minimal()
    worklist_runs.clear()
    m = minimize(g)
    assert worklist_runs == [g]
    assert minimize(g) is m and worklist_runs == [g]
    assert minimize(m) is m and minimize(minimize(g)) is m
    assert worklist_runs == [g]  # a minimal graph is recognised on its integer form
    # the cache answers for the graph object, not for equal graphs
    assert minimize(fresh(g)) == m and len(worklist_runs) == 2


def test_one_classification_per_graph(classified):
    # every reader of the vertex classes reads the compiled form its graph
    # was built with: analyzing and checking a non-minimal graph classifies
    # one more graph, its minimal model, once
    g = random_instance(3, 40).graph
    classified.clear()
    analyze(g)
    run_checks(g)
    m = minimize(g)
    assert contract_chains(minimize(g)) == contract_chains(m)
    assert not g.is_minimal() and m.is_minimal()
    assert m.principal_components() <= g.principal_components()
    analyze(g, with_checks=True)
    assert classified == [m] and classified[0] is m
    classified.clear()
    run_checks(fresh(g))
    assert len(classified) == 2


def test_minimize_is_linear_on_a_star_of_tails():
    # contracting a tail edits no neighbour list: with one list.remove per
    # tail on the centre's list this takes seconds
    n = 50_000
    centre = Vertex("c", 1, 1)
    g = ReductionGraph([centre] + [Vertex(f"t{k}", 1) for k in range(n)],
                       [("c", f"t{k}") for k in range(n)])
    start = time.perf_counter()
    m = minimize(g)
    assert time.perf_counter() - start < 2
    assert m.vertices == (centre,) and m.edges == ()


def test_minimize_keeps_no_reference_cycle():
    # a graph keeps its minimal model alive; a minimal graph caches None,
    # not itself
    g = blow_up_free_point(kodaira_graph("II"), "c")
    m = minimize(g)
    assert vars(g)["_minimal"] is m
    assert minimize(m) is m and vars(m)["_minimal"] is None


def test_catalog_entries_are_minimal():
    for tag in catalog_tags():
        assert catalog_graph(tag).is_minimal(), tag


# -- the worklist minimize against the rescan loop it replaced ----------------

def reference_minimize(g):
    """After every contraction, test every vertex again and contract the
    lexicographically smallest contractible one."""
    assert reference_validate(g) == ()
    while True:
        eligible = contractible(g)
        if not eligible:
            return g
        g = blow_down(g, min(eligible))


def shuffled_relabelling(g, rng):
    """g with fresh random ids, in shuffled vertex and edge order."""
    names = rng.sample(range(10 * len(g.vertices)), len(g.vertices))
    new = {v.id: f"x{n}" for v, n in zip(g.vertices, names)}
    verts = [Vertex(new[v.id], v.multiplicity, v.genus) for v in g.vertices]
    edges = [(new[a], new[b]) for a, b in g.edges]
    rng.shuffle(verts)
    rng.shuffle(edges)
    return ReductionGraph(verts, edges, g.name)


def assert_minimize_matches(g, label):
    h = fresh(g)
    m = minimize(h)
    # graphs are equal when their vertex and edge tuples are, order included
    assert m == reference_minimize(fresh(g)), label
    assert (m is h) == h.is_minimal(), label


def test_minimize_matches_the_rescan_loop(corpus):
    rng = random.Random(0)
    for item in corpus:
        g = item.inst.graph
        assert item.minimized == reference_minimize(fresh(g)), item.seed
        assert_minimize_matches(g, item.seed)
        assert_minimize_matches(shuffled_relabelling(g, rng), item.seed)


def test_minimize_matches_the_rescan_loop_on_large_graphs():
    rng = random.Random(1)
    for seed in range(8):  # the bushy benchmark graphs
        assert_minimize_matches(shuffled_relabelling(random_instance(seed, 192).graph, rng), seed)


@pytest.mark.parametrize("tag", catalog_tags())
def test_minimize_matches_the_rescan_loop_on_fibonacci_chains(tag):
    rng = random.Random(tag)
    for depth in (1, 4, 12):
        g = fibonacci_chain(tag, depth)
        assert_minimize_matches(g, (tag, depth))
        assert_minimize_matches(shuffled_relabelling(g, rng), (tag, depth))


def test_surgery_validates_once(monkeypatch):
    # _settle is the one semantic check: every move runs it once on its
    # result, and minimize runs it on nothing for a minimal graph
    settled, settle = [], ReductionGraph._settle

    def counting_settle(self, *args):
        settled.append(self)
        settle(self, *args)

    graph, ii = random_instance(7, 1024).graph, kodaira_graph("II")
    monkeypatch.setattr(ReductionGraph, "_settle", counting_settle)
    inst = random_instance(7, 1024)
    assert settled == [inst.graph]  # once, after the last move
    g = blow_up_free_point(ii, "c")
    h = blow_up_edge(g, 0)
    k = blow_down(h, "b1")
    assert settled[1:] == [g, h, k]
    m = minimize(h)
    assert settled[4:] == [m]
    settled.clear()
    assert minimize(m) is m and minimize(ii) is ii and minimize(graph) is not graph
    assert len(settled) == 1  # the minimal model of graph


# -- the one derived form against the id-keyed accessors it replaced ---------

def reference_adjacency(g):
    adj = {v.id: [] for v in g.vertices}
    for a, b in g.edges:
        adj[a].append(b)
        adj[b].append(a)
    return adj


def reference_nbr_sum(g, vid):
    by_id = {v.id: v for v in g.vertices}
    return sum(by_id[w].multiplicity for w in reference_adjacency(g)[vid])


def reference_neighbors(g, vid):
    return reference_adjacency(g)[vid]


def reference_degree(g, vid):
    return len(reference_adjacency(g)[vid])


def reference_self_intersection(g, vid):
    n, s = {v.id: v for v in g.vertices}[vid].multiplicity, reference_nbr_sum(g, vid)
    return -(s // n)


def reference_components(g, members):
    """Connected components of the subgraph induced on the ids in members."""
    adj, seen, count = reference_adjacency(g), set(), 0
    for i in members:
        if i in seen:
            continue
        count += 1
        seen.add(i)
        stack = [i]
        while stack:
            for w in adj[stack.pop()]:
                if w in members and w not in seen:
                    seen.add(w)
                    stack.append(w)
    return count


def labels(vertices, edges):
    """The vertices and edges as the reference functions read a graph."""
    return SimpleNamespace(vertices=tuple(vertices), edges=tuple(edges))


def reference_validate(g):
    """The violations the semantic check finds in the labels of g, any
    object with vertices and edges, such as :func:`labels`: () if none."""
    problems = []
    if reference_components(g, {v.id for v in g.vertices}) != 1:
        problems.append(Violation("connected", "graph is not connected"))
    d = gcd(*(v.multiplicity for v in g.vertices))
    if d != 1:
        problems.append(Violation("gcd", f"gcd of multiplicities is {d}, must be 1"))
    bad_div, twice = False, 0
    for v in g.vertices:
        s = reference_nbr_sum(g, v.id)
        twice += v.multiplicity * (2 * v.genus - 2) + s
        if s % v.multiplicity != 0:
            bad_div = True
            problems.append(Violation(
                "self-intersection",
                f"vertex {v.id!r}: multiplicity {v.multiplicity} does not divide "
                f"the sum {s} of neighbouring multiplicities", v.id))
    if not bad_div:
        if twice % 2 != 0:
            problems.append(Violation("genus-parity", f"adjunction sum {twice} is odd"))
        elif 1 + twice // 2 < 1:
            problems.append(Violation("genus", f"derived genus {1 + twice // 2} < 1"))
    return tuple(problems)


def reference_genus(g):
    twice = sum(v.multiplicity * (2 * v.genus - 2 - reference_self_intersection(g, v.id))
                for v in g.vertices)
    return 1 + twice // 2


def reference_is_minimal(g):
    return not contractible(g)


def reference_principal_components(g):
    return {v.id for v in g.vertices if v.genus >= 1 or reference_degree(g, v.id) >= 3}


def assert_matches_reference(g):
    assert reference_validate(g) == ()
    assert g.genus() == reference_genus(g)
    for v in g.vertices:
        assert g.self_intersection(v.id) == reference_self_intersection(g, v.id)
        assert g.degree(v.id) == reference_degree(g, v.id)
        assert g.neighbors(v.id) == reference_neighbors(g, v.id)
    assert g.is_minimal() == reference_is_minimal(g)
    assert g.principal_components() == reference_principal_components(g)


def test_compiled_form_matches_the_id_keyed_accessors(corpus):
    rng = random.Random(2)
    for item in corpus:
        for g in (item.inst.graph, item.minimized, shuffled_relabelling(item.inst.graph, rng)):
            assert_matches_reference(g)


# those of the semantic-validation tests: disconnected, gcd 2, non-integral
# E^2 and genus 0; then N = 2 and 3 on one edge, where neither E^2 is integral
INVALID_GRAPHS = [
    ((Vertex("a", 1, 1), Vertex("b", 1, 1)), ()),
    ((Vertex("a", 2, 1),), ()),
    ((Vertex("a", 1), Vertex("b", 2)), (("a", "b"),)),
    ((Vertex("a", 1, 0),), ()),
    ((Vertex("a", 2), Vertex("b", 3)), (("a", "b"),)),
]


def assert_constructs_as_the_reference_says(vertices, edges):
    """The constructor refuses (vertices, edges) with the violations of
    reference_validate, or, when that is empty, builds a graph that matches
    the reference."""
    expected = reference_validate(labels(vertices, edges))
    if not expected:
        assert_matches_reference(ReductionGraph(vertices, edges))
        return
    with pytest.raises(ValidationError) as e:
        ReductionGraph(vertices, edges)
    assert e.value.violations == expected, (vertices, edges)


def test_compiled_form_matches_on_invalid_graphs():
    for vertices, edges in INVALID_GRAPHS:
        assert reference_validate(labels(vertices, edges))
        assert_constructs_as_the_reference_says(vertices, edges)
    # every labelling of up to three vertices with N <= 4, a genus-1 first
    # vertex or not, and up to three parallel edges per pair: the reference
    # reaches each of its branches here but the odd adjunction sum, which no
    # integral labelling has (see ReductionGraph.__init__)
    for n in (1, 2, 3):
        ids = "abc"[:n]
        pairs = list(itertools.combinations(ids, 2))
        for Ns in itertools.product(range(1, 5), repeat=n):
            for ga, repeats in itertools.product((0, 1), itertools.product(range(4), repeat=len(pairs))):
                vertices = [Vertex(i, N, ga if i == "a" else 0) for i, N in zip(ids, Ns)]
                edges = [p for p, r in zip(pairs, repeats) for _ in range(r)]
                assert_constructs_as_the_reference_says(vertices, edges)


@pytest.mark.parametrize("vertices, edges", INVALID_GRAPHS)
def test_invalid_graphs_are_refused_at_construction_and_parse(vertices, edges):
    # no invalid graph object exists: the constructor and parse_document
    # raise the same violations, so no derived geometry or move meets one
    with pytest.raises(ValidationError) as built:
        ReductionGraph(vertices, edges)
    doc = json.dumps({"format": "reduction-graph/1",
                      "vertices": [{"id": v.id, "multiplicity": v.multiplicity,
                                    "genus": v.genus} for v in vertices],
                      "edges": [list(e) for e in edges]})
    with pytest.raises(ValidationError) as parsed:
        parse_document(doc)
    assert parsed.value.violations == built.value.violations and built.value.violations
    assert str(parsed.value) == str(built.value)


def test_terms_components_match_the_id_keyed_search(corpus):
    for item in corpus:
        g = item.inst.graph
        c = g._compiled
        for d, members in _members_by_denominator(c, range(len(c.N))).items():
            ids = {g.vertices[i].id for i in members}
            assert _components(c.nbrs, members) == reference_components(g, ids), (item.seed, d)


def test_fresh_ids_reuse_a_contracted_id():
    # a new vertex comes last, named by the smallest free "b<n>"
    g1 = blow_up_free_point(kodaira_graph("II"), "c")
    g2 = blow_up_free_point(g1, "c")
    assert [g1.ids[-1], g2.ids[-1]] == ["b1", "b2"]
    g3 = blow_up_free_point(blow_down(g2, "b1"), "t1")
    g4 = blow_up_free_point(g3, "t1")
    assert [g3.ids[-1], g4.ids[-1]] == ["b1", "b3"]


def taken_b_ids():
    """Type II with its centre called b3 and one tail b1."""
    return ReductionGraph([Vertex("b3", 6), Vertex("a", 3), Vertex("b1", 2), Vertex("t", 1)],
                          [("b3", "a"), ("b3", "b1"), ("b3", "t")])


def test_fresh_ids_skip_the_taken_ones():
    g = taken_b_ids()
    g1 = blow_up_free_point(g, "a")
    g2 = blow_up_free_point(g1, "b3")
    assert [g1.ids[-1], g2.ids[-1]] == ["b2", "b4"]
    assert blow_up_edge(g2, 0).ids[-1] == "b5"


@st.composite
def move_sequences(draw):
    """A start graph and moves for it: a blow-up adds one vertex and one
    edge, so move t of a graph with V vertices and E edges sees V + t and
    E + t of them."""
    g = draw(st.sampled_from([catalog_graph(tag) for tag in (*catalog_tags(), "I1")]
                             + [taken_b_ids()]))
    V, E = len(g.vertices), len(g.edges)
    moves = []
    for t in range(draw(st.integers(0, 12))):
        if E + t and draw(st.booleans()):
            moves.append(("edge", draw(st.integers(0, E + t - 1))))
        else:
            moves.append(("free", draw(st.integers(0, V + t - 1))))
    return g, moves


@settings(deadline=None, max_examples=300)
@given(move_sequences())
def test_a_batch_of_moves_is_the_fold_of_the_public_blow_ups(case):
    # the batch form random_instance uses, on ids that include b<n> names;
    # == reads no field of the integer form that _blown_up builds itself,
    # so each result is also held to the constructor's on every field
    g, moves = case
    h = g
    for kind, x in moves:
        h = blow_up_free_point(h, h.vertices[x].id) if kind == "free" else blow_up_edge(h, x)
    r = _blown_up(g, moves)
    assert r == h
    assert_as_constructed(r, g)
    assert_as_constructed(h)


def test_blow_up_edge_keeps_the_edge_order():
    # the blown-up edge leaves its place; the new vertex's two edges come
    # last, the one to the end whose id sorts first before the other
    g = blow_up_free_point(blow_up_free_point(kodaira_graph("IV*"), "c"), "a2_1")
    for a, b in [("a1_1", "c"), ("a2_1", "b2"), ("b1", "c")]:
        k = g.edges.index((a, b))
        h = blow_up_edge(g, k)
        new = tuple(tuple(sorted((end, "b3"))) for end in (a, b))
        assert h.edges == g.edges[:k] + g.edges[k + 1:] + new
    # either of two parallel edges can be named, and both give one graph
    g = kodaira_graph("I1res")
    assert g.edges[0] == g.edges[1]
    assert blow_up_edge(g, 1) == blow_up_edge(g, 0)


# -- chain contraction and tail domination ------------------------------------

def test_contract_chains_examples():
    assert contract_chains(kodaira_graph("II")) == ([1, 2, 3, 6], 6)
    assert contract_chains(kodaira_graph("III*")) == ([1, 1, 2, 4], 4)
    assert contract_chains(kodaira_graph("I5")) == ([1, 1, 1, 1, 1], 1)
    i1 = ReductionGraph([Vertex("u", 1, 0), Vertex("b", 2, 0)], [("u", "b"), ("u", "b")])
    assert contract_chains(i1) == ([1, 2], 1)
    assert contract_chains(catalog_graph("genus2")) == ([1, 1, 2], 2)


def test_contract_chains_requires_minimal_model():
    with pytest.raises(NotMinimal):
        contract_chains(blow_up_free_point(kodaira_graph("II"), "c"))


# -- isomorphism ---------------------------------------------------------------

def test_isomorphism_ignores_ids_but_not_labels():
    g = kodaira_graph("IV")
    relabeled = ReductionGraph(
        [Vertex("x", 3, 0), Vertex("p", 1, 0), Vertex("q", 1, 0), Vertex("r", 1, 0)],
        [("x", "p"), ("x", "q"), ("x", "r")],
    )
    assert is_isomorphic(g, relabeled)
    assert not is_isomorphic(g, kodaira_graph("III"))
    assert not is_isomorphic(g, kodaira_graph("I3"))


def unlabelled(edges):
    """A graph of the given edges, every vertex labelled (1, 0)."""
    ids = sorted({x for e in edges for x in e})
    return ReductionGraph(tuple(Vertex(x, 1, 0) for x in ids), tuple(edges))


K33 = [(a, b) for a in "abc" for b in "xyz"]
PRISM = [("a", "b"), ("b", "c"), ("a", "c"), ("x", "y"), ("y", "z"), ("x", "z"),
         ("a", "x"), ("b", "y"), ("c", "z")]


def test_isomorphism_finds_shuffled_relabellings(corpus):
    rng = random.Random(2)
    for item in corpus:
        for g in (item.inst.graph, item.minimized):
            assert is_isomorphic(g, shuffled_relabelling(g, rng)), item.seed


def test_isomorphism_separates_what_colour_refinement_cannot():
    # both are 3-regular on six vertices with one label, so every vertex
    # keeps one colour; the prism has triangles, K3,3 has none
    k33, prism = unlabelled(K33), unlabelled(PRISM)
    assert not is_isomorphic(k33, prism) and not is_isomorphic(prism, k33)
    rng = random.Random(3)
    for g in (k33, prism):
        assert is_isomorphic(g, shuffled_relabelling(g, rng))


def test_isomorphism_reads_labels_sizes_and_edge_multiplicities():
    # a changed genus keeps a graph valid; a changed multiplicity would not
    g = kodaira_graph("III*")
    for k, v in enumerate(g.vertices):
        verts = g.vertices[:k] + (Vertex(v.id, v.multiplicity, v.genus + 1),) + g.vertices[k + 1:]
        h = ReductionGraph(verts, g.edges)
        assert not is_isomorphic(g, h) and not is_isomorphic(h, g), v
    # every vertex has degree 4 in both, so colour refinement keeps one
    # colour: the doubled 4-cycle against K4 with a doubled perfect matching
    square = [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")]
    k4 = square + [("a", "c"), ("b", "d")]
    doubled, matched = unlabelled(square * 2), unlabelled(k4 + [("a", "b"), ("c", "d")])
    assert doubled.genus() == matched.genus() == 5
    assert not is_isomorphic(doubled, matched) and not is_isomorphic(matched, doubled)
    # one simple graph, every vertex of degree 4 in both: the doubled rungs
    # lie on no triangle, the doubled ab and xy do
    rungs = unlabelled(PRISM + [("a", "x"), ("b", "y"), ("c", "z")])
    sides = unlabelled(PRISM + [("a", "b"), ("x", "y"), ("c", "z")])
    assert not is_isomorphic(rungs, sides) and not is_isomorphic(sides, rungs)
    assert not is_isomorphic(kodaira_graph("I3"), kodaira_graph("I4"))
    assert not is_isomorphic(unlabelled(K33), unlabelled(K33[:-1]))


# -- randomized surgery --------------------------------------------------------

@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 10_000), moves=st.integers(0, 10))
def test_random_surgery_preserves_validity_and_genus(seed, moves):
    g = random_instance(seed, moves).graph
    assert reference_validate(g) == ()
    h = minimize(g)
    assert reference_validate(h) == ()
    assert h.genus() == g.genus()
    assert h.first_betti() == g.first_betti()
    assert len(h.vertices) <= len(g.vertices)
