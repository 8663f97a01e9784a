"""Construction, validation and model surgery on reduction graphs."""

import itertools
import random
import time
from enum import IntEnum
from functools import cached_property
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from redjumps import ReductionGraph, Vertex
from redjumps import (
    blow_down,
    blow_up_edge,
    blow_up_free_point,
    build,
    candidate_values,
    catalog_graph,
    catalog_tags,
    contract_chains,
    floor_divisor,
    genus2_example,
    is_isomorphic,
    jump_multiplicity,
    kodaira_graph,
    minimize,
    random_instance,
    seed_graphs,
)
from redjumps.errors import (
    InconsistentGeometry,
    NonIntegralSelfIntersection,
    NotContractible,
    NotMinimal,
    OverBudget,
    PreconditionFailed,
    UnknownEdge,
    UnknownVertex,
    UnsupportedType,
    ValidationError,
    WouldCreateLoop,
)
from redjumps.graph import ValidationReport, Violation, _components
from redjumps.jumps import _members_by_denominator, run_checks
from redjumps.lattices import elementary_divisors

from blowup_chains import fibonacci_chain


def codes(exc: ValidationError):
    return {v.code for v in exc.report.violations}


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
    expected = reference_structural_problems(vertices, edges)
    try:
        g = ReductionGraph(vertices, edges)
    except ValidationError as exc:
        assert exc.report == ValidationReport(False, tuple(expected))
        return
    assert expected == []
    # subclass ids and labels compile to the form exact types give
    exact = ReductionGraph([Vertex(str.__str__(v.id), int(v.multiplicity), int(v.genus))
                            for v in vertices], [(str.__str__(a), str.__str__(b)) for a, b in edges])
    assert repr(g._compiled) == repr(exact._compiled)
    assert g.edges == reference_edges(edges)


# -- semantic validation ------------------------------------------------------

def test_disconnected_graph_reported():
    g = ReductionGraph((Vertex("a", 1, 1), Vertex("b", 1, 1)), ())
    report = g.validate()
    assert not report.ok
    assert {v.code for v in report.violations} == {"connected"}


def test_gcd_violation_reported():
    g = ReductionGraph((Vertex("a", 2, 1),), ())
    got = {v.code for v in g.validate().violations}
    assert "gcd" in got


def test_nonintegral_self_intersection_reported():
    # neighbour sum at b is 1, not divisible by 2
    g = ReductionGraph((Vertex("a", 1), Vertex("b", 2)), (("a", "b"),))
    got = {v.code for v in g.validate().violations}
    assert "self-intersection" in got
    with pytest.raises(NonIntegralSelfIntersection):
        g.self_intersection("b")


def test_genus_zero_reported():
    g = ReductionGraph((Vertex("a", 1, 0),), ())
    got = {v.code for v in g.validate().violations}
    assert got == {"genus"}


def test_build_raises_on_semantic_violation():
    with pytest.raises(ValidationError) as e:
        build([Vertex("a", 2, 1)], [])
    assert "gcd" in codes(e.value)


def test_build_accepts_plain_iterables():
    g = build([Vertex("a", 1, 1)], [], name="point")
    assert g.name == "point"
    assert g.validate().ok


class Unprintable:
    """An object whose repr() and str() raise."""

    def __repr__(self):
        raise RuntimeError("no repr")

    __str__ = __repr__


def test_huge_integers_are_refused_in_short_messages():
    # an int past the 4300 digits str() converts is named by its bit length
    huge = 10 ** 5000
    one, two = (ReductionGraph([Vertex(f"v{k}", huge) for k in range(n)], []) for n in (1, 2))
    wide = ReductionGraph([Vertex("a", huge), Vertex("b", 1)], [("a", "b")])
    cases = [
        (lambda: ReductionGraph([Vertex("a", -huge)], []), ValidationError),
        (lambda: ReductionGraph([Vertex("a", 1, -huge)], []), ValidationError),
        (lambda: catalog_graph(huge), UnsupportedType),
        (two.genus, InconsistentGeometry),
        (lambda: wide.self_intersection("a"), NonIntegralSelfIntersection),
        (lambda: floor_divisor(one, -1), PreconditionFailed),
        (lambda: floor_divisor(kodaira_graph("II"), huge), PreconditionFailed),
        (lambda: jump_multiplicity(one, 0), ValidationError),
        (lambda: candidate_values(one), OverBudget),
        (lambda: random_instance(0, -huge), PreconditionFailed),
        (lambda: elementary_divisors([[1]], [[1]], -huge), PreconditionFailed),
    ]
    for k, (call, kind) in enumerate(cases):
        with pytest.raises(kind) as e:
            call()
        assert "-bit int>" in str(e.value) and len(str(e.value)) <= 200, k
    messages = [v.message for v in two.validate().violations]
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
        assert e.value.report.violations[0].where == where, k
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
    assert not g.has_vertex(vid)


@pytest.mark.parametrize("new_id", [5, "", ("x",), ["x"], b"x", True])
def test_blow_ups_refuse_a_new_id_that_is_not_a_vertex_id(new_id):
    # a non-string id raised TypeError once compared with the other ids
    g = kodaira_graph("II")
    with pytest.raises(ValidationError):
        blow_up_free_point(g, "c", new_id=new_id)
    with pytest.raises(ValidationError):
        blow_up_edge(g, 0, new_id=new_id)


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
    assert genus2_example().principal_components() == {"c"}


def test_stabilization_index():
    assert kodaira_graph("II").stabilization_index() == 6
    assert kodaira_graph("I5").stabilization_index() == 1
    assert kodaira_graph("I0*").stabilization_index() == 2
    assert genus2_example().stabilization_index() == 2


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
    h = blow_up_free_point(g, "c", new_id="x")
    assert h.multiplicity("x") == 6
    assert h.vertex("x").genus == 0
    assert h.degree("x") == 1
    assert h.genus() == g.genus()
    assert not h.is_minimal()


def test_blow_up_edge_shape():
    g = kodaira_graph("II")
    h = blow_up_edge(g, ("c", "t1"), new_id="x")
    assert h.multiplicity("x") == 9
    assert sorted(h.neighbors("x")) == ["c", "t1"]
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


@pytest.mark.parametrize("edge", [True, False, 1.5, None, ("c",), ("c", "t1", "t2"),
                                  ("c", 1), "ct", {"c", "t1"}, -1, 3])
def test_blow_up_edge_refuses_what_is_not_an_edge(edge):
    # an edge is a non-bool int index or a pair of vertex ids; True is not
    # edge 1, and the rest raised TypeError or IndexError
    g = kodaira_graph("II")
    with pytest.raises(UnknownEdge):
        blow_up_edge(g, edge)


def test_blow_down_inverts_blow_ups():
    g = kodaira_graph("III")
    assert blow_down(blow_up_free_point(g, "c", new_id="x"), "x") == g
    assert is_isomorphic(blow_down(blow_up_edge(g, ("c", "t1"), new_id="x"), "x"), g)


def test_blow_down_rejects_non_exceptional():
    g = kodaira_graph("II")
    with pytest.raises(NotContractible):
        blow_down(g, "t1")  # E^2 = -2
    star = genus2_example()
    with pytest.raises(NotContractible):
        blow_down(star, "c")  # genus 1


# the messages blow_down gave before the surgery form moved to vertex indices
NEED = "need genus 0, degree 1 or 2, self-intersection -1"
REFUSALS = [
    (kodaira_graph("II"), "t1", NotContractible,
     f"vertex 't1': {NEED} (got genus 0, degree 1, E^2 -2)"),
    (genus2_example(), "c", NotContractible,
     f"vertex 'c': {NEED} (got genus 1, degree 2, E^2 -1)"),
    (kodaira_graph("I0"), "e", NotContractible,
     f"vertex 'e': {NEED} (got genus 1, degree 0, E^2 0)"),
    # a -1 curve meeting three others
    (build([Vertex("c", 3), Vertex("t1", 1), Vertex("t2", 1), Vertex("t3", 1)],
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
    g = build([Vertex("u", 1, 0), Vertex("b", 2, 0)], [("u", "b"), ("u", "b")])
    assert g.genus() == 1
    with pytest.raises(WouldCreateLoop):
        blow_down(g, "b")
    assert minimize(g) == g and g.is_minimal()


def test_surgery_refuses_an_invalid_graph_before_any_move():
    # b has E^2 = -1/2: every move, even one on an unknown vertex, raises
    # the report of the graph it starts from
    g = ReductionGraph((Vertex("a", 1, 1), Vertex("b", 2)), (("a", "b"),))
    for move in (lambda: blow_up_free_point(g, "b"), lambda: blow_up_edge(g, 0),
                 lambda: blow_down(g, "b"), lambda: blow_up_free_point(g, "zz"),
                 lambda: blow_up_edge(g, 99), lambda: blow_up_free_point(g, "a", new_id="b")):
        with pytest.raises(ValidationError) as caught:
            move()
        assert caught.value.report == g.validate()
        assert not caught.value.report.ok


def test_minimize_round_trip():
    g = kodaira_graph("IV*")
    h = blow_up_free_point(g, "c", new_id="x")
    h = blow_up_edge(h, ("c", "x"), new_id="y")
    h = blow_up_free_point(h, "y", new_id="z")
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


def test_minimize_caches_nothing_for_an_invalid_graph(worklist_runs):
    g = ReductionGraph((Vertex("a", 1), Vertex("b", 2)), (("a", "b"),))  # 2 does not divide 1
    for _ in range(2):
        with pytest.raises(ValidationError):
            minimize(g)
    assert "_minimal" not in vars(g) and worklist_runs == []


def test_catalog_entries_are_minimal():
    for tag in catalog_tags():
        assert catalog_graph(tag).is_minimal(), tag


# -- the worklist minimize against the rescan loop it replaced ----------------

def reference_minimize(g):
    """After every contraction, test every vertex again and contract the
    lexicographically smallest contractible one."""
    assert g.validate().ok
    while True:
        eligible = [v.id for v in g.vertices
                    if v.genus == 0 and g.self_intersection(v.id) == -1
                    and (g.degree(v.id) == 1
                         or (g.degree(v.id) == 2 and len(set(g.neighbors(v.id))) == 2))]
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
    return build(verts, edges, g.name)


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
    graph = random_instance(7, 1024).graph
    calls, constructed = [], []
    validate, init = ReductionGraph.validate, ReductionGraph.__init__

    def counting(self):
        calls.append(self)
        return validate(self)

    def counting_init(self, *args):
        constructed.append(self)
        init(self, *args)

    monkeypatch.setattr(ReductionGraph, "validate", counting)
    minimize(graph)
    assert len(calls) <= 2
    calls.clear()
    monkeypatch.setattr(ReductionGraph, "__init__", counting_init)
    inst = random_instance(7, 1024)
    assert len(calls) <= 1  # the result: the first call above built the seed
    assert constructed == [inst.graph]  # once, after the last move

    # computations, not calls: the report is cached per graph, and genus()
    # on a valid graph reads the adjunction sum alone
    computed = {"_report": 0}
    for name in computed:
        compute = vars(ReductionGraph)[name].func

        def counted(self, compute=compute, name=name):
            computed[name] += 1
            return compute(self)

        prop = cached_property(counted)
        prop.__set_name__(ReductionGraph, name)
        monkeypatch.setattr(ReductionGraph, name, prop)
    g = ReductionGraph(graph.vertices, graph.edges)
    report, genus = g.validate(), g.genus()
    assert computed == {"_report": 1}
    assert g.validate() is report and g.genus() == genus
    assert computed == {"_report": 1}
    # surgery checks the graph it starts from, whose report is cached, and
    # computes none for its result: the seed, built above, and g are valid
    random_instance(7, 1024)
    assert computed == {"_report": 1}
    minimize(g)
    assert computed == {"_report": 1}
    seed_graphs()  # built and validated once per process
    for s in range(64):
        computed.update(_report=0)
        run_checks(random_instance(s, s % 16).graph)
        # the instance alone: the kernel reads the minimal model's genus off
        # its adjunction sum
        assert computed["_report"] <= 1, (s, computed)


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
    if s % n != 0:
        raise NonIntegralSelfIntersection(f"vertex {vid!r}: {n} does not divide neighbour sum {s}")
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


def reference_is_connected(g):
    return reference_components(g, {v.id for v in g.vertices}) == 1


def reference_validate(g):
    problems = []
    if not reference_is_connected(g):
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
    return ValidationReport(not problems, tuple(problems))


def reference_genus(g):
    twice = sum(v.multiplicity * (2 * v.genus - 2 - reference_self_intersection(g, v.id))
                for v in g.vertices)
    if twice % 2 != 0:
        raise InconsistentGeometry(f"adjunction sum {twice} is odd")
    if 1 + twice // 2 < 1:
        raise InconsistentGeometry(f"derived genus {1 + twice // 2} < 1")
    return 1 + twice // 2


def reference_is_minimal(g):
    return not any(
        v.genus == 0 and reference_nbr_sum(g, v.id) == v.multiplicity
        and (reference_degree(g, v.id) == 1
             or (reference_degree(g, v.id) == 2 and len(set(reference_neighbors(g, v.id))) == 2))
        for v in g.vertices)


def reference_principal_components(g):
    return {v.id for v in g.vertices if v.genus >= 1 or reference_degree(g, v.id) >= 3}


def outcome(f, *args):
    """f(*args), or the type and message of what it raised."""
    try:
        return f(*args)
    except ValidationError as exc:
        return type(exc), str(exc)


def assert_matches_reference(g):
    assert g.validate() == reference_validate(g)
    assert outcome(g.genus) == outcome(reference_genus, g)
    for v in g.vertices:
        assert (outcome(g.self_intersection, v.id)
                == outcome(reference_self_intersection, g, v.id))
        assert g.degree(v.id) == reference_degree(g, v.id)
        assert g.neighbors(v.id) == reference_neighbors(g, v.id)
    assert g.is_connected() == reference_is_connected(g)
    assert g.is_minimal() == reference_is_minimal(g)
    assert g.principal_components() == reference_principal_components(g)


def test_compiled_form_matches_the_id_keyed_accessors(corpus):
    rng = random.Random(2)
    for item in corpus:
        for g in (item.inst.graph, item.minimized, shuffled_relabelling(item.inst.graph, rng)):
            assert_matches_reference(g)


def test_compiled_form_matches_on_invalid_graphs():
    # those of the semantic-validation tests: disconnected, gcd 2,
    # non-integral E^2 and genus 0
    for vertices, edges in [
            ((Vertex("a", 1, 1), Vertex("b", 1, 1)), ()),
            ((Vertex("a", 2, 1),), ()),
            ((Vertex("a", 1), Vertex("b", 2)), (("a", "b"),)),
            ((Vertex("a", 1, 0),), ())]:
        assert_matches_reference(ReductionGraph(vertices, edges))
    # every labelling of up to three vertices with N <= 4, a genus-1 first
    # vertex or not, and up to three parallel edges per pair: the reference
    # reaches each of its branches here but the odd adjunction sum, which no
    # integral labelling has (see ReductionGraph._report)
    for n in (1, 2, 3):
        ids = "abc"[:n]
        pairs = list(itertools.combinations(ids, 2))
        for Ns in itertools.product(range(1, 5), repeat=n):
            for ga, repeats in itertools.product((0, 1), itertools.product(range(4), repeat=len(pairs))):
                vertices = [Vertex(i, N, ga if i == "a" else 0) for i, N in zip(ids, Ns)]
                edges = [p for p, r in zip(pairs, repeats) for _ in range(r)]
                assert_matches_reference(ReductionGraph(vertices, edges))


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


def test_fresh_ids_skip_the_taken_ones():
    # type II with its centre called b3 and one tail b1
    g = build([Vertex("b3", 6), Vertex("a", 3), Vertex("b1", 2), Vertex("t", 1)],
              [("b3", "a"), ("b3", "b1"), ("b3", "t")])
    g1 = blow_up_free_point(g, "a")
    g2 = blow_up_free_point(g1, "b3")
    assert [g1.ids[-1], g2.ids[-1]] == ["b2", "b4"]
    assert blow_up_edge(g2, 0).ids[-1] == "b5"


def test_blow_up_edge_keeps_the_edge_order():
    # the blown-up edge leaves its place; the new vertex's two edges come
    # last, the one to the end whose id sorts first before the other
    g = blow_up_free_point(blow_up_free_point(kodaira_graph("IV*"), "c"), "a2_1", new_id="a0")
    for a, b in [("a1_1", "c"), ("a0", "a2_1"), ("b1", "c")]:
        k = g.edges.index((a, b))
        h = blow_up_edge(g, k)
        assert blow_up_edge(g, (b, a)) == blow_up_edge(g, [a, b]) == h
        new = tuple(tuple(sorted((end, "b2"))) for end in (a, b))
        assert h.edges == g.edges[:k] + g.edges[k + 1:] + new
    # a parallel pair names its first edge
    g = kodaira_graph("I1res")
    assert blow_up_edge(g, ("v", "u")) == blow_up_edge(g, 0)


# -- chain contraction and tail domination ------------------------------------

def test_contract_chains_examples():
    assert contract_chains(kodaira_graph("II")) == ([1, 2, 3, 6], 6)
    assert contract_chains(kodaira_graph("III*")) == ([1, 1, 2, 4], 4)
    assert contract_chains(kodaira_graph("I5")) == ([1, 1, 1, 1, 1], 1)
    i1 = build([Vertex("u", 1, 0), Vertex("b", 2, 0)], [("u", "b"), ("u", "b")])
    assert contract_chains(i1) == ([1, 2], 1)
    assert contract_chains(genus2_example()) == ([1, 1, 2], 2)


def test_contract_chains_requires_minimal_model():
    with pytest.raises(NotMinimal):
        contract_chains(blow_up_free_point(kodaira_graph("II"), "c"))


# -- isomorphism ---------------------------------------------------------------

def test_isomorphism_ignores_ids_but_not_labels():
    g = kodaira_graph("IV")
    relabeled = build(
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
    g = kodaira_graph("III*")
    for k, v in enumerate(g.vertices):
        for changed in (Vertex(v.id, v.multiplicity + 1, v.genus),
                        Vertex(v.id, v.multiplicity, v.genus + 1)):
            verts = g.vertices[:k] + (changed,) + g.vertices[k + 1:]
            assert not is_isomorphic(g, ReductionGraph(verts, g.edges)), changed
    # every vertex has degree 2 in both: only the multiplicities differ
    doubled = unlabelled([("a", "b"), ("a", "b"), ("c", "d"), ("c", "d")])
    square = unlabelled([("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")])
    assert not is_isomorphic(doubled, square) and not is_isomorphic(square, doubled)
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
    assert g.validate().ok
    h = minimize(g)
    assert h.validate().ok
    assert h.genus() == g.genus()
    assert h.first_betti() == g.first_betti()
    assert len(h.vertices) <= len(g.vertices)
