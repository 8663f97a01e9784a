"""Multiplicity/genus-labelled dual graphs of sncd special fibers.

A reduction graph records the combinatorial shadow of a regular model with
strict normal crossings: one vertex per irreducible component of the special
fiber, labelled with its multiplicity N_v >= 1 and geometric genus g_v >= 0,
and one edge per intersection point (parallel edges allowed, loops not:
strict normal crossings means smooth components, so a self-intersecting
component must be resolved by one blow-up before it fits this data model).

Since the whole special fiber has zero intersection with each component,
the self-intersection of a component is determined by the labels:

    N_v * E_v^2 + sum over incident edges of N_opposite = 0

and the genus of the generic fiber comes out of adjunction:

    2g - 2 = sum_v N_v * (2 g_v - 2 - E_v^2).

A graph's constructor derives both, with the neighbour lists, in one
integer form (``ReductionGraph._compiled``) while it checks the structure.
Every accessor, validate(), genus() and the jump kernel read that form.

Every move reads that form: a blow-up builds its result from the start's
vertices, edges and id index, blow_down() drops one vertex, and minimize()
runs a worklist on copies of the neighbour lists that only grow. New ids
come from :func:`_fresh_ids`. Every move checks the graph it starts from,
not its result. minimize() computes the minimal model once per graph
(``ReductionGraph._minimal``): a graph keeps its minimal model alive for as
long as it lives, and analyze, run_checks and minimize share it.
"""

from __future__ import annotations

import heapq
import itertools
from functools import cached_property
from math import gcd, lcm
from operator import mul

from ._values import Value, _quoted, _shown
from .errors import (
    InconsistentGeometry,
    NonIntegralSelfIntersection,
    NotContractible,
    NotMinimal,
    UnknownEdge,
    UnknownVertex,
    ValidationError,
    WouldCreateLoop,
)


class Vertex(Value):
    """One irreducible component: multiplicity N >= 1, genus >= 0."""

    __slots__ = _fields = ("id", "multiplicity", "genus")

    def __init__(self, id: str, multiplicity: int, genus: int = 0):
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "multiplicity", multiplicity)
        object.__setattr__(self, "genus", genus)


class Violation(Value):
    __slots__ = _fields = ("code", "message", "where")

    def __init__(self, code: str, message: str, where: str = ""):
        object.__setattr__(self, "code", code)
        object.__setattr__(self, "message", message)
        object.__setattr__(self, "where", where)


class ValidationReport(Value):
    __slots__ = _fields = ("ok", "violations")

    def __init__(self, ok: bool, violations: tuple[Violation, ...] = ()):
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "violations", violations)

    def messages(self):
        return [f"{v.code}: {v.message}" for v in self.violations]


def _self_intersection(vid, multiplicity: int, nbr_sum: int) -> int:
    """E^2 = -(sum of neighbour multiplicities) / N."""
    if nbr_sum % multiplicity != 0:
        raise NonIntegralSelfIntersection(
            f"vertex {vid!r}: {_quoted(multiplicity)} does not divide neighbour sum {_quoted(nbr_sum)}")
    return -(nbr_sum // multiplicity)


def _contractible(genus: int, multiplicity: int, nbrs, nbr_sum: int) -> bool:
    """The contractible -1 curve: genus 0, E^2 = -1 (the neighbour
    multiplicities sum to N), and degree 1 or two distinct neighbours.
    ``nbrs`` holds the opposite end of each incident edge. A -1 curve
    meeting one neighbour twice would contract to a node, which leaves the
    sncd class, so it is not contractible."""
    return (genus == 0 and nbr_sum == multiplicity
            and (len(nbrs) == 1 or (len(nbrs) == 2 and nbrs[0] != nbrs[1])))


def _is_node(genus: int, nbrs) -> bool:
    """Every vertex but a chain vertex (genus 0, exactly two edges) is a node."""
    return genus != 0 or len(nbrs) != 2


def _is_principal(genus: int, nbrs) -> bool:
    """A principal component: genus >= 1, or genus 0 meeting the rest in
    >= 3 points. Every principal component is a node."""
    return genus != 0 or len(nbrs) > 2


def _nodes(g) -> list[int]:
    """Indices of the nodes of g (see :func:`_is_node`)."""
    c = g._compiled
    return list(itertools.compress(range(len(c.N)), map(_is_node, c.genus, c.nbrs)))


def _components(nbrs, members) -> int:
    """Number of connected components of the subgraph induced on the
    vertex indices ``members``; ``nbrs[i]`` lists the neighbours of i.
    ``left[i]`` marks the members not yet reached: a list, as indexing it
    is cheaper than a set's membership test."""
    left, count = [False] * len(nbrs), 0
    for i in members:
        left[i] = True
    for i in members:
        if left[i]:
            count += 1
            left[i] = False
            stack = [i]
            while stack:
                for w in nbrs[stack.pop()]:
                    if left[w]:
                        left[w] = False
                        stack.append(w)
    return count


def _lookup(index, vid) -> int:
    try:
        return index[vid]
    except (KeyError, TypeError):  # TypeError: vid is not hashable
        raise UnknownVertex(f"no vertex {vid!r}") from None


class _Compiled(Value):
    """Integer form of a graph, built by its constructor: vertex k is
    ``vertices[k]`` and ``index[id]``, ``nbrs[k]`` its neighbour indices
    (repeated for parallel edges) and ``nbr_sum[k]`` their multiplicities'
    sum. On a valid graph -(nbr_sum[k] // N[k]) is E_k^2 and ``adjunction``
    = sum of N_k (2 g_k - 2) + nbr_sum[k] is 2g - 2."""

    __slots__ = _fields = ("index", "N", "genus", "nbrs", "nbr_sum", "adjunction")

    def __init__(self, index: dict[str, int], N: list[int], genus: list[int],
                 nbrs: list[list[int]], nbr_sum: list[int], adjunction: int):
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "nbrs", nbrs)
        object.__setattr__(self, "nbr_sum", nbr_sum)
        object.__setattr__(self, "adjunction", adjunction)


class ReductionGraph(Value):
    """Immutable labelled multigraph. Edges are unordered id pairs.

    One pass over the vertices and one over the sorted edges check the
    structure (ids, labels, endpoints, loops; every violation raised in one
    ValidationError) and build ``_compiled`` (:class:`_Compiled`), which
    every accessor reads. Exact int labels skip the bool test; int labels
    are stored as exact ints, and exact str ends are sorted without str().
    The semantic invariants (connectivity, gcd 1, integral
    self-intersections, genus >= 1) are checked by :meth:`validate`, once
    per graph; :func:`build` constructs and validates. Operations below
    assume a valid graph, where ``genus()`` reads the adjunction sum alone.
    """

    _fields = ("vertices", "edges", "name")
    __slots__ = _fields + ("_compiled", "__dict__")  # cached properties: __dict__

    def __init__(self, vertices: tuple[Vertex, ...], edges: tuple[tuple[str, str], ...],
                 name: str = ""):
        vertices, edges = tuple(vertices), tuple(edges)
        problems, index, N, genus = [], {}, [], []
        for v in vertices:
            if not isinstance(v, Vertex):
                problems.append(Violation("vertex", f"{_shown(v)} is not a Vertex", _shown(v, str)))
                continue
            vid, n, g = v.id, v.multiplicity, v.genus
            if not isinstance(vid, str) or not vid:
                problems.append(Violation("vertex-id", "vertex ids must be non-empty strings", _shown(vid, str)))
            elif vid in index:
                problems.append(Violation("vertex-id", f"duplicate vertex id {vid!r}", vid))
            if isinstance(vid, str):  # an empty id is still a known endpoint
                index[vid] = len(N)
            if type(n) is not int or n < 1:
                if not isinstance(n, int) or isinstance(n, bool) or n < 1:
                    problems.append(Violation("multiplicity", f"vertex {_shown(vid)} needs integer multiplicity >= 1, got {_quoted(n)}", vid))
                n = int(n) if isinstance(n, int) else 0
            if type(g) is not int or g < 0:
                if not isinstance(g, int) or isinstance(g, bool) or g < 0:
                    problems.append(Violation("genus-label", f"vertex {_shown(vid)} needs integer genus >= 0, got {_quoted(g)}", vid))
                g = int(g) if isinstance(g, int) else 0
            N.append(n)
            genus.append(g)
        if not vertices:
            problems.append(Violation("empty", "graph needs at least one vertex"))
        try:  # ends sorted by str(), or every edge as given if one is no pair or str() refuses an end
            edges = tuple([(a, b) if (a <= b if type(a) is str and type(b) is str
                                      else str(a) <= str(b)) else (b, a) for a, b in edges])
        except Exception:  # str() of an end may raise anything
            pass
        nbrs, nbr_sum = [[] for _ in N], [0] * len(N)
        for k, e in enumerate(edges):
            try:
                a, b = e
            except (TypeError, ValueError):
                problems.append(Violation("edge-endpoint", f"edge #{k} {_shown(e)} is not a pair of vertex ids", _shown(e, str)))
                continue
            i = index.get(a) if isinstance(a, str) else None
            j = index.get(b) if isinstance(b, str) else None
            if i is not None and j is not None and i != j:
                nbrs[i].append(j)
                nbrs[j].append(i)
                nbr_sum[i] += N[j]
                nbr_sum[j] += N[i]
                continue
            if i is None or j is None:
                problems.append(Violation("edge-endpoint", f"edge #{k} {_shown(a)}-{_shown(b)} references an unknown vertex", f"{_shown(a, str)}-{_shown(b, str)}"))
            if a == b:
                problems.append(Violation("loop", f"edge #{k} is a loop at {_shown(a)}; loops are forbidden (resolve the node by a blow-up first)", a))
        if problems:
            _check_valid(ValidationReport(False, tuple(problems)))
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_compiled", _Compiled(  # adjunction: see _Compiled
            index, N, genus, nbrs, nbr_sum, 2 * sum(map(mul, N, genus)) - 2 * sum(N) + sum(nbr_sum)))

    # -- basic accessors ---------------------------------------------------

    @property
    def ids(self):
        return [v.id for v in self.vertices]

    def vertex(self, vid: str) -> Vertex:
        return self.vertices[_lookup(self._compiled.index, vid)]

    def has_vertex(self, vid: str) -> bool:
        return isinstance(vid, str) and vid in self._compiled.index

    def degree(self, vid: str) -> int:
        return len(self._compiled.nbrs[_lookup(self._compiled.index, vid)])

    def neighbors(self, vid: str):
        """Ids opposite each incident edge (repeats for parallel edges)."""
        return [self.vertices[w].id
                for w in self._compiled.nbrs[_lookup(self._compiled.index, vid)]]

    def multiplicity(self, vid: str) -> int:
        return self.vertex(vid).multiplicity

    # -- semantic validation ----------------------------------------------

    def is_connected(self) -> bool:
        return _components(self._compiled.nbrs, range(len(self.vertices))) == 1

    def validate(self) -> ValidationReport:
        """Check the semantic invariants, once per graph; never raises."""
        return self._report

    @cached_property
    def _report(self) -> ValidationReport:
        c = self._compiled
        problems = [] if self.is_connected() else [Violation("connected", "graph is not connected")]
        g = gcd(*c.N)
        if g != 1:
            problems.append(Violation("gcd", f"gcd of multiplicities is {_quoted(g)}, must be 1"))
        bad = [Violation("self-intersection",
                         f"vertex {v.id!r}: multiplicity {_quoted(n)} does not divide "
                         f"the sum {_quoted(s)} of neighbouring multiplicities", v.id)
               for v, n, s in zip(self.vertices, c.N, c.nbr_sum) if s % n]
        # the genus is meaningful once self-intersections are integral; the
        # adjunction sum is even then, as 0 = N.M.N = sum N_i^2 E_i^2 mod 2
        if not bad and c.adjunction < 0:
            bad.append(Violation("genus", f"derived genus {_quoted(1 + c.adjunction // 2)} < 1"))
        problems += bad
        return ValidationReport(not problems, tuple(problems))

    # -- derived geometry ---------------------------------------------------

    def self_intersection(self, vid: str) -> int:
        c, k = self._compiled, _lookup(self._compiled.index, vid)
        return _self_intersection(vid, c.N[k], c.nbr_sum[k])

    def genus(self) -> int:
        """Genus of the generic fiber, via adjunction: 2g - 2 is the sum of
        N_v (2 g_v - 2 - E_v^2), an even sum (see _report)."""
        c = self._compiled
        if not self._report.ok:  # else every E_v^2 is integral and g >= 1
            for v, n, s in zip(self.vertices, c.N, c.nbr_sum):
                _self_intersection(v.id, n, s)  # raises unless E_v^2 is integral
            if c.adjunction < 0:
                raise InconsistentGeometry(f"derived genus {_quoted(1 + c.adjunction // 2)} < 1")
        return 1 + c.adjunction // 2

    def first_betti(self) -> int:
        """b_1 of the dual graph: |E| - |V| + 1 (graph is connected)."""
        return len(self.edges) - len(self.vertices) + 1

    def multiplicity_lcm(self) -> int:
        return lcm(*self._compiled.N)

    def principal_components(self) -> set[str]:
        """Components of genus >= 1, or genus 0 meeting the rest in >= 3 points."""
        c = self._compiled
        return set(itertools.compress(self.ids, map(_is_principal, c.genus, c.nbrs)))

    def is_minimal(self) -> bool:
        """No contractible exceptional curve (see :func:`_contractible`)."""
        c = self._compiled
        return not any(map(_contractible, c.genus, c.N, c.nbrs, c.nbr_sum))

    @cached_property
    def _minimal(self):
        """The minimal model of this valid graph, or None when it is minimal
        (None rather than self: a graph caching itself would be a reference
        cycle). A worklist on ``_compiled``: a min-heap of ids, seeded by one
        pass over it. Only a contraction's neighbours with E^2 = -1 are
        pushed again, and a popped id is contracted only if it is live and
        contractible, so each step contracts the smallest contractible id.
        The neighbour lists are copies that only grow: an edge dies with one
        of its ends, so a vertex's live neighbours are the live entries of
        its list. Each contraction raises its neighbours' E^2 by 1, so an id
        is pushed at most once and a list is scanned at most once. The
        result keeps g's edges with both ends live, then the joining edges
        in the order the contractions added them. O(V + E + C log V) for C
        contractions."""
        c = self._compiled
        index, N, genus, vertices = c.index, c.N, c.genus, self.vertices
        # the index keys are the ids in order
        heap = [vid for vid, n, g, ns, s in zip(index, N, genus, c.nbrs, c.nbr_sum)
                if s == n and _contractible(g, n, ns, s)]
        if not heap:
            return None
        heapq.heapify(heap)
        heappop, heappush = heapq.heappop, heapq.heappush
        nbrs, nbr_sum = [ns[:] for ns in c.nbrs], c.nbr_sum[:]
        live, added = [True] * len(N), []
        while heap:
            i = index[heappop(heap)]
            if not live[i] or nbr_sum[i] != N[i]:  # dead, or E^2 != -1
                continue
            ends = [w for w in nbrs[i] if live[w]]
            if not _contractible(genus[i], N[i], ends, nbr_sum[i]):
                continue
            live[i] = False
            if len(ends) == 2:  # one joining edge replaces the two of i
                a, b = ends
                nbrs[a].append(b)
                nbrs[b].append(a)
                added.append((a, b))
            for w in ends:
                nbr_sum[w] -= N[w]  # N_i is N_w or N_a + N_b: E_w^2 rises by 1
                if nbr_sum[w] == N[w]:  # E^2 = -1, else not contractible
                    heappush(heap, vertices[w].id)
        edges = [e for e in self.edges if live[index[e[0]]] and live[index[e[1]]]]
        edges += [(vertices[a].id, vertices[b].id) for a, b in added if live[a] and live[b]]
        return ReductionGraph(itertools.compress(vertices, live), edges, self.name)

    def stabilization_index(self) -> int:
        """lcm of principal multiplicities (1 if there are none). Defined on
        minimal graphs only."""
        if not self.is_minimal():
            raise NotMinimal("stabilization index is read off the minimal model; minimize() first")
        c = self._compiled
        return lcm(*(c.N[c.index[i]] for i in self.principal_components()))


def build(vertices, edges, name: str = "") -> ReductionGraph:
    """Construct a graph and raise ValidationError unless it is fully valid."""
    g = ReductionGraph(vertices, edges, name)
    _check_valid(g.validate())
    return g


def _check_valid(report: ValidationReport):
    if not report.ok:
        raise ValidationError("; ".join(report.messages()), report)


# -- model surgery ----------------------------------------------------------
# A blow-up adds a -1 curve and changes each neighbour's neighbour sum by a
# multiple of that neighbour's own N, so gcd, connectivity and the
# adjunction sum stay: a blow-up of a valid graph needs no check.

def _fresh_ids(taken):
    """The ids b1, b2, ... that are not in taken, in order."""
    for n in itertools.count(1):
        if f"b{n}" not in taken:
            yield f"b{n}"


def _new_id(index, new_id) -> str:
    """new_id, refused with ValidationError unless it is a non-empty str
    that is not in index; the first fresh id when it is None."""
    if new_id is None:
        return next(_fresh_ids(index))
    if not isinstance(new_id, str) or not new_id:
        raise ValidationError(f"vertex ids must be non-empty strings, got {new_id!r}")
    if new_id in index:
        raise ValidationError(f"vertex id {new_id!r} already in use")
    return new_id


def _edge_index(edges, e) -> int:
    """Position of the edge e, given as a position in edge order (an int,
    not a bool) or as an endpoint pair of ids (the first such edge).
    Anything else is an UnknownEdge."""
    if isinstance(e, int) and not isinstance(e, bool):
        if not 0 <= e < len(edges):
            raise UnknownEdge(f"edge index {e} out of range (graph has {len(edges)} edges)")
        return e
    if not (isinstance(e, (tuple, list)) and len(e) == 2
            and isinstance(e[0], str) and isinstance(e[1], str)):
        raise UnknownEdge(f"{e!r} is neither an edge index nor a pair of vertex ids")
    pair = tuple(sorted(e))
    try:
        return edges.index(pair)
    except ValueError:
        raise UnknownEdge(f"no edge {pair[0]!r}-{pair[1]!r}") from None


def blow_up_free_point(g: ReductionGraph, v: str, new_id: str | None = None) -> ReductionGraph:
    """Blow up a point lying on the single component v.

    The exceptional curve inherits multiplicity N_v, genus 0, and meets v
    once. Genus, first Betti number and the jump spectrum are unchanged.
    The new vertex comes last, named new_id or the first fresh "b<n>".
    """
    _check_valid(g.validate())
    c = g._compiled
    i = _lookup(c.index, v)
    new_id = _new_id(c.index, new_id)
    return ReductionGraph(g.vertices + (Vertex(new_id, c.N[i]),),
                          g.edges + ((g.vertices[i].id, new_id),), g.name)


def blow_up_edge(g: ReductionGraph, e, new_id: str | None = None) -> ReductionGraph:
    """Blow up an intersection point.

    The edge e (an index, or an endpoint pair) between i and j is replaced
    by a new genus-0 vertex of multiplicity N_i + N_j joined to both: the
    edge leaves its place, and the new vertex's edges come last, the one
    to the end whose id sorts first before the other.
    """
    _check_valid(g.validate())
    c = g._compiled
    k = _edge_index(g.edges, e)
    a, b = g.edges[k]
    new_id = _new_id(c.index, new_id)
    return ReductionGraph(g.vertices + (Vertex(new_id, c.N[c.index[a]] + c.N[c.index[b]]),),
                          g.edges[:k] + g.edges[k + 1:] + ((a, new_id), (b, new_id)), g.name)


def blow_down(g: ReductionGraph, v: str) -> ReductionGraph:
    """Contract an exceptional curve (genus 0, E^2 = -1, degree <= 2).

    Degree 1 removes the vertex and its edge; degree 2 with distinct
    neighbours i, j replaces the two edges by a single edge i-j. Two
    parallel edges to one neighbour would turn into a loop, which leaves
    the strict-normal-crossings class: WouldCreateLoop.
    """
    _check_valid(g.validate())
    c = g._compiled
    i = _lookup(c.index, v)
    genus, nbrs = c.genus[i], c.nbrs[i]
    if not _contractible(genus, c.N[i], nbrs, c.nbr_sum[i]):
        e2 = _self_intersection(v, c.N[i], c.nbr_sum[i])
        if genus or e2 != -1 or len(nbrs) > 2:  # else two edges to one vertex
            raise NotContractible(
                f"vertex {v!r}: need genus 0, degree 1 or 2, self-intersection -1 "
                f"(got genus {genus}, degree {len(nbrs)}, E^2 {e2})")
        raise WouldCreateLoop(
            f"vertex {v!r} has both edges to {g.vertices[nbrs[0]].id!r}; "
            "contraction would create a node")
    vid = g.vertices[i].id
    edges = [e for e in g.edges if vid not in e]
    if len(nbrs) == 2:
        edges.append((g.vertices[nbrs[0]].id, g.vertices[nbrs[1]].id))
    return ReductionGraph(g.vertices[:i] + g.vertices[i + 1:], edges, g.name)


def minimize(g: ReductionGraph) -> ReductionGraph:
    """Blow down until no contractible exceptional curve remains.

    Each step contracts the lexicographically smallest contractible id;
    the result does not depend on the order. A -1 curve with both edges on
    one neighbour is not contractible and stays, so the true sncd model of
    I1 is minimal.

    g must be valid (a cached report once g is validated): an invalid graph
    raises ValidationError on every call, and nothing is cached for it. The
    minimal model is computed once per graph (``ReductionGraph._minimal``)
    and g keeps it alive, so analyze(g), run_checks(g) and minimize(g)
    share one worklist run. g itself is returned when nothing is
    contractible, so minimize(minimize(g)) is minimize(g).
    """
    _check_valid(g.validate())
    return g._minimal or g


def contract_chains(g: ReductionGraph):
    """Multiplicities surviving the contraction of all open genus-0 chains.

    Keeps every vertex of genus >= 1 or degree != 2 and returns (sorted
    multiplicity list, their lcm). The lcm is the saturation index of the
    log regular model obtained by contracting the degree-2 rational chains.
    If ALL vertices are genus-0 of degree 2 (a cycle, such as I_n or the
    model of I1 with a non-contractible -1 curve), every multiplicity is
    returned and the index is 1: there is no principal component.
    """
    if not g.is_minimal():
        raise NotMinimal("contract_chains is defined on the minimal model")
    kept = [g._compiled.N[i] for i in _nodes(g)]
    if not kept:
        return sorted(g._compiled.N), 1
    return sorted(kept), lcm(*kept)
