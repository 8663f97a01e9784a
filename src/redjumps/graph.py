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

The constructor derives both, and the neighbour lists, in one integer form
(``ReductionGraph._compiled``), and ``ReductionGraph._settle``, the one
semantic check, refuses every invalid graph: both formulas hold on a valid
graph only, so a graph carries no report: the refusal, one ValidationError,
holds every Violation found. Every accessor, genus() and the jump kernel
read that form.

_settle also classifies the vertices into nodes, principal components and
contractible curves, the fields ``nodes``, ``principal`` and
``contractible`` of that form, which is_minimal(), principal_components(),
contract_chains(), the stabilization index, minimize()'s worklist and the
jump kernel read. minimize() runs that worklist once per graph
(``ReductionGraph._minimal``) and constructs its result; the blow-ups of
redjumps.surgery, which a plain compute never loads, hand their integer
form to _settle.
"""

import itertools
from functools import cached_property
from math import gcd, lcm
from operator import mul

from ._values import Value, _quoted, _shown
from .errors import NotMinimal, UnknownVertex, ValidationError


class Vertex(Value):
    """One irreducible component: multiplicity N >= 1, genus >= 0."""

    __slots__ = _fields = ("id", "multiplicity", "genus")

    def __init__(self, id: str, multiplicity: int, genus: int = 0):
        set_id, set_multiplicity, set_genus = self._setters
        set_id(self, id)
        set_multiplicity(self, multiplicity)
        set_genus(self, genus)


class Violation(Value):
    __slots__ = _fields = ("code", "message", "where")

    def __init__(self, code: str, message: str, where: str = ""):
        set_code, set_message, set_where = self._setters
        set_code(self, code)
        set_message(self, message)
        set_where(self, where)


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
        raise UnknownVertex(f"no vertex {_shown(vid)}") from None


def _ordered(edges) -> tuple:
    """The sequence ``edges`` with each pair's ends sorted: exact strs by <=,
    the rest by str(); all as given if one is no pair or str() refuses an end."""
    try:
        return tuple([(a, b) if (a <= b if type(a) is str and type(b) is str
                                 else str(a) <= str(b)) else (b, a) for a, b in edges])
    except Exception:  # str() of an end may raise anything
        return tuple(edges)


class _Compiled(Value):
    """Integer form of a graph, built by its constructor: vertex k is
    ``vertices[k]`` and ``index[id]``, ``nbrs[k]`` its neighbour indices
    (repeated for parallel edges) and ``nbr_sum[k]`` their multiplicities'
    sum. -(nbr_sum[k] // N[k]) is E_k^2 and ``adjunction`` = sum of
    N_k (2 g_k - 2) + nbr_sum[k] is 2g - 2. ``nodes`` (:func:`_is_node`),
    ``principal`` (genus >= 1 or >= 3 edges, all of them nodes) and
    ``contractible`` (:func:`_contractible`) list the vertex indices of
    each class in vertex order."""

    __slots__ = _fields = ("index", "N", "genus", "nbrs", "nbr_sum", "adjunction",
                           "nodes", "principal", "contractible")

    def __init__(self, index: dict[str, int], N: list[int], genus: list[int],
                 nbrs: list[list[int]], nbr_sum: list[int], adjunction: int,
                 nodes: list[int], principal: list[int], contractible: list[int]):
        (set_index, set_N, set_genus, set_nbrs, set_nbr_sum, set_adjunction,
         set_nodes, set_principal, set_contractible) = self._setters
        set_index(self, index)
        set_N(self, N)
        set_genus(self, genus)
        set_nbrs(self, nbrs)
        set_nbr_sum(self, nbr_sum)
        set_adjunction(self, adjunction)
        set_nodes(self, nodes)
        set_principal(self, principal)
        set_contractible(self, contractible)


class ReductionGraph(Value):
    """Immutable labelled multigraph. Edges are unordered id pairs.

    One pass over the vertices and one over the sorted edges check the
    structure (ids, labels, endpoints, loops, the name) and build
    ``_compiled`` (:class:`_Compiled`), which every accessor reads. Exact
    int labels skip the bool test; int labels are stored as exact ints, and
    :func:`_ordered` sorts the ends. :meth:`_settle` then checks a
    structurally sound graph for connectivity, gcd 1, integral
    self-intersections and genus >= 1. Every violation found is raised in
    one ValidationError, so no invalid graph exists.
    """

    _fields = ("vertices", "edges", "name")
    __slots__ = _fields + ("_compiled", "__dict__")  # the cached _minimal: __dict__

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
        edges = _ordered(edges)
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
        if not isinstance(name, str):
            problems.append(Violation("name", f"graph name must be a string, got {_shown(name)}", _shown(name, str)))
        self._settle(vertices, edges, name, index, N, genus, nbrs, nbr_sum, problems)

    def _settle(self, vertices, edges, name, index, N, genus, nbrs, nbr_sum, problems):
        """The one semantic check, which every graph gets: raise ``problems``
        or any connectivity, gcd, E^2 and genus violation in one
        ValidationError, else classify the vertices (trying the contractible
        test only where E^2 = -1) and set the fields and ``_compiled``."""
        adjunction = 2 * sum(map(mul, N, genus)) - 2 * sum(N) + sum(nbr_sum)  # see _Compiled
        if not problems:  # the semantics, of a structurally sound graph only
            if _components(nbrs, range(len(N))) != 1:
                problems.append(Violation("connected", "graph is not connected"))
            d = gcd(*N)
            if d != 1:
                problems.append(Violation("gcd", f"gcd of multiplicities is {_quoted(d)}, must be 1"))
            bad = [Violation("self-intersection",
                             f"vertex {v.id!r}: multiplicity {_quoted(n)} does not divide "
                             f"the sum {_quoted(s)} of neighbouring multiplicities", v.id)
                   for v, n, s in zip(vertices, N, nbr_sum) if s % n]
            # the genus is meaningful once self-intersections are integral; the
            # adjunction sum is even then, as 0 = N.M.N = sum N_i^2 E_i^2 mod 2
            if not bad and adjunction < 0:
                bad.append(Violation("genus", f"derived genus {_quoted(1 + adjunction // 2)} < 1"))
            problems += bad
        if problems:
            raise ValidationError("; ".join(f"{v.code}: {v.message}" for v in problems), tuple(problems))
        nodes, principal, contractible = [], [], []
        for i, g, ns, s, n in zip(itertools.count(), genus, nbrs, nbr_sum, N):
            if _is_node(g, ns):
                nodes.append(i)
                if g or len(ns) > 2:
                    principal.append(i)
            if s == n and _contractible(g, n, ns, s):
                contractible.append(i)
        set_vertices, set_edges, set_name = self._setters
        set_vertices(self, vertices)
        set_edges(self, edges)
        set_name(self, name)
        object.__setattr__(self, "_compiled", _Compiled(index, N, genus, nbrs, nbr_sum, adjunction,
                                                        nodes, principal, contractible))

    # -- basic accessors ---------------------------------------------------

    @property
    def ids(self):
        return [v.id for v in self.vertices]

    def vertex(self, vid: str) -> Vertex:
        return self.vertices[_lookup(self._compiled.index, vid)]

    def degree(self, vid: str) -> int:
        return len(self._compiled.nbrs[_lookup(self._compiled.index, vid)])

    def neighbors(self, vid: str):
        """Ids opposite each incident edge (repeats for parallel edges)."""
        return [self.vertices[w].id
                for w in self._compiled.nbrs[_lookup(self._compiled.index, vid)]]

    def multiplicity(self, vid: str) -> int:
        return self.vertex(vid).multiplicity

    def validate(self) -> tuple:
        """Deprecated: the violations of a graph, which the constructor has
        checked, so always (). An invalid graph raises ValidationError."""
        return ()

    # -- derived geometry ---------------------------------------------------

    def self_intersection(self, vid: str) -> int:
        c, k = self._compiled, _lookup(self._compiled.index, vid)
        return -(c.nbr_sum[k] // c.N[k])

    def genus(self) -> int:
        """Genus of the generic fiber, via adjunction: 2g - 2 is the sum of
        N_v (2 g_v - 2 - E_v^2), an even sum (see the constructor)."""
        return 1 + self._compiled.adjunction // 2

    def first_betti(self) -> int:
        """b_1 of the dual graph: |E| - |V| + 1 (the graph is connected)."""
        return len(self.edges) - len(self.vertices) + 1

    def multiplicity_lcm(self) -> int:
        return lcm(*self._compiled.N)

    def principal_components(self) -> set[str]:
        """Components of genus >= 1, or genus 0 meeting the rest in >= 3 points."""
        return {self.vertices[i].id for i in self._compiled.principal}

    def is_minimal(self) -> bool:
        """No contractible exceptional curve (see :func:`_contractible`)."""
        return not self._compiled.contractible

    @cached_property
    def _minimal(self):
        """The minimal model of this graph, or None when it is minimal
        (None rather than self: a graph caching itself would be a reference
        cycle). A worklist on ``_compiled``: a min-heap of ids, seeded with
        its ``contractible`` vertices. Only a contraction's
        neighbours with E^2 = -1 are pushed again, and a popped id is
        contracted only if it is live and contractible, so each step
        contracts the smallest contractible id. The neighbour lists are
        copies that only grow: an edge dies with one of its ends, so a
        vertex's live neighbours are the live entries of its list. Each
        contraction raises its neighbours' E^2 by 1, so an id is pushed at
        most once and a list is scanned at most once. The result keeps g's
        edges with both ends live, then the joining edges in the order the
        contractions added them. O(V + E + C log V) for C contractions."""
        c = self._compiled
        index, N, genus, vertices = c.index, c.N, c.genus, self.vertices
        heap = [vertices[i].id for i in c.contractible]
        if not heap:
            return None
        import heapq  # here: most graphs a process reads are minimal

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
        return lcm(*(self._compiled.N[i] for i in self._compiled.principal))


def minimize(g: ReductionGraph) -> ReductionGraph:
    """Blow down until no contractible exceptional curve remains.

    Each step contracts the lexicographically smallest contractible id;
    the result does not depend on the order. A -1 curve with both edges on
    one neighbour is not contractible and stays, so the true sncd model of
    I1 is minimal.

    The minimal model is computed once per graph (``ReductionGraph._minimal``)
    and g keeps it alive, so analyze(g), run_checks(g) and minimize(g)
    share one worklist run. g itself is returned when nothing is
    contractible, so minimize(minimize(g)) is minimize(g).
    """
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
    kept = [g._compiled.N[i] for i in g._compiled.nodes]
    if not kept:
        return sorted(g._compiled.N), 1
    return sorted(kept), lcm(*kept)
