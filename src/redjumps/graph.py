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

Model surgery runs on a mutable copy of that form indexed the same way
(:class:`_Surgery`), which checks the graph it starts from, not its
results. minimize() computes the minimal model once per graph
(``ReductionGraph._minimal``): a graph keeps its minimal model alive for as
long as it lives, and analyze, run_checks and minimize share it.
"""

from __future__ import annotations

import heapq
import itertools
from functools import cached_property
from math import gcd, lcm
from operator import mul

from ._values import Value
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
            f"vertex {vid!r}: {multiplicity} does not divide neighbour sum {nbr_sum}")
    return -(nbr_sum // multiplicity)


def _contractible(genus: int, multiplicity: int, nbrs, nbr_sum: int) -> bool:
    """The contractible -1 curve: genus 0, E^2 = -1 (the neighbour
    multiplicities sum to N), and degree 1 or two distinct neighbours.
    ``nbrs`` holds the opposite end of each incident edge. A -1 curve
    meeting one neighbour twice would contract to a node, which leaves the
    sncd class, so it is not contractible."""
    return (genus == 0 and nbr_sum == multiplicity
            and (len(nbrs) == 1 or (len(nbrs) == 2 and len(set(nbrs)) == 2)))


def _nodes(g) -> list[int]:
    """Indices of all vertices of g but the chain vertices (genus 0, two edges)."""
    c = g._compiled
    return [i for i, nbrs in enumerate(c.nbrs) if len(nbrs) != 2 or c.genus[i]]


def _components(nbrs, members) -> int:
    """Number of connected components of the subgraph induced on the
    vertex indices ``members``; ``nbrs[i]`` lists the neighbours of i."""
    left, count = set(members), 0
    for i in members:
        if i in left:
            count += 1
            left.discard(i)
            stack = [i]
            while stack:
                for w in nbrs[stack.pop()]:
                    if w in left:
                        left.discard(w)
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
                problems.append(Violation("vertex", f"{v!r} is not a Vertex", str(v)))
                continue
            vid, n, g = v.id, v.multiplicity, v.genus
            if not isinstance(vid, str) or not vid:
                problems.append(Violation("vertex-id", "vertex ids must be non-empty strings", str(vid)))
            elif vid in index:
                problems.append(Violation("vertex-id", f"duplicate vertex id {vid!r}", vid))
            if isinstance(vid, str):  # an empty id is still a known endpoint
                index[vid] = len(N)
            if type(n) is not int or n < 1:
                if not isinstance(n, int) or isinstance(n, bool) or n < 1:
                    problems.append(Violation("multiplicity", f"vertex {vid!r} needs integer multiplicity >= 1, got {n!r}", vid))
                n = int(n) if isinstance(n, int) else 0
            if type(g) is not int or g < 0:
                if not isinstance(g, int) or isinstance(g, bool) or g < 0:
                    problems.append(Violation("genus-label", f"vertex {vid!r} needs integer genus >= 0, got {g!r}", vid))
                g = int(g) if isinstance(g, int) else 0
            N.append(n)
            genus.append(g)
        if not vertices:
            problems.append(Violation("empty", "graph needs at least one vertex"))
        try:  # ends sorted by str(), or every edge as given if one is no pair or str() refuses an end
            edges = tuple([(a, b) if (a <= b if type(a) is str and type(b) is str
                                      else str(a) <= str(b)) else (b, a) for a, b in edges])
        except (TypeError, ValueError):
            pass
        nbrs, nbr_sum = [[] for _ in N], [0] * len(N)
        for k, e in enumerate(edges):
            try:
                a, b = e
            except (TypeError, ValueError):
                problems.append(Violation("edge-endpoint", f"edge #{k} {e!r} is not a pair of vertex ids", str(e)))
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
                problems.append(Violation("edge-endpoint", f"edge #{k} {a!r}-{b!r} references an unknown vertex", f"{a}-{b}"))
            if a == b:
                problems.append(Violation("loop", f"edge #{k} is a loop at {a!r}; loops are forbidden (resolve the node by a blow-up first)", a))
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
            problems.append(Violation("gcd", f"gcd of multiplicities is {g}, must be 1"))
        bad = [Violation("self-intersection",
                         f"vertex {v.id!r}: multiplicity {n} does not divide "
                         f"the sum {s} of neighbouring multiplicities", v.id)
               for v, n, s in zip(self.vertices, c.N, c.nbr_sum) if s % n]
        # the genus is meaningful once self-intersections are integral; the
        # adjunction sum is even then, as 0 = N.M.N = sum N_i^2 E_i^2 mod 2
        if not bad and c.adjunction < 0:
            bad.append(Violation("genus", f"derived genus {1 + c.adjunction // 2} < 1"))
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
                raise InconsistentGeometry(f"derived genus {1 + c.adjunction // 2} < 1")
        return 1 + c.adjunction // 2

    def first_betti(self) -> int:
        """b_1 of the dual graph: |E| - |V| + 1 (graph is connected)."""
        return len(self.edges) - len(self.vertices) + 1

    def multiplicity_lcm(self) -> int:
        return lcm(*self._compiled.N)

    def principal_components(self) -> set[str]:
        """Components of genus >= 1, or genus 0 meeting the rest in >= 3 points."""
        c = self._compiled
        return {v.id for v, g, nb in zip(self.vertices, c.genus, c.nbrs)
                if g >= 1 or len(nb) >= 3}

    def is_minimal(self) -> bool:
        """No contractible exceptional curve (see :func:`_contractible`)."""
        c = self._compiled
        return not any(map(_contractible, c.genus, c.N, c.nbrs, c.nbr_sum))

    @cached_property
    def _minimal(self):
        """The minimal model of this valid graph, or None when it is minimal
        (None rather than self: a graph caching itself would be a reference
        cycle). A worklist: a min-heap of ids, seeded by one pass over
        ``_compiled`` before any surgery form is built.
        Only a contraction's neighbours with E^2 = -1 are pushed again, and
        a popped id is contracted only if it is live and contractible, so
        each step contracts the smallest contractible id. O(V + E + C log V)
        for C contractions."""
        c = self._compiled
        heap = list(itertools.compress(  # the index keys are the ids in order
            c.index, map(_contractible, c.genus, c.N, c.nbrs, c.nbr_sum)))
        if not heap:
            return None
        heapq.heapify(heap)
        s = _Surgery(self)
        while heap:
            i = s.index.get(heapq.heappop(heap))
            if i is not None:
                for w in s._contract(i):
                    if s.nbr_sum[w] == s.N[w]:  # E^2 = -1, else not contractible
                        heapq.heappush(heap, s.vertices[w].id)
        return s.freeze()

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

class _Surgery:
    """Mutable working copy of a graph for a run of blow-ups and blow-downs.

    It is the integer form of :class:`_Compiled`, seeded from it: vertex k
    is ``vertices[k]`` (None once contracted; new vertices are appended)
    with ``N[k]``, ``nbr_sum[k]`` and ``incidence[k]`` (edge key ->
    opposite index), and ``index`` maps each live id to its index. The
    genus is read off the vertex: surgery never changes it. ``edges`` maps
    keys, in insertion order, to sorted id pairs, so :meth:`freeze` gives
    exactly the graph that the same moves applied one by one to immutable
    graphs would give. Ids are read only by the public methods, for fresh
    names, for edge pairs and in :meth:`freeze`. Each move costs O(1) apart
    from finding an edge by position. It refuses an invalid graph, and
    :meth:`freeze` checks nothing, as the moves keep a valid graph valid. A
    blow-up adds a -1 curve and changes each neighbour's sum by a multiple
    of that neighbour's own N: gcd, connectivity and the adjunction sum stay.
    A contraction keeps connectivity, gcd (N_v is its neighbour's N or the
    sum of its two), integral E^2 (the neighbours' rise by 1) and the genus.
    """

    def __init__(self, g: ReductionGraph):
        _check_valid(g.validate())
        c = g._compiled
        self.name = g.name
        self.vertices = list(g.vertices)
        self.index = dict(c.index)
        self.N, self.nbr_sum = c.N[:], c.nbr_sum[:]
        self.incidence = [{} for _ in self.N]
        self.edges = dict(enumerate(g.edges))  # key -> sorted id pair
        for k, (a, b) in self.edges.items():
            i, j = c.index[a], c.index[b]
            self.incidence[i][k] = j
            self.incidence[j][k] = i
        self._keys = itertools.count(len(g.edges))
        self._fresh = 1  # every "b<n>" with n below it is taken

    def _add_vertex(self, multiplicity: int, new_id, *ends) -> str:
        """A genus-0 vertex joined to each index in ends; returns its id."""
        if new_id is None:
            while f"b{self._fresh}" in self.index:
                self._fresh += 1
            new_id = f"b{self._fresh}"
        elif not isinstance(new_id, str) or not new_id:
            raise ValidationError(f"vertex ids must be non-empty strings, got {new_id!r}")
        elif new_id in self.index:
            raise ValidationError(f"vertex id {new_id!r} already in use")
        k = self.index[new_id] = len(self.vertices)
        self.vertices.append(Vertex(new_id, multiplicity, 0))
        self.N.append(multiplicity)
        self.nbr_sum.append(0)
        self.incidence.append({})
        for i in ends:
            self._add_edge(i, k)
        return new_id

    def _add_edge(self, i, j):
        a, b = self.vertices[i].id, self.vertices[j].id
        k = next(self._keys)
        self.edges[k] = (a, b) if a <= b else (b, a)
        self.incidence[i][k] = j
        self.incidence[j][k] = i
        self.nbr_sum[i] += self.N[j]
        self.nbr_sum[j] += self.N[i]

    def _edge_key(self, e) -> int:
        """Key of the edge e, given as a position in edge order (an int,
        not a bool) or as an endpoint pair of ids (the first such edge).
        Anything else is an UnknownEdge."""
        if isinstance(e, int) and not isinstance(e, bool):
            if not 0 <= e < len(self.edges):
                raise UnknownEdge(
                    f"edge index {e} out of range (graph has {len(self.edges)} edges)")
            return next(itertools.islice(self.edges, e, None))
        if not (isinstance(e, (tuple, list)) and len(e) == 2
                and isinstance(e[0], str) and isinstance(e[1], str)):
            raise UnknownEdge(f"{e!r} is neither an edge index nor a pair of vertex ids")
        pair = tuple(sorted(e))
        for k, known in self.edges.items():
            if known == pair:
                return k
        raise UnknownEdge(f"no edge {pair[0]!r}-{pair[1]!r}")

    def blow_up_free_point(self, v: str, new_id=None) -> str:
        i = _lookup(self.index, v)
        return self._add_vertex(self.N[i], new_id, i)

    def blow_up_edge(self, e, new_id=None) -> str:
        key = self._edge_key(e)
        a, b = self.edges[key]
        i, j = self.index[a], self.index[b]
        new_id = self._add_vertex(self.N[i] + self.N[j], new_id, i, j)
        del self.edges[key], self.incidence[i][key], self.incidence[j][key]
        self.nbr_sum[i] -= self.N[j]
        self.nbr_sum[j] -= self.N[i]
        return new_id

    def blow_down(self, v: str):
        """Contract v, or raise unless it is a contractible -1 curve."""
        i = _lookup(self.index, v)
        if self._contract(i):
            return
        genus, nbrs = self.vertices[i].genus, list(self.incidence[i].values())
        e2 = _self_intersection(v, self.N[i], self.nbr_sum[i])
        if genus or e2 != -1 or len(nbrs) > 2:  # else two edges to one vertex
            raise NotContractible(
                f"vertex {v!r}: need genus 0, degree 1 or 2, self-intersection -1 "
                f"(got genus {genus}, degree {len(nbrs)}, E^2 {e2})")
        raise WouldCreateLoop(
            f"vertex {v!r} has both edges to {self.vertices[nbrs[0]].id!r}; "
            "contraction would create a node")

    def _contract(self, i):
        """Contract vertex i if it is contractible (see :func:`_contractible`).
        Returns the indices of its neighbours, the only vertices whose
        contractibility can change, or () if it is not contractible."""
        nbrs = self.incidence[i].values()  # i's own incidence never changes below
        if not _contractible(self.vertices[i].genus, self.N[i], nbrs, self.nbr_sum[i]):
            return ()
        for k, j in self.incidence[i].items():
            del self.edges[k], self.incidence[j][k]
            self.nbr_sum[j] -= self.N[i]
        del self.index[self.vertices[i].id]
        self.vertices[i] = None
        self._fresh = 1  # the id may have been a "b<n>" below the counter
        if len(nbrs) == 2:
            self._add_edge(*nbrs)
        return nbrs

    def freeze(self) -> ReductionGraph:
        """The current graph, valid as its start was (see the class)."""
        return ReductionGraph(filter(None, self.vertices), self.edges.values(), self.name)


def blow_up_free_point(g: ReductionGraph, v: str, new_id: str | None = None) -> ReductionGraph:
    """Blow up a point lying on the single component v.

    The exceptional curve inherits multiplicity N_v, genus 0, and meets v
    once. Genus, first Betti number and the jump spectrum are unchanged.
    """
    s = _Surgery(g)
    s.blow_up_free_point(v, new_id)
    return s.freeze()


def blow_up_edge(g: ReductionGraph, e, new_id: str | None = None) -> ReductionGraph:
    """Blow up an intersection point.

    The edge e (an index, or an endpoint pair) between i and j is replaced
    by a new genus-0 vertex of multiplicity N_i + N_j joined to both.
    """
    s = _Surgery(g)
    s.blow_up_edge(e, new_id)
    return s.freeze()


def blow_down(g: ReductionGraph, v: str) -> ReductionGraph:
    """Contract an exceptional curve (genus 0, E^2 = -1, degree <= 2).

    Degree 1 removes the vertex and its edge; degree 2 with distinct
    neighbours i, j replaces the two edges by a single edge i-j. Two
    parallel edges to one neighbour would turn into a loop, which leaves
    the strict-normal-crossings class: WouldCreateLoop.
    """
    s = _Surgery(g)
    s.blow_down(v)
    return s.freeze()


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
