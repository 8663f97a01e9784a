"""Model surgery: the blow-ups and the blow-down of a reduction graph.

A blow-up adds a -1 curve and changes each neighbour's neighbour sum by a
multiple of that neighbour's own N, so gcd, connectivity and the
adjunction sum stay: every move keeps a graph valid. The moves read a
graph's integer form (``ReductionGraph._compiled``): the blow-ups run on
plain index lists in :func:`_blown_up`, which catalog.random_instance
shares, and blow_down() drops one vertex. Every result gets the one
semantic check, ReductionGraph._settle: blow_down() constructs its result,
and _blown_up hands _settle the integer form it built, as the structural
pass of the constructor could find nothing in it.

minimize() and contract_chains() stay in graph, since compute --check runs
them; this module is loaded only by a caller of its moves (a plain
compute runs none).
"""

from ._values import _shown
from .errors import NotContractible, UnknownEdge, WouldCreateLoop
from .graph import ReductionGraph, Vertex, _contractible, _lookup, _ordered


def _edge_index(edges, k) -> int:
    """k, refused with UnknownEdge unless it is a position in edges (an
    int, not a bool)."""
    if not isinstance(k, int) or isinstance(k, bool):
        raise UnknownEdge(f"{_shown(k)} is not an edge index")
    if not 0 <= k < len(edges):
        raise UnknownEdge(f"edge index {_shown(k, str)} out of range (graph has {len(edges)} edges)")
    return k


def _blown_up(g: ReductionGraph, moves) -> ReductionGraph:
    """g after the unchecked blow-ups ``moves`` in order: ("free", i) on
    vertex index i, ("edge", k) of the edge at position k. They run on
    plain lists of multiplicities, ids and index pairs; a new id is the
    next of b1, b2, ... not taken in g.

    The result's integer form is built from those lists, in one loop over
    the pairs, and goes through the one semantic check, ReductionGraph._settle.
    The constructor's structural pass would find nothing: g is valid; each
    new id is the first fresh b<n>; a new multiplicity is N_x or N_i + N_j,
    so >= 1, and a new genus is 0; every pair joins two distinct indices.
    The edge ends are ordered by the constructor's rule (graph._ordered),
    so the edges are the ones it would store, and no list is shared with g."""
    c = g._compiled
    index, N, ids = c.index, c.N[:], g.ids
    pairs = [(index[a], index[b]) for a, b in g.edges]
    n = 0  # the last b<n> tried
    for kind, x in moves:
        new = len(ids)
        if kind == "free":
            N.append(N[x])
            pairs.append((x, new))
        else:
            i, j = pairs.pop(x)
            if ids[j] < ids[i]:  # the end whose id sorts first gets the first edge
                i, j = j, i
            N.append(N[i] + N[j])
            pairs += (i, new), (j, new)
        n += 1
        while (vid := f"b{n}") in index:
            n += 1
        ids.append(vid)
    start = len(g.vertices)
    index = dict(index)
    index.update(zip(ids[start:], range(start, len(ids))))
    vertices = g.vertices + tuple(map(Vertex, ids[start:], N[start:]))
    nbrs, nbr_sum = [[] for _ in N], [0] * len(N)
    for i, j in pairs:
        nbrs[i].append(j)
        nbrs[j].append(i)
        nbr_sum[i] += N[j]
        nbr_sum[j] += N[i]
    edges = _ordered([(ids[i], ids[j]) for i, j in pairs])
    h = ReductionGraph.__new__(ReductionGraph)
    h._settle(vertices, edges, g.name, index, N,
              c.genus + [0] * (len(N) - start), nbrs, nbr_sum, [])
    return h


def blow_up_free_point(g: ReductionGraph, v: str) -> ReductionGraph:
    """Blow up a point lying on the single component v.

    The exceptional curve inherits multiplicity N_v, genus 0, and meets v
    once. Genus, first Betti number and the jump spectrum are unchanged.
    The new vertex comes last, named by the first fresh "b<n>".
    """
    return _blown_up(g, [("free", _lookup(g._compiled.index, v))])


def blow_up_edge(g: ReductionGraph, k: int) -> ReductionGraph:
    """Blow up the intersection point of edge k, a position in g.edges.

    The edge between i and j is replaced by a new genus-0 vertex of
    multiplicity N_i + N_j, named by the first fresh "b<n>", joined to
    both: the edge leaves its place, and the new vertex's edges come last,
    the one to the end whose id sorts first before the other.
    """
    return _blown_up(g, [("edge", _edge_index(g.edges, k))])


def blow_down(g: ReductionGraph, v: str) -> ReductionGraph:
    """Contract an exceptional curve (genus 0, E^2 = -1, degree <= 2).

    Degree 1 removes the vertex and its edge; degree 2 with distinct
    neighbours i, j replaces the two edges by a single edge i-j. Two
    parallel edges to one neighbour would turn into a loop, which leaves
    the strict-normal-crossings class: WouldCreateLoop.
    """
    c = g._compiled
    i = _lookup(c.index, v)
    genus, nbrs = c.genus[i], c.nbrs[i]
    if not _contractible(genus, c.N[i], nbrs, c.nbr_sum[i]):
        e2 = -(c.nbr_sum[i] // c.N[i])
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
