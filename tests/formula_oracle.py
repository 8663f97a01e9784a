"""The paper's formula for the jumps, written out apart from the library.

The tests and the acceptance gate check the ``jumps`` kernel against this
module, so it imports nothing from ``redjumps``: a graph is read through
its public ``vertices`` (``id``, ``multiplicity``, ``genus``) and ``edges``
alone, and every value is recomputed from those labels in integers. With
m = lcm(N_i), the multiplicity of j/m as a jump is

    sum over I_j of (E_i . floor((j/m) C_k) + g_i - 1) + sigma_j + [j = 0]

where I_j = {i : j N_i / m is an integer}, floor((j/m) C_k) has
coefficient floor(j N_i / m) at i, E_i^2 comes from E_i . C_k = 0, and
sigma_j counts the edges meeting I_j.

It holds the single values at j/m (``index_set``, ``sigma``,
``floor_divisor`` as a dict by vertex id, ``intersect``, the main and the
dual route and ``lower_bound``), the full ``scan``, the ``genus`` by
adjunction, ``s_d`` of the monodromy pairing (A'Campo, Comment. Math.
Helv. 50 (1975)), the ``contractible`` curves and ``is_isomorphic``
(McKay-Piperno, J. Symbolic Comput. 60 (2014)).
"""

from collections import Counter
from fractions import Fraction
from math import lcm


class Labels:
    """What the formulas read of a graph: N_i and g_i by vertex id, the
    vertex at the other end of each edge at i, the edges and m."""

    def __init__(self, g):
        self.N = {v.id: v.multiplicity for v in g.vertices}
        self.genus = {v.id: v.genus for v in g.vertices}
        self.edges = g.edges
        self.nbrs = {i: [] for i in self.N}
        for a, b in self.edges:
            self.nbrs[a].append(b)
            self.nbrs[b].append(a)
        self.m = lcm(*self.N.values())

    def self_intersection(self, i):
        return -(sum(self.N[w] for w in self.nbrs[i]) // self.N[i])

    def contractible(self, i):
        """A contractible -1 curve: genus 0, E^2 = -1, and one edge or two
        edges to distinct neighbours (two to one neighbour would contract
        to a node)."""
        ns = self.nbrs[i]
        return (self.genus[i] == 0 and self.self_intersection(i) == -1
                and (len(ns) == 1 or (len(ns) == 2 and ns[0] != ns[1])))

    def index_set(self, j):
        return {i for i, n in self.N.items() if j * n % self.m == 0}

    def floor_divisor(self, j):
        return {i: j * n // self.m for i, n in self.N.items()}

    def intersect(self, D, i):
        return D[i] * self.self_intersection(i) + sum(D[w] for w in self.nbrs[i])

    def inner(self, members):  # the edges with both ends in members
        return sum(a in members and b in members for a, b in self.edges)

    def sigma(self, members):  # the edges meeting members
        return sum(a in members or b in members for a, b in self.edges)

    def mult(self, j):
        members, D = self.index_set(j), self.floor_divisor(j)
        return (sum(self.intersect(D, i) + self.genus[i] - 1 for i in members)
                + self.sigma(members) + (j == 0))


def index_set(g, j):
    """I_j = {i : j N_i / m is an integer}."""
    return Labels(g).index_set(j)


def sigma(g, j):
    """The number of edges meeting I_j."""
    L = Labels(g)
    return L.sigma(L.index_set(j))


def floor_divisor(g, j):
    """floor((j/m) C_k): {vertex id: floor(j N_i / m)}."""
    return Labels(g).floor_divisor(j)


def intersect(g, D, i):
    """E_i . D = D_i E_i^2 + the sum of D over the other end of each edge at i."""
    return Labels(g).intersect(D, i)


def jump_multiplicity(g, j):
    """The main route: the multiplicity of j/m by the formula above."""
    return Labels(g).mult(j)


def jump_multiplicity_via_euler(g, j):
    """The dual route, 1 <= j < m: the Euler characteristic of the twisted
    line bundle on the I_j part of the reduced fiber, the sum over I_j of
    g_i - 1 + deg i + E_i . floor((j/m) C_k) minus the edges inside I_j."""
    L = Labels(g)
    members, D = L.index_set(j), L.floor_divisor(j)
    return (sum(L.genus[i] - 1 + len(L.nbrs[i]) + L.intersect(D, i) for i in members)
            - L.inner(members))


def lower_bound(g, j):
    """b_1 of the subgraph induced on I_j plus the genera over I_j."""
    L = Labels(g)
    members = L.index_set(j)
    left, components = set(members), 0
    while left:  # one depth-first walk per component
        components += 1
        stack = [left.pop()]
        while stack:
            for w in L.nbrs[stack.pop()]:
                if w in left:
                    left.remove(w)
                    stack.append(w)
    return (L.inner(members) - len(members) + components
            + sum(L.genus[i] for i in members))


def scan(g):
    """{j/m: multiplicity} by the main route at every j in [0, m), zeros
    included; it costs m (|V| + |E|)."""
    L = Labels(g)
    return {Fraction(j, L.m): L.mult(j) for j in range(L.m)}


def genus(g):
    """The genus of the generic fiber: 2g - 2 = sum of N_i (2 g_i - 2 - E_i^2)."""
    L = Labels(g)
    return 1 + sum(n * (2 * L.genus[i] - 2 - L.self_intersection(i))
                   for i, n in L.N.items()) // 2


def s_d(g, d):
    """S_d, the sum of 2 g_i - 2 + deg i over the i with d | N_i. Through
    A'Campo's zeta function of the monodromy, mult(a/d) +
    mult(((d - a) mod d)/d) = 2[d = 1] + S_d for every a prime to d."""
    L = Labels(g)
    return sum(2 * L.genus[i] - 2 + len(L.nbrs[i]) for i, n in L.N.items() if n % d == 0)


def contractible(g):
    """The ids of the contractible -1 curves of g, in vertex order."""
    L = Labels(g)
    return [v.id for v in g.vertices if L.contractible(v.id)]


def is_isomorphic(g1, g2):
    """Label-preserving multigraph isomorphism (multiplicity and genus):
    colour refinement from the labels, then backtracking over vertices of
    equal colour that checks the edge multiplicity to each placed vertex."""
    if len(g1.vertices) != len(g2.vertices) or len(g1.edges) != len(g2.edges):
        return False
    n, nbrs = len(g1.vertices), []
    for g in (g1, g2):  # neighbour lists of vertex positions
        index = {v.id: k for k, v in enumerate(g.vertices)}
        nbrs.append([[] for _ in range(n)])
        for a, b in g.edges:
            nbrs[-1][index[a]].append(index[b])
            nbrs[-1][index[b]].append(index[a])
    # refine both graphs together until the number of colours stops growing
    colours = [[(v.multiplicity, v.genus) for v in g.vertices] for g in (g1, g2)]
    count, palette = None, {}
    while count != len(palette):
        count, palette = len(palette), {}
        colours = [[palette.setdefault((col[i], tuple(sorted(col[j] for j in nb[i]))),
                                       len(palette)) for i in range(n)]
                   for nb, col in zip(nbrs, colours)]
    col1, col2 = colours
    hist = Counter(col1)
    if hist != Counter(col2):
        return False
    # depth first from the rarest colours, so a parent is placed before its child
    parent, stack = {}, [(s, None) for s in sorted(range(n), key=lambda i: -hist[col1[i]])]
    while stack:
        u, p = stack.pop()
        if u not in parent:
            parent[u] = p
            stack += [(w, u) for w in nbrs[0][u]]
    order = list(parent)
    A1, A2 = ([Counter(nb) for nb in side] for side in nbrs)
    f, back, pos, depth = {}, {}, [0] * n, 0  # f: order[:depth] -> g2, back its inverse
    while 0 <= depth < n:
        u = order[depth]
        back.pop(f.pop(u, None), None)
        # a child's image is a neighbour of its parent's image
        cands = range(n) if parent[u] is None else nbrs[1][f[parent[u]]]
        while pos[depth] < len(cands):
            v = cands[pos[depth]]
            pos[depth] += 1
            if col2[v] == col1[u] and v not in back and all(
                    A2[v].get(f[w], 0) == k for w, k in A1[u].items() if w in f) and all(
                    A1[u].get(back[x], 0) == k for x, k in A2[v].items() if x in back):
                f[u], back[v], depth = v, u, depth + 1
                break
        else:
            pos[depth], depth = 0, depth - 1
    return depth == n
