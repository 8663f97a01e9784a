"""Single values of the jump formulas and graph isomorphism.

What no ``redjumps compute`` runs, kept out of the modules it imports:

- the single-value API at j/m, m = lcm(N_i): the index set I_j, sigma,
  the floor divisor and intersection numbers, the multiplicity of j/m by
  the main and the dual route, and the lower bound, read off the labels as
  the formulas are written, apart from the ``jumps`` kernel they check;
- ``is_isomorphic``, label-preserving multigraph isomorphism by colour
  refinement and backtracking (McKay-Piperno, J. Symbolic Comput. 60 (2014)).

The tests and the acceptance gate call these. ``cli``, ``io``, ``graph``
and ``jumps`` never import this module.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from ._values import Value, _quoted
from .errors import InternalInconsistency, PreconditionFailed
from .graph import ReductionGraph, _components


class IntegralDivisor(Value):
    """Integer coefficients indexed by vertex id (missing = 0)."""

    __slots__ = _fields = ("coefficients",)

    def __init__(self, coefficients: dict):
        object.__setattr__(self, "coefficients", coefficients)

    def __getitem__(self, vid):
        return self.coefficients.get(vid, 0)


# -- single values j/m, m = lcm(N_i) ----------------------------------------

def _check_j(g: ReductionGraph, j, lo=0):
    m = g.multiplicity_lcm()
    if not isinstance(j, int) or isinstance(j, bool) or not lo <= j < m:
        raise PreconditionFailed(f"need integer j with {lo} <= j < m = {_quoted(m)}, got {_quoted(j)}")
    return Fraction(j, m)


def _members(g: ReductionGraph, j, lo=0):
    """Check lo <= j < m; return q = j/m and I_j as vertices."""
    q = _check_j(g, j, lo)  # i in I_j iff q N_i is an integer
    return q, [v for v in g.vertices if v.multiplicity % q.denominator == 0]


def _sigma(g: ReductionGraph, ids) -> int:
    return sum(a in ids or b in ids for a, b in g.edges)


def _inner(g: ReductionGraph, ids) -> int:
    """Number of edges with both ends in ids."""
    return sum(a in ids and b in ids for a, b in g.edges)


def _floor(g: ReductionGraph, q: Fraction) -> IntegralDivisor:
    return IntegralDivisor({v.id: (q.numerator * v.multiplicity) // q.denominator
                            for v in g.vertices})


def index_set(g: ReductionGraph, j: int) -> set[str]:
    """I_j = { i : (m/N_i) divides j }."""
    return {v.id for v in _members(g, j)[1]}


def sigma(g: ReductionGraph, j: int) -> int:
    """Number of edges meeting at least one I_j vertex."""
    return _sigma(g, index_set(g, j))


def floor_divisor(g: ReductionGraph, j: int) -> IntegralDivisor:
    """floor((j/m) C_k): coefficient floor(j N_i / m) at vertex i."""
    return _floor(g, _check_j(g, j))


def intersect(g: ReductionGraph, D: IntegralDivisor, v: str) -> int:
    """Intersection number E_v . D = D_v E_v^2 + sum over edges of D_opposite."""
    total = D[v] * g.self_intersection(v)
    for w in g.neighbors(v):
        total += D[w]
    return total


def jump_multiplicity(g: ReductionGraph, j: int) -> int:
    """Multiplicity of j/m as a jump: the sum over I_j of
    E_i . floor((j/m) C_k) + g_i - 1, plus sigma and [j = 0]."""
    q, members = _members(g, j)
    D = _floor(g, q)
    out = (sum(intersect(g, D, v.id) + v.genus - 1 for v in members)
           + _sigma(g, {v.id for v in members}) + (j == 0))
    if out < 0:
        raise InternalInconsistency(f"negative jump multiplicity {out} at j={j}")
    return out


def jump_multiplicity_via_euler(g: ReductionGraph, j: int) -> int:
    """Independent route, 1 <= j < m: the Euler characteristic of the twisted
    line bundle on the I_j part of the reduced fiber, the sum over I_j of
    g_i - 1 + deg i + E_i . floor((j/m) C_k) minus the edges inside I_j."""
    q, members = _members(g, j, lo=1)
    D = _floor(g, q)
    return (sum(v.genus - 1 + g.degree(v.id) + intersect(g, D, v.id) for v in members)
            - _inner(g, {v.id for v in members}))


def lower_bound(g: ReductionGraph, j: int) -> int:
    """b_1 of the induced subgraph on I_j plus the genera over I_j."""
    members, c = _members(g, j, lo=1)[1], g._compiled
    return (_inner(g, {v.id for v in members}) - len(members) + sum(v.genus for v in members)
            + _components(c.nbrs, [c.index[v.id] for v in members]))


# -- comparisons of graphs --------------------------------------------------

def is_isomorphic(g1: ReductionGraph, g2: ReductionGraph) -> bool:
    """Label-preserving multigraph isomorphism (multiplicity and genus):
    colour refinement from the labels, then backtracking over vertices of
    equal colour that checks the edge multiplicity to each placed vertex."""
    if len(g1.vertices) != len(g2.vertices) or len(g1.edges) != len(g2.edges):
        return False
    cs, n = (g1._compiled, g2._compiled), len(g1.vertices)
    # refine both graphs together until the number of colours stops growing
    colours, count, palette = [list(zip(c.N, c.genus)) for c in cs], None, {}
    while count != len(palette):
        count, palette = len(palette), {}
        colours = [[palette.setdefault((col[i], tuple(sorted(col[j] for j in c.nbrs[i]))),
                                       len(palette)) for i in range(n)]
                   for c, col in zip(cs, colours)]
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
            stack += [(w, u) for w in cs[0].nbrs[u]]
    order = list(parent)
    A1, A2 = ([Counter(nb) for nb in c.nbrs] for c in cs)
    f, back, pos, depth = {}, {}, [0] * n, 0  # f: order[:depth] -> g2, back its inverse
    while 0 <= depth < n:
        u = order[depth]
        back.pop(f.pop(u, None), None)
        # a child's image is a neighbour of its parent's image
        cands = range(n) if parent[u] is None else cs[1].nbrs[f[parent[u]]]
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
