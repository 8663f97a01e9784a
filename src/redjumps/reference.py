"""Single values of the jump formulas and graph isomorphism.

What no ``redjumps compute`` runs, kept out of the modules it imports:

- the single-value API at j/m, m = lcm(N_i): the index set I_j, sigma,
  the floor divisor and intersection numbers, the multiplicity of j/m by
  the main and the dual route, the lower bound, and the candidate list.
  Each reads the per-denominator terms of the ``jumps`` kernel, so it
  agrees with the scan by construction;
- ``is_isomorphic``, label-preserving multigraph isomorphism by colour
  refinement and backtracking (McKay-Piperno, J. Symbolic Comput. 60 (2014)).

The tests, the acceptance gate and the benchmark's per-layer census call
these. ``cli``, ``io``, ``graph`` and ``jumps`` never import this module.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from ._values import Value
from .errors import InternalInconsistency, PreconditionFailed
from .graph import ReductionGraph
from .jumps import _members_by_denominator, _numerators, _terms


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
        raise PreconditionFailed(f"need integer j with {lo} <= j < m = {m}, got {j!r}")
    return Fraction(j, m)


def _terms_at(g: ReductionGraph, j, lo=0):
    """The terms of the denominator d of j/m, and its numerator a."""
    q = _check_j(g, j, lo)
    c, d = g._compiled, q.denominator
    return _terms(c, d, [i for i, n in enumerate(c.N) if n % d == 0]), q.numerator


def index_set(g: ReductionGraph, j: int) -> set[str]:
    """I_j = { i : (m/N_i) divides j }."""
    t, _ = _terms_at(g, j)
    return {g.vertices[i].id for i in t.members}


def sigma(g: ReductionGraph, j: int) -> int:
    """Number of edges meeting at least one I_j vertex."""
    return _terms_at(g, j)[0].sigma


def floor_divisor(g: ReductionGraph, j: int) -> IntegralDivisor:
    """floor((j/m) C_k): coefficient floor(j N_i / m) at vertex i."""
    q = _check_j(g, j)
    return IntegralDivisor({v.id: (q.numerator * v.multiplicity) // q.denominator
                            for v in g.vertices})


def intersect(g: ReductionGraph, D: IntegralDivisor, v: str) -> int:
    """Intersection number E_v . D = D_v E_v^2 + sum over edges of D_opposite."""
    total = D[v] * g.self_intersection(v)
    for w in g.neighbors(v):
        total += D[w]
    return total


def jump_multiplicity(g: ReductionGraph, j: int) -> int:
    """Multiplicity of j/m as a jump; non-negative for valid graphs."""
    t, a = _terms_at(g, j)
    out = t.mult(a)
    if out < 0:
        raise InternalInconsistency(f"negative jump multiplicity {out} at j={j}")
    return out


def jump_multiplicity_via_euler(g: ReductionGraph, j: int) -> int:
    """Independent route: Euler characteristic of the twisted line bundle
    on the I_j part of the reduced fiber; 1 <= j < m."""
    t, a = _terms_at(g, j, lo=1)
    return t.euler(g._compiled, a)


def lower_bound(g: ReductionGraph, j: int) -> int:
    """b_1 of the induced subgraph on I_j plus the genera over I_j."""
    return _terms_at(g, j, lo=1)[0].lower_bound(g._compiled)


def candidate_values(g: ReductionGraph):
    """All values in [0,1) whose index set is nonempty: 0 and a/N_i, of g
    itself (not of its minimal model); OverBudget past WORK_BUDGET."""
    return sorted(Fraction(a, d) for d in _members_by_denominator(g._compiled)
                  for a in _numerators(d))


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
