"""Jump spectra of Jacobians from reduction graphs.

For a curve of genus g with sncd reduction data (multiplicities N_i, genera
g_i, intersection points as edges), the jumps of the tame base-change
filtration on the Néron model of the Jacobian lie in [0, 1), and the
multiplicity of q as a jump is the integer

    sum_{i in I_q} (E_i . floor(q C_k) + g_i) - |I_q| + sigma_q + [q = 0]

where I_q = {i : q N_i is an integer}, floor(q C_k) is the divisor with
coefficients floor(q N_i), and sigma_q counts the edges touching I_q.
Counted with multiplicity there are exactly g jumps; the multiplicity of 0
is g minus the unipotent rank g - sum g_i - b_1.

Write q = a/d in lowest terms. Then I_q = M_d = {i : d | N_i} depends on d
alone, and since E_i . C_k = 0 the intersection terms collapse onto the
boundary of M_d, the edges i-w with i in M_d and w outside:

    mult(a/d) = sum_{M_d} g_i - |M_d| + sigma_d + [d = 1]
                - (sum over boundary edges of (a N_w mod d)) / d

The kernel reads the integer form the graph built when it was
constructed. It computes M_d, its inner edges, sigma_d, its boundary and
its genus once per denominator d (w is in M_d exactly when d divides N_w),
and only the last sum once per numerator a. Only q with I_q nonempty can
be jumps, so the candidates are the a/d with d dividing some N_i and a
prime to d; the scan never loops over [0, m), m = lcm(N_i), which explodes
under repeated blow-ups while the candidate set stays small.

The dual route is the direct intersection-number form, the Euler
characteristic of the twisted line bundle on the I_q part of the reduced
fiber: sum_{M_d} (g_i - 1 + deg_i + E_i . floor(q C_k)) minus the edges
inside M_d, with every floor evaluated afresh. The lower bound b_1(M_d) +
sum_{M_d} g_i depends on d alone; the components of M_d that b_1 needs
are counted only when a check reads the bound.

Which model each route scans. The spectrum does not depend on the sncd
model, but the candidate count sum_{d | some N_i} phi(d) is at least
max N_i and grows like a Fibonacci number under repeated edge blow-ups,
on chain vertices (genus 0, exactly two incident edges, maybe to one
neighbour), which contribute nothing. By vertex, with tau(w) = 1/2 if
d | N_w and 1 - <a N_w / d> otherwise (<x> the fractional part),
mult(a/d) is [d = 1] plus the sum over M_d of c_i(a) = g_i - 1 + the
sum over the edges i-w of tau(w). Lemma: c_i(a) = 0 for a chain vertex
i in M_d. Its neighbours have N_w1 + N_w2 = -E_i^2 N_i = 0 mod d, so both
lie in M_d (-1 + 1/2 + 1/2) or neither does, and then a N_w1 and a N_w2
are nonzero residues summing to d (-1 + 2 - 1). So compute_jumps and
analyze scan only the nodes, the other vertices. The compiled form of g
lists them (``nodes``) beside the principal components and the
contractible vertices, which analyze reads for g as given; every graph
is classified once, when it is built. The scan reads the nodes of g
unless one is contractible or they have more than WORK_BUDGET
candidates, and else those of minimize(g), O(V + E + C log V) for C
contractions. The minimal model is computed once per graph object and
kept with it, so analyze(g) followed by minimize(g) or run_checks(g)
contracts once. run_checks and
analyze(g, with_checks=True) keep the scan of every vertex of g as the
reference route, and only it evaluates the lower bound and the dual
route, which hold on all of M_d and not on its nodes; model independence
compares it with the node route on the minimal model. Every scan first
counts the candidates of the vertices it scans, and more than
WORK_BUDGET of them raise OverBudget instead of being scanned. The
kernel, the checks and ``_report`` carry each jump a/d as (a, d) in
lowest terms, sorted by a (L / d) for L the lcm of the jump
denominators (the stabilization index): only the public answers are
made of Fractions.
"""

from math import gcd, lcm
from types import SimpleNamespace

from . import _values
from ._values import Value, _quoted, _ratio
from .errors import InternalInconsistency, OverBudget
from .graph import ReductionGraph, _components, _is_node, contract_chains, minimize

# The most candidates a/d one scan may visit: a few seconds of work.
WORK_BUDGET = 2_000_000


class JumpSpectrum(Value):
    """Sorted (value, multiplicity) pairs; multiplicities sum to the genus."""

    __slots__ = _fields = ("entries", "genus")

    def __init__(self, entries: "tuple[tuple[Fraction, int], ...]", genus: int):
        set_entries, set_genus = self._setters
        set_entries(self, entries)
        set_genus(self, genus)

    def multiplicity(self, value) -> int:
        return self.as_dict().get(_values.Fraction(value), 0)

    def as_dict(self):
        return dict(self.entries)

    def denominator_lcm(self) -> int:
        """lcm of the reduced denominators of the nonzero jumps (1 if none);
        the zero jump's denominator is 1, so it needs no test."""
        return lcm(*(v.denominator for v, _ in self.entries))


# -- the kernel: per-denominator terms of the compiled graph -----------------

class _Terms(Value):
    """Everything the three routes need of one denominator d and a set S
    of vertices in M_d = {i : d | N_i}, all of M_d or its nodes: ``members``
    is S as vertex indices, ``half_inner`` the number of half-edges from S
    into M_d, ``boundary`` holds N_w for each edge i-w with i in S and w
    outside M_d, ``genus`` the sum of g_i over S. The lower bound, which
    counts components on each call, and the dual route need S = M_d."""

    __slots__ = _fields = ("d", "members", "half_inner", "boundary", "genus")

    def __init__(self, d: int, members: tuple[int, ...], half_inner: int,
                 boundary: tuple[int, ...], genus: int):
        set_d, set_members, set_half_inner, set_boundary, set_genus = self._setters
        set_d(self, d)
        set_members(self, members)
        set_half_inner(self, half_inner)
        set_boundary(self, boundary)
        set_genus(self, genus)

    def lower_bound(self, c) -> int:
        return (self.half_inner // 2 - len(self.members) + _components(c.nbrs, self.members)
                + self.genus)

    def mult(self, a: int) -> int:
        """Main route at a/d: [d = 1] plus the c_i(a) of S, scaled by 2d.
        M_d and its nodes, the two S the routes pass, have an even half-edge
        count (each chain of chain vertices in M_d ends at two nodes of M_d)
        and one boundary, whose sum d divides: a remainder is a fault."""
        d = self.d
        tail, rest = divmod(d * self.half_inner
                            - 2 * sum(a * n % d for n in self.boundary), 2 * d)
        if rest:
            raise InternalInconsistency(
                f"half-edge sum at {_ratio(a, d)} is not a multiple of {2 * d}")
        return self.genus - len(self.members) + len(self.boundary) + int(d == 1) + tail

    def euler(self, c, a: int) -> int:
        """Dual route at a/d, by the direct intersection-number form."""
        d = self.d
        total = -(self.half_inner // 2)
        for i in self.members:  # E_i^2 = -(nbr_sum_i / N_i)
            e_dot = (-(a * c.N[i] // d) * (c.nbr_sum[i] // c.N[i])
                     + sum(a * c.N[w] // d for w in c.nbrs[i]))
            total += c.genus[i] - 1 + len(c.nbrs[i]) + e_dot
        return total


def _terms(c, d: int, members) -> _Terms:
    N, nbrs, genus = c.N, c.nbrs, c.genus
    half_inner, boundary, total = 0, [], 0
    for i in members:
        total += genus[i]
        for w in nbrs[i]:
            n = N[w]
            if n % d:  # w is outside M_d
                boundary.append(n)
            else:
                half_inner += 1
    return _Terms(d, tuple(members), half_inner, tuple(boundary), total)


def _divisor_phis(n: int) -> dict[int, int]:
    """phi(d) for every divisor d of n, from the factorization of n by
    trial division: each prime power p^k exactly dividing n multiplies
    the table by phi(p^e) = (p - 1) p^(e - 1), e = 0..k."""
    phis, p = {1: 1}, 2
    while n > 1:
        if p * p > n:  # what is left of n is prime
            p = n
        if n % p == 0:
            powers, q = [(1, 1)], 1
            while n % p == 0:
                n //= p
                powers.append((q * p, q * (p - 1)))
                q *= p
            phis = {d * e: f * g for d, f in phis.items() for e, g in powers}
        p += 1 if p == 2 else 2
    return phis


def _members_by_denominator(c, indices) -> dict:
    """M_d restricted to the vertex indices ``indices``, for d = 1 and every
    d dividing N_i of some i there. Raises OverBudget first when the
    candidates, sum of phi(d) over those d, number more than WORK_BUDGET.
    That sum is at least max N_i (sum_{d | N} phi(d) = N), so a larger
    N_i is over the budget before anything is factored."""
    mults = {c.N[i] for i in indices}
    top = max(mults, default=1)
    if top > WORK_BUDGET:
        raise OverBudget(f"at least {_quoted(top)} candidates (the largest multiplicity), "
                         f"work budget {WORK_BUDGET}")
    divisors = {n: _divisor_phis(n) for n in mults}
    phi = {1: 1}
    for phis in divisors.values():
        phi.update(phis)
    count = sum(phi.values())
    if count > WORK_BUDGET:
        raise OverBudget(f"{count} candidates, work budget {WORK_BUDGET}")
    members = {1: []}
    for i in indices:
        for d in divisors[c.N[i]]:
            members.setdefault(d, []).append(i)
    return members


def _numerators(d: int):
    """The a with a/d in lowest terms and 0 <= a/d < 1."""
    return [0] if d == 1 else [a for a in range(1, d) if gcd(a, d) == 1]


def candidate_values(g: ReductionGraph):
    """All values in [0,1) whose index set is nonempty: 0 and a/N_i, of g
    itself (not of its minimal model); OverBudget past WORK_BUDGET."""
    c, fraction = g._compiled, _values.Fraction
    return sorted(fraction(a, d) for d in _members_by_denominator(c, range(len(c.N)))
                  for a in _numerators(d))


def _scan(g: ReductionGraph, nodes: bool = False):
    """One pass over the candidates of the nodes of g (``_compiled.nodes``)
    or of every vertex: the spectrum (jumps, L, genus), the genus read off
    the adjunction sum, and whether every nonzero candidate meets the lower
    bound and the dual route. Only the scan of every vertex evaluates those
    two, as both hold on all of M_d, not on its nodes (a node scan returns
    True, True). Asserts non-negativity, not the total."""
    c = g._compiled
    checks = not nodes
    entries = []
    ok_bound = ok_dual = True
    for d, members in _members_by_denominator(
            c, c.nodes if nodes else range(len(c.N))).items():
        t = _terms(c, d, members)
        bound = t.lower_bound(c) if checks and d > 1 else None
        for a in _numerators(d):
            mult = t.mult(a)
            if mult < 0:
                raise InternalInconsistency(
                    f"negative jump multiplicity {mult} at {_ratio(a, d)}")
            if mult:
                entries.append(((a, d), mult))
            if checks and a:
                ok_bound = ok_bound and mult >= bound
                ok_dual = ok_dual and mult == t.euler(c, a)
    index = lcm(*[d for (_, d), _ in entries])  # the zero jump's denominator is 1
    entries.sort(key=lambda e: e[0][0] * (index // e[0][1]))
    return (tuple(entries), index, 1 + c.adjunction // 2), ok_bound, ok_dual


def _fractions(jumps) -> "tuple[tuple[Fraction, int], ...]":
    return tuple([(_values.Fraction(a, d), k) for (a, d), k in jumps])


def _spectrum(form) -> JumpSpectrum:
    """The JumpSpectrum of a pair-form spectrum (jumps, L, genus)."""
    return JumpSpectrum(_fractions(form[0]), form[2])


def _node_route(g: ReductionGraph):
    """compute_jumps's spectrum in pair form (jumps, L, genus), its total asserted."""
    c = g._compiled
    form = None
    if not any(_is_node(c.genus[i], c.nbrs[i]) for i in c.contractible):
        try:
            form = _scan(g, nodes=True)[0]
        except OverBudget:  # a heavy node of g, which minimize may remove
            pass
    if form is None:
        form = _scan(minimize(g), nodes=True)[0]
    jumps, _, genus = form
    total = sum(k for _, k in jumps)
    if total != genus:
        raise InternalInconsistency(f"jump multiplicities sum to {total}, genus is {genus}")
    return form


def compute_jumps(g: ReductionGraph) -> JumpSpectrum:
    """Full jump spectrum by the node route (see the module docstring),
    from the classes of g: the nodes of g are scanned unless one is
    contractible or they are over the budget, and else those of
    minimize(g). Asserts the multiplicity total equals the genus. Raises
    OverBudget when the nodes of the model scanned have more than
    WORK_BUDGET candidates."""
    return _spectrum(_node_route(g))


def tame_base_change_conductor(s: JumpSpectrum) -> "Fraction":
    """Sum of the jumps with multiplicity, as one sum over their lcm."""
    m = s.denominator_lcm()  # the zero jump's denominator is 1
    return _values.Fraction(sum(v.numerator * (m // v.denominator) * k for v, k in s.entries), m)


def unipotent_rank(g: ReductionGraph) -> int:
    """u = genus - sum of component genera - first Betti number."""
    u = g.genus() - sum(g._compiled.genus) - g.first_betti()
    if u < 0:
        raise InternalInconsistency(f"negative unipotent rank {u}")
    return u


class AnalysisReport(Value):
    """Everything the command line reports about one reduction graph."""

    __slots__ = _fields = ("name", "genus", "jumps", "tame_base_change_conductor",
                           "unipotent_rank", "stabilization_index",
                           "principal_components", "minimal", "checks")

    def __init__(self, name: str, genus: int, jumps: "tuple[tuple[Fraction, int], ...]",
                 tame_base_change_conductor: "Fraction", unipotent_rank: int,
                 stabilization_index: int, principal_components: tuple[str, ...],
                 minimal: bool, checks: tuple | None = None):
        (set_name, set_genus, set_jumps, set_tame_base_change_conductor, set_unipotent_rank,
         set_stabilization_index, set_principal_components, set_minimal, set_checks) = self._setters
        set_name(self, name)
        set_genus(self, genus)
        set_jumps(self, jumps)
        set_tame_base_change_conductor(self, tame_base_change_conductor)
        set_unipotent_rank(self, unipotent_rank)
        set_stabilization_index(self, stabilization_index)
        set_principal_components(self, principal_components)
        set_minimal(self, minimal)
        set_checks(self, checks)


def analyze(g: ReductionGraph, with_checks: bool = False) -> AnalysisReport:
    """Full analysis of one graph.

    The spectrum, the conductor and the stabilization index (the lcm of
    the reduced denominators of the jumps) do not depend on the model, and
    are read off the node route of compute_jumps. With checks they come
    from the reference route instead, the scan of every vertex of g, which
    run_checks compares with the node route on minimize(g). The unipotent
    rank, the principal components and ``minimal`` describe g as given,
    and the last two are read off the vertex classes of g.
    """
    name, genus, jumps, conductor, *rest = _report(g, with_checks)
    return AnalysisReport(name, genus, _fractions(jumps), _values.Fraction(*conductor), *rest)


def _report(g: ReductionGraph, with_checks: bool = False) -> tuple:
    """AnalysisReport's fields for analyze(g, with_checks), in order, in pair
    form: the jumps ((a, d), multiplicity) and the conductor (its sum over L, L)."""
    (jumps, index, genus), checks = _checked(g) if with_checks else (_node_route(g), None)
    return (g.name, genus, jumps, (sum(a * (index // d) * k for (a, d), k in jumps), index),
            unipotent_rank(g), index, tuple(sorted(g.principal_components())),
            g.is_minimal(), None if checks is None else tuple(checks))


# -- consistency checks (used by the CLI and the test corpus) ---------------

def run_checks(g: ReductionGraph):
    """Cross-verify every theorem-backed relation on one graph.

    Returns a list of (name, passed) pairs covering: the genus total, the
    multiplicity of 0, the per-value lower bound, the dual computation
    route, principal-denominator facts in both directions, jumps forced by
    positive-genus components, the denominator-lcm route to the
    stabilization index, the chain-contraction route to it, and model
    independence. The spectrum, the lower bound and the dual route come
    from one scan of every vertex of g, the reference route; model
    independence compares that spectrum with the node route on minimize(g).
    """
    return _checked(g)[1]


# Every check of _checked, in report order: a name and a test of the facts
# _checked gathers on one graph. The names are fixed, so the CLI refuses an
# unknown --check NAME from CHECK_NAMES before any scan.
_CHECKS = (
    ("total-equals-genus", lambda f: sum(f.mults.values()) == f.genus),
    ("zero-jump-multiplicity", lambda f: f.mults.get((0, 1), 0) == f.genus - f.u),
    ("nonzero-count-equals-unipotent-rank",
     lambda f: sum(m for (a, _), m in f.mults.items() if a) == f.u),
    ("lower-bound", lambda f: f.ok_bound),
    ("dual-route", lambda f: f.ok_dual),
    ("principal-denominators",
     lambda f: all(any(n % d == 0 for n in f.principal_mults) for a, d in f.mults if a)),
    ("principal-converse",
     lambda f: all(any(d % n == 0 for _, d in f.mults) for n in f.principal_mults)),
    # every a/N, 1 <= a < N, is a jump: the a/N are the N - 1 nonzero
    # values whose denominator divides N
    ("positive-genus-jumps",
     lambda f: all(sum(a != 0 and n % d == 0 for a, d in f.mults) == n - 1
                   for n in {v.multiplicity for v in f.g.vertices if v.genus >= 1})),
    ("denominator-lcm", lambda f: f.lcm == f.index),
    ("chain-contraction", lambda f: contract_chains(f.minimized)[1] == f.index),
    ("model-independence", lambda f: f.minimal_jumps == f.jumps),
)
CHECK_NAMES = tuple(name for name, _ in _CHECKS)


def _checked(g: ReductionGraph):
    """The scan of g (the reference route) in pair form, and the checks on it."""
    minimized = minimize(g)
    form, ok_bound, ok_dual = _scan(g)
    facts = SimpleNamespace(
        g=g, minimized=minimized, jumps=form[0], lcm=form[1], ok_bound=ok_bound,
        ok_dual=ok_dual, mults=dict(form[0]), genus=g.genus(),
        u=unipotent_rank(g), index=minimized.stabilization_index(),
        minimal_jumps=_scan(minimized, nodes=True)[0][0],
        principal_mults=sorted(minimized._compiled.N[i] for i in minimized._compiled.principal))
    return form, [(name, test(facts)) for name, test in _CHECKS]
