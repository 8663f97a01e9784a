"""Reference answers computed apart from the library.

Nothing here imports ``redjumps``: a graph is read through its public
``vertices`` (``id``, ``multiplicity``, ``genus``) and ``edges`` fields, or
from a ``reduction-graph/1`` document, and every quantity is recomputed in
integer arithmetic from the labels.

- ``brute_spectrum`` scans every j in [0, m), m = lcm of the
  multiplicities, and evaluates the paper's formula at j/m. It is used only
  when m is small; a large model is checked against the spectrum of the
  small model it was blown up from (model independence).
- ``KODAIRA_JUMP`` is the classical table of the nonzero jump of each
  elliptic fiber type.
- ``genus`` is the genus of the generic fiber by adjunction.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

# Largest m = lcm(N_i) for which the full scan is run, and its cost cap in
# vertex visits (m times |V| + |E|).
BRUTE_MAX_M = 5000
BRUTE_MAX_WORK = 200_000

KODAIRA_JUMP = {"II": Fraction(1, 6), "III": Fraction(1, 4),
                "IV": Fraction(1, 3), "IV*": Fraction(2, 3),
                "III*": Fraction(3, 4), "II*": Fraction(5, 6)}


def kodaira_jump(tag):
    """Nonzero jump of an elliptic fiber type: the table above, 1/2 for
    I_n*, 0 for I_n; None for a tag that is not a Kodaira type."""
    if tag in KODAIRA_JUMP:
        return KODAIRA_JUMP[tag]
    if tag.startswith("I") and tag.endswith("*") and tag[1:-1].isdigit():
        return Fraction(1, 2)
    if tag == "I1res" or (tag.startswith("I") and tag[1:].isdigit()):
        return Fraction(0)
    return None


def labels(g):
    """(multiplicity, genus, neighbour list) per vertex id, and the edges."""
    if isinstance(g, dict):
        verts = [(v["id"], v["multiplicity"], v.get("genus", 0))
                 for v in g["vertices"]]
        edges = [tuple(e) for e in g["edges"]]
    else:
        verts = [(v.id, v.multiplicity, v.genus) for v in g.vertices]
        edges = [tuple(e) for e in g.edges]
    mult = {vid: n for vid, n, _ in verts}
    gen = {vid: k for vid, _, k in verts}
    nbrs = {vid: [] for vid in mult}
    for a, b in edges:
        nbrs[a].append(b)
        nbrs[b].append(a)
    return mult, gen, nbrs, edges


def self_intersections(mult, nbrs):
    """E_v^2 from N_v E_v^2 + sum of neighbouring N = 0."""
    out = {}
    for v, n in mult.items():
        s = sum(mult[w] for w in nbrs[v])
        if s % n:
            raise ValueError(f"non-integral self-intersection at {v!r}")
        out[v] = -(s // n)
    return out


def genus(g):
    """Genus of the generic fiber: 2g - 2 = sum N_v (2 g_v - 2 - E_v^2)."""
    mult, gen, nbrs, _ = labels(g)
    e2 = self_intersections(mult, nbrs)
    twice = sum(mult[v] * (2 * gen[v] - 2 - e2[v]) for v in mult)
    return 1 + twice // 2


def lcm_all(values):
    out = 1
    for x in values:
        out = lcm(out, x)
    return out


def brute_spectrum(g):
    """{Fraction: multiplicity} by scanning every j in [0, m), or None when
    m = lcm(N_i) is too large for the scan."""
    mult, gen, nbrs, edges = labels(g)
    m = lcm_all(mult.values())
    if m > BRUTE_MAX_M or m * (len(mult) + len(edges)) > BRUTE_MAX_WORK:
        return None
    e2 = self_intersections(mult, nbrs)
    out = {}
    for j in range(m):
        members = [v for v, n in mult.items() if (j * n) % m == 0]
        if not members:
            continue
        inside = set(members)
        floor = {v: (j * n) // m for v, n in mult.items()}
        total = 0
        for i in members:
            total += floor[i] * e2[i] + sum(floor[w] for w in nbrs[i])
            total += gen[i] - 1
        total += sum(1 for a, b in edges if a in inside or b in inside)
        if j == 0:
            total += 1
        if total < 0:
            raise ValueError(f"negative multiplicity {total} at j={j}")
        if total:
            reduced = gcd(j, m)
            out[Fraction(j // reduced, m // reduced)] = total
    return out


def spectrum_problems(g, spectrum, expected):
    """Reasons why ``spectrum`` ({Fraction: int}) is wrong for ``g``.

    ``expected`` is the spectrum of the model g was blown up from, or None.
    Checks: multiplicities positive and summing to the genus by
    adjunction; equality with ``expected`` (model independence); equality
    with the brute-force scan when m is small.
    """
    problems = []
    if any(k <= 0 for k in spectrum.values()):
        problems.append("non-positive multiplicity")
    if any(not 0 <= q < 1 for q in spectrum):
        problems.append("jump outside [0, 1)")
    if sum(spectrum.values()) != genus(g):
        problems.append("multiplicities do not sum to the genus")
    if expected is not None and spectrum != expected:
        problems.append("differs from the spectrum of the seed model")
    brute = brute_spectrum(g)
    if brute is not None and spectrum != brute:
        problems.append("differs from the brute-force scan")
    return problems


def stabilization_index(spectrum):
    """lcm of the reduced denominators of the nonzero jumps."""
    return lcm_all(q.denominator for q in spectrum if q != 0)


def report_problems(g, report, expected):
    """Check an analysis report (an ``AnalysisReport`` or its JSON form)."""
    if isinstance(report, dict):
        spectrum = {Fraction(j["value"]): j["multiplicity"]
                    for j in report["jumps"]}
        stab = report["stabilization_index"]
        conductor = Fraction(report["tame_base_change_conductor"])
        reported_genus = report["genus"]
    else:
        spectrum = dict(report.jumps)
        stab = report.stabilization_index
        conductor = report.tame_base_change_conductor
        reported_genus = report.genus
    problems = spectrum_problems(g, spectrum, expected)
    if reported_genus != genus(g):
        problems.append("reported genus differs from adjunction")
    if stab != stabilization_index(spectrum):
        problems.append("stabilization index is not the lcm of the jump denominators")
    if conductor != sum((q * k for q, k in spectrum.items()), Fraction(0)):
        problems.append("conductor is not the sum of the jumps")
    return problems


def catalog_expectation(tag, g):
    """Spectrum of a catalog graph: the brute-force scan, cross-checked
    against the classical table for a Kodaira type."""
    spectrum = brute_spectrum(g)
    if spectrum is None:
        raise ValueError(f"catalog graph {tag!r} is too large for the scan")
    jump = kodaira_jump(tag)
    if jump is not None and genus(g) == 1:
        table = {jump: 1}
        if spectrum != table:
            raise ValueError(f"scan of {tag!r} disagrees with the Kodaira table")
    return spectrum


def det(M):
    """Integer determinant by fraction-free elimination."""
    A = [list(r) for r in M]
    n = len(A)
    sign, prev = 1, 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if A[i][k] != 0), None)
        if pivot is None:
            return 0
        if pivot != k:
            A[k], A[pivot] = A[pivot], A[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
        prev = A[k][k]
    return sign * A[n - 1][n - 1]


def matmul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)]
            for row in A]


def smith_problems(M, U, D, V):
    """Reasons why (U, D, V) is not a Smith normal form of M."""
    n = len(M)
    problems = []
    if matmul(matmul(U, M), V) != D:
        problems.append("U M V != D")
    if any(D[i][j] for i in range(n) for j in range(n) if i != j):
        problems.append("D is not diagonal")
    diag = [D[i][i] for i in range(n)]
    if any(d <= 0 for d in diag) or any(diag[i + 1] % diag[i] for i in range(n - 1)):
        problems.append("diagonal is not a positive divisor chain")
    if abs(det(U)) != 1 or abs(det(V)) != 1:
        problems.append("U or V is not unimodular")
    prod = 1
    for d in diag:
        prod *= d
    if prod != abs(det(M)):
        problems.append("product of the diagonal is not |det M|")
    return problems
