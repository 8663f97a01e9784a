"""Jump spectra, conductors and the consistency-check suite.

The single-value multiplicities asserted here were computed by hand from
the intersection formula (index set, floor divisor, sigma) and frozen; the
formula itself, written out apart from the library, is ``formula_oracle``.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redjumps import (
    ReductionGraph,
    Vertex,
    analyze,
    blow_down,
    blow_up_edge,
    blow_up_free_point,
    candidate_values,
    catalog_graph,
    catalog_tags,
    compute_jumps,
    dump_graph,
    expected_jump,
    kodaira_graph,
    minimize,
    random_instance,
    report_document,
    run_checks,
    seed_graphs,
    tame_base_change_conductor,
    unipotent_rank,
)
from redjumps import jumps
from redjumps.cli import main
from redjumps.errors import InternalInconsistency, OverBudget

import formula_oracle as oracle
from blowup_chains import fibonacci_chain, heaviest_edge
from test_superelliptic import superelliptic_star

F = Fraction


def given_model_spectrum(g):
    """The scan of every vertex of g, the reference route of run_checks;
    compute_jumps takes the node route instead."""
    return jumps._spectrum(jumps._scan(g)[0])


def node_route(g):
    """The scan of the nodes of g alone."""
    return jumps._spectrum(jumps._scan(g, nodes=True)[0])


# -- the intersection-formula ingredients on the type II star -------------------

def test_index_set_on_star():
    g = kodaira_graph("II")  # multiplicities 6, 3, 2, 1; m = 6
    assert oracle.index_set(g, 1) == {"c"}
    assert oracle.index_set(g, 2) == {"c", "t1"}
    assert oracle.index_set(g, 3) == {"c", "t2"}
    assert oracle.index_set(g, 0) == {"c", "t1", "t2", "t3"}


def test_sigma_counts_incident_edges():
    g = kodaira_graph("II")
    assert oracle.sigma(g, 1) == 3
    assert oracle.sigma(g, 0) == 3
    h = kodaira_graph("I4")
    assert oracle.sigma(h, 0) == 4


def test_floor_divisor_and_intersect():
    g = kodaira_graph("II")
    d = oracle.floor_divisor(g, 1)
    assert d == {"c": 1, "t1": 0, "t2": 0, "t3": 0}
    assert oracle.intersect(g, d, "c") == -1
    assert oracle.intersect(g, d, "t1") == 1


def test_candidate_values():
    got = candidate_values(kodaira_graph("II"))
    assert got == [F(0), F(1, 6), F(1, 3), F(1, 2), F(2, 3), F(5, 6)]
    assert candidate_values(kodaira_graph("I7")) == [F(0)]


# -- frozen single multiplicities ------------------------------------------------

def test_hand_computed_multiplicities():
    assert oracle.jump_multiplicity(kodaira_graph("II"), 1) == 1
    assert oracle.jump_multiplicity(kodaira_graph("II"), 2) == 0
    assert oracle.jump_multiplicity(kodaira_graph("I3*"), 1) == 1
    assert oracle.jump_multiplicity(kodaira_graph("II*"), 50) == 1  # 50/60 = 5/6
    assert oracle.jump_multiplicity(kodaira_graph("III*"), 9) == 1  # 9/12 = 3/4
    assert oracle.jump_multiplicity(kodaira_graph("IV*"), 4) == 1  # 4/6 = 2/3
    assert oracle.jump_multiplicity(catalog_graph("genus2"), 0) == 1
    assert oracle.jump_multiplicity(catalog_graph("genus2"), 1) == 1


# -- full spectra ----------------------------------------------------------------

def test_elliptic_spectra_match_classical_table():
    for tag in catalog_tags():
        if tag == "genus2":
            continue
        s = compute_jumps(catalog_graph(tag))
        assert s.genus == 1
        assert s.entries == ((expected_jump(tag), 1),), tag


def test_genus2_spectrum():
    s = compute_jumps(catalog_graph("genus2"))
    assert s.as_dict() == {F(0): 1, F(1, 2): 1}
    assert tame_base_change_conductor(s) == F(1, 2)


def test_star5_spectrum():
    s = compute_jumps(seed_graphs()["star5"])
    assert s.as_dict() == {F(0): 1, F(1, 4): 2, F(1, 2): 1, F(3, 4): 1}
    assert s.genus == 5
    assert s.denominator_lcm() == 4
    assert tame_base_change_conductor(s) == F(7, 4)


def test_twin_spectrum():
    s = compute_jumps(seed_graphs()["twin"])
    assert s.as_dict() == {F(0): 2}
    assert tame_base_change_conductor(s) == 0


def test_spectrum_helpers():
    s = compute_jumps(seed_graphs()["star5"])
    assert s.multiplicity(F(1, 4)) == 2
    assert s.multiplicity("1/4") == 2
    assert s.multiplicity(F(1, 3)) == 0
    assert [v for v, _ in s.entries] == [F(0), F(1, 4), F(1, 2), F(3, 4)]


def test_the_public_answers_are_fractions():
    # the kernel carries each jump as an integer pair (a, d); every public
    # answer is still made of Fractions, with the reprs they always had
    assert repr(analyze(kodaira_graph("II*"))) == (
        "AnalysisReport(name='II*', genus=1, jumps=((Fraction(5, 6), 1),), "
        "tame_base_change_conductor=Fraction(5, 6), unipotent_rank=1, stabilization_index=6, "
        "principal_components=('c',), minimal=True, checks=None)")
    r = analyze(kodaira_graph("I3"), with_checks=True)
    assert (repr(r.jumps), repr(r.tame_base_change_conductor)) == (
        "((Fraction(0, 1), 1),)", "Fraction(0, 1)")
    s = compute_jumps(seed_graphs()["star5"])
    assert repr(s) == ("JumpSpectrum(entries=((Fraction(0, 1), 1), (Fraction(1, 4), 2), "
                       "(Fraction(1, 2), 1), (Fraction(3, 4), 1)), genus=5)")
    assert repr(tame_base_change_conductor(s)) == "Fraction(7, 4)"
    assert repr(candidate_values(kodaira_graph("III"))) == (
        "[Fraction(0, 1), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]")
    assert [repr(expected_jump(tag)) for tag in ("III*", "I3", "I2*")] == [
        "Fraction(3, 4)", "Fraction(0, 1)", "Fraction(1, 2)"]
    assert s.multiplicity(0.25) == 2 and s.multiplicity("3/4") == 1
    values = [v for v, _ in s.entries + r.jumps] + [r.tame_base_change_conductor]
    assert {type(v) for v in values} == {Fraction}


def test_unipotent_ranks():
    assert unipotent_rank(kodaira_graph("II")) == 1
    assert unipotent_rank(kodaira_graph("I5")) == 0
    assert unipotent_rank(kodaira_graph("I0")) == 0
    assert unipotent_rank(catalog_graph("genus2")) == 1
    assert unipotent_rank(seed_graphs()["star5"]) == 4
    assert unipotent_rank(seed_graphs()["twin"]) == 0


def test_lower_bound_values():
    assert oracle.lower_bound(catalog_graph("genus2"), 1) == 1
    star5 = seed_graphs()["star5"]
    assert oracle.lower_bound(star5, 1) == 1
    assert oracle.lower_bound(star5, 2) == 1
    assert oracle.lower_bound(kodaira_graph("I0*"), 1) == 0


# -- the kernel against a brute-force scan of the formula --------------------------

BRUTE_MAX_M = 5000  # the oracle's scan costs m (|V| + |E|)


def assert_kernel(g, reference=None):
    """The scan of g itself equals the oracle's scan of every j/m of g (or,
    when m is too large to scan, of the smaller model `reference` it was
    blown up from), and the oracle's single-value routes agree with it at
    every j that can carry a jump."""
    scanned = g if g.multiplicity_lcm() <= BRUTE_MAX_M else reference
    mults = oracle.scan(scanned)
    assert given_model_spectrum(g).entries == tuple((q, k) for q, k in mults.items() if k), g.name
    m = g.multiplicity_lcm()
    for q in candidate_values(g):
        j = int(q * m)
        mult = oracle.jump_multiplicity(g, j)
        if scanned is g:
            assert mult == mults[q], (g.name, j)
        if j:
            assert mult == oracle.jump_multiplicity_via_euler(g, j), (g.name, j)


def edge_chain(g):
    """g, then repeated blow-ups of its heaviest edge, while m <= BRUTE_MAX_M."""
    while g.multiplicity_lcm() <= BRUTE_MAX_M:
        yield g
        g = blow_up_edge(g, heaviest_edge(g))


def test_dual_route_on_catalog_exhaustive():
    for tag in catalog_tags():
        g = catalog_graph(tag)
        assert_kernel(g)
        for j in range(1, g.multiplicity_lcm()):
            assert (oracle.jump_multiplicity(g, j)
                    == oracle.jump_multiplicity_via_euler(g, j)), (tag, j)


def test_kernel_on_random_instances():
    for seed in range(100):
        inst = random_instance(seed, seed % 16)
        assert_kernel(inst.graph, reference=inst.base)


def test_kernel_on_parallel_edges_with_a_nonzero_floor():
    # i and w (N = 2) meet twice, so at q = 1/2 each of the two i-w edges
    # adds floor(q N) = 1 to the other end's intersection number; no
    # catalog or random graph has parallel edges between multiplicities > 1
    g = ReductionGraph([Vertex("i", 2), Vertex("w", 2), Vertex("t", 1), Vertex("u", 1)],
                       [("i", "w"), ("i", "w"), ("i", "t"), ("i", "u")])
    assert given_model_spectrum(g).as_dict() == {F(0): 1, F(1, 2): 1}
    assert oracle.jump_multiplicity_via_euler(g, 1) == oracle.jump_multiplicity(g, 1) == 1
    assert_kernel(g)
    assert all(ok for _, ok in run_checks(g))


@pytest.mark.parametrize("tag", ["II", "III*", "genus2"])
def test_kernel_on_edge_blow_up_chains(tag):
    chain = list(edge_chain(catalog_graph(tag)))
    assert len(chain) >= 3
    for g in chain:
        assert_kernel(g)


# -- analyze and the check suite ---------------------------------------------------

def test_analyze_report_fields():
    r = analyze(kodaira_graph("II"))
    assert r.name == "II"
    assert r.genus == 1
    assert r.jumps == ((F(1, 6), 1),)
    assert r.tame_base_change_conductor == F(1, 6)
    assert r.unipotent_rank == 1
    assert r.stabilization_index == 6
    assert r.principal_components == ("c",)
    assert r.minimal is True
    assert r.checks is None


def test_analyze_with_checks():
    r = analyze(catalog_graph("genus2"), with_checks=True)
    assert r.checks is not None
    assert all(ok for _, ok in r.checks)


def test_analyze_on_non_minimal_model():
    g = blow_up_free_point(kodaira_graph("IV"), "c")
    r = analyze(g)
    assert r.minimal is False
    assert r.stabilization_index == 3
    assert r.jumps == ((F(1, 3), 1),)


def test_run_checks_names_and_results():
    got = dict(run_checks(kodaira_graph("II*")))
    expected_names = {
        "total-equals-genus", "zero-jump-multiplicity",
        "nonzero-count-equals-unipotent-rank", "lower-bound", "dual-route",
        "principal-denominators", "principal-converse", "positive-genus-jumps",
        "denominator-lcm", "chain-contraction", "model-independence",
    }
    assert set(got) == expected_names
    assert all(got.values())


def test_bad_total_is_reported_by_the_check(monkeypatch, tmp_path, capsys):
    # a broken kernel: one extra jump at every d = 2 candidate
    mult = jumps._Terms.mult
    monkeypatch.setattr(jumps._Terms, "mult",
                        lambda self, a: mult(self, a) + (self.d == 2))
    g = catalog_graph("genus2")
    assert ("total-equals-genus", False) in run_checks(g)
    with pytest.raises(InternalInconsistency):
        compute_jumps(g)
    with pytest.raises(InternalInconsistency):
        analyze(g)
    path = tmp_path / "genus2.json"
    path.write_text(dump_graph(g))
    assert main(["compute", str(path), "--check"]) == 2
    assert "check total-equals-genus: FAIL" in capsys.readouterr().out
    # without --check the kernel's own assertion exits 2
    assert main(["compute", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal inconsistency: jump multiplicities sum to 3, genus is 2\n"
    # two jumps too few at every d = 2 candidate: a negative multiplicity
    monkeypatch.setattr(jumps._Terms, "mult",
                        lambda self, a: mult(self, a) - 2 * (self.d == 2))
    with pytest.raises(InternalInconsistency) as caught:
        compute_jumps(g)
    assert str(caught.value) == "negative jump multiplicity -1 at 1/2"
    # two too few at 0, which the message writes as str(Fraction(0)) does
    monkeypatch.setattr(jumps._Terms, "mult",
                        lambda self, a: mult(self, a) - 2 * (self.d == 1))
    with pytest.raises(InternalInconsistency) as caught:
        compute_jumps(g)
    assert str(caught.value) == "negative jump multiplicity -1 at 0"


def test_a_negative_unipotent_rank_is_an_internal_inconsistency(monkeypatch):
    # the unipotent rank is a count, so a negative one is an internal
    # inconsistency: reached by patching the Betti number it is computed from
    g = kodaira_graph("II")
    monkeypatch.setattr(ReductionGraph, "first_betti", lambda self: 10)
    with pytest.raises(InternalInconsistency, match=r"^negative unipotent rank -9$"):
        unipotent_rank(g)


def test_positive_genus_jumps_check(monkeypatch):
    # the genus2 catalog graph has a genus-1 component of multiplicity 2,
    # which forces the jump 1/2; a kernel that loses every d = 2 jump must
    # fail the check
    g = catalog_graph("genus2")
    assert ("positive-genus-jumps", True) in run_checks(g)
    mult = jumps._Terms.mult
    monkeypatch.setattr(jumps._Terms, "mult",
                        lambda self, a: 0 if self.d == 2 else mult(self, a))
    assert ("positive-genus-jumps", False) in run_checks(g)


def test_model_independence_check(monkeypatch):
    # a kernel that adds a jump at d = 9 breaks only the blown-up model of II
    # (N 6, 3, 2, 1 and 9 after the blow-up of c-t1): its spectrum no longer
    # equals that of the minimal model
    g = kodaira_graph("II")
    g = blow_up_edge(g, g.edges.index(("c", "t1")))
    assert ("model-independence", True) in run_checks(g)
    mult = jumps._Terms.mult
    monkeypatch.setattr(jumps._Terms, "mult",
                        lambda self, a: mult(self, a) + (self.d == 9))
    assert ("model-independence", False) in run_checks(g)
    assert ("model-independence", True) in run_checks(kodaira_graph("II"))


# -- the oracle against the kernel -----------------------------------------------

def test_the_oracle_imports_no_redjumps_module():
    # with the package on the path, importing the oracle loads none of it
    code = ("import sys, formula_oracle\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'redjumps'))")
    path = [str(Path(jumps.__file__).parents[1]), str(Path(__file__).parent)]
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(path)})
    assert proc.stdout == "[]\n"


def test_single_values_catch_a_kernel_that_keeps_its_totals(monkeypatch):
    # star5 carries 1/4 twice and 3/4 once; a kernel that moves one unit of
    # multiplicity from 1/4 to 3/4 keeps every total and sign, so its own
    # guards stay quiet, but the single values read the labels, not it
    g = seed_graphs()["star5"]
    m = g.multiplicity_lcm()
    single = {q: oracle.jump_multiplicity(g, int(q * m)) for q in candidate_values(g)}
    assert (single[F(1, 4)], single[F(3, 4)]) == (2, 1)
    assert compute_jumps(g).as_dict() == {q: k for q, k in single.items() if k}
    mult = jumps._Terms.mult
    monkeypatch.setattr(jumps._Terms, "mult", lambda self, a: mult(self, a)
                        + (self.d == 4) * ((a == 3) - (a == 1)))
    broken = compute_jumps(g)
    assert broken.as_dict() != {q: k for q, k in single.items() if k}
    assert {q: oracle.jump_multiplicity(g, int(q * m)) for q in single} == single


# -- the answer comes from the nodes of the model -------------------------------------

def assert_answers_equal_the_given_model_scan(g, key):
    s = given_model_spectrum(g)
    assert compute_jumps(g) == s, key
    r = analyze(g)
    assert r.jumps == s.entries, key
    assert r.tame_base_change_conductor == tame_base_change_conductor(s), key
    assert r.stabilization_index == s.denominator_lcm(), key
    assert r.unipotent_rank == unipotent_rank(g), key
    assert r.principal_components == tuple(sorted(g.principal_components())), key
    assert r.minimal == g.is_minimal(), key
    checked = analyze(g, with_checks=True)
    assert checked.checks == tuple(run_checks(g)), key
    assert all(getattr(checked, f) == getattr(r, f) for f in r._fields if f != "checks"), key


def test_answers_equal_the_given_model_scan():
    for tag in catalog_tags():
        assert_answers_equal_the_given_model_scan(catalog_graph(tag), tag)
    for tag in ("II", "III*", "genus2"):
        for k, g in enumerate(edge_chain(catalog_graph(tag))):
            assert_answers_equal_the_given_model_scan(g, (tag, k))


def test_answers_equal_the_given_model_scan_on_the_corpus(corpus):
    for item in corpus:
        g = item.inst.graph
        assert compute_jumps(g) == item.spectrum, item.seed
        r = analyze(g)
        assert r.jumps == item.spectrum.entries, item.seed
        assert r.stabilization_index == item.spectrum.denominator_lcm(), item.seed
        assert r.minimal == g.is_minimal(), item.seed


def test_analyze_runs_no_surgery_on_an_edge_blow_up_chain(monkeypatch, tmp_path, capsys):
    # edge blow-ups add chain vertices only, so no node is contractible and
    # the answer comes from the nodes of the model as given
    g = fibonacci_chain("II", 12)
    expected = analyze(fibonacci_chain("II", 12))
    path = tmp_path / "chain.json"
    path.write_text(dump_graph(g))
    assert main(["compute", str(path), "--json"]) == 0
    out = capsys.readouterr().out

    def no_surgery(self):
        raise AssertionError("model surgery ran")

    monkeypatch.setattr(ReductionGraph, "_minimal", property(no_surgery))
    assert analyze(g) == expected and expected.minimal is False
    for tag in ("II", "I0*", "genus2"):  # the only contractible curve is a chain vertex
        assert_analysis_equals_the_separate_facts(fibonacci_chain(tag, 3))
    assert compute_jumps(g) == given_model_spectrum(g)
    assert main(["compute", str(path), "--json"]) == 0
    assert capsys.readouterr().out == out


def test_a_contractible_node_sends_analyze_to_the_minimal_model(worklist_runs):
    # a free-point blow-up leaves a contractible tail: analyze minimizes, and
    # the minimal model it caches serves the minimize that follows
    g = blow_up_free_point(kodaira_graph("IV"), "c")
    worklist_runs.clear()
    assert analyze(g).jumps == ((F(1, 3), 1),)
    assert worklist_runs == [g]
    minimize(g)
    assert worklist_runs == [g]


def test_a_heavy_node_falls_back_to_the_minimal_model(tmp_path, capsys):
    # II plus 40 edge blow-ups, then a free point blown up on the heaviest
    # vertex and the edge to that new tail: no node is contractible, but
    # the heaviest vertex is now a node, far over the work budget
    g = fibonacci_chain("II", 40)
    top = max(g.ids, key=g.multiplicity)
    g = blow_up_free_point(g, top)
    g = blow_up_edge(g, len(g.edges) - 1)  # the edge to the new tail
    c = g._compiled
    assert len(g.vertices) == 46
    assert max(c.N[i] for i in c.nodes) == g.multiplicity(top) == 1_300_483_311
    assert not set(oracle.contractible(g)) & {g.vertices[i].id for i in c.nodes}
    with pytest.raises(OverBudget):
        node_route(g)
    assert compute_jumps(g).as_dict() == {F(1, 6): 1}
    path = tmp_path / "heavy.json"
    path.write_text(dump_graph(g))
    assert main(["compute", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["jumps"] == [{"value": "1/6", "multiplicity": 1}]


@pytest.fixture
def evaluations(monkeypatch):
    """Counts of the kernel's evaluations (_Terms.mult, euler and
    lower_bound) and of the minimal-model worklist's heap operations;
    _minimal imports heapq when it runs, so it reads the wrapped ones."""
    import heapq

    counts = Counter()
    for owner, name in ((jumps._Terms, "mult"), (jumps._Terms, "euler"),
                        (jumps._Terms, "lower_bound"), (heapq, "heappop"),
                        (heapq, "heappush")):
        def counted(*args, _call=getattr(owner, name), _name=name):
            counts[_name] += 1
            return _call(*args)

        monkeypatch.setattr(owner, name, counted)
    return counts


def assert_one_worklist_run(g, m, counts):
    # the heap is seeded once, and a contraction pushes only the neighbours
    # it makes contractible: no more pushes than contractions, and no more
    # pops than vertices
    v, v_min = len(g.vertices), len(m.vertices)
    assert counts["heappush"] <= v - v_min and counts["heappop"] <= v, (v, v_min, counts)


def test_the_node_route_and_the_worklist_count_their_work(evaluations):
    # the node route evaluates mult at the nodes' candidates alone, which a
    # blow-up chain leaves as they were, and never the reference route's
    # lower bound or dual route; minimize contracts each blown-up vertex
    # once, with no heap seeded again
    for tag, mults in (("II", 6), ("II*", 6), ("IV", 3), ("I0*", 2), ("genus2", 2)):
        for n in (8, 16, 24, 40, 60):
            g = fibonacci_chain(tag, n)
            evaluations.clear()
            compute_jumps(g)
            assert evaluations == {"mult": mults}, (tag, n, evaluations)
            evaluations.clear()
            m = minimize(g)
            assert len(g.vertices) - len(m.vertices) == n, (tag, n)
            assert_one_worklist_run(g, m, evaluations)
    for s in range(3):
        g = random_instance(s, 10_000).graph
        evaluations.clear()
        m = minimize(g)
        assert_one_worklist_run(g, m, evaluations)
        evaluations.clear()
        compute_jumps(g)
        assert evaluations["mult"] <= 4 and set(evaluations) == {"mult"}, (s, evaluations)


def test_outputs_are_pinned():
    # the ten 12-step chains of the benchmark's chains workload and the
    # random corpus: reports with and without checks, the check table and
    # the minimal model, as they were before construction compiled the graph
    graphs = [fibonacci_chain(tag, 12) for tag in
              ("II", "III", "IV", "IV*", "III*", "II*", "I0*", "I3*", "genus2", "I2")]
    graphs += [random_instance(s, s % 16).graph for s in range(400)]
    graphs += [random_instance(s, 192).graph for s in range(8)]
    h = hashlib.sha256()
    for g in graphs:
        for part in (repr(analyze(g)), repr(analyze(g, with_checks=True)),
                     repr(run_checks(g)), dump_graph(minimize(g))):
            h.update(part.encode() + b"\0")
    assert h.hexdigest() == "8b16020f0e572b82bd04722b61b4aacd89fe6f44351b0c6e75a8ff9262eca292"


# -- the work budget -------------------------------------------------------------------

def test_divisor_phis():
    for n in range(1, 400):
        phis = jumps._divisor_phis(n)
        assert set(phis) == {d for d in range(1, n + 1) if n % d == 0}, n
        assert phis == {d: sum(gcd(a, d) == 1 for a in range(d)) for d in phis}, n
        assert sum(phis.values()) == n


def test_work_budget(monkeypatch, tmp_path, capsys):
    # II has N 6, 3, 2, 1: 6 candidates; blowing up c-t1 adds N = 9: 12
    small = kodaira_graph("II")
    big = blow_up_edge(small, small.edges.index(("c", "t1")))
    assert (len(candidate_values(small)), len(candidate_values(big))) == (6, 12)
    monkeypatch.setattr(jumps, "WORK_BUDGET", 12)
    assert all(ok for _, ok in run_checks(big))
    monkeypatch.setattr(jumps, "WORK_BUDGET", 11)
    with pytest.raises(OverBudget) as e:
        run_checks(big)
    assert "12 candidates" in str(e.value)
    # the minimal model is under the budget, so the answer still comes
    assert compute_jumps(big) == compute_jumps(small)
    assert analyze(big).jumps == ((F(1, 6), 1),)
    with pytest.raises(OverBudget):
        analyze(big, with_checks=True)
    with pytest.raises(OverBudget):
        candidate_values(big)
    # N = 9 above the budget: over it before anything is factored
    monkeypatch.setattr(jumps, "WORK_BUDGET", 8)
    with monkeypatch.context() as m:
        m.setattr(jumps, "_divisor_phis", None)
        with pytest.raises(OverBudget) as e:
            run_checks(big)
    assert "at least 9 candidates" in str(e.value)
    # the minimal-model scan is under the same budget
    monkeypatch.setattr(jumps, "WORK_BUDGET", 5)
    with pytest.raises(OverBudget):
        compute_jumps(big)
    monkeypatch.setattr(jumps, "WORK_BUDGET", 8)
    path = tmp_path / "big.json"
    path.write_text(dump_graph(big))
    assert main(["compute", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["stabilization_index"] == 6
    for argv in (["--check"], ["--check", "--json"], ["--check", "dual-route"]):
        assert main(["compute", str(path), *argv]) == 4, argv
        out, err = capsys.readouterr()
        assert out == "", argv  # no check table: the checks did not run
        assert "over the work budget: at least 9 candidates" in err, argv


# -- properties on the random corpus ----------------------------------------------

@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 100_000), moves=st.integers(0, 12))
def test_spectrum_invariants(seed, moves):
    inst = random_instance(seed, moves)
    g = inst.graph
    s = compute_jumps(g)
    values = [v for v, _ in s.entries]
    assert values == sorted(set(values))
    assert all(0 <= v < 1 for v in values)
    m = g.multiplicity_lcm()
    assert all(m % v.denominator == 0 for v in values)
    assert sum(mult for _, mult in s.entries) == g.genus()
    assert all(mult > 0 for _, mult in s.entries)
    assert s.multiplicity(0) == g.genus() - unipotent_rank(g)


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 100_000), moves=st.integers(0, 10))
def test_spectrum_is_a_blow_up_invariant(seed, moves):
    # the reference route on each given model: compute_jumps may scan the
    # one minimal model
    inst = random_instance(seed, moves)
    base = given_model_spectrum(inst.base)
    assert given_model_spectrum(inst.graph).entries == base.entries
    again = blow_up_free_point(inst.graph, inst.graph.ids[seed % len(inst.graph.ids)])
    assert given_model_spectrum(again).entries == base.entries
    if inst.graph.edges:
        again = blow_up_edge(inst.graph, seed % len(inst.graph.edges))
        assert given_model_spectrum(again).entries == base.entries


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 100_000), moves=st.integers(0, 10))
def test_checks_pass_on_random_instances(seed, moves):
    g = random_instance(seed, moves).graph
    assert all(ok for _, ok in run_checks(g))


# the catalog's pool, and the y^2 = x^m + pi models of genus 2 to 6
SEEDS = {**seed_graphs(), **{f"y2x{m}": superelliptic_star(2, m) for m in (5, 7, 9, 11, 13)}}


@st.composite
def surgered_models(draw):
    """A pool seed after random free-point and edge blow-ups and blow-downs
    of contractible curves, with its ids permuted."""
    g = SEEDS[draw(st.sampled_from(sorted(SEEDS)))]
    for move in draw(st.lists(st.sampled_from(("free", "edge", "down")), max_size=12)):
        if move == "free":
            g = blow_up_free_point(g, draw(st.sampled_from(g.ids)))
        elif move == "edge" and g.edges:
            g = blow_up_edge(g, draw(st.integers(0, len(g.edges) - 1)))
        elif move == "down":
            eligible = oracle.contractible(g)
            if eligible:
                g = blow_down(g, draw(st.sampled_from(eligible)))
    ids = draw(st.permutations(g.ids))
    new = {old: f"x{k}" for k, old in enumerate(ids)}
    return ReductionGraph([Vertex(new[v.id], v.multiplicity, v.genus) for v in g.vertices],
                          draw(st.permutations([(new[a], new[b]) for a, b in g.edges])), g.name)


@settings(deadline=None, max_examples=200)
@given(g=surgered_models())
def test_checks_pass_on_surgered_models(g):
    assert all(ok for _, ok in run_checks(g)), run_checks(g)
    assert given_model_spectrum(g) == compute_jumps(minimize(g))


@settings(deadline=None, max_examples=200)
@given(g=surgered_models())
def test_the_class_fields_match_the_definitions(g):
    # the classes of the compiled form against each class read off the
    # labels one vertex at a time: nodes are all but genus 0 with two
    # edges, principal components have genus >= 1 or three or more edges
    for h in (g, minimize(g)):
        c, degree = h._compiled, {v: len(ns) for v, ns in oracle.Labels(h).nbrs.items()}
        assert c.nodes == [i for i, v in enumerate(h.vertices)
                           if v.genus or degree[v.id] != 2]
        assert c.principal == [i for i, v in enumerate(h.vertices)
                               if v.genus or degree[v.id] > 2]
        assert [h.vertices[i].id for i in c.contractible] == oracle.contractible(h)
        assert h.is_minimal() == (not c.contractible)


@settings(deadline=None, max_examples=200)
@given(g=surgered_models())
def test_node_route_equals_the_reference_scan(g):
    s = given_model_spectrum(g)
    assert node_route(g) == s
    assert node_route(minimize(g)) == s


def assert_the_monodromy_pairing(g):
    """The kernel's spectrum against the oracle's S_d, for every d dividing
    some N_i: mult(a/d) + mult(((d - a) mod d)/d) = 2[d = 1] + S_d at every
    candidate a/d, S_d >= 0 for d >= 2, the sum of phi(d) S_d is 2g - 2,
    and lcm{d >= 2 : S_d > 0} (1 if none) is the stabilization index."""
    spectrum, candidates = compute_jumps(g), candidate_values(g)
    phi = Counter(q.denominator for q in candidates)
    S = {d: oracle.s_d(g, d) for d in phi}
    for q in candidates:
        pair = spectrum.multiplicity(q) + spectrum.multiplicity((1 - q) % 1)
        assert pair == 2 * (q.denominator == 1) + S[q.denominator], (g.name, q)
    assert all(S[d] >= 0 for d in S if d > 1), (g.name, S)
    assert sum(phi[d] * S[d] for d in S) == 2 * spectrum.genus - 2, g.name
    assert lcm(*(d for d in S if d > 1 and S[d] > 0)) == minimize(g).stabilization_index()


def test_the_monodromy_pairing_on_the_catalog():
    for tag in (*catalog_tags(), "I1"):
        assert_the_monodromy_pairing(catalog_graph(tag))


def test_the_monodromy_pairing_on_the_corpus(corpus):
    for item in corpus[:150]:
        assert_the_monodromy_pairing(item.inst.graph)


def test_the_oracle_genus_is_the_adjunction_genus(corpus):
    graphs = [catalog_graph(tag) for tag in (*catalog_tags(), "I1")]
    for g in graphs + [item.inst.graph for item in corpus]:
        assert oracle.genus(g) == g.genus() == compute_jumps(g).genus, g.name


@settings(deadline=None, max_examples=100)
@given(g=surgered_models())
def test_the_monodromy_pairing_on_surgered_models(g):
    assert_the_monodromy_pairing(g)


def assert_analysis_equals_the_separate_facts(g):
    """analyze(g) against the facts read one by one, afterwards."""
    r = analyze(g)
    assert r.jumps == given_model_spectrum(g).entries
    assert r.principal_components == tuple(sorted(g.principal_components()))
    assert r.minimal == g.is_minimal()
    assert r.tame_base_change_conductor == tame_base_change_conductor(compute_jumps(g))
    assert r.stabilization_index == compute_jumps(g).denominator_lcm()
    return r


@settings(deadline=None, max_examples=100)
@given(g=surgered_models())
def test_analyze_equals_the_separate_facts_on_surgered_models(g):
    assert_analysis_equals_the_separate_facts(g)


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 100_000), moves=st.integers(0, 40))
def test_analyze_equals_the_separate_facts_on_random_instances(seed, moves):
    assert_analysis_equals_the_separate_facts(random_instance(seed, moves).graph)


def test_analyze_of_a_free_point_blow_up_minimizes(worklist_runs):
    # a free-point blow-up leaves a contractible tail, a node: analyze
    # scans the minimal model, and still describes g as given
    g = blow_up_free_point(catalog_graph("genus2"), "c")
    worklist_runs.clear()
    r = assert_analysis_equals_the_separate_facts(g)
    assert worklist_runs == [g] and r.minimal is False


def test_a_chain_vertex_contributes_nothing():
    # the lemma of the node route: on its own in M_d, a chain vertex gives
    # c_i(a) = 0, so its terms sum to [d = 1] at every a/d
    graphs = [catalog_graph(tag) for tag in (*catalog_tags(), "I1")] + list(SEEDS.values())
    chains = 0
    for g in graphs:
        c = g._compiled
        for i in sorted(set(range(len(c.N))) - set(c.nodes)):
            chains += 1
            for d in jumps._divisor_phis(c.N[i]):
                t = jumps._terms(c, d, [i])
                assert all(t.mult(a) == (d == 1) for a in jumps._numerators(d)), (g.name, i, d)
    assert chains > 100


def test_an_odd_half_edge_sum_is_an_internal_inconsistency():
    # t3 alone is neither M_1 nor its nodes: one half-edge into M_1, so the
    # scaled sum is odd and the guard in mult refuses it
    c = kodaira_graph("II")._compiled
    with pytest.raises(InternalInconsistency) as caught:
        jumps._terms(c, 1, [c.index["t3"]]).mult(0)
    assert str(caught.value) == "half-edge sum at 0 is not a multiple of 2"
    # one member with one half-edge into M_4 and no boundary: 4 * 1 is not
    # a multiple of 8, at 3/4 as at every a/4
    with pytest.raises(InternalInconsistency) as caught:
        jumps._Terms(4, (0,), 1, (), 0).mult(3)
    assert str(caught.value) == "half-edge sum at 3/4 is not a multiple of 8"


# -- the values compute prints ----------------------------------------------------

def compute_output(g, *flags):
    """The exit code and stdout of main(["compute", path, *flags]), path a
    file holding g's document."""
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "graph.json"
        path.write_text(dump_graph(g))
        with contextlib.redirect_stdout(out):
            code = main(["compute", str(path), *flags])
    return code, out.getvalue()


def assert_compute_prints_the_public_answers(g):
    """compute writes its values from integer pairs (a, d): its document is
    the public report's, and its plain lines show str() of the Fractions."""
    r = analyze(g, with_checks=True)
    code, out = compute_output(g, "--json", "--check")
    assert (code, json.loads(out)) == (0, report_document(r)), g.name
    code, out = compute_output(g)
    lines = out.splitlines()
    assert code == 0, g.name
    assert "jumps: " + ", ".join(f"{v} (x{m})" for v, m in r.jumps) in lines, g.name
    assert f"tame base-change conductor: {r.tame_base_change_conductor}" in lines, g.name


def iii_joined_to_iii_star():
    """III and III*, a reduced tail of each joined by an edge: genus 2, with
    the jumps 1/4 and 3/4 and so the integer conductor 1."""
    parts = [("p", kodaira_graph("III")), ("q", kodaira_graph("III*"))]
    vertices = [Vertex(p + v.id, v.multiplicity, v.genus) for p, h in parts for v in h.vertices]
    edges = [(p + a, p + b) for p, h in parts for a, b in h.edges]
    return ReductionGraph(vertices, edges + [("pt3", "qa3_3")], "III-III*")


def test_compute_prints_the_public_answers_on_the_catalog():
    for tag in (*catalog_tags(), "I1"):
        assert_compute_prints_the_public_answers(catalog_graph(tag))
    assert_compute_prints_the_public_answers(iii_joined_to_iii_star())


@settings(deadline=None, max_examples=100)
@given(g=surgered_models())
def test_compute_prints_the_public_answers_on_surgered_models(g):
    assert_compute_prints_the_public_answers(g)


def test_compute_writes_zero_and_integer_values():
    # I3: the zero jump and a zero conductor
    code, out = compute_output(kodaira_graph("I3"), "--json")
    doc = json.loads(out)
    assert (code, doc["jumps"], doc["tame_base_change_conductor"]) == (
        0, [{"value": "0", "multiplicity": 1}], "0")
    # 1/4 + 3/4: an integer conductor, written without a denominator
    g = iii_joined_to_iii_star()
    assert compute_jumps(g).entries == ((F(1, 4), 1), (F(3, 4), 1))
    code, out = compute_output(g)
    lines = out.splitlines()
    assert code == 0
    assert "jumps: 1/4 (x1), 3/4 (x1)" in lines
    assert "tame base-change conductor: 1" in lines
    doc = json.loads(compute_output(g, "--json")[1])
    assert doc["tame_base_change_conductor"] == "1" and doc["stabilization_index"] == 4
