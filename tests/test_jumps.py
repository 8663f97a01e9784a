"""Jump spectra, conductors and the consistency-check suite.

The single-value multiplicities asserted here were computed by hand from
the intersection formula (index set, floor divisor, sigma) and frozen.
"""

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redjumps import (
    IntegralDivisor,
    ReductionGraph,
    Vertex,
    analyze,
    blow_down,
    blow_up_edge,
    blow_up_free_point,
    build,
    candidate_values,
    catalog_graph,
    catalog_tags,
    compute_jumps,
    dump_graph,
    expected_jump,
    floor_divisor,
    genus2_example,
    index_set,
    intersect,
    jump_multiplicity,
    jump_multiplicity_via_euler,
    kodaira_graph,
    lower_bound,
    minimize,
    random_instance,
    run_checks,
    seed_graphs,
    sigma,
    tame_base_change_conductor,
    unipotent_rank,
)
from redjumps import jumps
from redjumps.cli import main
from redjumps.errors import (InternalInconsistency, OverBudget, PreconditionFailed,
                             ValidationError)

from blowup_chains import fibonacci_chain, heaviest_edge

F = Fraction


def given_model_spectrum(g):
    """The scan of every vertex of g, the reference route of run_checks;
    compute_jumps takes the node route instead."""
    return jumps._scan(g)[0]


def node_route(g):
    """The scan of the nodes of g alone."""
    return jumps._scan(g, jumps._nodes(g))[0]


# -- divisor helpers -----------------------------------------------------------

def test_divisor_lookup_defaults_to_zero():
    d = IntegralDivisor({"a": 3})
    assert d["a"] == 3
    assert d["b"] == 0


# -- the intersection-formula ingredients on the type II star -------------------

def test_index_set_on_star():
    g = kodaira_graph("II")  # multiplicities 6, 3, 2, 1; m = 6
    assert index_set(g, 1) == {"c"}
    assert index_set(g, 2) == {"c", "t1"}
    assert index_set(g, 3) == {"c", "t2"}
    assert index_set(g, 0) == {"c", "t1", "t2", "t3"}


def test_sigma_counts_incident_edges():
    g = kodaira_graph("II")
    assert sigma(g, 1) == 3
    assert sigma(g, 0) == 3
    h = kodaira_graph("I4")
    assert sigma(h, 0) == 4


def test_floor_divisor_and_intersect():
    g = kodaira_graph("II")
    d = floor_divisor(g, 1)
    assert d.coefficients == {"c": 1, "t1": 0, "t2": 0, "t3": 0}
    assert intersect(g, d, "c") == -1
    assert intersect(g, d, "t1") == 1


def test_candidate_values():
    got = candidate_values(kodaira_graph("II"))
    assert got == [F(0), F(1, 6), F(1, 3), F(1, 2), F(2, 3), F(5, 6)]
    assert candidate_values(kodaira_graph("I7")) == [F(0)]


def test_j_range_is_validated():
    g = kodaira_graph("II")
    for bad in (-1, 6, "1", F(1, 6)):
        with pytest.raises(PreconditionFailed):
            jump_multiplicity(g, bad)
    with pytest.raises(PreconditionFailed):
        jump_multiplicity_via_euler(g, 0)
    with pytest.raises(PreconditionFailed):
        lower_bound(g, 0)


@pytest.mark.parametrize("single", [index_set, sigma, floor_divisor, jump_multiplicity,
                                    jump_multiplicity_via_euler, lower_bound])
def test_single_values_refuse_what_is_not_an_integer_j(single):
    # a bool is an int to Python, but True is not j = 1: refused as 1.0 is
    g = kodaira_graph("II")
    single(g, 1)
    for bad in (True, False, 1.0, None, "1"):
        with pytest.raises(PreconditionFailed):
            single(g, bad)


# -- frozen single multiplicities ------------------------------------------------

def test_hand_computed_multiplicities():
    assert jump_multiplicity(kodaira_graph("II"), 1) == 1
    assert jump_multiplicity(kodaira_graph("II"), 2) == 0
    assert jump_multiplicity(kodaira_graph("I3*"), 1) == 1
    assert jump_multiplicity(kodaira_graph("II*"), 50) == 1  # 50/60 = 5/6
    assert jump_multiplicity(kodaira_graph("III*"), 9) == 1  # 9/12 = 3/4
    assert jump_multiplicity(kodaira_graph("IV*"), 4) == 1  # 4/6 = 2/3
    assert jump_multiplicity(genus2_example(), 0) == 1
    assert jump_multiplicity(genus2_example(), 1) == 1


# -- full spectra ----------------------------------------------------------------

def test_elliptic_spectra_match_classical_table():
    for tag in catalog_tags():
        if tag == "genus2":
            continue
        s = compute_jumps(catalog_graph(tag))
        assert s.genus == 1
        assert s.entries == ((expected_jump(tag), 1),), tag


def test_genus2_spectrum():
    s = compute_jumps(genus2_example())
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
    assert s.values() == [F(0), F(1, 4), F(1, 2), F(3, 4)]


def test_unipotent_ranks():
    assert unipotent_rank(kodaira_graph("II")) == 1
    assert unipotent_rank(kodaira_graph("I5")) == 0
    assert unipotent_rank(kodaira_graph("I0")) == 0
    assert unipotent_rank(genus2_example()) == 1
    assert unipotent_rank(seed_graphs()["star5"]) == 4
    assert unipotent_rank(seed_graphs()["twin"]) == 0


def test_lower_bound_values():
    assert lower_bound(genus2_example(), 1) == 1
    star5 = seed_graphs()["star5"]
    assert lower_bound(star5, 1) == 1
    assert lower_bound(star5, 2) == 1
    assert lower_bound(kodaira_graph("I0*"), 1) == 0


# -- the kernel against a brute-force scan of the formula --------------------------

BRUTE_MAX_M = 5000  # the scan below costs m (|V| + |E|)


def brute_multiplicities(g):
    """The paper's formula at every j/m, j in [0, m), m = lcm(N_i), in
    integers only: I_j = {i : j N_i / m is an integer}, floor divisor
    floor(j N_i / m), E_i^2 from E_i . C = 0. Returns m and {j: mult}."""
    N = {v.id: v.multiplicity for v in g.vertices}
    genus = {v.id: v.genus for v in g.vertices}
    nbrs = {i: [] for i in N}
    for a, b in g.edges:
        nbrs[a].append(b)
        nbrs[b].append(a)
    E2 = {i: -(sum(N[w] for w in nbrs[i]) // N[i]) for i in N}
    m = lcm(*N.values())
    out = {}
    for j in range(m):
        members = {i for i in N if j * N[i] % m == 0}
        fl = {i: j * N[i] // m for i in N}
        out[j] = (sum(fl[i] * E2[i] + sum(fl[w] for w in nbrs[i]) + genus[i] - 1
                      for i in members)
                  + sum(1 for a, b in g.edges if a in members or b in members)
                  + (j == 0))
    return m, out


def assert_kernel(g, reference=None):
    """The scan of g itself equals the brute-force spectrum of g (or, when
    m is too large to scan, of the smaller model `reference` it was blown
    up from), and the single-value routes agree with it at every j that can
    carry a jump."""
    scanned = g if g.multiplicity_lcm() <= BRUTE_MAX_M else reference
    m, mults = brute_multiplicities(scanned)
    assert given_model_spectrum(g).entries == tuple(
        (F(j, m), k) for j, k in mults.items() if k), g.name
    m = g.multiplicity_lcm()
    for q in candidate_values(g):
        j = int(q * m)
        mult = jump_multiplicity(g, j)
        if scanned is g:
            assert mult == mults[j], (g.name, j)
        if j:
            assert mult == jump_multiplicity_via_euler(g, j), (g.name, j)


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
            assert jump_multiplicity(g, j) == jump_multiplicity_via_euler(g, j), (tag, j)


def test_kernel_on_random_instances():
    for seed in range(100):
        inst = random_instance(seed, seed % 16)
        assert_kernel(inst.graph, reference=inst.base)


def test_kernel_on_parallel_edges_with_a_nonzero_floor():
    # i and w (N = 2) meet twice, so at q = 1/2 each of the two i-w edges
    # adds floor(q N) = 1 to the other end's intersection number; no
    # catalog or random graph has parallel edges between multiplicities > 1
    g = build([Vertex("i", 2), Vertex("w", 2), Vertex("t", 1), Vertex("u", 1)],
              [("i", "w"), ("i", "w"), ("i", "t"), ("i", "u")])
    assert given_model_spectrum(g).as_dict() == {F(0): 1, F(1, 2): 1}
    assert jump_multiplicity_via_euler(g, 1) == jump_multiplicity(g, 1) == 1
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
    r = analyze(genus2_example(), with_checks=True)
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
    g = genus2_example()
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


def test_positive_genus_jumps_check(monkeypatch):
    # genus2_example has a genus-1 component of multiplicity 2, which forces
    # the jump 1/2; a kernel that loses every d = 2 jump must fail the check
    g = genus2_example()
    assert ("positive-genus-jumps", True) in run_checks(g)
    mult = jumps._Terms.mult
    monkeypatch.setattr(jumps._Terms, "mult",
                        lambda self, a: 0 if self.d == 2 else mult(self, a))
    assert ("positive-genus-jumps", False) in run_checks(g)


def test_model_independence_check(monkeypatch):
    # a kernel that adds a jump at d = 9 breaks only the blown-up model of II
    # (N 6, 3, 2, 1 and 9 after the blow-up of c-t1): its spectrum no longer
    # equals that of the minimal model
    g = blow_up_edge(kodaira_graph("II"), ("c", "t1"))
    assert ("model-independence", True) in run_checks(g)
    mult = jumps._Terms.mult
    monkeypatch.setattr(jumps._Terms, "mult",
                        lambda self, a: mult(self, a) + (self.d == 9))
    assert ("model-independence", False) in run_checks(g)
    assert ("model-independence", True) in run_checks(kodaira_graph("II"))


# -- the single values against the kernel ---------------------------------------

def test_reference_imports_no_kernel():
    code = "import sys, redjumps.reference; print('redjumps.jumps' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(jumps.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env=env)
    assert proc.stdout == "False\n"


def test_single_values_catch_a_kernel_that_keeps_its_totals(monkeypatch):
    # star5 carries 1/4 twice and 3/4 once; a kernel that moves one unit of
    # multiplicity from 1/4 to 3/4 keeps every total and sign, so its own
    # guards stay quiet, but the single values read the labels, not it
    g = seed_graphs()["star5"]
    m = g.multiplicity_lcm()
    single = {q: jump_multiplicity(g, int(q * m)) for q in candidate_values(g)}
    assert (single[F(1, 4)], single[F(3, 4)]) == (2, 1)
    assert compute_jumps(g).as_dict() == {q: k for q, k in single.items() if k}
    mult = jumps._Terms.mult
    monkeypatch.setattr(jumps._Terms, "mult", lambda self, a: mult(self, a)
                        + (self.d == 4) * ((a == 3) - (a == 1)))
    broken = compute_jumps(g)
    assert broken.as_dict() != {q: k for q, k in single.items() if k}
    assert {q: jump_multiplicity(g, int(q * m)) for q in single} == single


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


def test_compute_jumps_and_analyze_validate_g():
    g = ReductionGraph((Vertex("a", 2, 1),), ())  # gcd 2
    with pytest.raises(ValidationError):
        compute_jumps(g)
    with pytest.raises(ValidationError):
        analyze(g)


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
    g = blow_up_edge(blow_up_free_point(g, top, "tail"), (top, "tail"))
    c, nodes = g._compiled, jumps._nodes(g)
    assert len(g.vertices) == 46
    assert max(c.N[i] for i in nodes) == g.multiplicity(top) == 1_300_483_311
    assert not any(contractible(g, g.vertices[i].id) for i in nodes)
    with pytest.raises(OverBudget):
        node_route(g)
    assert compute_jumps(g).as_dict() == {F(1, 6): 1}
    path = tmp_path / "heavy.json"
    path.write_text(dump_graph(g))
    assert main(["compute", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["jumps"] == [{"value": "1/6", "multiplicity": 1}]


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
    big = blow_up_edge(small, ("c", "t1"))
    assert (len(candidate_values(small)), len(candidate_values(big))) == (6, 12)
    monkeypatch.setattr(jumps, "WORK_BUDGET", 12)
    assert all(ok for _, ok in run_checks(big))
    monkeypatch.setattr(jumps, "WORK_BUDGET", 11)
    with pytest.raises(OverBudget) as e:
        run_checks(big)
    assert e.value.candidates == 12
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
    assert e.value.candidates == 9
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
    values = s.values()
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


SEEDS = seed_graphs()


def contractible(g, v):
    return (g.vertex(v).genus == 0 and g.self_intersection(v) == -1
            and (g.degree(v) == 1
                 or (g.degree(v) == 2 and len(set(g.neighbors(v))) == 2)))


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
            eligible = [v for v in g.ids if contractible(g, v)]
            if eligible:
                g = blow_down(g, draw(st.sampled_from(eligible)))
    ids = draw(st.permutations(g.ids))
    new = {old: f"x{k}" for k, old in enumerate(ids)}
    return build([Vertex(new[v.id], v.multiplicity, v.genus) for v in g.vertices],
                 draw(st.permutations([(new[a], new[b]) for a, b in g.edges])), g.name)


@settings(deadline=None, max_examples=200)
@given(g=surgered_models())
def test_checks_pass_on_surgered_models(g):
    assert all(ok for _, ok in run_checks(g)), run_checks(g)
    assert given_model_spectrum(g) == compute_jumps(minimize(g))


@settings(deadline=None, max_examples=200)
@given(g=surgered_models())
def test_the_walk_and_the_node_list_agree(g):
    # the walk of the node route and graph._nodes share one definition of
    # a node: every vertex but those of genus 0 with exactly two edges
    c = g._compiled
    nodes, _, _ = jumps._walk(g)
    assert jumps._nodes(g) == [i for i, nbrs in enumerate(c.nbrs) if c.genus[i] or len(nbrs) != 2]
    if nodes is None:  # a contractible node: the walk stops listing
        assert any(contractible(g, g.vertices[i].id) for i in jumps._nodes(g))
    else:
        assert nodes == jumps._nodes(g)
    m = minimize(g)
    assert jumps._walk(m)[0] == jumps._nodes(m)


@settings(deadline=None, max_examples=200)
@given(g=surgered_models())
def test_node_route_equals_the_reference_scan(g):
    s = given_model_spectrum(g)
    assert node_route(g) == s
    assert node_route(minimize(g)) == s


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
        for i in sorted(set(range(len(c.N))) - set(jumps._nodes(g))):
            chains += 1
            for d in jumps._divisor_phis(c.N[i]):
                t = jumps._terms(c, d, [i])
                assert all(t.mult(a) == (d == 1) for a in jumps._numerators(d)), (g.name, i, d)
    assert chains > 100


def test_an_odd_half_edge_sum_is_an_internal_inconsistency():
    # t3 alone is neither M_1 nor its nodes: one half-edge into M_1, so the
    # scaled sum is odd and the guard in mult refuses it
    c = kodaira_graph("II")._compiled
    with pytest.raises(InternalInconsistency):
        jumps._terms(c, 1, [c.index["t3"]]).mult(0)
