"""Jump spectra, conductors and the consistency-check suite.

The single-value multiplicities asserted here were computed by hand from
the intersection formula (index set, floor divisor, sigma) and frozen.
"""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redjumps import (
    IntegralDivisor,
    analyze,
    blow_up_edge,
    blow_up_free_point,
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
    random_instance,
    run_checks,
    seed_graphs,
    sigma,
    tame_base_change_conductor,
    unipotent_rank,
)
from redjumps import jumps
from redjumps.cli import main
from redjumps.errors import InternalInconsistency, PreconditionFailed

F = Fraction


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
    """compute_jumps equals the brute-force spectrum of g (or, when m is too
    large to scan, of the smaller model `reference` it was blown up from),
    and the single-value routes agree with it at every j that can carry a
    jump."""
    scanned = g if g.multiplicity_lcm() <= BRUTE_MAX_M else reference
    m, mults = brute_multiplicities(scanned)
    assert compute_jumps(g).entries == tuple(
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
    """g, then repeated blow-ups of the edge joining the two heaviest
    components (multiplicities grow like Fibonacci numbers), while m <= BRUTE_MAX_M."""
    while g.multiplicity_lcm() <= BRUTE_MAX_M:
        yield g
        k = max(range(len(g.edges)),
                key=lambda k: sorted((g.multiplicity(x) for x in g.edges[k]), reverse=True))
        g = blow_up_edge(g, k)


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
        "denominator-lcm", "chain-contraction",
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
    inst = random_instance(seed, moves)
    base = compute_jumps(inst.base)
    assert compute_jumps(inst.graph).entries == base.entries
    again = blow_up_free_point(inst.graph, inst.graph.ids[seed % len(inst.graph.ids)])
    assert compute_jumps(again).entries == base.entries
    if inst.graph.edges:
        again = blow_up_edge(inst.graph, seed % len(inst.graph.edges))
        assert compute_jumps(again).entries == base.entries


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 100_000), moves=st.integers(0, 10))
def test_checks_pass_on_random_instances(seed, moves):
    g = random_instance(seed, moves).graph
    assert all(ok for _, ok in run_checks(g))
