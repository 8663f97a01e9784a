"""Acceptance gate: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -s` to see the verdict lines as
they happen; without -s pytest shows them for failing tests only.
"""

import contextlib
import random
import time
from fractions import Fraction

from redjumps import (
    blow_up_edge,
    blow_up_free_point,
    candidate_values,
    catalog_graph,
    catalog_tags,
    compute_jumps,
    contract_chains,
    expected_jump,
    kodaira_graph,
    run_checks,
    unipotent_rank,
)
from redjumps.jumps import _scan, _spectrum
from redjumps.verify import lattice_suite, monoid_suite

import formula_oracle as oracle

ELLIPTIC_TAGS = (["I0"] + [f"I{n}" for n in range(2, 11)]
                 + [f"I{n}*" for n in range(6)]
                 + ["II", "III", "IV", "IV*", "III*", "II*"])


@contextlib.contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} {label}: FAIL")
        raise
    print(f"ACCEPTANCE {number:2d} {label}: PASS")


def test_01_elliptic_fiber_types():
    with criterion(1, "elliptic-types"):
        start = time.perf_counter()
        for tag in ELLIPTIC_TAGS:
            s = compute_jumps(kodaira_graph(tag))
            assert s.entries == ((expected_jump(tag), 1),), tag
        assert time.perf_counter() - start < 1.0


def test_02_genus2_example():
    with criterion(2, "genus-2-example"):
        s = compute_jumps(catalog_graph("genus2"))
        assert s.as_dict() == {Fraction(0): 1, Fraction(1, 2): 1}


def test_03_spectrum_totals(corpus):
    with criterion(3, "spectrum-totals"):
        assert len(corpus) >= 500
        for item in corpus:
            g = item.inst.graph
            s = item.spectrum
            assert sum(m for _, m in s.entries) == g.genus(), item.seed
            assert s.multiplicity(0) == g.genus() - unipotent_rank(g), item.seed


def test_04_model_independence(corpus):
    with criterion(4, "model-independence"):
        for item in corpus:
            g = item.inst.graph
            base = item.base_spectrum.entries
            assert item.spectrum.entries == base, item.seed
            assert compute_jumps(item.minimized).entries == base, item.seed
            # the given models' scans: compute_jumps scans the minimal model
            v = g.ids[item.seed % len(g.ids)]
            assert _spectrum(_scan(blow_up_free_point(g, v))[0]).entries == base, item.seed
            if g.edges:
                e = item.seed % len(g.edges)
                assert _spectrum(_scan(blow_up_edge(g, e))[0]).entries == base, item.seed


def test_05_denominator_lcm(corpus):
    with criterion(5, "denominator-lcm"):
        for item in corpus:
            index = item.minimized.stabilization_index()
            assert item.spectrum.denominator_lcm() == index, item.seed


def test_06_chain_contraction(corpus):
    with criterion(6, "chain-contraction"):
        for item in corpus:
            _, index = contract_chains(item.minimized)
            assert index == item.minimized.stabilization_index(), item.seed


def test_07_jump_structure(corpus):
    with criterion(7, "jump-structure"):
        graphs = [(tag, catalog_graph(tag)) for tag in catalog_tags()]
        graphs += [(item.seed, item.inst.graph) for item in corpus]
        relevant = {"lower-bound", "principal-denominators",
                    "principal-converse", "positive-genus-jumps"}
        for key, g in graphs:
            results = dict(run_checks(g))
            assert relevant <= set(results), key
            for name in relevant:
                assert results[name], (key, name)
        # the bound itself, asserted directly against the spectrum
        for item in corpus[:100]:
            g = item.inst.graph
            m = g.multiplicity_lcm()
            for q in candidate_values(g):
                if q == 0:
                    continue
                j = q.numerator * (m // q.denominator)
                assert oracle.lower_bound(g, j) <= item.spectrum.multiplicity(q), item.seed


def test_08_dual_route(corpus):
    with criterion(8, "dual-route"):
        graphs = [catalog_graph(tag) for tag in catalog_tags()]
        graphs += [item.inst.graph for item in corpus]
        for k, g in enumerate(graphs):
            m = g.multiplicity_lcm()
            if m <= 360:
                js = range(1, m)
            else:
                # all values with nonempty index set, plus off-candidate spots
                js = {q.numerator * (m // q.denominator)
                      for q in candidate_values(g) if q != 0}
                rng = random.Random(k)
                while len(js) < 200:
                    js.add(rng.randrange(1, m))
            for j in js:
                assert (oracle.jump_multiplicity(g, j)
                        == oracle.jump_multiplicity_via_euler(g, j)), (k, j)


def assert_all_pass(rows, totals):
    assert {row.name: row.total for row in rows} == totals
    for name, good, total, witness in rows:
        assert good == total, f"{name}: {good}/{total}, first failure {witness}"


def test_09_lattice_suite():
    # the same suite as `redjumps verify --suite lattices`
    with criterion(9, "lattice-suite"):
        start = time.perf_counter()
        rows = lattice_suite(20260819, 10_000)
        assert_all_pass(rows, {"lattices/sandwich": 10_000,
                               "lattices/complement": 10_000,
                               "lattices/snf": 10_000})
        assert time.perf_counter() - start < 30.0


def test_10_monoid_suite():
    # the same suite as `redjumps verify --suite monoids`
    with criterion(10, "monoid-suite"):
        start = time.perf_counter()
        rows = monoid_suite(20260819, 200)
        assert_all_pass(rows, {"monoids/case1-box": 35, "monoids/case2-box": 123,
                               "monoids/case1-search": 200,
                               "monoids/case2-search": 200,
                               "monoids/cokernel-generators": 229,
                               "monoids/divisibility": 35,
                               "monoids/saturation-index": 158,
                               "monoids/pushout-lemma": 200})
        assert time.perf_counter() - start < 60.0
