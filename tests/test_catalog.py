"""Named fiber-type graphs and the random instance generator."""

import hashlib
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import redjumps
from redjumps import (
    GeneratedGraph,
    blow_up_edge,
    blow_up_free_point,
    catalog_graph,
    catalog_tags,
    dump_graph,
    expected_jump,
    genus2_example,
    is_isomorphic,
    kodaira_graph,
    random_instance,
    seed_graphs,
)
from redjumps import catalog
from redjumps.errors import PreconditionFailed, UnsupportedType


def test_catalog_entries_are_valid_minimal_models():
    for tag in catalog_tags():
        g = catalog_graph(tag)
        assert g.validate().ok, tag
        assert g.is_minimal(), tag
        assert g.name == tag


def test_catalog_covers_the_classical_families():
    tags = catalog_tags()
    assert "I0" in tags and "I10" in tags and "I0*" in tags and "I5*" in tags
    assert {"II", "III", "IV", "IV*", "III*", "II*", "I1res", "genus2"} <= set(tags)
    assert "I1" not in tags


def test_fiber_shapes():
    (only,) = kodaira_graph("I0").vertices
    assert (only.multiplicity, only.genus) == (1, 1)
    # the resolved nodal cubic: two lines meeting twice
    res = kodaira_graph("I1res")
    assert len(res.vertices) == 2 and len(res.edges) == 2
    assert res.first_betti() == 1
    assert len(kodaira_graph("I7").vertices) == 7
    assert kodaira_graph("I7").first_betti() == 1
    assert len(kodaira_graph("I0*").vertices) == 5
    assert len(kodaira_graph("I3*").vertices) == 8
    assert sorted(v.multiplicity for v in kodaira_graph("II*").vertices) == \
        [1, 2, 2, 3, 3, 4, 4, 5, 6]


def test_i1_is_the_blown_up_node():
    # u meets the exceptional curve b of the blown-up node twice; I1res is
    # the I2 cycle under an old name
    g = catalog_graph("I1")
    assert g == kodaira_graph("I1")
    assert sorted((v.id, v.multiplicity, v.genus) for v in g.vertices) == \
        [("b", 2, 0), ("u", 1, 0)]
    assert g.edges == (("b", "u"), ("b", "u"))
    assert g.validate().ok and g.is_minimal() and g.genus() == 1
    assert not is_isomorphic(g, kodaira_graph("I2"))
    assert is_isomorphic(kodaira_graph("I1res"), kodaira_graph("I2"))
    assert expected_jump("I1") == 0


def test_fiber_index_limit(monkeypatch):
    # the limit is checked before any graph is built
    def refuse(*args):
        raise AssertionError("built a graph above the limit")
    monkeypatch.setattr(catalog, "_cycle", refuse)
    monkeypatch.setattr(catalog, "_istar", refuse)
    above = catalog.MAX_FIBER_INDEX + 1
    for tag in (f"I{above}", f"I{above}*", "I99999", "I99999999", "I" + "9" * 5000):
        with pytest.raises(UnsupportedType, match="limit"):
            kodaira_graph(tag)
        with pytest.raises(UnsupportedType, match="limit"):
            expected_jump(tag)
    monkeypatch.undo()
    assert len(kodaira_graph(f"I{catalog.MAX_FIBER_INDEX}").vertices) == \
        catalog.MAX_FIBER_INDEX
    assert kodaira_graph("I0003").name == "I3"


def test_unknown_tags_are_rejected():
    # digits are ASCII only (Arabic-Indic three, fullwidth five), a
    # trailing newline is not part of a tag, and a tag is a str
    for bad in ("V", "I-1", "I2**", "IIa", "", "I\u0663", "I\uff15", "I\u0663*", "I3\n",
                5, None, b"II", ["II"]):
        with pytest.raises(UnsupportedType):
            kodaira_graph(bad)
        with pytest.raises(UnsupportedType):
            expected_jump(bad)


def test_catalog_outputs_are_pinned():
    # every listed tag's document, the extra tags the command accepts, the
    # seed pool and the classical jumps, as they were before the names
    # moved to one table
    h = hashlib.sha256()
    for tag in catalog_tags() + ["I1", "I0003", "I10000", "I10000*", "I00"]:
        h.update(dump_graph(catalog_graph(tag)).encode())
    for name, g in seed_graphs().items():
        h.update((name + dump_graph(g)).encode())
    for tag in ("II", "III", "IV", "IV*", "III*", "II*", "I1res", "I0", "I7", "I3*"):
        h.update(repr(expected_jump(tag)).encode())
    assert h.hexdigest() == "f419639c5654f6b62e0f0db5a0fbb91682e0fb20851a51b780f6e14923b3ef1d"


def test_expected_jumps():
    assert expected_jump("I6") == 0
    assert expected_jump("I1res") == 0
    assert expected_jump("I2*") == Fraction(1, 2)
    assert expected_jump("II*") == Fraction(5, 6)


def test_seed_pool_is_valid_and_minimal():
    pool = seed_graphs()
    assert {"genus2", "star5", "twin"} <= set(pool)
    for name, g in pool.items():
        assert g.validate().ok, name
        assert g.is_minimal(), name
        assert g.name == name


def test_genus2_example_is_the_catalog_entry():
    assert catalog_graph("genus2") == genus2_example()


def test_random_instance_is_deterministic():
    a = random_instance(17, 9)
    b = random_instance(17, 9)
    assert a.graph == b.graph
    assert a.moves == b.moves
    assert a.base_name == b.base_name
    assert random_instance(17, 9).graph == a.graph


def test_random_instance_records_its_moves():
    inst = random_instance(23, 11)
    assert inst.base_name in seed_graphs()
    assert inst.base == seed_graphs()[inst.base_name]
    assert len(inst.moves) == 11
    assert all(kind in ("free", "edge") for kind, _ in inst.moves)
    assert len(inst.graph.vertices) == len(inst.base.vertices) + 11
    assert inst.graph.validate().ok


def replay(inst):
    """The instance's moves applied by the public blow-ups to its base."""
    g = inst.base
    for kind, arg in inst.moves:
        g = blow_up_free_point(g, arg) if kind == "free" else blow_up_edge(g, arg)
    return g


def test_random_instance_is_the_fold_of_its_moves():
    for seed, moves in [(s, s % 16) for s in range(0, 550, 7)] + [(s, 192) for s in range(8)]:
        inst = random_instance(seed, moves)
        assert inst.graph == replay(inst), (seed, moves)


def test_seed_names_are_the_sorted_pool():
    assert catalog._SEED_NAMES == tuple(sorted(seed_graphs()))


def reference_random_instance(seed, moves):
    """random_instance drawing from a freshly built pool of every seed, one
    public blow-up per move."""
    rng = random.Random(seed)
    pool = seed_graphs()
    base_name = rng.choice(sorted(pool))
    base = g = pool[base_name]
    log = []
    for _ in range(moves):
        if rng.random() < 0.5 or not g.edges:
            v = rng.choice(g.ids)
            g = blow_up_free_point(g, v)
            log.append(("free", v))
        else:
            e = rng.randrange(len(g.edges))
            g = blow_up_edge(g, e)
            log.append(("edge", e))
    return GeneratedGraph(g, base, base_name, tuple(log))


def test_random_instance_builds_the_drawn_seed_of_the_pool(corpus):
    for item in corpus:
        assert item.inst == reference_random_instance(item.seed, item.seed % 16), item.seed


def test_random_instance_is_pinned():
    # the fold test above and reference_random_instance both go through the
    # public blow-ups, so a change to them would move both sides together;
    # this digest was taken before the moves ran on vertex indices
    h = hashlib.sha256()
    for seed, moves in ([(s, s % 16) for s in range(3000)] + [(s, 192) for s in range(8)]
                        + [(7, 1024)]):
        inst = random_instance(seed, moves)
        g = inst.graph
        h.update(repr((g.vertices, g.edges, g.name, inst.base_name, inst.moves)).encode())
    assert h.hexdigest() == "b2bd07466a28bdc2e7cf63934796e468ecfd6a6f809f2a6e3cde2c8a80b1feb9"


def test_random_instance_refuses_bad_sizes_before_any_draw(monkeypatch):
    # a seed must be an int and moves an int >= 0, bools neither; no
    # generator made before the refusal has drawn
    made = []

    class Recorded(random.Random):
        def __init__(self, seed):
            super().__init__(seed)
            made.append((self, self.getstate()))

    monkeypatch.setattr(catalog.random, "Random", Recorded)
    calls = [(seed, 2) for seed in (None, 2.5, "3", True, [3])]
    calls += [(3, moves) for moves in (-1, True, False, 2.5, "2", None)]
    for seed, moves in calls:
        with pytest.raises(PreconditionFailed):
            random_instance(seed, moves)
        assert all(rng.getstate() == state for rng, state in made), (seed, moves)
    assert random_instance(-3, 0).moves == () and made


def test_random_instance_handles_the_edgeless_seed():
    # seeds whose base is the one-vertex graph must still honour edge moves
    for seed in range(400):
        inst = random_instance(seed, 6)
        if inst.base_name == "I0":
            assert inst.graph.validate().ok
            break
    else:
        pytest.fail("no I0 base drawn in 400 seeds")


def test_random_instance_matches_an_uncached_build(monkeypatch):
    cached = [random_instance(s, s % 16) for s in range(200)]
    for inst in cached:  # one seed object per name, shared by its instances
        assert inst.base is catalog._seed(inst.base_name)
    monkeypatch.setattr(catalog, "_seed", catalog._seed.__wrapped__)
    for s, inst in enumerate(cached):
        fresh = random_instance(s, s % 16)
        assert fresh.base is not inst.base
        assert fresh == inst and repr(fresh) == repr(inst), s


def test_random_instance_leaves_out_the_verifiers():
    # in a fresh interpreter: growing an instance loads none of the
    # verification modules
    heavy = {"numpy", "redjumps.lattices", "redjumps.monoids", "redjumps.verify"}
    code = ("import sys\n"
            "from redjumps import random_instance\n"
            "random_instance(7, 64)\n"
            f"print(sorted({heavy!r} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(Path(redjumps.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, env=env)
    assert proc.stdout.strip() == "[]"
