"""Shared fixtures and helpers: a deterministic corpus of random reduction
graphs and the Fibonacci blow-up chains."""

import dataclasses
from functools import cached_property

import pytest

from redjumps import GeneratedGraph, JumpSpectrum, ReductionGraph
from redjumps import blow_up_edge, blow_up_free_point, catalog_graph, minimize, random_instance
from redjumps.jumps import _scan

CORPUS_SIZE = 550


def heaviest_edge(g):
    """Index of the edge joining the two heaviest components, the first
    such edge in edge order: blowing it up again and again makes the
    multiplicities grow like Fibonacci numbers."""
    return max(range(len(g.edges)),
               key=lambda k: sorted((g.multiplicity(x) for x in g.edges[k]), reverse=True))


def fibonacci_chain(tag, depth):
    """catalog_graph(tag) (with one free-point blow-up if it has no edge),
    then depth blow-ups of its heaviest edge."""
    g = catalog_graph(tag)
    if not g.edges:
        g = blow_up_free_point(g, g.vertices[0].id)
    for _ in range(depth):
        g = blow_up_edge(g, heaviest_edge(g))
    return g


@dataclasses.dataclass(frozen=True)
class CorpusItem:
    seed: int
    inst: GeneratedGraph
    spectrum: JumpSpectrum
    base_spectrum: JumpSpectrum
    minimized: ReductionGraph


@pytest.fixture(scope="session")
def corpus():
    # the spectra are scans of every vertex of the given models, the
    # reference route of run_checks: compute_jumps may answer from the one
    # minimal model, so comparing its answers across blow-ups could compare
    # one scan with itself
    base_spectra = {}
    items = []
    for seed in range(CORPUS_SIZE):
        inst = random_instance(seed, moves=seed % 16)
        if inst.base_name not in base_spectra:
            base_spectra[inst.base_name] = _scan(inst.base)[0]
        items.append(CorpusItem(
            seed=seed,
            inst=inst,
            spectrum=_scan(inst.graph)[0],
            base_spectrum=base_spectra[inst.base_name],
            minimized=minimize(inst.graph),
        ))
    return items


@pytest.fixture
def worklist_runs(monkeypatch):
    """The graphs minimize runs its worklist on, in order: each graph whose
    minimal model is computed and is not the graph itself."""
    runs = []
    minimal = vars(ReductionGraph)["_minimal"].func

    def counted(self):
        m = minimal(self)
        if m is not None:
            runs.append(self)
        return m

    prop = cached_property(counted)
    prop.__set_name__(ReductionGraph, "_minimal")
    monkeypatch.setattr(ReductionGraph, "_minimal", prop)
    return runs
