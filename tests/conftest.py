"""Shared fixtures: a deterministic corpus of random reduction graphs and
counters of vertex classifications and minimal-model worklist runs (the
blow-up chains the suites share are in ``blowup_chains``)."""

import dataclasses
from functools import cached_property

import pytest

from redjumps import GeneratedGraph, JumpSpectrum, ReductionGraph
from redjumps import minimize, random_instance
from redjumps.jumps import _scan, _spectrum

CORPUS_SIZE = 550


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
            base_spectra[inst.base_name] = _spectrum(_scan(inst.base)[0])
        items.append(CorpusItem(
            seed=seed,
            inst=inst,
            spectrum=_spectrum(_scan(inst.graph)[0]),
            base_spectrum=base_spectra[inst.base_name],
            minimized=minimize(inst.graph),
        ))
    return items


def _recorded(monkeypatch, name, keep=lambda result: True):
    """The graphs the cached property ``name`` of ReductionGraph is computed
    for, in order, each kept when ``keep`` holds of its result."""
    runs = []
    compute = vars(ReductionGraph)[name].func

    def counted(self):
        result = compute(self)
        if keep(result):
            runs.append(self)
        return result

    prop = cached_property(counted)
    prop.__set_name__(ReductionGraph, name)
    monkeypatch.setattr(ReductionGraph, name, prop)
    return runs


@pytest.fixture
def classified(monkeypatch):
    """The graphs whose vertices are classified, in order: each graph that
    ``ReductionGraph._settle`` builds the compiled form of."""
    runs, settle = [], ReductionGraph._settle

    def counted(self, *args):
        settle(self, *args)
        runs.append(self)

    monkeypatch.setattr(ReductionGraph, "_settle", counted)
    return runs


@pytest.fixture
def worklist_runs(monkeypatch):
    """The graphs minimize runs its worklist on, in order: each graph whose
    minimal model is computed and is not the graph itself."""
    return _recorded(monkeypatch, "_minimal", lambda m: m is not None)
