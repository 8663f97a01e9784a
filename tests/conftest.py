"""Shared fixtures: a deterministic corpus of random reduction graphs."""

import dataclasses

import pytest

from redjumps import GeneratedGraph, JumpSpectrum, ReductionGraph
from redjumps import graph, minimize, random_instance
from redjumps.jumps import _scan

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
    # the spectra are scans of the given models, the reference route of
    # run_checks: compute_jumps scans the minimal model, so comparing its
    # answers across blow-ups would compare one scan with itself
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
    """The graphs minimize runs its worklist on, in order: each run builds
    one surgery form, and so does each public blow-up or blow-down."""
    runs = []

    class Counting(graph._Surgery):
        def __init__(self, g):
            runs.append(g)
            super().__init__(g)

    monkeypatch.setattr(graph, "_Surgery", Counting)
    return runs
