"""Value semantics of the package's frozen record classes, its exports, and
the integer draw of its seeded generators."""

import copy
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

import redjumps
from redjumps import analyze, compute_jumps, kodaira_graph, random_instance
from redjumps._values import _below
from redjumps.graph import ValidationReport, Vertex, Violation
from redjumps.reference import IntegralDivisor, _terms_at
from redjumps.monoids import (AffineMonoid, SaturationChartCase1,
                              SaturationChartCase2)


def _instances():
    g = kodaira_graph("II")
    cases = [
        (Vertex("a", 2, 1), True),
        (Violation("gcd", "gcd of multiplicities is 2, must be 1", "a"), True),
        (ValidationReport(False, (Violation("gcd", "bad"),)), True),
        (g._compiled, False),          # list fields: unhashable, as before
        (g, True),
        (IntegralDivisor({"c": 1}), False),  # a dict field
        (compute_jumps(g), True),
        (_terms_at(g, 1)[0], True),
        (analyze(g, with_checks=True), True),
        (random_instance(3, 4), True),
        (SaturationChartCase1(2, 6), True),
        (SaturationChartCase2(2, 3, 6), True),
        (AffineMonoid(((1, 0), (1, 2))), True),
    ]
    return [pytest.param(*case, id=type(case[0]).__name__) for case in cases]


@pytest.mark.parametrize("value, hashable", _instances())
def test_value_semantics(value, hashable):
    cls = type(value)
    fields = [getattr(value, name) for name in cls._fields]
    twin = cls(*fields)
    assert twin == value and not twin != value
    if hashable:
        assert hash(twin) == hash(value)
    else:
        with pytest.raises(TypeError):
            hash(value)
    text = repr(value)
    assert text.startswith(f"{cls.__qualname__}(")
    assert all(f"{name}={getattr(value, name)!r}" in text for name in cls._fields)
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.not_a_field = 1
    assert value != tuple(fields)
    assert copy.copy(value) == value
    assert copy.deepcopy(value) == value
    assert pickle.loads(pickle.dumps(value)) == value


def test_caches_are_not_fields():
    g, h = kodaira_graph("III"), kodaira_graph("III")
    g.validate(), g.genus()  # fill the caches of g only
    assert g == h and hash(g) == hash(h)
    P = AffineMonoid(((1, 0), (1, 2)))
    assert P.contains((2, 2)) and not P.contains((0, 1))
    assert P == AffineMonoid(((1, 0), (1, 2)))
    assert repr(P) == "AffineMonoid(generators=((1, 0), (1, 2)))"
    assert pickle.loads(pickle.dumps(P)).contains((2, 2))


def test_exports_resolve():
    # in a fresh interpreter: the package alone loads no submodule, and
    # dir() lists the exports before any is loaded
    code = ("import sys, redjumps; "
            "print(sorted(m for m in sys.modules if m.startswith('redjumps.'))); "
            "print(sorted(set(redjumps.__all__) - set(dir(redjumps))))")
    env = {**os.environ, "PYTHONPATH": str(Path(redjumps.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, env=env)
    assert proc.stdout.splitlines() == ["[]", "[]"]
    for name in redjumps.__all__:
        assert getattr(redjumps, name) is not None, name
    names = {}
    exec("from redjumps import *", names)
    assert set(redjumps.__all__) <= set(names)
    assert set(redjumps.__all__) <= set(dir(redjumps))
    assert redjumps.errors is __import__("redjumps.errors").errors
    with pytest.raises(AttributeError):
        redjumps.not_exported


def test_removed_names_stay_removed():
    # names that nothing but their own tests called; "conductor" as a plain
    # word stays, for the tame base-change conductor
    from redjumps import errors, lattices, monoids, reference

    removed = ("principal_dominating", "NoPrincipalFound", "filtration_summands",
               "conductor", "divisible_case1", "column_hnf")
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    for name in removed:
        for module in (redjumps, reference, lattices, monoids, errors):
            assert not hasattr(module, name), (module.__name__, name)
        assert f"`{name}`" not in readme, name


def test_below_draws_as_randrange_choice_and_randint():
    # the same value and the same generator state after it, on every bit
    # length and on both sides of each power of two
    bounds = list(range(1, 71)) + [2 ** k + d for k in range(1, 71) for d in (-1, 0, 1)]
    for n in bounds:
        new, old = random.Random(n), random.Random(n)
        for _ in range(5):
            assert _below(new, n) == old.randrange(n), n
            assert new.getstate() == old.getstate(), n
    items = ("a", "b", "c", "d")
    new, old = random.Random(1), random.Random(1)
    for _ in range(200):
        assert items[_below(new, 4)] == old.choice(items)
        assert -3 + _below(new, 7) == old.randint(-3, 3)
        assert new.getstate() == old.getstate()
