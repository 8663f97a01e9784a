"""Value semantics of the package's frozen record classes, and its exports."""

import copy
import importlib
import inspect
import pickle
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import redjumps
from redjumps import analyze, compute_jumps, errors, jumps, kodaira_graph, minimize, random_instance
from redjumps._values import Value, _ratio
from redjumps.errors import ValidationError
from redjumps.graph import ReductionGraph, Vertex, Violation
from redjumps.monoids import (AffineMonoid, SaturationChartCase1,
                              SaturationChartCase2)

from package_env import package_env


def _instances():
    g = kodaira_graph("II")
    cases = [
        (Vertex("a", 2, 1), True),
        (Violation("gcd", "gcd of multiplicities is 2, must be 1", "a"), True),
        (g._compiled, False),          # list fields: unhashable, as before
        (g, True),
        (compute_jumps(g), True),
        (jumps._terms(g._compiled, 6, [0]), True),
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


def test_every_record_class_has_an_instance():
    # every Value subclass the package defines takes the checks above, so
    # none escapes them, nor the setter table its __init_subclass__ built
    for module in pkgutil.iter_modules(redjumps.__path__):
        importlib.import_module(f"redjumps.{module.name}")
    classes, stack = set(), [Value]
    while stack:
        for cls in stack.pop().__subclasses__():
            stack.append(cls)
            if cls.__module__.startswith("redjumps."):
                classes.add(cls)
    assert {type(case.values[0]) for case in _instances()} == classes


def test_caches_are_not_fields():
    g, h = kodaira_graph("III"), kodaira_graph("III")
    minimize(g)  # fill the cache of g only
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
    env = package_env()
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
    from redjumps import catalog, errors, graph, lattices, monoids, surgery

    removed = ("principal_dominating", "NoPrincipalFound", "filtration_summands",
               "conductor", "divisible_case1", "column_hnf", "genus2_example")
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    for name in removed:
        for module in (redjumps, catalog, lattices, monoids, errors):
            assert not hasattr(module, name), (module.__name__, name)
        assert f"`{name}`" not in readme, name
    for cls, name in ((jumps.JumpSpectrum, "values"), (graph.ReductionGraph, "has_vertex")):
        assert not hasattr(cls, name), name
        assert f"`{name}" not in readme, name
    # a blow-up names its new vertex by the first fresh b<n>
    for blow_up in (surgery.blow_up_free_point, surgery.blow_up_edge):
        assert "new_id" not in inspect.signature(blow_up).parameters, blow_up.__name__
    # the moves live in surgery alone: graph keeps no alias of them
    for name in ("_blown_up", "_edge_index", "blow_up_free_point", "blow_up_edge", "blow_down"):
        assert hasattr(surgery, name) and not hasattr(graph, name), name
        assert name.startswith("_") or getattr(redjumps, name) is getattr(surgery, name), name
    # an invalid graph is refused by one ValidationError, which always
    # carries the graph's violations; a graph that exists has none, so no
    # report type is left
    for module, name in ((errors, "NonIntegralSelfIntersection"), (errors, "InconsistentGeometry"),
                         (graph, "_self_intersection"), (graph, "ValidationReport"),
                         (graph, "_VALID"), (redjumps, "ValidationReport")):
        assert not hasattr(module, name), name
        assert f"`{name}`" not in readme, name
    assert "ValidationReport" not in redjumps.__all__
    parameters = inspect.signature(errors.ValidationError).parameters
    assert list(parameters) == ["message", "violations"]
    assert parameters["violations"].default is inspect.Parameter.empty
    assert kodaira_graph("II").validate() == ()
    # the single values at j/m and is_isomorphic went to the tests' formula_oracle
    for name in ("IntegralDivisor", "floor_divisor", "index_set", "intersect", "is_isomorphic",
                 "jump_multiplicity", "jump_multiplicity_via_euler", "lower_bound", "sigma"):
        assert not hasattr(redjumps, name), name
    with pytest.raises(ModuleNotFoundError):
        __import__("redjumps.reference")


def test_validation_error_copies_and_pickles_with_its_report():
    # the violations are a required argument, so a copy passes them to __init__
    with pytest.raises(ValidationError) as e:
        ReductionGraph((Vertex("a", 2, 1),), ())
    assert e.value.violations == (Violation("gcd", "gcd of multiplicities is 2, must be 1"),)
    for clone in (copy.copy(e.value), pickle.loads(pickle.dumps(e.value))):
        assert type(clone) is ValidationError
        assert (str(clone), clone.violations) == (str(e.value), e.value.violations)


@pytest.mark.parametrize("cls", [cls for cls in vars(errors).values() if isinstance(cls, type)
                                 and issubclass(cls, errors.RedjumpsError)],
                         ids=lambda cls: cls.__name__)
def test_every_error_copies_and_pickles(cls):
    if cls is ValidationError:
        error = cls("bad", (Violation("gcd", "bad"),))
    else:
        error = cls("message")
    for clone in (copy.copy(error), pickle.loads(pickle.dumps(error))):
        assert (type(clone), str(clone)) == (cls, str(error))
        if cls is ValidationError:
            assert clone.violations == error.violations


def test_ratio_writes_what_str_of_a_fraction_writes():
    # the commands write a/d from the integer pair; Fraction is imported
    # here only to compare
    from fractions import Fraction

    for d in range(1, 40):
        for a in range(-80, 81):
            assert _ratio(a, d) == str(Fraction(a, d)), (a, d)
