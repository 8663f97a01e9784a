"""Chart monoids, their saturations, and the bounded pushout checks."""

import hashlib
import itertools
import math
import operator
import random
import subprocess
import sys
import time
import types

import numpy as np
import pytest

from redjumps import monoids
from hypothesis import given, settings
from hypothesis import strategies as st

from redjumps.errors import (
    InternalInconsistency,
    NotSaturatedInput,
    PreconditionFailed,
    RedjumpsError,
)
from redjumps.monoids import (
    AffineMonoid,
    SaturationChartCase1,
    SaturationChartCase2,
    _divisible_case1,
    chart_saturation_index,
    charts_case1,
    charts_case2,
    cokernel_generators_case1,
    member_case1,
    member_case1_search,
    member_case2,
    member_case2_search,
    random_cone_monoid,
    sat_member_case1,
    sat_member_case1_search,
    sat_member_case2,
    sat_member_case2_search,
    verify_lemm_coker,
)
from redjumps.verify import monoid_suite

from package_env import package_env


# -- chart construction --------------------------------------------------------

def test_chart_validation():
    SaturationChartCase1(2, 6)
    with pytest.raises(PreconditionFailed):
        SaturationChartCase1(4, 6)  # 4 does not divide 6
    with pytest.raises(PreconditionFailed):
        SaturationChartCase1(0, 6)
    with pytest.raises(PreconditionFailed):
        SaturationChartCase2(2, 5, 6)
    with pytest.raises(PreconditionFailed):
        SaturationChartCase2(2, True, 6)


def test_chart_enumeration():
    assert len(charts_case1(6)) == 14
    assert all(c.m % c.a == 0 for c in charts_case1(10))
    assert all(c.m % c.a == 0 and c.m % c.b == 0 for c in charts_case2(6))
    assert SaturationChartCase2(2, 3, 6) in charts_case2(6)


# -- closed-form membership equals the defining search ---------------------------

def test_case1_formulas_match_search_exhaustively():
    span = range(-6, 7)
    for chart in charts_case1(4):
        for q in itertools.product(span, span, span):
            assert member_case1(chart, q) == member_case1_search(chart, q), (chart, q)
            assert sat_member_case1(chart, q) == sat_member_case1_search(chart, q), (chart, q)


def test_case2_formulas_match_search_exhaustively():
    span = range(-4, 5)
    for chart in charts_case2(3):
        for q in itertools.product(span, span, span):
            assert member_case2(chart, q) == member_case2_search(chart, q), (chart, q)
            assert sat_member_case2(chart, q) == sat_member_case2_search(chart, q), (chart, q)


def reference_member_case1_search(chart, q):
    """The shift search over the old wide range +-(|v| + |w| + 1)."""
    _, v, w = q
    bound = abs(v) + abs(w) + 1
    return any(v + k * chart.a >= 0 and w - k * chart.m >= 0
               for k in range(-bound, bound + 1))


def reference_member_case2_search(chart, q):
    """The shift search over the old wide range +-(|u| + |v| + |w| + 1)."""
    u, v, w = q
    bound = abs(u) + abs(v) + abs(w) + 1
    return any(u + k * chart.a >= 0 and v + k * chart.b >= 0
               and w - k * chart.m >= 0
               for k in range(-bound, bound + 1))


def reference_sat_member_case1_search(chart, q):
    u, v, w = q
    return any(reference_member_case1_search(chart, (n * u, n * v, n * w))
               for n in range(1, chart.a * chart.m + 1))


def reference_sat_member_case2_search(chart, q):
    u, v, w = q
    return any(reference_member_case2_search(chart, (n * u, n * v, n * w))
               for n in range(1, chart.m * max(chart.a, chart.b) + 1))


def skewed_points(small, large):
    """Points with |u|, |v| much larger than |w|, and the other way round."""
    big = [x for x in large for x in (x, -x)]
    for x, y in itertools.product(big, repeat=2):
        for z in small:
            yield (x, y, z)
            yield (z, x, y)
            yield (x, z, y)
    for x, y in itertools.product(small, repeat=2):
        for z in big:
            yield (x, y, z)


# each case with the largest m of the charts the monoid suite draws from
SEARCHES = (
    (charts_case1, 8, member_case1_search, reference_member_case1_search,
     sat_member_case1_search, reference_sat_member_case1_search),
    (charts_case2, 6, member_case2_search, reference_member_case2_search,
     sat_member_case2_search, reference_sat_member_case2_search),
)


@pytest.mark.parametrize("charts, top, search, reference, sat_search, sat_reference",
                         SEARCHES, ids=["case1", "case2"])
def test_searches_match_the_wide_range(charts, top, search, reference,
                                       sat_search, sat_reference):
    members = [*itertools.product(range(-6, 7), repeat=3),
               *skewed_points(range(-3, 4), (9, 20, 37))]
    for chart in charts(top):
        for q in members:
            assert search(chart, q) == reference(chart, q), (chart, q)
        for q in itertools.product(range(-3, 4), repeat=3):
            assert sat_search(chart, q) == sat_reference(chart, q), (chart, q)
    # the wide-range reference is slow on large multiples, so the skewed
    # points of the saturation searches run on the charts with m <= 3 only
    for chart in charts(3):
        for q in skewed_points((-2, 0, 1), (11, 23)):
            assert sat_search(chart, q) == sat_reference(chart, q), (chart, q)


def feasible_shifts(chart, q):
    u, v, w = q
    # case 1 constrains v by its one branch, case 2 constrains u and v
    branches = tuple(zip((u, v)[-len(chart.branches):], chart.branches))
    return [k for k in range(-50, 51)
            if all(x + k * a >= 0 for x, a in branches) and w - k * chart.m >= 0]


@pytest.mark.parametrize("chart, q, k", [
    (SaturationChartCase2(1, 1, 1), (3, 3, -3), -3),
    (SaturationChartCase2(1, 1, 1), (-3, -3, 3), 3),
    (SaturationChartCase2(1, 1, 1), (5, 7, -5), -5),
    (SaturationChartCase2(1, 1, 1), (5, 2, -2), -2),
    (SaturationChartCase2(2, 1, 2), (5, -1, 2), 1),
    (SaturationChartCase2(1, 2, 2), (-1, -2, 3), 1),
    (SaturationChartCase1(1, 1), (0, 3, -3), -3),
    (SaturationChartCase1(1, 1), (0, -3, 3), 3),
    (SaturationChartCase1(1, 1), (9, 5, -5), -5),
    (SaturationChartCase1(1, 1), (-9, -4, 4), 4),
    (SaturationChartCase1(1, 1), (0, 0, 0), 0),
    (SaturationChartCase1(2, 2), (0, -2, 3), 1),
    (SaturationChartCase1(1, 3), (0, -1, 3), 1),
])
def test_search_finds_a_shift_at_an_end_of_its_range(chart, q, k):
    """The only feasible shift is an end of the scanned range: below, the
    start that the signs allow (-v or 1 in case 1, the larger of the u and
    v bounds in case 2); above, the last k with w - k m >= 0."""
    assert feasible_shifts(chart, q) == [k]
    search = member_case1_search if len(chart.branches) == 1 else member_case2_search
    assert search(chart, q)


class RecordingMultiplicity(int):
    """A multiplicity m that records each shift k of a product k * m."""

    def __new__(cls, value, shifts):
        self = super().__new__(cls, value)
        self.shifts = shifts
        return self

    def __rmul__(self, k):
        self.shifts.append(k)
        return k * int(self)


@pytest.mark.parametrize("branches, m, q, scanned", [
    # case 1: from -v for v >= 0, from 1 for v < 0
    ((1,), 1, (0, 3, -3), [-3]),
    ((2,), 2, (0, -2, 3), [1]),
    ((1,), 1, (0, -3, 5), [1, 2, 3]),
    # the stop fires at the first scanned shift
    ((1,), 1, (0, 4, -5), [-4]),
    ((1,), 2, (0, -2, 1), [1]),
    ((1,), 3, (0, 0, -10**4), [0]),
    # and after the last shift with w - k m >= 0
    ((1,), 2, (0, -5, 6), [1, 2, 3, 4]),
    # case 2: from the larger of the u and v bounds
    ((1, 1), 1, (5, 2, -2), [-2]),
    ((1, 1), 1, (2, 5, -2), [-2]),
    ((2, 1), 2, (5, -1, 2), [1]),
    ((1, 1), 1, (5, 2, -3), [-2]),
    ((1, 2), 2, (-1, 4, 1), [1]),
    ((1, 2), 2, (-3, 1, 5), [1, 2, 3]),
    # a range that ends at |w| before its start scans nothing
    ((1,), 1, (0, -1, 0), []),
    ((1, 1), 1, (-1, -1, 0), []),
])
def test_search_scans_from_the_sign_bound_to_the_stop(branches, m, q, scanned):
    """Each scanned shift k forms w - k m once; the scan starts where the
    signs of the branch coordinates allow and stops at the first feasible
    k or the first k with w - k m < 0."""
    shifts = []
    chart = types.SimpleNamespace(a=branches[0], b=branches[-1],
                                  m=RecordingMultiplicity(m, shifts),
                                  branches=branches)
    feasible = bool(feasible_shifts(chart, q))
    shifts.clear()
    search = member_case1_search if len(branches) == 1 else member_case2_search
    assert search(chart, q) == feasible
    assert shifts == scanned


@pytest.mark.parametrize("search, chart, q", [
    (member_case1_search, SaturationChartCase1(1, 2), (0, -1.5, 3)),
    (member_case1_search, SaturationChartCase1(1, 2), (0, 0, 2.5)),
    (member_case1_search, SaturationChartCase1(1, 2), (0, 1.5, 3)),
    (member_case1_search, SaturationChartCase1(1, 2), (0, -1, -2.5)),
    (sat_member_case1_search, SaturationChartCase1(1, 2), (0, -1.5, 3)),
    (member_case2_search, SaturationChartCase2(1, 1, 2), (-1.5, 0, 3)),
    (member_case2_search, SaturationChartCase2(1, 1, 2), (0, -2.5, 3)),
    (member_case2_search, SaturationChartCase2(1, 1, 2), (1.5, -1, 3)),
    (member_case2_search, SaturationChartCase2(1, 1, 2), (-1, 2.5, 3)),
    (member_case2_search, SaturationChartCase2(1, 1, 2), (0, 0, -2.5)),
    (sat_member_case2_search, SaturationChartCase2(1, 1, 2), (0, -2.5, 3)),
])
def test_searches_refuse_non_integral_coordinates(search, chart, q):
    with pytest.raises(TypeError):
        search(chart, q)


def test_membership_accepts_numpy_arrays():
    chart1 = SaturationChartCase1(2, 6)
    chart2 = SaturationChartCase2(2, 3, 6)
    pts = list(itertools.product(range(-5, 6), repeat=3))
    u = np.array([p[0] for p in pts])
    v = np.array([p[1] for p in pts])
    w = np.array([p[2] for p in pts])
    assert member_case1(chart1, (u, v, w)).tolist() == \
        [member_case1(chart1, p) for p in pts]
    assert sat_member_case1(chart1, (u, v, w)).tolist() == \
        [sat_member_case1(chart1, p) for p in pts]
    assert member_case2(chart2, (u, v, w)).tolist() == \
        [member_case2(chart2, p) for p in pts]
    assert sat_member_case2(chart2, (u, v, w)).tolist() == \
        [sat_member_case2(chart2, p) for p in pts]


def test_membership_is_monoid_closed():
    chart = SaturationChartCase1(3, 6)
    members = [q for q in itertools.product(range(-3, 4), repeat=3)
               if member_case1(chart, q)]
    for p in members[:40]:
        for q in members[:40]:
            s = tuple(a + b for a, b in zip(p, q))
            assert member_case1(chart, s), (p, q)


# -- cokernel generators -----------------------------------------------------------

def test_cokernel_generators():
    chart = SaturationChartCase1(2, 6)
    gens = cokernel_generators_case1(chart)
    assert gens == ((1, 0), (2, 0), (3, 1), (4, 1), (5, 1))
    for j, f in gens:
        # (0, -f, j) is always in the saturation, and in Q itself iff f = 0
        assert sat_member_case1(chart, (0, -f, j))
        assert member_case1(chart, (0, -f, j)) == (f == 0)
        if f > 0:
            assert not sat_member_case1(chart, (0, -(f + 1), j))


@settings(deadline=None, max_examples=30)
@given(m=st.integers(1, 12), data=st.data())
def test_cokernel_generator_invariant(m, data):
    divisors = [a for a in range(1, m + 1) if m % a == 0]
    a = data.draw(st.sampled_from(divisors))
    chart = SaturationChartCase1(a, m)
    for j, f in cokernel_generators_case1(chart):
        assert f == (j * a) // m
        assert sat_member_case1(chart, (0, -f, j))
        assert member_case1(chart, (0, -f, j)) == (f == 0)


# -- graded pieces of the chart algebra ---------------------------------------------

def test_divisible_case1():
    chart = SaturationChartCase1(2, 6)
    assert _divisible_case1(chart, 9, 3, 0)  # 2*9 >= 6*3
    assert not _divisible_case1(chart, 9, 3, 1)
    assert _divisible_case1(chart, 3, 1, 0)
    assert not _divisible_case1(chart, 2, 1, 0)


def test_divisibility_is_monotone():
    chart = SaturationChartCase1(3, 12)
    for s in range(0, 20):
        for t in range(0, 5):
            for i in range(0, 6):
                if _divisible_case1(chart, s, t, i):
                    assert _divisible_case1(chart, s + 1, t, i)
                    if t > 0:
                        assert _divisible_case1(chart, s, t - 1, i)
                    if i > 0:
                        assert _divisible_case1(chart, s, t, i - 1)


def test_chart_saturation_index_case1():
    assert chart_saturation_index(SaturationChartCase1(1, 1)) == 1
    assert chart_saturation_index(SaturationChartCase1(2, 4)) == 2
    assert chart_saturation_index(SaturationChartCase1(3, 6)) == 3
    assert chart_saturation_index(SaturationChartCase1(6, 6)) == 6


def test_chart_saturation_index_without_a_stable_degree(monkeypatch):
    # the lcm of the branch multiplicities is always stable, so only a
    # broken branch check can run past it
    monkeypatch.setattr(monoids, "_branch_saturated", lambda e, n, c: False)
    with pytest.raises(InternalInconsistency) as caught:
        chart_saturation_index(SaturationChartCase1(2, 4))
    assert str(caught.value) == "no stable degree found up to the lcm bound"


def test_chart_saturation_index_case2():
    assert chart_saturation_index(SaturationChartCase2(2, 3, 6)) == 6
    assert chart_saturation_index(SaturationChartCase2(2, 2, 4)) == 2
    assert chart_saturation_index(SaturationChartCase2(1, 1, 3)) == 1
    assert chart_saturation_index(SaturationChartCase2(4, 2, 4)) == 4
    assert chart_saturation_index(SaturationChartCase2(2, 25, 50)) == 50
    assert chart_saturation_index(SaturationChartCase2(7, 60, 420)) == 420


def cell_scan(e, n, c, ws, ts):
    """The branch check cell by cell, on the 2-D (t, W) grid ts x ws."""
    T, W = np.meshgrid(np.array(ts), np.array(ws), indexing="ij")
    sat = e * n * T + c * W >= 0
    mem = e * T + c * (W // n) >= 0
    return not bool(np.any(sat & ~mem))


def one_period_scan(e, n, c):
    """The cell scan on W in [0, n e) and t in [-c, 0]. It is complete: for
    such W the least t with e n t + c W >= 0 is -floor(c W / (e n)), which
    lies in (-c, 0], and a row with a counterexample has one at that t."""
    return cell_scan(e, n, c, range(n * e), range(-c, 1))


def reference_chart_saturation_index(chart, nmax=3):
    """The index with the one-period grids built again for every (e, n, c)."""
    for e in range(1, math.lcm(*chart.branches) + 1):
        if all(one_period_scan(e, n, c)
               for n in range(2, nmax + 1) for c in chart.branches):
            return e


def test_branch_check_is_the_cell_scan():
    """For every e, c <= 30 and n in {2, 3}, against the scan of one period
    and of three periods, W in [-n e, 2 n e) with t in [-2c - 1, c + 1]."""
    seen = set()
    for e, n, c in itertools.product(range(1, 31), (2, 3), range(1, 31)):
        got = monoids._branch_saturated(e, n, c)
        assert got == one_period_scan(e, n, c), (e, n, c)
        three = cell_scan(e, n, c, range(-n * e, 2 * n * e), range(-2 * c - 1, c + 2))
        assert got == three, (e, n, c)
        seen.add(got)
    assert seen == {True, False}


def test_chart_saturation_index_is_the_lcm_on_every_small_chart():
    for chart in charts_case1(12) + charts_case2(12):
        index = chart_saturation_index(chart)
        assert index == reference_chart_saturation_index(chart), chart
        assert index == math.lcm(*chart.branches), chart


def test_chart_saturation_index_is_the_lcm_on_larger_charts():
    """Every case-1 chart with m <= 40, and every two-branch chart with
    branch multiplicities up to 25 (325 of them), over the lcm."""
    charts = charts_case1(40) + [SaturationChartCase2(a, b, math.lcm(a, b))
                                 for a in range(1, 26) for b in range(a, 26)]
    for chart in charts:
        assert chart_saturation_index(chart) == math.lcm(*chart.branches), chart


def test_monoids_import_leaves_out_numpy():
    code = ("import sys, redjumps.lattices, redjumps.monoids\n"
            "print('numpy' in sys.modules)")
    env = package_env()
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, env=env)
    assert proc.stdout.strip() == "False"


def test_only_the_monoid_suite_loads_numpy():
    code = ("import sys\n"
            "from redjumps.verify import graph_suite, lattice_suite, monoid_suite\n"
            "graph_suite(0, 2)\n"
            "lattice_suite(0, 2)\n"
            "print('numpy' in sys.modules)\n"
            "monoid_suite(0, 1)\n"
            "print('numpy' in sys.modules)")
    env = package_env()
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, env=env)
    assert proc.stdout.split() == ["False", "True"]


def test_chart_saturation_index_rejects_other_inputs():
    with pytest.raises(PreconditionFailed):
        chart_saturation_index("II")


# -- affine monoids and the pushout lemma ----------------------------------------------

def test_affine_monoid_validation():
    with pytest.raises(PreconditionFailed):
        AffineMonoid(())
    with pytest.raises(PreconditionFailed):
        AffineMonoid(((1, 2), (3,)))
    with pytest.raises(PreconditionFailed):
        AffineMonoid(((1, -2),))


def test_numeric_monoid_membership():
    numeric = AffineMonoid(((2,), (3,)))
    got = [n for n in range(10) if numeric.contains((n,))]
    assert got == [0, 2, 3, 4, 5, 6, 7, 8, 9]
    assert numeric.group_contains((1,))
    assert not numeric.is_saturated(6)


def test_planar_monoid_membership():
    m = AffineMonoid(((1, 0), (1, 1), (1, 2)))
    assert m.contains((2, 3))
    assert not m.contains((1, 3))
    assert m.is_saturated(6)
    evens = AffineMonoid(((2, 0), (0, 2)))
    assert not evens.group_contains((1, 1))
    assert evens.group_contains((2, 4))
    mixed = AffineMonoid(((2, 0), (0, 2), (1, 1)))
    assert mixed.group_contains((1, 1))
    assert not mixed.group_contains((1, 0))


def test_group_membership_in_a_group_of_lower_rank():
    # the generators span a line or a plane, so the Hermite form has fewer
    # pivots than coordinates and the residual decides the last ones
    line = AffineMonoid(((1, 1), (2, 2)))
    assert line.group_contains((3, 3)) and line.group_contains((-1, -1))
    assert not line.group_contains((1, 0)) and not line.group_contains((2, 3))
    plane = AffineMonoid(((1, 0, 1), (0, 2, 2)))
    assert plane.group_contains((1, -2, -1)) and plane.group_contains((0, 0, 0))
    assert not plane.group_contains((1, 1, 2)) and not plane.group_contains((0, 0, 1))
    assert not plane.contains((1, 1, 2)) and plane.contains((1, 2, 3))


def test_monoid_membership_reads_numpy_integers_as_ints():
    # a numpy integer that sets the grid bound would otherwise be shifted
    # and multiplied in fixed width
    P = AffineMonoid(((1, 0), (0, 1)))
    assert P.contains((np.int64(100), 0)) and P._grid_bound == 100
    Q = AffineMonoid(((3, 0, 0), (0, 1, 0), (0, 0, 1)))
    assert Q.contains((np.int32(90), np.int64(2), 5))
    assert not Q.contains((np.int16(89), 0, np.uint8(1))) and Q._grid_bound == 90


def test_verify_lemm_coker_counts():
    line = AffineMonoid(((1,),))
    assert verify_lemm_coker(line, (1,), 2, 4) == 10
    quadrant = AffineMonoid(((1, 0), (0, 1)))
    assert verify_lemm_coker(quadrant, (1, 1), 3, 3) > 0


def test_verify_lemm_coker_preconditions():
    with pytest.raises(PreconditionFailed):
        verify_lemm_coker(AffineMonoid(((2,),)), (1,), 2, 4)  # e not in P
    with pytest.raises(PreconditionFailed):
        verify_lemm_coker(AffineMonoid(((1,),)), (1,), 0, 4)
    with pytest.raises(PreconditionFailed):
        verify_lemm_coker(AffineMonoid(((1,),)), (1,), 2, 0)
    with pytest.raises(PreconditionFailed):
        verify_lemm_coker(AffineMonoid(((1,),)), (1,), 2, True)
    with pytest.raises(NotSaturatedInput):
        verify_lemm_coker(AffineMonoid(((2,), (3,))), (2,), 2, 4)
    with pytest.raises(PreconditionFailed):
        verify_lemm_coker(((1,),), (1,), 2, 4)  # P is not an AffineMonoid


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 10_000), d=st.integers(1, 4))
def test_pushout_lemma_on_random_cones(seed, d):
    rng = random.Random(seed)
    P = random_cone_monoid(rng)
    assert P.is_saturated(5)
    e = P.generators[rng.randrange(len(P.generators))]
    assert verify_lemm_coker(P, e, d, 4) >= 0


ENUMERATED_GENERATORS = (
    ((1, 0), (0, 1)),
    *(random_cone_monoid(random.Random(seed)).generators for seed in range(6)),
    ((2, 0), (0, 2), (1, 1)), ((2, 0), (0, 2)),  # index 2 and 4
    ((1, 1), (2, 2)), ((1, 0, 1), (0, 2, 2)),  # a line and a plane
    ((2,), (3,)), ((2,), (4,)), ((0, 0),))


@pytest.mark.parametrize("generators", ENUMERATED_GENERATORS)
def test_group_points_are_the_group_in_the_box_in_product_order(generators):
    P = AffineMonoid(generators)
    for lo, hi in ((-4, 4), (0, 4)):
        want = [x for x in itertools.product(range(lo, hi + 1), repeat=P.rank)
                if P.group_contains(x)]
        assert list(P._group_points(lo, hi)) == want, (lo, hi)


def test_pushout_counts_on_the_suite_instances_are_pinned(monkeypatch):
    """The monoid suite asserts only count >= 1: pin the counts and the
    is_saturated(5) answers of its 200 pushout instances by hash."""
    seen = []
    check = monoids.verify_lemm_coker

    def recording(P, e, d, box):
        count = check(P, e, d, box)
        seen.append((count, P.is_saturated(5)))
        return count

    monkeypatch.setattr(monoids, "verify_lemm_coker", recording)
    monoid_suite(20260819, 200)
    assert len(seen) == 200 and sum(count for count, _ in seen) == 8130
    assert hashlib.sha256(repr(seen).encode()).hexdigest() == (
        "d19693e8fccfc068ee8e8c79d701c30fd74432e2a515fa8d4bc5df4035ec4c47")


def reference_is_saturated(P, box):
    """The saturation check through the public contains."""
    kmax = max(2, box)
    for x in itertools.product(range(box + 1), repeat=P.rank):
        if not any(x) or P.contains(x) or not P.group_contains(x):
            continue
        if any(P.contains(tuple(k * c for c in x)) for k in range(2, kmax + 1)):
            return False
    return True


def reference_verify_lemm_coker(P, e, d, box):
    """The pushout check through the public contains, growing the grid on
    demand."""
    e = tuple(e)
    if not P.contains(e):
        raise PreconditionFailed("e must be an element of P")
    if not isinstance(d, int) or isinstance(d, bool) or d < 1:
        raise PreconditionFailed(f"d must be a positive integer, got {d!r}")
    if not isinstance(box, int) or box < 1:
        raise PreconditionFailed(f"box must be a positive integer, got {box!r}")
    if not reference_is_saturated(P, box):
        raise NotSaturatedInput("P is not saturated on the verification box")
    count = 0
    for x in itertools.product(range(-box, box + 1), repeat=P.rank):
        if not P.group_contains(x):
            continue
        for n in range(d):
            if not P.contains(tuple(d * xi + n * ei for xi, ei in zip(x, e))):
                continue
            if not P.contains(tuple(xi + ei for xi, ei in zip(x, e))):
                raise InternalInconsistency(
                    f"saturation element (x={x}, n={n}/{d}) with x + e outside P")
            count += 1
    return count


def outcome(f, *args):
    """The count, or the type of the exception; an InternalInconsistency
    with its message, which names the first counterexample."""
    try:
        return f(*args)
    except InternalInconsistency as exc:
        return InternalInconsistency, str(exc)
    except RedjumpsError as exc:
        return type(exc)


def rank3_cone(rng):
    """The nonzero points of [0, 3]^3 on which two random linear forms
    with coefficients in [-1, 2] are non-negative, or (1, 0, 0) when there
    are none."""
    forms = [[rng.randint(-1, 2) for _ in range(3)] for _ in range(2)]
    gens = tuple(x for x in itertools.product(range(4), repeat=3)
                 if any(x) and all(sum(map(operator.mul, f, x)) >= 0 for f in forms))
    return gens or ((1, 0, 0),)


# groups of index 2 in Z^2 and of lower rank than their coordinates, and
# products with <3, 4> and <3, 5>, which pass the saturation check on the
# box [0, 1]^r but break the lemma there
SMALL_GENERATORS = (((2, 0), (0, 2), (1, 1)), ((1, 1), (2, 2)),
                    ((1, 0, 1), (0, 2, 2)), ((1, 1, 0), (0, 0, 2), (0, 1, 1)),
                    ((3, 0), (4, 0), (0, 1)), ((0, 1), (3, 0), (5, 0)),
                    ((1, 0, 0), (0, 3, 0), (0, 4, 0), (0, 0, 1)))


def pushout_cases():
    """Random cones of rank 2 (some cut down to half their generators, so
    not saturated) with e a generator or an arbitrary small vector, d = 1..6
    and box = 1..5; random rank-3 cones with e a generator, a sum of two or
    a small vector, d = 1..6 and box = 1..3; SMALL_GENERATORS likewise with
    box = 1..2; and rank-1 numeric monoids with d = 1..4 and box = 1..5."""
    rng = random.Random(20261018)
    for _ in range(250):
        gens = random_cone_monoid(rng).generators
        if rng.random() < 0.3:
            gens = gens[:max(1, len(gens) // 2)]
        e = (rng.choice(gens) if rng.random() < 0.8
             else (rng.randint(-1, 7), rng.randint(-1, 7)))
        yield gens, e, rng.randint(1, 6), rng.randint(1, 5)
    for k in range(36 + 8 * len(SMALL_GENERATORS)):
        gens = rank3_cone(rng) if k < 36 else SMALL_GENERATORS[k % len(SMALL_GENERATORS)]
        pick = rng.random()
        if pick < 0.5:
            e = rng.choice(gens)
        elif pick < 0.8:
            e = tuple(map(operator.add, rng.choice(gens), rng.choice(gens)))
        else:
            e = tuple(rng.randint(-1, 4) for _ in gens[0])
        yield gens, e, rng.randint(1, 6), rng.randint(1, 3 if k < 36 else 2)
    for gens in itertools.combinations(range(1, 7), 2):
        for e, d, box in itertools.product(range(0, 8, 2), range(1, 5), range(1, 6)):
            yield tuple((g,) for g in gens), (e,), d, box


def test_pushout_check_matches_the_contains_route():
    seen = set()
    for gens, e, d, box in pushout_cases():
        got = outcome(verify_lemm_coker, AffineMonoid(gens), e, d, box)
        want = outcome(reference_verify_lemm_coker, AffineMonoid(gens), e, d, box)
        assert got == want, (gens, e, d, box)
        seen.add(got[0] if isinstance(got, tuple) else got if isinstance(got, type) else int)
        assert (AffineMonoid(gens).is_saturated(box)
                == reference_is_saturated(AffineMonoid(gens), box)), (gens, box)
    assert seen == {int, PreconditionFailed, NotSaturatedInput, InternalInconsistency}


def test_pushout_check_fills_the_grid_once(monkeypatch):
    fills = []
    ensure = AffineMonoid._ensure_grid

    def counting(self, bound):
        before = self._grid_bound
        ensure(self, bound)
        if self._grid_bound != before:
            fills.append(bound)

    monkeypatch.setattr(AffineMonoid, "_ensure_grid", counting)
    quadrant = ((1, 0), (0, 1))
    for gens, e, d, box in [(quadrant, (1, 1), 3, 3), (quadrant, (0, 0), 4, 5),
                            (quadrant, (20, 3), 1, 2), (((1,),), (30,), 1, 3),
                            (((1,),), (1,), 2, 4)]:
        fills.clear()
        verify_lemm_coker(AffineMonoid(gens), e, d, box)
        assert len(fills) == 1, (gens, e, d, box, fills)


def test_grids_past_the_bit_budget_are_refused_at_once():
    cube = AffineMonoid(((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    start = time.perf_counter()
    for call in (lambda: cube.contains((10**4, 0, 0)),
                 lambda: cube.contains((10**100, 0, 0)),
                 lambda: cube.is_saturated(10**3),
                 lambda: verify_lemm_coker(cube, (1, 0, 0), 10**4, 1)):
        with pytest.raises(PreconditionFailed, match="GRID_BITS"):
            call()
        assert cube._grid is None  # refused before any grid was built
    assert time.perf_counter() - start < 0.5
    # a grid grows to the box asked for, up to the budget, and a grid past
    # it is refused with the last grid kept
    edge = math.isqrt(monoids.GRID_BITS) // 2 - 1  # the largest B: (2(B + 1))^2 fits
    plane = AffineMonoid(((1, 0), (0, 1)))
    assert plane.contains((edge // 2 + 1, 0)) and plane._grid_bound == edge // 2 + 1
    assert plane.contains((edge, 1)) and plane._grid_bound == edge
    with pytest.raises(PreconditionFailed):
        plane.contains((edge + 1, 0))
    assert plane._grid_bound == edge and plane.contains((edge, edge))


def test_the_suites_fit_far_inside_the_bit_budget(monkeypatch):
    # the largest grid the monoid suite builds has 4,900 bits; under that
    # budget it gives the same rows, all passing
    assert monoids.GRID_BITS >= 10_000 * 4_900
    rows = monoid_suite(20260819, 200)
    assert rows and all(row.good == row.total for row in rows), rows
    monkeypatch.setattr(monoids, "GRID_BITS", 4_900)
    assert monoid_suite(20260819, 200) == rows


def test_monoid_checks_refuse_non_integer_vectors():
    P = AffineMonoid(((1, 0), (0, 1)))
    for x in ((1.5, 0), (True, 0), (2.0, 0), (0, "1")):
        with pytest.raises(PreconditionFailed):
            P.contains(x)
        with pytest.raises(PreconditionFailed):
            P.group_contains(x)
    with pytest.raises(PreconditionFailed):
        P.contains((1, 0, 0))
    assert P.contains((np.int64(1), 2)) and P.group_contains((np.int32(3), 0))
    for box in (True, 2.0, -1):
        with pytest.raises(PreconditionFailed):
            P.is_saturated(box)
    assert P.is_saturated(0)


# -- the membership grid against the fixpoint loop it replaced -------------------

def reference_ensure_grid(generators, bound):
    """The grid on [0, bound]^r as the old fixpoint loop built it: shift by
    every generator in the box until nothing changes."""
    r = len(generators[0])
    grid = np.zeros((bound + 1,) * r, dtype=bool)
    grid[(0,) * r] = True
    gens = [g for g in set(generators) if any(g) and all(c <= bound for c in g)]
    changed = True
    while changed:
        changed = False
        for g in gens:
            src = grid[tuple(slice(None, bound + 1 - c) for c in g)]
            dst = grid[tuple(slice(c, None) for c in g)]
            if (src & ~dst).any():
                dst |= src
                changed = True
    return grid


def assert_grids_match(generators, bounds):
    P = AffineMonoid(generators)
    grid_bound = -1
    for bound in bounds:
        P._ensure_grid(bound)
        if bound > grid_bound:
            want, grid_bound = reference_ensure_grid(generators, bound), bound
        assert P._grid_bound == grid_bound, (generators, bounds)
        # every point of the box, in the row-major order of want's cells;
        # equal bit counts then leave no stray bit outside the box
        box = itertools.product(range(grid_bound + 1), repeat=len(generators[0]))
        assert [P._lookup(x) for x in box] == want.ravel().tolist(), (generators, bounds)
        assert int.from_bytes(P._grid, "little").bit_count() == want.sum(), (generators, bounds)


def random_generators(rng):
    """1 to 6 vectors of rank 1 to 3 with entries up to 20, some of them
    zero or repeated; an entry above the bound falls outside the grid."""
    r = rng.randint(1, 3)
    gens = [tuple(rng.choice((0, 0, 1, 2, 3, 5, 7, 9, 20)) for _ in range(r))
            for _ in range(rng.randint(1, 6))]
    if rng.random() < 0.2:
        gens.append((0,) * r)
    if rng.random() < 0.3:
        gens.append(rng.choice(gens))
    rng.shuffle(gens)
    return tuple(gens)


def test_grid_matches_the_fixpoint_loop_on_random_monoids():
    rng = random.Random(20261018)
    for _ in range(300):
        gens = random_generators(rng)
        top = 40 if len(gens[0]) < 3 else 20
        assert_grids_match(gens, [rng.randint(0, top) for _ in range(3)])


def test_grid_matches_the_fixpoint_loop_on_cone_monoids():
    rng = random.Random(20261019)
    for _ in range(40):
        assert_grids_match(random_cone_monoid(rng).generators, [10, 35, 60])


def test_grid_closes_only_under_irredundant_generators(monkeypatch):
    """A generator that is a sum of lighter ones, or lies outside the box,
    is never shifted by; each other one is, once."""
    closed = []
    close = monoids._close_under

    def recording(grid, g, *box):
        closed.append(g)
        return close(grid, g, *box)

    monkeypatch.setattr(monoids, "_close_under", recording)
    gens = ((2, 2), (0, 0), (1, 0), (3, 1), (0, 1), (1, 0), (9, 0), (0, 3), (1, 1))
    AffineMonoid(gens)._ensure_grid(8)
    assert closed == [(1, 0), (0, 1)]
    rng = random.Random(20261020)
    for _ in range(100):
        gens = random_generators(rng)
        closed.clear()
        AffineMonoid(gens)._ensure_grid(8)
        # the expected list: in order of coordinate sum, each generator of
        # the box that the monoid of the ones before it does not contain
        want = []
        ordered = sorted(gens, key=sum)
        for k, g in enumerate(ordered):
            before = reference_ensure_grid(ordered[:k] or ((0,) * len(g),), 8)
            if max(g) <= 8 and not before[g]:
                want.append(g)
        assert closed == want, gens
