"""Randomized verification suites, each defined once.

`redjumps verify` and acceptance criteria 09-10 run the same functions. A
suite maps (seed, count) to rows (name, good, total, witness): how many
instances of one check passed, out of how many, and the first failing
instance (None if none failed). A check that raises fails its instance,
with (instance, exception) as witness, and the suite goes on. Sizes: the
graphs suite checks random_instance(s, s % 16) for s in [seed, seed +
count), with s as witness; the lattices suite checks count instances of
each check, redrawing singular matrices; the monoids suite runs its
exhaustive checks on every chart with m <= 12, and count random points
and count pushout monoids. numpy is imported by the monoid suite only.
"""

from __future__ import annotations

import math
import random
from collections import namedtuple

from . import catalog, jumps, lattices, monoids

_PRIMES = (2, 3, 5)
_BOX = 12  # the exhaustive monoid checks cover every chart with m <= _BOX


Row = namedtuple("Row", "name good total witness")


class _Tally(dict):
    """Check name -> (good, total, first failing instance), in run order."""

    def add(self, name, instance, ok):
        good, total, witness = self.get(name, (0, 0, None))
        self[name] = (good + bool(ok), total + 1,
                      instance if not ok and good == total else witness)

    def check(self, name, instance, predicate):
        try:
            ok = predicate()
        except Exception as exc:
            self.add(name, (instance, exc), False)
        else:
            self.add(name, instance, ok)

    def rows(self, suite):
        return [Row(f"{suite}/{name}", *t) for name, t in self.items()]


def graph_suite(seed, count):
    tally = _Tally()
    for s in range(seed, seed + count):
        try:
            results = jumps.run_checks(catalog.random_instance(s, s % 16).graph)
        except Exception as exc:
            tally.add("run-checks", (s, exc), False)
            continue
        for name, ok in [("run-checks", True)] + results:
            tally.add(name, s, ok)
    return tally.rows("graphs")


def lattice_suite(seed, count):
    rng = random.Random(seed)
    tally = _Tally()
    for _ in range(count):
        g, p, n = rng.randint(1, 4), rng.choice(_PRIMES), rng.randint(0, 3)
        l0, l1, l2 = lattices.random_sandwich_instance(rng, g, p, n)
        tally.check("sandwich", (l0, l1, l2, p, n),
                    lambda: lattices.check_sandwich(l0, l1, l2, p, n))
    for _ in range(count):
        g, p = rng.randint(1, 4), rng.choice(_PRIMES)
        l1, l2, l3, v = lattices.random_complement_instance(rng, g, p)
        tally.check("complement", (l1, l2, l3, v, p),
                    lambda: _complements(l1, l2, l3, v, p))
    for _ in range(count):
        d = 0
        while d == 0:
            g = rng.randint(1, 4)
            M = [[rng.randrange(-9, 10) for _ in range(g)] for _ in range(g)]
            d = lattices.det(M)
        tally.check("snf", M, lambda: _smith_form(M, d))
    return tally.rows("lattices")


def _complements(l1, l2, l3, v, p):
    """c(L3/L2) and c(L2/L1) are each other's complements against v."""
    lower = lattices.elementary_divisors(l1, l2, p)
    upper = lattices.elementary_divisors(l2, l3, p)
    return (lattices.chain_complement(v, lower) == upper
            and lattices.chain_complement(v, upper) == lower)


def _smith_form(M, d):
    U, D, V = lattices.smith_normal_form(M)
    diag = lattices.diagonal(D)
    return (lattices.det(U) in (1, -1) and lattices.det(V) in (1, -1)
            and lattices.matmul(lattices.matmul(U, M), V) == D
            and all(x > 0 for x in diag)
            and all(b % a == 0 for a, b in zip(diag, diag[1:]))
            and math.prod(diag) == abs(d))


def monoid_suite(seed, count):
    import numpy as np

    rng = random.Random(seed)
    tally = _Tally()
    # int32 holds every value _box forms: the largest is n U with
    # n <= m max(a, b) <= 144 and |U| <= 12, and the saturation forms are
    # taken on the unscaled box. Smaller temporaries are also cheaper to
    # allocate than int64 ones.
    span = np.arange(-_BOX, _BOX + 1, dtype=np.int32)
    box = np.meshgrid(span, span, span, indexing="ij")
    cases = (("case1", monoids.charts_case1(_BOX), monoids.charts_case1(8),
              monoids.member_case1, monoids.sat_member_case1,
              monoids.member_case1_search, monoids.sat_member_case1_search),
             ("case2", monoids.charts_case2(_BOX), monoids.charts_case2(6),
              monoids.member_case2, monoids.sat_member_case2,
              monoids.member_case2_search, monoids.sat_member_case2_search))
    for case, charts, _, member, sat_member, _, _ in cases:
        for chart in charts:
            tally.check(f"{case}-box", chart,
                        lambda: _box(chart, member, sat_member, box))
    # the array path against the scalar definition-level searches
    for _ in range(count):
        q = tuple(rng.randint(-5, 5) for _ in range(3))
        for case, _, charts, member, sat_member, search, sat_search in cases:
            chart = rng.choice(charts)
            tally.check(f"{case}-search", (chart, q),
                        lambda: member(chart, q) == search(chart, q)
                        and sat_member(chart, q) == sat_search(chart, q))

    for chart in monoids.charts_case1(_BOX):
        for j, f in monoids.cokernel_generators_case1(chart):
            q = (0, -f, j)
            tally.check("cokernel-generators", (chart, j),
                        lambda: monoids.sat_member_case1(chart, q)
                        and monoids.member_case1(chart, q) == (f == 0))
        tally.check("divisibility", chart, lambda: _divisibility(chart))

    for chart in monoids.charts_case1(_BOX) + monoids.charts_case2(_BOX):
        tally.check("saturation-index", chart,
                    lambda: monoids.chart_saturation_index(chart)
                    == math.lcm(*chart.branches))

    for _ in range(count):
        P = monoids.random_cone_monoid(rng)
        e = P.generators[rng.randrange(len(P.generators))]
        d = rng.randint(1, 4)
        tally.check("pushout-lemma", (P, e, d),
                    lambda: monoids.verify_lemm_coker(P, e, d, box=4) >= 1)
    return tally.rows("monoids")


def _box(chart, member, sat_member, box):
    """On the whole box, the closed forms equal the definitions: a shift k
    in [-_BOX, _BOX] into the orthant (enough, as a, m >= 1), and a
    multiple up to m times the largest branch multiplicity in the monoid."""
    import numpy as np

    U, V, W = box
    # case 1 bounds v by its one branch, case 2 bounds u and v
    branches = tuple(zip((U, V)[-len(chart.branches):], chart.branches))
    shifted = np.zeros(U.shape, dtype=bool)
    for k in range(-_BOX, _BOX + 1):
        hit = W - k * chart.m >= 0
        for x, a in branches:
            hit &= x + k * a >= 0
        shifted |= hit
    multiple = np.zeros(U.shape, dtype=bool)
    for n in range(1, chart.m * max(chart.branches) + 1):
        multiple |= member(chart, (n * U, n * V, n * W))
    return (np.array_equal(member(chart, box), shifted)
            and np.array_equal(sat_member(chart, box), multiple))


def _divisibility(chart):
    """Divisibility grows with s, shrinks with t and with i, and survives
    trading one t for one i."""
    import numpy as np

    divisible = monoids._divisible_case1  # s, t and i are in range
    table = np.array([[[divisible(chart, s, t, i)
                        for i in range(_BOX + 1)] for t in range(_BOX + 1)]
                      for s in range(2 * _BOX + 1)])
    return bool(np.all(table[:-1, :, :] <= table[1:, :, :])
                and np.all(table[:, 1:, :] <= table[:, :-1, :])
                and np.all(table[:, :, 1:] <= table[:, :, :-1])
                and np.all(table[:, 1:, :-1] <= table[:, :-1, 1:]))


SUITES = {"graphs": graph_suite, "lattices": lattice_suite,
          "monoids": monoid_suite}
