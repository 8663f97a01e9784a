"""The four workloads: their seeded inputs and their checked operations.

An ``Op`` has a ``run(tracer)`` that makes the timed calls into the library
(or starts one ``redjumps`` process) and a ``check(result)`` that compares
the result with ``oracle`` and returns a list of problems (empty when the
answer is right). A pass runs every op of a workload once, in order; a run
is made of whole passes, so the share of failed ops is the same in every run.

Only public names are called, and none that are slated for removal
(``random_valid_graph``, ``lcm_multiplicity``, ``RationalDivisor``, the
CLI's private suite helpers or ``_``-prefixed kernel functions).
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from redjumps import (ReductionGraph, Vertex, analyze, blow_up_edge,
                      catalog_graph, catalog_tags, dump_graph, minimize,
                      random_instance, run_checks)

import oracle

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# cli: every catalog tag, CLI_RANDOM small random instances, the true I1 model.
CLI_RANDOM = 6
CLI_MAIN = "import sys; from redjumps.cli import main; sys.exit(main())"
I1_DOC = {"format": "reduction-graph/1", "name": "I1",
          "vertices": [{"id": "u", "multiplicity": 1, "genus": 0},
                       {"id": "b", "multiplicity": 2, "genus": 0}],
          "edges": [["u", "b"], ["u", "b"]]}

# verify: suite sizes per pass.
VERIFY_GRAPHS = 200
VERIFY_LATTICES = 200          # of each kind: sandwich, complement, snf
VERIFY_POINTS = 40             # random points per monoid chart
VERIFY_LEMM = 40

# chains: (catalog tag, Fibonacci blow-ups); largest N about 10^3.
CHAINS = [("II", 12), ("III", 12), ("IV", 12), ("IV*", 12), ("III*", 12),
          ("II*", 12), ("I0*", 12), ("I3*", 12), ("genus2", 12), ("I2", 12)]

# bushy: random_instance(s, BUSHY_MOVES) for these s. The seed set is fixed
# because the kernel's cost varies tens of times between seeds of one size;
# --seed relabels and reorders the generated graphs instead.
BUSHY_SEEDS = tuple(range(8))
BUSHY_MOVES = 192


@dataclass
class Op:
    name: str
    run: Callable
    check: Callable
    inputs: object    # what run() feeds the library, for comparing seeds


@dataclass
class Workload:
    name: str
    ops: list
    # How to remake each graph this workload feeds the library, for the
    # traced run's layer census: (recipe, relabel key or None), the recipe
    # being ("tag", tag), ("random", seed, moves), ("chain", tag, edge
    # indices) or ("document", dict).
    sources: list


def relabel(g, rng):
    """The same graph with fresh ids and shuffled vertex and edge order."""
    tokens = rng.sample(range(100 * len(g.vertices)), len(g.vertices))
    new = {v.id: f"x{t}" for v, t in zip(g.vertices, tokens)}
    verts = [Vertex(new[v.id], v.multiplicity, v.genus) for v in g.vertices]
    edges = [(new[a], new[b]) for a, b in g.edges]
    rng.shuffle(verts)
    rng.shuffle(edges)
    return ReductionGraph(tuple(verts), tuple(edges), g.name)


def fibonacci_chain(tag, depth):
    """Blow up, depth times, the edge joining the two heaviest components.

    Returns the base graph, the grown graph and the edge indices used.
    """
    base = g = catalog_graph(tag)
    used = []
    for _ in range(depth):
        def weight(k):
            a, b = (g.multiplicity(x) for x in g.edges[k])
            return (max(a, b), min(a, b))
        k = max(range(len(g.edges)), key=weight)
        g = blow_up_edge(g, k)
        used.append(k)
    return base, g, used


class Expected:
    """Oracle spectra of the small seed models, computed once on first use."""

    def __init__(self):
        self._memo = {}

    def of(self, name, base):
        if name not in self._memo:
            self._memo[name] = oracle.catalog_expectation(name, base)
        return self._memo[name]


# -- cli ----------------------------------------------------------------------

class CliExit(Exception):
    """A ``redjumps`` process exited with a non-zero code."""


def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_cli(args, tr, span="cli.compute"):
    with tr.span(span):
        return subprocess.run([sys.executable, "-c", CLI_MAIN, *args],
                              capture_output=True, text=True, cwd=ROOT,
                              env=cli_env(), check=False)


def build_cli(seed, workdir):
    rng = random.Random(seed)
    workdir.mkdir(parents=True, exist_ok=True)
    docs = []    # (label, graph document, (seed model name, graph) or None, source)
    for tag in catalog_tags():
        g = catalog_graph(tag)
        docs.append((tag, json.loads(dump_graph(g)), (tag, g), ("tag", tag)))
    for k in range(CLI_RANDOM):
        s = seed * CLI_RANDOM + k
        moves = 1 + rng.randrange(15)
        inst = random_instance(s, moves)
        docs.append((f"random-{s}-{moves}", json.loads(dump_graph(inst.graph)),
                     (inst.base_name, inst.base), ("random", s, moves)))
    docs.append(("I1", I1_DOC, None, ("document", I1_DOC)))

    expected = Expected()
    ops = []
    for k, (label, doc, key, _) in enumerate(docs):
        path = workdir / f"{k:02d}-{label.replace('*', 's')}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")

        def run(tr, path=path):
            proc = run_cli(["compute", str(path), "--json", "--check"], tr)
            if proc.returncode != 0:
                err = (proc.stderr.strip().splitlines() or ["no output"])[-1]
                raise CliExit(f"exit code {proc.returncode}: {err}")
            return proc.stdout

        def check(stdout, doc=doc, key=key):
            out = json.loads(stdout)
            base = expected.of(*key) if key else None
            problems = oracle.report_problems(doc, out, base)
            checks = out.get("checks") or {}
            if not checks or not all(checks.values()):
                problems.append(f"checks: {checks}")
            return problems

        ops.append(Op(f"cli:{label}", run, check, doc))
    return Workload("cli", ops, [(src, None) for *_, src in docs])


# -- verify -------------------------------------------------------------------

def build_verify(seed, workdir):
    from redjumps import lattices, monoids

    ops = []
    sources = []
    for k in range(VERIFY_GRAPHS):
        s = seed * VERIFY_GRAPHS + k
        sources.append((("random", s, s % 16), None))

        def run(tr, s=s):
            with tr.span("catalog.random_instance"):
                inst = random_instance(s, s % 16)
            with tr.span("jumps.run_checks"):
                return run_checks(inst.graph)

        def check(results):
            return [f"check {name} failed" for name, ok in results if not ok]

        ops.append(Op(f"graphs:{s}", run, check, (s, s % 16)))
    ops += lattice_ops(random.Random(seed), lattices, VERIFY_LATTICES)
    ops += monoid_ops(random.Random(seed + 1), monoids, VERIFY_POINTS, VERIFY_LEMM)
    return Workload("verify", ops, sources)


def lattice_ops(rng, lattices, count):
    """Sandwich, complement and Smith-normal-form instances."""
    ops = []
    for k in range(count):
        g, p, n = rng.randint(2, 4), rng.choice([2, 3, 5]), rng.randint(0, 3)
        l0, l1, l2 = lattices.random_sandwich_instance(rng, g, p, n)

        def run(tr, l0=l0, l1=l1, l2=l2, p=p, n=n):
            with tr.span("lattices.lattice_quotient"):
                X = lattices.lattice_quotient(l1, l0)
            with tr.span("lattices.check_sandwich"):
                return X, lattices.check_sandwich(l0, l1, l2, p, n)

        def check(res, l0=l0, l1=l1):
            X, ok = res
            problems = [] if oracle.matmul(l1, X) == l0 else ["L1 X != L0"]
            return problems + ([] if ok else ["sandwich bound fails"])

        ops.append(Op(f"sandwich:{k}", run, check, (l0, l1, l2, p, n)))
    for k in range(count):
        g, p = rng.randint(2, 4), rng.choice([2, 3, 5])
        l1, l2, l3, v = lattices.random_complement_instance(rng, g, p)

        def run(tr, l1=l1, l2=l2, l3=l3, v=v, p=p):
            with tr.span("lattices.elementary_divisors"):
                w = lattices.elementary_divisors(l2, l3, p)
            with tr.span("lattices.chain_complement"):
                got = lattices.chain_complement(v, w)
            with tr.span("lattices.elementary_divisors"):
                return got, lattices.elementary_divisors(l1, l2, p)

        def check(res):
            return [] if res[0] == res[1] else [f"complement {res[0]} != {res[1]}"]

        ops.append(Op(f"complement:{k}", run, check, (l1, l2, l3, v, p)))
    for k in range(count):
        g = rng.randint(1, 4)
        M = [[rng.randint(-9, 9) for _ in range(g)] for _ in range(g)]

        def run(tr, M=M):
            with tr.span("lattices.det"):
                d = lattices.det(M)
            if d == 0:
                return d, None
            with tr.span("lattices.smith_normal_form"):
                return d, lattices.smith_normal_form(M)

        def check(res, M=M):
            d, snf = res
            problems = [] if d == oracle.det(M) else ["det differs"]
            if snf is not None:
                problems += oracle.smith_problems(M, *snf)
            return problems

        ops.append(Op(f"snf:{k}", run, check, M))
    return ops


def monoid_ops(rng, monoids, points, lemm):
    """Closed forms against the search definitions, saturation indices and
    the pushout lemma."""
    ops = []
    cases = [(c, 8, monoids.member_case1, monoids.member_case1_search,
              monoids.sat_member_case1, monoids.sat_member_case1_search)
             for c in monoids.charts_case1(6)]
    cases += [(c, 6, monoids.member_case2, monoids.member_case2_search,
               monoids.sat_member_case2, monoids.sat_member_case2_search)
              for c in monoids.charts_case2(5)]
    for chart, box, mem, mem_s, sat, sat_s in cases:
        qs = [tuple(rng.randint(-box, box) for _ in range(3)) for _ in range(points)]

        def run(tr, chart=chart, qs=qs, fns=(mem, mem_s, sat, sat_s)):
            mem, mem_s, sat, sat_s = fns
            out = []
            for q in qs:
                with tr.span("monoids.closed_form"):
                    a = mem(chart, q)
                with tr.span("monoids.search"):
                    b = mem_s(chart, q)
                with tr.span("monoids.closed_form"):
                    c = sat(chart, q)
                with tr.span("monoids.search"):
                    d = sat_s(chart, q)
                out.append((q, a, b, c, d))
            return out

        def check(out):
            return [f"closed form differs at {q}" for q, a, b, c, d in out
                    if bool(a) != bool(b) or bool(c) != bool(d)]

        ops.append(Op(f"charts:{chart}", run, check, qs))
    for chart in monoids.charts_case1(6) + monoids.charts_case2(4):
        branch = (chart.a, chart.b) if hasattr(chart, "b") else (chart.a,)

        def run(tr, chart=chart):
            with tr.span("monoids.chart_saturation_index"):
                return monoids.chart_saturation_index(chart)

        def check(idx, branch=branch):
            want = oracle.lcm_all(branch)
            return [] if idx == want else [f"saturation index {idx} != {want}"]

        ops.append(Op(f"saturation:{chart}", run, check, chart))
    for k in range(lemm):
        P = monoids.random_cone_monoid(rng)
        e = P.generators[rng.randrange(len(P.generators))]
        d = rng.randint(2, 4)

        def run(tr, gens=P.generators, e=e, d=d):
            # A fresh monoid each time: AffineMonoid caches its membership grid.
            P = monoids.AffineMonoid(gens)
            with tr.span("monoids.verify_lemm_coker"):
                return monoids.verify_lemm_coker(P, e, d, 4)

        def check(count):
            return [] if count >= 0 else [f"negative count {count}"]

        ops.append(Op(f"pushout:{k}", run, check, (P.generators, e, d)))
    return ops


# -- chains -------------------------------------------------------------------

def build_chains(seed, workdir):
    expected = Expected()
    ops, sources = [], []
    for tag, depth in CHAINS:
        base, g, used = fibonacci_chain(tag, depth)
        key = f"{seed}/{tag}"
        g = relabel(g, random.Random(key))
        sources.append((("chain", tag, tuple(used)), key))

        def run(tr, g=g):
            # A fresh graph each time, so no per-object cache outlives a pass.
            fresh = ReductionGraph(g.vertices, g.edges, g.name)
            with tr.span("jumps.analyze"):
                return analyze(fresh)

        def check(report, g=g, tag=tag, base=base):
            return oracle.report_problems(g, report, expected.of(tag, base))

        ops.append(Op(f"chain:{tag}", run, check, (g.vertices, g.edges)))
    random.Random(seed).shuffle(ops)
    return Workload("chains", ops, sources)


# -- bushy --------------------------------------------------------------------

def build_bushy(seed, workdir):
    expected = Expected()
    ops, sources = [], []
    for s in BUSHY_SEEDS:
        relabel_key = f"{seed}/{s}"
        sources.append((("random", s, BUSHY_MOVES), relabel_key))
        state = {}

        def gen(tr, s=s):
            with tr.span("catalog.random_instance"):
                return random_instance(s, BUSHY_MOVES)

        def gen_check(inst, state=state, relabel_key=relabel_key):
            state["base"] = inst.base
            state["base_name"] = inst.base_name
            state["graph"] = relabel(inst.graph, random.Random(relabel_key))
            problems = []
            if len(inst.graph.vertices) != len(inst.base.vertices) + BUSHY_MOVES:
                problems.append("vertex count is not base + moves")
            if oracle.genus(inst.graph) != oracle.genus(inst.base):
                problems.append("genus changed under blow-ups")
            return problems

        def spec(tr, state=state):
            with tr.span("jumps.analyze"):
                return analyze(state["graph"])

        def spec_check(report, state=state):
            return oracle.report_problems(
                state["graph"], report,
                expected.of(state["base_name"], state["base"]))

        def mini(tr, state=state):
            with tr.span("graph.minimize"):
                return minimize(state["graph"])

        def mini_check(g, state=state):
            problems = []
            if len(g.vertices) != len(state["base"].vertices):
                problems.append(f"minimal model has {len(g.vertices)} vertices, "
                                f"seed has {len(state['base'].vertices)}")
            if oracle.genus(g) != oracle.genus(state["base"]):
                problems.append("genus changed under minimize")
            return problems

        key = (s, BUSHY_MOVES, relabel_key)
        ops += [Op(f"generate:{s}", gen, gen_check, key),
                Op(f"analyze:{s}", spec, spec_check, key),
                Op(f"minimize:{s}", mini, mini_check, key)]
    return Workload("bushy", ops, sources)


BUILDERS = {"cli": build_cli, "verify": build_verify, "chains": build_chains,
            "bushy": build_bushy}
