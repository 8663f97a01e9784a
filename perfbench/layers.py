"""Per-layer figures for a traced run.

``census`` replays the graphs a workload feeds the library and calls each
module's public functions on them one at a time, inside spans: how the
graph is made (``catalog``, ``graph`` blow-ups), parsed and reported
(``io``), validated and minimized (``graph``) and analysed (``jumps``). The
lattice and monoid layers take no graphs; every traced run times them on
the seed's ``verify`` lattice and monoid checks. ``cli_probes`` times
``redjumps`` processes that only import or only start. ``per_layer`` turns
the spans into the metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from statistics import median

from redjumps import (analyze, blow_up_edge, blow_up_free_point,
                      candidate_values, catalog_graph, compute_jumps,
                      dump_graph, minimize, parse_document, random_instance,
                      report_document, run_checks)
from redjumps.errors import RedjumpsError

import workloads

PROBES = 5
LAYERS = ("bench", "cli", "io", "graph", "catalog", "jumps", "lattices", "monoids")


def make_graph(tr, source):
    """Rebuild one workload graph by the library calls that made it."""
    kind = source[0]
    if kind == "document":
        with tr.span("io.parse_document"):
            return parse_document(json.dumps(source[1]))
    if kind == "tag":
        with tr.span("catalog.catalog_graph"):
            return catalog_graph(source[1])
    if kind == "chain":
        with tr.span("catalog.catalog_graph"):
            g = catalog_graph(source[1])
        for k in source[2]:
            with tr.span("graph.blow_up_edge"):
                g = blow_up_edge(g, k)
        return g
    with tr.span("catalog.random_instance"):
        inst = random_instance(source[1], source[2])
    g = inst.base
    for move, arg in inst.moves:
        if move == "free":
            with tr.span("graph.blow_up_free_point"):
                g = blow_up_free_point(g, arg)
        else:
            with tr.span("graph.blow_up_edge"):
                g = blow_up_edge(g, arg)
    return g


def census(tr, workload, seed):
    """One call of each public function per workload graph; returns counts."""
    counts = {"candidates": 0, "blow_downs": 0, "graphs": []}
    for k, (source, key) in enumerate(workload.sources):
        tr.op = f"census:{k}"
        g = make_graph(tr, source)
        if key is not None:
            g = workloads.relabel(g, random.Random(key))
        with tr.span("io.dump_graph"):
            text = dump_graph(g)
        with tr.span("io.parse_document"):
            g = parse_document(text)
        with tr.span("graph.validate"):
            g.validate()
        with tr.span("jumps.candidate_values"):
            n = len(candidate_values(g))
        counts["candidates"] += n
        with tr.span("jumps.compute_jumps"):
            compute_jumps(g)
        with tr.span("jumps.analyze"):
            report = analyze(g)
        with tr.span("io.report_document"):
            json.dumps(report_document(report))
        try:
            with tr.span("jumps.run_checks"):
                run_checks(g)
            with tr.span("graph.minimize"):
                small = minimize(g)
            counts["blow_downs"] += len(g.vertices) - len(small.vertices)
        except RedjumpsError as exc:
            print(f"census: {g.name or k}: {type(exc).__name__}", file=sys.stderr)
        counts["graphs"].append((g.name, len(g.vertices),
                                 max(v.multiplicity for v in g.vertices), n))
    from redjumps import lattices, monoids
    ops = (workloads.lattice_ops(random.Random(seed), lattices, workloads.VERIFY_LATTICES)
           + workloads.monoid_ops(random.Random(seed + 1), monoids,
                                  workloads.VERIFY_POINTS, workloads.VERIFY_LEMM))
    for op in ops:
        tr.op = f"census:{op.name}"
        op.run(tr)
    counts["lattice_calls"] = sum(1 for s in tr.spans
                                  if str(s[4]).startswith("census:")
                                  and s[0].startswith("lattices."))
    return counts


def cli_probes(tr):
    """Median in-process import time of redjumps.cli, and median wall time
    of ``redjumps catalog``, over PROBES processes each."""
    imports = []
    code = ("import time; t = time.perf_counter(); import redjumps.cli; "
            "print(time.perf_counter() - t)")
    for k in range(PROBES):
        tr.op = f"probe:{k}"
        with tr.span("cli.import"):
            proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                                  text=True, cwd=workloads.ROOT,
                                  env=workloads.cli_env(), check=True)
        imports.append(float(proc.stdout.strip().splitlines()[-1]))
        proc = workloads.run_cli(["catalog"], tr, span="cli.catalog")
        if proc.returncode != 0:
            raise RuntimeError(f"redjumps catalog exited {proc.returncode}")
    return median(imports)


def per_layer(tr, counts, import_s, overhead):
    """The per-layer metrics, from the spans of one traced run."""
    ms, us = 1e3, 1e6
    compute = census_total(tr, "jumps.compute_jumps")
    blow_ups = (tr.durations("graph.blow_up_edge")
                + tr.durations("graph.blow_up_free_point"))
    metrics = {
        "cli.import_ms": (import_s * ms, "ms"),
        "cli.startup_ms": (tr.median("cli.catalog") * ms, "ms"),
        "io.parse_ms": (tr.median("io.parse_document") * ms, "ms"),
        "io.report_ms": (tr.median("io.report_document") * ms, "ms"),
        "graph.validate_ms": (tr.median("graph.validate") * ms, "ms"),
        "graph.blow_up_ms": ((median(blow_ups) if blow_ups else 0.0) * ms, "ms"),
        "graph.minimize_s": (census_total(tr, "graph.minimize"), "s"),
        "graph.blow_downs": (counts["blow_downs"], "count"),
        "catalog.graphs_s": (census_total(tr, "catalog."), "s"),
        "jumps.candidates": (counts["candidates"], "count"),
        "jumps.compute_jumps_s": (compute, "s"),
        "jumps.us_per_candidate": (compute / max(counts["candidates"], 1) * us, "us"),
        "jumps.analyze_rest_s": (census_total(tr, "jumps.analyze") - compute, "s"),
        "jumps.run_checks_ms": (tr.median("jumps.run_checks") * ms, "ms"),
        "lattices.det_us": (tr.median("lattices.det") * us, "us"),
        "lattices.lattice_quotient_us": (tr.median("lattices.lattice_quotient") * us, "us"),
        "lattices.smith_normal_form_us": (tr.median("lattices.smith_normal_form") * us, "us"),
        "lattices.elementary_divisors_us": (tr.median("lattices.elementary_divisors") * us, "us"),
        "lattices.calls": (counts["lattice_calls"], "count"),
        "monoids.closed_form_us": (tr.median("monoids.closed_form") * us, "us"),
        "monoids.search_us": (tr.median("monoids.search") * us, "us"),
        "monoids.saturation_index_ms": (tr.median("monoids.chart_saturation_index") * ms, "ms"),
        "monoids.verify_lemm_coker_ms": (tr.median("monoids.verify_lemm_coker") * ms, "ms"),
        "trace.overhead_pct": (overhead * 100, "%"),
    }
    own = tr.self_time_by_layer()
    for layer in LAYERS:
        metrics[f"self_s.{layer}"] = (own.get(layer, 0.0), "s")
    return metrics


def census_total(tr, prefix):
    """Seconds in spans named with prefix during the census, which calls
    each function once per workload graph."""
    return sum(s[2] - s[1] for s in tr.spans
               if s[0].startswith(prefix) and str(s[4]).startswith("census:"))
