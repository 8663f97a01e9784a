"""Benchmark of the redjumps pipeline: one workload per run.

    python3 perfbench/run.py --workload {cli,verify,chains,bushy} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout: the library is imported from its
``src`` directory, never from an installed copy. The run sets up the
workload's inputs from the seed, then runs whole passes over its operations
for at least S seconds (and at least MIN_PASSES passes), checks every
result against ``oracle`` and prints one JSON line last:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json,
times in reference seconds (see ``speed``); with ``--trace 1`` the per-layer
ones, and the spans are written to ``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("cli", "verify", "chains", "bushy")
# Modules each workload imports before its first timed call.
IMPORTS = {"cli": ["redjumps"], "verify": ["redjumps", "redjumps.lattices",
                                           "redjumps.monoids"],
           "chains": ["redjumps"], "bushy": ["redjumps"]}
SETUPS = 3            # set-ups per run, each in its own process; setup_s
                      # reports their median
MIN_PASSES = 2        # each operation's median needs more than one sample


def load_library(workload):
    """Import the checkout's redjumps, or exit non-zero without a result."""
    sys.path.insert(0, str(SRC))
    try:
        mods = [importlib.import_module(m) for m in IMPORTS[workload]]
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import redjumps from {SRC}: {exc}")
    if SRC.resolve() not in Path(mods[0].__file__).resolve().parents:
        sys.exit(f"perfbench: redjumps came from {mods[0].__file__}, not {SRC}")


def setup_once(workload, seed, workdir):
    """Seconds to import the library and build the workload's inputs."""
    t0 = perf_counter()
    load_library(workload)
    import workloads
    workloads.BUILDERS[workload](seed, Path(workdir))
    return perf_counter() - t0


def setup_in_child(args, workdir, clock):
    """setup_once in a fresh interpreter, so that the import is cold; in
    reference seconds."""
    code = (f"import sys; sys.path.insert(0, {str(Path(__file__).parent)!r}); "
            f"import run; print(run.setup_once({args.workload!r}, {args.seed}, "
            f"{str(workdir)!r}))")
    clock.tick()
    before = clock.factor
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, cwd=ROOT, check=False)
    if proc.returncode != 0:
        sys.exit(f"perfbench: set-up failed: {proc.stderr.strip()}")
    return clock.scale(float(proc.stdout.strip().splitlines()[-1]), before)


class Tally:
    """Operation counts and times over the passes of one run."""

    def __init__(self, per_pass):
        self.per_pass = per_pass
        self.attempted = self.failed = self.wrong = 0
        self.op_times, self.pass_times = [], []   # reference seconds
        self.log = {}


def one_pass(workload, tr, tally, clock):
    """Run every operation once. An operation fails when it raises (for
    ``cli``: exits non-zero) or when its check finds a wrong answer; only
    the latter makes the run incorrect."""
    gc.collect()
    pass_time = 0.0
    for k, op in enumerate(workload.ops):
        clock.tick()
        before = clock.factor
        tr.op = f"pass{len(tally.pass_times)}:{k}"
        with tr.span("bench.op"):
            t0 = perf_counter()
            try:
                result, error = op.run(tr), None
            except Exception as exc:  # a crash is a failed operation
                result, error = None, f"raised {type(exc).__name__}: {exc}"
            dt = clock.scale(perf_counter() - t0, before)
            problems = []
            if error is None:
                with tr.span("bench.check"):
                    try:
                        problems = op.check(result)
                    except Exception as exc:  # unreadable output
                        problems = [f"check raised {type(exc).__name__}: {exc}"]
        tally.attempted += 1
        tally.op_times.append(dt)
        pass_time += dt
        if error or problems:
            tally.failed += 1
            tally.wrong += bool(problems)
            tally.log.setdefault(op.name, [error] if error else problems)
    tally.pass_times.append(pass_time)


def typical_pass(tally):
    """One pass at each operation's median time over the passes; steadier
    than the median pass when a burst of load hits one pass."""
    n = tally.per_pass
    return sum(median(tally.op_times[k::n]) for k in range(n))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup_clock = speed.Clock("process")
        setup_s = median([setup_in_child(args, workdir / f"setup{k}", setup_clock)
                          for k in range(SETUPS)])
        load_library(args.workload)
        import workloads
        from tracing import NullTracer
        workload = workloads.BUILDERS[args.workload](args.seed, workdir)
        tally = Tally(len(workload.ops))
        clock = speed.Clock("process" if args.workload == "cli" else "loop")
        if args.trace:
            metrics = traced(workload, args, tally, clock)
        else:
            start = perf_counter()
            while perf_counter() - start < args.seconds or len(tally.pass_times) < MIN_PASSES:
                one_pass(workload, NullTracer(), tally, clock)
            who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
            metrics = {
                "setup_s": (setup_s, "s"),
                "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
                "pass_s": (typical_pass(tally), "s"),
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{args.workload}: {tally.attempted} ops ({tally.per_pass} per pass), "
          f"{tally.failed} failed; pass times "
          + " ".join(f"{t:.3f}" for t in tally.pass_times))
    for name, problems in tally.log.items():
        print(f"FAILED {name}: {'; '.join(problems[:3])}", file=sys.stderr)
    print(json.dumps({"correct": tally.wrong == 0, "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))


def traced(workload, args, tally, clock):
    """Per-layer metrics. Untraced and traced passes alternate, so that the
    tracing overhead is measured under the same load; then the layer census
    and the CLI probes run, traced."""
    import layers
    from tracing import NullTracer, Tracer

    tr = Tracer()
    plain = Tally(tally.per_pass)
    start = perf_counter()
    while perf_counter() - start < args.seconds or len(tally.pass_times) < MIN_PASSES:
        one_pass(workload, NullTracer(), plain, clock)
        one_pass(workload, tr, tally, clock)
    overhead = typical_pass(tally) / typical_pass(plain) - 1
    counts = layers.census(tr, workload, args.seed)
    import_s = layers.cli_probes(tr)
    for name, v, top, cands in counts["graphs"]:
        print(f"{args.workload} graph {name}: {v} vertices, max N {top}, "
              f"{cands} candidates")
    path = OUT / f"trace-{args.workload}-{args.seed}.json"
    tr.dump(path)
    print(f"spans: {len(tr.spans)} written to {path.relative_to(ROOT)}")
    return layers.per_layer(tr, counts, import_s, overhead)


if __name__ == "__main__":
    main()
