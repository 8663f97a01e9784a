"""Tests of the benchmark itself: the oracle, failure accounting, seeding.

    python3 -m pytest perfbench/tests
"""

import json
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import oracle
import workloads
from redjumps import analyze, catalog_graph, catalog_tags, random_instance

from conftest import BENCH


@pytest.mark.parametrize("tag", catalog_tags())
def test_oracle_agrees_with_library_on_catalog(tag):
    g = catalog_graph(tag)
    assert oracle.report_problems(g, analyze(g), oracle.catalog_expectation(tag, g)) == []


def test_oracle_kodaira_table():
    assert oracle.brute_spectrum(catalog_graph("II*")) == {Fraction(5, 6): 1}
    assert oracle.brute_spectrum(catalog_graph("I3*")) == {Fraction(1, 2): 1}
    assert oracle.brute_spectrum(catalog_graph("I7")) == {Fraction(0): 1}
    assert oracle.genus(catalog_graph("genus2")) == 2


def test_oracle_rejects_perturbed_spectrum():
    g = catalog_graph("IV*")
    right = oracle.catalog_expectation("IV*", g)
    assert oracle.spectrum_problems(g, right, right) == []
    moved = {Fraction(1, 3): 1}
    assert oracle.spectrum_problems(g, moved, right)
    assert oracle.spectrum_problems(g, moved, None)       # brute-force scan alone
    extra = {Fraction(2, 3): 1, Fraction(0): 1}
    assert "multiplicities do not sum to the genus" in oracle.spectrum_problems(g, extra, None)


def test_oracle_rejects_perturbed_report():
    g = random_instance(3, 9).graph
    report = analyze(g)
    base = oracle.brute_spectrum(random_instance(3, 9).base)
    assert oracle.report_problems(g, report, base) == []
    doc = {"jumps": [{"value": str(v), "multiplicity": m} for v, m in report.jumps],
           "genus": report.genus, "stabilization_index": report.stabilization_index + 1,
           "tame_base_change_conductor": str(report.tame_base_change_conductor)}
    assert oracle.report_problems(g, doc, base) == [
        "stabilization index is not the lcm of the jump denominators"]


def test_oracle_checks_smith_form():
    M = [[2, 4], [6, 8]]
    U, D, V = [[1, 0], [3, -1]], [[2, 0], [0, 4]], [[1, -2], [0, 1]]
    assert oracle.smith_problems(M, U, D, V) == []
    assert oracle.smith_problems(M, U, [[2, 0], [0, 5]], V)


def test_cli_counts_i1_as_one_failure_per_pass():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli", "--seed", "3",
         "--seconds", "1", "--trace", "0"],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    per_pass = len(catalog_tags()) + workloads.CLI_RANDOM + 1
    assert result["correct"] is True
    assert result["attempted"] % per_pass == 0
    assert result["failed"] * per_pass == result["attempted"]
    assert "FAILED cli:I1: raised CliExit: exit code 1" in proc.stderr


def inputs(name, seed, tmp_path):
    w = workloads.BUILDERS[name](seed, tmp_path / f"{name}-{seed}")
    return [op.inputs for op in w.ops], w.sources


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_seed_changes_inputs(name, tmp_path):
    assert inputs(name, 1, tmp_path) == inputs(name, 1, tmp_path)
    assert inputs(name, 1, tmp_path) != inputs(name, 2, tmp_path)


def test_relabel_keeps_the_graph_and_moves_the_ids():
    g = random_instance(0, 40).graph
    a = workloads.relabel(g, random.Random("1/0"))
    b = workloads.relabel(g, random.Random("2/0"))
    assert a != b
    assert a == workloads.relabel(g, random.Random("1/0"))
    assert sorted(v.multiplicity for v in a.vertices) == sorted(v.multiplicity for v in g.vertices)
    assert analyze(a).jumps == analyze(g).jumps


def test_missing_library_exits_without_a_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in BENCH.glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "chains", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_metrics_match_benchmark_json(trace, kind):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "chains", "--seed", "2",
         "--seconds", "1", "--trace", str(trace)],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec[kind]}
