"""Document parsing, serialization, and the command-line interface."""

import argparse
import ast
import contextlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import redjumps
from redjumps import (
    Vertex,
    analyze,
    blow_up_edge,
    blow_up_free_point,
    build,
    dump_graph,
    graph_document,
    is_isomorphic,
    kodaira_graph,
    lattices,
    minimize,
    parse_document,
    report_document,
    run_checks,
)
from redjumps.cli import _common, _parse_args, main
from redjumps.errors import ParseError, ValidationError

GCD2_DOC = json.dumps({
    "format": "reduction-graph/1",
    "vertices": [{"id": "a", "multiplicity": 2, "genus": 1}],
    "edges": [],
})


# -- document format -------------------------------------------------------------

def test_round_trip():
    g = kodaira_graph("III*")
    assert parse_document(dump_graph(g)) == g
    assert parse_document(dump_graph(g).encode()) == g


def test_graph_document_shape():
    doc = graph_document(kodaira_graph("IV"))
    assert doc["format"] == "reduction-graph/1"
    assert doc["name"] == "IV"
    assert {"id": "c", "multiplicity": 3, "genus": 0} in doc["vertices"]
    assert ["c", "t1"] in doc["edges"]


@pytest.mark.parametrize("text", [
    "not json",
    "[]",
    json.dumps({"vertices": [], "edges": []}),  # missing format
    json.dumps({"format": "reduction-graph/2", "vertices": [], "edges": []}),
    json.dumps({"format": "reduction-graph/1", "vertices": [], "edges": [],
                "extra": 1}),
    json.dumps({"format": "reduction-graph/1", "vertices": {}, "edges": []}),
    json.dumps({"format": "reduction-graph/1", "vertices": ["x"], "edges": []}),
    json.dumps({"format": "reduction-graph/1",
                "vertices": [{"id": "a"}], "edges": []}),
    json.dumps({"format": "reduction-graph/1",
                "vertices": [{"id": 1, "multiplicity": 1}], "edges": []}),
    json.dumps({"format": "reduction-graph/1",
                "vertices": [{"id": "a", "multiplicity": True}], "edges": []}),
    json.dumps({"format": "reduction-graph/1",
                "vertices": [{"id": "a", "multiplicity": 1, "genus": "x"}],
                "edges": []}),
    json.dumps({"format": "reduction-graph/1",
                "vertices": [{"id": "a", "multiplicity": 1, "color": "red"}],
                "edges": []}),
    json.dumps({"format": "reduction-graph/1",
                "vertices": [{"id": "a", "multiplicity": 1, "genus": 1}],
                "edges": [["a"]]}),
    json.dumps({"format": "reduction-graph/1",
                "vertices": [{"id": "a", "multiplicity": 1, "genus": 1}],
                "edges": [["a", 2]]}),
])
def test_malformed_documents_raise_parse_error(text):
    with pytest.raises(ParseError):
        parse_document(text)


def test_structurally_bad_document_raises_validation_error():
    doc = json.dumps({
        "format": "reduction-graph/1",
        "vertices": [{"id": "a", "multiplicity": 1, "genus": 1}],
        "edges": [["a", "a"]],
    })
    with pytest.raises(ValidationError):
        parse_document(doc)


def test_report_document_shape():
    doc = report_document(analyze(kodaira_graph("II"), with_checks=True))
    assert doc["name"] == "II"
    assert doc["genus"] == 1
    assert doc["jumps"] == [{"value": "1/6", "multiplicity": 1}]
    assert doc["tame_base_change_conductor"] == "1/6"
    assert doc["unipotent_rank"] == 1
    assert doc["stabilization_index"] == 6
    assert doc["minimal"] is True
    assert all(doc["checks"].values())


# -- command-line interface -------------------------------------------------------

def doc_path(tmp_path, g, name="graph.json"):
    path = tmp_path / name
    path.write_text(dump_graph(g))
    return str(path)


def test_compute_text_output(tmp_path, capsys):
    assert main(["compute", doc_path(tmp_path, kodaira_graph("II"))]) == 0
    out = capsys.readouterr().out
    assert "name: II" in out
    assert "jumps: 1/6 (x1)" in out
    assert "stabilization index: 6" in out
    assert "minimal: yes" in out


def test_compute_json_output(tmp_path, capsys):
    path = doc_path(tmp_path, kodaira_graph("IV*"))
    assert main(["compute", "--json", "--check", "--minimize", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["jumps"] == [{"value": "2/3", "multiplicity": 1}]
    assert doc["model"] == {"vertices": 7, "edges": 6}
    assert doc["minimal_model"] == doc["model"]
    assert all(doc["checks"].values())


def test_compute_minimizes_once(tmp_path, capsys, worklist_runs):
    g = blow_up_edge(blow_up_free_point(kodaira_graph("III*"), "c"), 0)
    path = doc_path(tmp_path, g)
    worklist_runs.clear()
    assert main(["compute", path, "--json", "--check", "--minimize"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["minimal"] is False
    assert doc["minimal_model"] == {"vertices": 8, "edges": 7}
    assert len(worklist_runs) == 1
    for follow_up in (minimize, run_checks):
        worklist_runs.clear()
        g = parse_document(dump_graph(g))
        analyze(g)
        follow_up(g)
        assert worklist_runs == [g], follow_up


def test_compute_checks_the_true_i1_model(tmp_path, capsys):
    # the blow-up of the node of I1: b is a -1 curve meeting u twice, which
    # cannot be contracted, so this model is minimal
    g = build([Vertex("u", 1, 0), Vertex("b", 2, 0)], [("u", "b"), ("u", "b")],
              name="I1")
    path = doc_path(tmp_path, g)
    assert main(["compute", "--json", "--check", "--minimize", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["stabilization_index"] == 1
    assert doc["minimal_model"] == doc["model"]
    assert doc["checks"] and all(doc["checks"].values())


def test_cli_import_leaves_out_networkx_and_numpy(tmp_path):
    # a whole compute run, checks and JSON included, loads only these
    heavy = {"argparse", "gettext", "locale", "networkx", "numpy", "dataclasses",
             "inspect", "redjumps.catalog", "redjumps.verify", "redjumps.reference"}
    path = doc_path(tmp_path, kodaira_graph("II*"))

    def run(argv, stdin=None):
        code = ("import sys, contextlib, io, redjumps.cli\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                f"    code = redjumps.cli.main({argv!r})\n"
                "print(code)\n"
                f"print(sorted({heavy!r} & set(sys.modules)))\n"
                "print(sorted(m for m in sys.modules if m.startswith('redjumps.')))\n"
                "print('fractions' in sys.modules)")
        env = {**os.environ, "PYTHONPATH": str(Path(redjumps.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, input=stdin,
                              text=True, check=True, env=env)
        return proc.stdout.splitlines()

    code, left_in, package, _ = run(["compute", path, "--json", "--check"])
    assert code == "0"
    assert left_in == "[]"
    assert package == str(sorted(f"redjumps.{m}" for m in
                                 ("_values", "cli", "errors", "graph", "io", "jumps")))
    # the other plain forms load no argparse either, and only the commands
    # that need them load jumps or catalog, and with them fractions
    for argv, stdin, more in (
            (["validate", path, "--json"], None, ()),
            (["minimize", path], None, ()),
            (["catalog"], None, ("catalog",)),
            (["catalog", "II"], None, ("catalog",)),
            (["compute", "-", "--check", "dual-route", "--minimize"],
             Path(path).read_text(), ("jumps",))):
        code, left_in, package, fractions = run(argv, stdin)
        assert code == "0", argv
        assert left_in == str([f"redjumps.{m}" for m in more if m == "catalog"]), argv
        assert package == str(sorted(f"redjumps.{m}" for m in
                                     ("_values", "cli", "errors", "graph", "io", *more))), argv
        assert fractions == str(bool(more)), argv


def test_declared_dependencies_are_the_imported_ones():
    # what the package imports from outside the standard library and itself
    # is exactly what pyproject.toml declares
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).parents[1]
    imported = set()
    for path in (root / "src" / "redjumps").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    project = tomllib.loads((root / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in project["dependencies"]}
    assert imported - set(sys.stdlib_module_names) - {"redjumps"} == declared == {"numpy"}


def run_redjumps(*args, timeout):
    """One `redjumps` process, and its wall time in seconds."""
    env = {**os.environ, "PYTHONPATH": str(Path(redjumps.__file__).parents[1])}
    code = "import sys; from redjumps.cli import main; sys.exit(main())"
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env=env, timeout=timeout)
    return proc, time.perf_counter() - start


def test_compute_answers_a_large_model_from_its_minimal_model(tmp_path):
    # II, then 40 blow-ups of the edge joining the two heaviest components:
    # a 5 KB document with 44 vertices and N up to 1.3e9, far too many
    # candidates to scan, whose minimal model is II again
    g = kodaira_graph("II")
    for _ in range(40):
        k = max(range(len(g.edges)),
                key=lambda k: sorted((g.multiplicity(x) for x in g.edges[k]), reverse=True))
        g = blow_up_edge(g, k)
    top = max(v.multiplicity for v in g.vertices)
    assert (len(g.vertices), top) == (44, 1_300_483_311)
    path = doc_path(tmp_path, g)
    proc, wall = run_redjumps("compute", path, "--json", timeout=60)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["jumps"] == [{"value": "1/6", "multiplicity": 1}]
    assert doc["minimal"] is False
    assert wall < 10.0
    # the checks scan the model as given: over the work budget, exit 4
    proc, wall = run_redjumps("compute", path, "--check", timeout=60)
    assert proc.returncode == 4
    assert proc.stdout == ""
    assert f"at least {top} candidates" in proc.stderr
    assert wall < 1.0


def test_compute_single_check(tmp_path, capsys):
    path = doc_path(tmp_path, kodaira_graph("I4"))
    assert main(["compute", "--check", "dual-route", path]) == 0
    out = capsys.readouterr().out
    assert "check dual-route: ok" in out
    assert "check total-equals-genus" not in out


def test_compute_unknown_check_name(tmp_path, capsys):
    path = doc_path(tmp_path, kodaira_graph("I4"))
    assert main(["compute", "--check", "bogus", path]) == 1
    assert "no check named 'bogus'" in capsys.readouterr().err


def test_compute_refuses_an_unknown_check_name_before_any_scan(tmp_path, capsys,
                                                                monkeypatch):
    g = kodaira_graph("I4")
    names = ", ".join(name for name, _ in run_checks(g))

    def no_scan(*args, **kwargs):
        raise AssertionError("scanned before refusing the check name")

    monkeypatch.setattr(redjumps.jumps, "_scan", no_scan)
    path = doc_path(tmp_path, g)
    for name, argv in (("bogus", ["compute", "--check", "bogus", path]),
                       ("dual", ["compute", path, "--minimize", "--json", "--check=dual"])):
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: no check named {name!r} (have: {names})\n"


def stdin_of(data: bytes):
    """A text stream over data with the binary buffer a real stdin has."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")


def test_compute_reads_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", stdin_of(dump_graph(kodaira_graph("I0*")).encode()))
    assert main(["compute", "-"]) == 0
    assert "jumps: 1/2 (x1)" in capsys.readouterr().out


def test_compute_stdin_with_checks(monkeypatch, capsys):
    # the documented pipe ordering: bare --check must follow the positional,
    # otherwise argparse would swallow "-" as the check name
    monkeypatch.setattr("sys.stdin", stdin_of(dump_graph(kodaira_graph("II")).encode()))
    assert main(["compute", "-", "--check"]) == 0
    out = capsys.readouterr().out
    assert "check total-equals-genus: ok" in out
    assert "check chain-contraction: ok" in out


def test_validate(tmp_path, capsys):
    assert main(["validate", doc_path(tmp_path, kodaira_graph("I3"))]) == 0
    assert capsys.readouterr().out.strip() == "valid"
    bad = tmp_path / "bad.json"
    bad.write_text(GCD2_DOC)
    assert main(["validate", str(bad)]) == 1
    assert "invalid: gcd" in capsys.readouterr().err


def structural_doc(vertices, edges=()):
    return json.dumps({"format": "reduction-graph/1", "edges": [list(e) for e in edges],
                       "vertices": [{"id": v, "multiplicity": n, "genus": g}
                                    for v, n, g in vertices]})


@pytest.mark.parametrize("text, codes", [
    (GCD2_DOC, {"gcd"}),
    # structural violations: the constructor raises, with a report
    (structural_doc([("a", 1, 0), ("a", 1, 0)]), {"vertex-id"}),
    (structural_doc([("a", 1, 0)], [("a", "a")]), {"loop"}),
    (structural_doc([("a", 1, 0)], [("a", "b")]), {"edge-endpoint"}),
    (structural_doc([("a", 0, 0)]), {"multiplicity"}),
    (structural_doc([("a", 1, -1)]), {"genus-label"}),
])
def test_validate_json(text, codes, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    assert main(["validate", str(bad)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert main(["validate", "--json", str(bad)]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["valid"] is False
    assert {v["code"] for v in doc["violations"]} == codes
    # the text form prints the same violations, one line each
    lines = err.splitlines()
    assert len(lines) == len(doc["violations"])
    assert all(line.startswith(f"invalid: {v['code']}")
               for line, v in zip(lines, doc["violations"]))


def test_compute_and_minimize_report_an_invalid_graph_as_validate_does(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(GCD2_DOC)
    assert main(["validate", str(bad)]) == 1
    expected = capsys.readouterr().err
    assert expected.startswith("invalid: gcd")
    for argv in (["compute", str(bad)], ["compute", "--check", "bogus", str(bad)],
                 ["minimize", str(bad)]):
        assert main(argv) == 1
        assert capsys.readouterr() == ("", expected), argv


def test_minimize_pipe(tmp_path, capsys):
    big = blow_up_free_point(kodaira_graph("III"), "c")
    assert main(["minimize", doc_path(tmp_path, big)]) == 0
    small = parse_document(capsys.readouterr().out)
    assert is_isomorphic(small, kodaira_graph("III"))


def test_catalog_listing(capsys):
    assert main(["catalog"]) == 0
    tags = capsys.readouterr().out.split()
    assert "II*" in tags and "genus2" in tags


def test_catalog_emits_document(capsys):
    assert main(["catalog", "I2*"]) == 0
    g = parse_document(capsys.readouterr().out)
    assert g == kodaira_graph("I2*")


def test_catalog_unsupported_tag(capsys):
    for tag in ("V", "I99999999", "I99999999*", "I" + "9" * 5000, "I\u0663", "I\uff15"):
        assert main(["catalog", tag]) == 1
        assert "error:" in capsys.readouterr().err


def test_catalog_i1(capsys):
    assert main(["catalog", "I1"]) == 0
    g = parse_document(capsys.readouterr().out)
    assert g == kodaira_graph("I1")
    report = analyze(g, with_checks=True)
    assert report.genus == 1
    assert report.jumps == ((0, 1),)
    assert report.stabilization_index == 1
    assert all(ok for _, ok in report.checks)


def test_non_utf8_input_is_unparsable(tmp_path, monkeypatch, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe")
    assert main(["compute", str(bad)]) == 3
    monkeypatch.setattr("sys.stdin", stdin_of(b"\xff\xfe"))
    assert main(["compute", "-"]) == 3
    # well-formed JSON around a byte that is not UTF-8
    bad.write_bytes(dump_graph(kodaira_graph("II")).replace('"II"', '"I\xff"')
                    .encode("latin-1"))
    assert main(["compute", str(bad)]) == 3
    assert capsys.readouterr().err.count("error: not UTF-8") == 3


def test_json_past_the_decoder_limits_is_unparsable(tmp_path, capsys):
    # nesting past the recursion limit, and a multiplicity of more digits
    # than int() converts: json.loads raises RecursionError and ValueError
    deep = "[" * 100_000 + "]" * 100_000
    long_int = GCD2_DOC.replace('"multiplicity": 2', '"multiplicity": ' + "7" * 5_000, 1)
    assert long_int != GCD2_DOC
    for k, text in enumerate((deep, long_int)):
        doc = tmp_path / f"doc{k}.json"
        doc.write_text(text)
        for command in ("compute", "validate", "minimize"):
            assert main([command, str(doc)]) == 3, (k, command)
        with pytest.raises(ParseError):
            parse_document(text)
    err = capsys.readouterr().err
    assert err.count("error: JSON beyond the parser's limits") == 6


def test_verify_suites(capsys):
    assert main(["verify", "--suite", "graphs", "--count", "5", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert all(line.endswith("5/5") for line in out.strip().splitlines())
    assert "graphs/model-independence: 5/5" in out.splitlines()


@pytest.mark.parametrize("suite", ["lattices", "monoids"])
def test_verify_lattice_and_monoid_suites(suite, capsys):
    assert main(["verify", "--suite", suite, "--count", "5", "--seed", "7"]) == 0
    rows = [line.split(": ") for line in capsys.readouterr().out.splitlines()]
    assert rows and all(name.startswith(f"{suite}/") for name, _ in rows)
    assert all(good == total for _, counts in rows
               for good, total in [counts.split("/")])


@pytest.mark.parametrize("check_sandwich", [lambda *args: False,
                                            lambda *args: 1 // 0])
def test_verify_reports_a_witness(check_sandwich, monkeypatch, capsys):
    # a false or raising check fails its instance, and the suite goes on
    monkeypatch.setattr(lattices, "check_sandwich", check_sandwich)
    assert main(["verify", "--suite", "lattices", "--count", "3"]) == 2
    out = capsys.readouterr().out
    assert "lattices/sandwich: 0/3  FAIL (first: (" in out
    assert "lattices/snf: 3/3\n" in out


def test_verify_counts_only_nonsingular_smith_forms(monkeypatch, capsys):
    # every counted matrix reaches smith_normal_form: with it broken, none
    # passes, although some singular matrices were drawn (and redrawn)
    dets = []
    det = lattices.det
    monkeypatch.setattr(lattices, "det", lambda M: dets.append(det(M)) or dets[-1])
    monkeypatch.setattr(lattices, "smith_normal_form", lambda M: None)
    assert main(["verify", "--suite", "lattices", "--count", "100"]) == 2
    assert 0 in dets
    assert "lattices/snf: 0/100  FAIL" in capsys.readouterr().out


def test_exit_codes(tmp_path, capsys):
    garbage = tmp_path / "garbage.json"
    garbage.write_text("not json")
    assert main(["compute", str(garbage)]) == 3
    assert main(["compute", str(tmp_path / "missing.json")]) == 3
    bad = tmp_path / "bad.json"
    bad.write_text(GCD2_DOC)
    assert main(["compute", str(bad)]) == 1
    # usage errors are invalid input (1), not a failed check (2)
    for argv in (["compute"], ["frobnicate"], ["verify", "--count", "-3"]):
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 1, argv
    with pytest.raises(SystemExit) as e:
        main(["--help"])
    assert e.value.code == 0
    capsys.readouterr()


def test_main_reads_sys_argv(monkeypatch, capsys):
    # the [project.scripts] entry point calls main() with no arguments
    monkeypatch.setattr("sys.argv", ["redjumps", "catalog", "II"])
    assert main() == 0
    assert parse_document(capsys.readouterr().out) == kodaira_graph("II")
    monkeypatch.setattr("sys.argv", ["redjumps", "verify", "--count", "x"])
    with pytest.raises(SystemExit) as e:
        main()
    assert e.value.code == 1
    assert "error: argument --count" in capsys.readouterr().err


# -- the argument parser against a plain argparse one ----------------------------

def reference_parser():
    """The parser of the command line built by argparse alone, without the
    handlers: the reference for _parse_args and its argparse-free path."""

    def non_negative_int(text):
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
        return value

    class Parser(argparse.ArgumentParser):
        def error(self, message):
            self.print_usage(sys.stderr)
            self.exit(1, f"{self.prog}: error: {message}\n")

    parser = Parser(
        prog="redjumps",
        description="Jump spectra of Jacobians from sncd reduction graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="jump spectrum and invariants")
    p.add_argument("file", help='input document ("-" for stdin)')
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--check", nargs="?", const="all", default=None,
                   metavar="NAME", help="run consistency checks (default: all)")
    p.add_argument("--minimize", action="store_true",
                   help="also report the minimal model size")

    p = sub.add_parser("validate", help="validate an input document")
    p.add_argument("file", help='input document ("-" for stdin)')
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("minimize", help="write the minimal model")
    p.add_argument("file", help='input document ("-" for stdin)')

    p = sub.add_parser("catalog", help="named fiber types")
    p.add_argument("tag", nargs="?", help="emit this graph as a document")

    p = sub.add_parser("verify", help="randomized verification suites")
    p.add_argument("--suite", choices=["graphs", "lattices", "monoids", "all"],
                   default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=non_negative_int, default=100)
    return parser


PARSED = ("command", "file", "json", "check", "minimize", "tag", "suite", "seed", "count")

ARGVS = [
    # the README's invocations
    "catalog", "catalog II", "compute - --check", "compute graph.json --json --minimize",
    "validate graph.json", "minimize graph.json", "verify --suite all --count 200 --seed 0",
    "compute -", "verify --suite graphs --count 200 --seed 0",
    "compute graph.json --json --check",
    # --check bare, with NAME before and after FILE, at the end, with "="
    "compute --check f", "compute f --check", "compute --check dual-route f",
    "compute f --check dual-route", "compute --json f --check", "compute --check --json f",
    "compute --check=dual-route f", "compute f --check=", "compute --check - ",
    "compute --check -- f", "compute --check -5 f",
    # abbreviations, and the "=" forms of the other options
    "compute f --js --ch", "compute --js --ch f", "compute --j --m --c all f", "verify --co 5", "verify --se 3",
    "verify --s graphs", "verify --su=monoids --cou=0", "verify --seed=-4", "verify --count=",
    "compute --json=yes f", "compute --jsonx f", "validate --js f", "catalog --h",
    # "--", "-" and what is not an option
    "compute -- -x", "compute -- -", "compute f -- --json", "compute -- f g", "compute -x f",
    "compute -5", "compute '-a b'", "compute --check f", "compute f g", "compute",
    "frobnicate", "", "--", "-- compute f", "-5", "--json compute f", "-x",
    "catalog a b", "catalog -- -x", "catalog -7", "minimize", "validate f g",
    # numbers and choices
    "verify --count -3", "verify --count x", "verify --count", "verify --count --seed 2",
    "verify --suite bogus", "verify --seed -5", "verify --seed 1_000", "verify --seed ' 7 '",
    "verify --count 0 --count 2", "verify --seed 99999999999999999999", "verify extra",
    # help, wherever it is given
    "-h", "--help", "--he", "--help=x", "-h compute", "compute -h", "compute --help",
    "validate -h", "minimize -h", "catalog -h", "verify -h", "verify --h",
    "compute --bogus -h", "verify --count x -h", "verify -h --count x", "verify -h --s",
    "compute f -- -h", "-hx",
]


def parse_with(parse, argv):
    """The parsed values, or ("exit", code, stdout has usage, stderr has
    usage and an error)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = parse(argv)
    except SystemExit as e:
        if e.code == 0:
            assert out.getvalue().startswith("usage: ") and not err.getvalue(), argv
        else:
            lines = err.getvalue().splitlines()
            assert lines[0].startswith("usage: redjumps") and not out.getvalue(), argv
            assert lines[-1].startswith("redjumps") and ": error: " in lines[-1], argv
        return ("exit", e.code)
    return {name: getattr(args, name, None) for name in PARSED}


@pytest.mark.parametrize("argv", ARGVS)
def test_parser_matches_argparse(argv):
    words = shlex.split(argv)
    assert parse_with(_parse_args, words) == \
        parse_with(reference_parser().parse_args, words)


# commands and words: exact options, plain words, and what only looks like them
FIRST_WORDS = ("compute", "validate", "minimize", "catalog", "verify", "frobnicate", "-h", "--")
WORDS = ("f", "g", "dual-route", "graphs", "3", "", "-", "--json", "--minimize", "--check",
         "--suite", "--seed", "--count", "--", "-5", "-x", "--js", "--check=x", "-h", "-a b")
# the options of the plain forms, "--check NAME" as one
PLAIN_OPTIONS = {"compute": ("--json", "--minimize", "--check", "--check all",
                             "--check dual-route"),
                 "validate": ("--json",), "minimize": (), "catalog": ()}


@st.composite
def argvs(draw):
    """Any words after a command, or a plain form with at most one word put in."""
    if draw(st.booleans()):
        return [draw(st.sampled_from(FIRST_WORDS)),
                *draw(st.lists(st.sampled_from(WORDS), max_size=5))]
    command = draw(st.sampled_from(list(PLAIN_OPTIONS)))
    options = draw(st.lists(st.sampled_from(PLAIN_OPTIONS["compute"]), max_size=3))
    words = [word for option in options if option in PLAIN_OPTIONS[command]
             for word in option.split()]
    words.insert(draw(st.integers(0, len(words))), draw(st.sampled_from(("f", "-", "", "g"))))
    if draw(st.booleans()):
        words.insert(draw(st.integers(0, len(words))), draw(st.sampled_from(WORDS)))
    return [command, *words]


def test_fuzzed_argv_parse_as_argparse_does():
    taken = []

    @settings(deadline=None, max_examples=400)
    @given(argvs())
    def check(argv):
        taken.append(_common(argv) is not None)
        assert parse_with(_parse_args, argv) == parse_with(reference_parser().parse_args, argv)

    check()
    # the argparse-free path reads a fair share of the draws
    assert sum(taken) >= len(taken) // 10, (sum(taken), len(taken))
