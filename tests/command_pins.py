"""What the commands print: a fixed corpus, the command forms run on it
in-process through ``cli.main``, and one sha256 per form.

A document is run on stdin ("-"), so no path enters the output, but for
the one unreadable file. The corpus is the catalog tags, I1, I40, I7*,
``random_instance(s, s % 16)`` for s < 150, II plus 40 edge blow-ups, and
one document per refusal: each ValidationError code a document can reach
(``vertex`` and ``name`` are refused by the parser first), each ParseError
message, and the work budget lowered so that a scan exits 4. ``catalog``
runs on tags instead.

    python tests/command_pins.py [REV]

prints the first document and form whose output differs from the output
of the ``src/`` of git revision REV (default HEAD), with both outputs.
"""

import contextlib
import hashlib
import io
import json
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).parents[1]
MISSING = "no-such-directory/document.json"

# each form runs as its words with FILE "-" after the command
FORMS = ("compute", "compute --json", "compute --check", "compute --json --check",
         "compute --minimize", "compute --json --minimize", "compute --check dual-route",
         "compute --json --check dual-route", "compute --json --check --minimize",
         "compute --check bogus", "validate", "validate --json", "minimize")


def _doc(vertices, edges=()):
    return json.dumps({"format": "reduction-graph/1",
                       "vertices": [{"id": v, "multiplicity": n, "genus": g} for v, n, g in vertices],
                       "edges": [list(e) for e in edges]})


def _refusals():
    """(name, text) of one document per refusal the parser and the
    constructor give; a text that is bytes is not UTF-8."""
    fmt = '{"format": "reduction-graph/1", '
    return [
        ("vertex-id empty", _doc([("", 1, 1)])),
        ("vertex-id duplicate", _doc([("a", 1, 1), ("a", 1, 1)])),
        ("multiplicity", _doc([("a", 0, 1)])),
        ("genus-label", _doc([("a", 1, -1)])),
        ("empty", _doc([])),
        ("edge-endpoint", _doc([("a", 1, 1)], [("a", "b")])),
        ("loop", _doc([("a", 1, 1)], [("a", "a")])),
        ("connected", _doc([("a", 1, 1), ("b", 1, 1)])),
        ("gcd", _doc([("a", 2, 1)])),
        ("self-intersection", _doc([("a", 2, 1), ("b", 1, 0)], [("a", "b")])),
        ("genus", _doc([("a", 1, 0)])),
        ("two violations", _doc([("a", 0, -1)], [("a", "a")])),
        ("not UTF-8", b'{"name": "\xff"}'),
        ("not JSON", "not json"),
        ("nested too deep", "[" * 100_000 + "]" * 100_000),
        ("an int too long", fmt + '"vertices": [{"id": "a", "multiplicity": ' + "7" * 5000 + "}]}"),
        ("top-level", "[]"),
        ("format", '{"format": "reduction-graph/2"}'),
        ("unknown keys", fmt + '"vertices": [], "edges": [], "extra": 1}'),
        ("name", fmt + '"name": 7, "vertices": [], "edges": []}'),
        ("vertices", fmt + '"vertices": {}, "edges": []}'),
        ("vertex object", fmt + '"vertices": ["x"], "edges": []}'),
        ("vertex keys", fmt + '"vertices": [{"id": "a", "multiplicity": 1, "color": 1}]}'),
        ("vertex needs", fmt + '"vertices": [{"id": "a"}], "edges": []}'),
        ("vertex id", fmt + '"vertices": [{"id": 1, "multiplicity": 1}], "edges": []}'),
        ("vertex integer", fmt + '"vertices": [{"id": "a", "multiplicity": true}], "edges": []}'),
        ("edges", fmt + '"vertices": [{"id": "a", "multiplicity": 1, "genus": 1}], "edges": {}}'),
        ("edge pair", fmt + '"vertices": [{"id": "a", "multiplicity": 1, "genus": 1}], '
                            '"edges": [["a"]]}'),
        ("unreadable", None),
    ]


def corpus():
    """The documents, each (name, text, work budget or None); a text of
    None names a file that does not exist."""
    from blowup_chains import fibonacci_chain
    from redjumps import blow_up_edge, catalog_graph, catalog_tags, dump_graph, random_instance

    docs = [(tag, dump_graph(catalog_graph(tag)), None)
            for tag in (*catalog_tags(), "I1", "I40", "I7*")]
    docs += [(f"random {s}", dump_graph(random_instance(s, s % 16).graph), None)
             for s in range(150)]
    docs.append(("II plus 40", dump_graph(fibonacci_chain("II", 40)), None))
    docs += [(name, text, None) for name, text in _refusals()]
    # II (6 candidates) with c-t1 blown up (12): over a budget of 11 only
    # the scan of every vertex exits 4, over 5 the minimal model's too
    big = catalog_graph("II")
    big = dump_graph(blow_up_edge(big, big.edges.index(("c", "t1"))))
    docs += [(f"budget {b}", big, b) for b in (11, 5)]
    return docs


def catalog_tags_run():
    """The words after ``catalog``: none, each listed tag and a few more."""
    from redjumps import catalog_tags

    return [[]] + [[tag] for tag in (*catalog_tags(), "I1", "I40", "I7*", "bogus", "I99999")]


def _bytes(text):
    return text if isinstance(text, bytes) else text.encode()


def _run(argv, stdin=b"", budget=None):
    from redjumps import jumps
    from redjumps.cli import main

    out, err, saved = io.StringIO(), io.StringIO(), (sys.stdin, jumps.WORK_BUDGET)
    sys.stdin = SimpleNamespace(buffer=io.BytesIO(stdin))
    if budget is not None:
        jumps.WORK_BUDGET = budget
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin, jumps.WORK_BUDGET = saved
    return [code, out.getvalue(), err.getvalue()]


def outputs(docs, tags):
    """{form: [[document or tag, exit code, stdout, stderr], ...]}."""
    out = {}
    for form in FORMS:
        command, *words = form.split()
        argv, out[form] = [command, "-", *words], []
        for name, text, budget in docs:
            if text is None:
                run = _run([MISSING if w == "-" else w for w in argv])
            else:
                run = _run(argv, _bytes(text), budget)
            out[form].append([name, *run])
    out["catalog"] = [[" ".join(words), *_run(["catalog", *words])] for words in tags]
    return out


def digests(outs):
    """One sha256 per form, of its runs in order."""
    return {form: hashlib.sha256(json.dumps(runs).encode()).hexdigest()
            for form, runs in outs.items()}


def outputs_at(rev, docs, tags):
    """``outputs`` by the ``src/`` of git revision rev, in a subprocess."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                             capture_output=True, check=True).stdout
    with tempfile.TemporaryDirectory() as tmp:
        tarfile.open(fileobj=io.BytesIO(archive)).extractall(tmp)
        code = (f"import json, sys; sys.path[:0] = [{tmp + '/src'!r}, {str(Path(__file__).parent)!r}]\n"
                "import command_pins\n"
                "docs, tags = json.load(sys.stdin)\n"
                "docs = [(n, t and bytes.fromhex(t), b) for n, t, b in docs]\n"
                "json.dump(command_pins.outputs(docs, tags), sys.stdout)")
        sent = [(n, t and _bytes(t).hex(), b) for n, t, b in docs]
        proc = subprocess.run([sys.executable, "-c", code], input=json.dumps([sent, tags]),
                              capture_output=True, text=True, check=True, cwd=tmp)
    return json.loads(proc.stdout)


def first_moved(outs, old, forms=None):
    """The first run, in form then corpus order, whose output differs
    between outs and old, shown with both outputs; None if none does."""
    for form in forms or outs:
        for new_run, old_run in zip(outs[form], old.get(form, [])):
            if new_run != old_run:
                return (f"form {form!r}, input {new_run[0]!r}\n"
                        f"before: exit {old_run[1]}\nstdout:\n{old_run[2]}stderr:\n{old_run[3]}\n"
                        f"now: exit {new_run[1]}\nstdout:\n{new_run[2]}stderr:\n{new_run[3]}")
        if len(outs[form]) != len(old.get(form, [])):
            return f"form {form!r}: {len(old.get(form, []))} runs before, {len(outs[form])} now"
    return None


def explain(outs, docs, tags, forms=None, rev="HEAD"):
    """first_moved against revision rev, or why it cannot be shown."""
    try:
        old = outputs_at(rev, docs, tags)
    except (OSError, subprocess.CalledProcessError) as exc:
        return f"cannot run the commands of {rev}: {exc}"
    return first_moved(outs, old, forms) or f"no output differs from that of {rev}"


if __name__ == "__main__":
    docs, tags = corpus(), catalog_tags_run()
    print(explain(outputs(docs, tags), docs, tags, rev=sys.argv[1] if len(sys.argv) > 1 else "HEAD"))
