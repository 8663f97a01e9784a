"""Command line interface.

Subcommands:

    compute FILE    jump spectrum and invariants of a reduction graph
    validate FILE   check a document and report violations
    minimize FILE   write the minimal model as a reduction-graph/1 document
    catalog [TAG]   list the named fiber types, or write one as a document
    verify          run the randomized suites of redjumps.verify (also run by
                    the acceptance gate): good/total and a witness per check

FILE may be "-" for stdin; it is read as bytes and decoded by
parse_document, so input that is not UTF-8 is unparsable (3). Exit codes:
0 success (and --help), 1 invalid input graph, unknown name or a usage
error, 2 failed check or internal inconsistency, 3 unreadable or
unparsable input, 4 over the work budget: a candidate scan would visit
more than jumps.WORK_BUDGET candidates, and the count is printed on
stderr with no check table. compute answers from the minimal model, so
only compute --check, which also scans the model as given, meets the
budget on a model whose minimal model is small.

The arguments are parsed by argparse, with one exception: _common reads
the plain forms of compute, validate, minimize and catalog (the command,
its exact switches, --check with or without a NAME, and the positional)
to the values argparse would return, without importing it. Any other
form, help and every usage error go to argparse. --check takes the next
word as its NAME unless that word is an option, so a bare --check goes
after FILE: "compute - --check" reads stdin.

Importing this module loads errors, _values, graph and io from the
package and nothing else, and no argparse, gettext or locale: jumps,
catalog and verify are imported inside the commands that use them (and
numpy only by verify's monoid suite), and the single-value and
comparison code lives in reference, which no command imports. So a
process pays only for the modules it runs.
"""

from __future__ import annotations

import json
import sys
from types import SimpleNamespace

from . import graph as _graph
from .errors import (InternalInconsistency, OverBudget, ParseError,
                     RedjumpsError, ValidationError)
from .io import dump_graph, parse_document, report_document


def _read(path):
    if path == "-":
        return sys.stdin.buffer.read()
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _print_violations(report):
    for v in report.violations:
        where = f" [{v.where}]" if v.where else ""
        print(f"invalid: {v.code}{where}: {v.message}", file=sys.stderr)


def _cmd_compute(args):
    from . import jumps as _jumps

    g = parse_document(_read(args.file))
    minimal = _graph.minimize(g)  # raises on an invalid graph, before any scan
    if args.check not in (None, "all", *_jumps.CHECK_NAMES):
        names = ", ".join(_jumps.CHECK_NAMES)
        print(f"error: no check named {args.check!r} (have: {names})",
              file=sys.stderr)
        return 1
    report = _jumps.analyze(g, with_checks=args.check is not None)
    checks = list(report.checks or ())
    if args.check not in (None, "all"):
        checks = [c for c in checks if c[0] == args.check]
    minimized = minimal if args.minimize else None
    if args.json:
        doc = report_document(report)
        if args.check is not None:
            doc["checks"] = {name: ok for name, ok in checks}
        if minimized is not None:
            doc["model"] = {"vertices": len(g.vertices), "edges": len(g.edges)}
            doc["minimal_model"] = {"vertices": len(minimized.vertices),
                                    "edges": len(minimized.edges)}
        print(json.dumps(doc, indent=2))
    else:
        if report.name:
            print(f"name: {report.name}")
        print(f"genus: {report.genus}")
        print("jumps: " + ", ".join(f"{v} (x{m})" for v, m in report.jumps))
        print(f"tame base-change conductor: {report.tame_base_change_conductor}")
        print(f"unipotent rank: {report.unipotent_rank}")
        print(f"stabilization index: {report.stabilization_index}")
        principal = ", ".join(report.principal_components) or "none"
        print(f"principal components: {principal}")
        print(f"minimal: {'yes' if report.minimal else 'no'}")
        if minimized is not None:
            print(f"model: {len(g.vertices)} vertices, {len(g.edges)} edges")
            print(f"minimal model: {len(minimized.vertices)} vertices, "
                  f"{len(minimized.edges)} edges")
        for name, ok in checks:
            print(f"check {name}: {'ok' if ok else 'FAIL'}")
    if any(not ok for _, ok in checks):
        return 2
    return 0


def _cmd_validate(args):
    try:
        report = parse_document(_read(args.file)).validate()
    except ValidationError as exc:  # structural: the constructor refused the graph
        if exc.report is None:
            raise
        report = exc.report
    if args.json:
        print(json.dumps({
            "valid": report.ok,
            "violations": [{"code": v.code, "message": v.message, "where": v.where}
                           for v in report.violations]}, indent=2))
    elif report.ok:
        print("valid")
    else:
        _print_violations(report)
    return 0 if report.ok else 1


def _cmd_minimize(args):
    g = parse_document(_read(args.file))
    sys.stdout.write(dump_graph(_graph.minimize(g)))
    return 0


def _cmd_catalog(args):
    from . import catalog as _catalog

    if args.tag is None:
        for tag in _catalog.catalog_tags():
            print(tag)
        return 0
    sys.stdout.write(dump_graph(_catalog.catalog_graph(args.tag)))
    return 0


def _cmd_verify(args):
    from . import verify as _verify

    failed = False
    for suite in _verify.SUITES if args.suite == "all" else [args.suite]:
        for name, good, total, witness in _verify.SUITES[suite](args.seed, args.count):
            marker = "" if good == total else f"  FAIL (first: {witness})"
            print(f"{name}: {good}/{total}{marker}")
            failed = failed or good != total
    return 2 if failed else 0


# -- the command line --------------------------------------------------------

_COMMANDS = {"compute": _cmd_compute, "validate": _cmd_validate,
             "minimize": _cmd_minimize, "catalog": _cmd_catalog, "verify": _cmd_verify}

# the commands _common reads: their positional and their switches
_PLAIN = {"compute": ("file", ("--json", "--minimize")),
          "validate": ("file", ("--json",)),
          "minimize": ("file", ()),
          "catalog": ("tag", ())}


def _common(argv):
    """The values argparse would return for a plain form, or None. A plain
    form is a command of _PLAIN followed by its exact switches, --check
    (compute only) and plain words (not starting with "-", or "-" itself),
    at most one of those (one exactly, but for catalog); --check takes the
    next word as NAME when it is plain. Any other word, help and every
    error are left to argparse."""
    if not argv or argv[0] not in _PLAIN:
        return None
    command, words = argv[0], argv[1:]
    positional, switches = _PLAIN[command]
    values = {"command": command, **dict.fromkeys((flag[2:] for flag in switches), False)}
    if command == "compute":
        values["check"] = None
    plain = []
    i = 0
    while i < len(words):
        word = words[i]
        i += 1
        if word == "--check" and command == "compute":
            if i < len(words) and _is_plain(words[i]):
                values["check"], i = words[i], i + 1
            else:
                values["check"] = "all"
        elif word in switches:
            values[word[2:]] = True
        elif _is_plain(word):
            plain.append(word)
        else:
            return None
    if len(plain) > 1 or (not plain and positional == "file"):
        return None
    values[positional] = plain[0] if plain else None
    return SimpleNamespace(**values)


def _is_plain(word):
    return word == "-" or not word.startswith("-")


def _parse_args(argv):
    """The command and its values: _common reads the plain forms, and
    argparse, imported only here, everything else. A usage error or
    -h/--help exits."""
    argv = list(argv)
    args = _common(argv)
    if args is not None:
        return args
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message):  # a usage error is invalid input (1), not a failed check (2)
            self.print_usage(sys.stderr)
            self.exit(1, f"{self.prog}: error: {message}\n")

    def count(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < 0:
            raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
        return value

    parser = Parser(prog="redjumps",
                    description="Jump spectra of Jacobians from sncd reduction graphs.")
    sub = parser.add_subparsers(title="commands", dest="command", required=True)

    def command(name, summary):
        return sub.add_parser(name, help=summary, description=summary)

    file_help = 'input document ("-" for stdin)'
    json_help = "machine-readable output"
    p = command("compute", "jump spectrum and invariants")
    p.add_argument("file", help=file_help)
    p.add_argument("--json", action="store_true", help=json_help)
    p.add_argument("--check", nargs="?", const="all", metavar="NAME",
                   help="run consistency checks (default: all)")
    p.add_argument("--minimize", action="store_true", help="also report the minimal model size")
    p = command("validate", "validate an input document")
    p.add_argument("file", help=file_help)
    p.add_argument("--json", action="store_true", help=json_help)
    p = command("minimize", "write the minimal model")
    p.add_argument("file", help=file_help)
    p = command("catalog", "named fiber types")
    p.add_argument("tag", nargs="?", help="emit this graph as a document")
    p = command("verify", "randomized verification suites")
    p.add_argument("--suite", choices=("graphs", "lattices", "monoids", "all"), default="all",
                   help="the suites to run (default: all)")
    p.add_argument("--seed", type=int, default=0, help="random seed (default: 0)")
    p.add_argument("--count", type=count, default=100, help="instances per check (default: 100)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        return _COMMANDS[args.command](args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InternalInconsistency as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 2
    except OverBudget as exc:
        print(f"over the work budget: {exc}", file=sys.stderr)
        return 4
    except ValidationError as exc:
        if exc.report is not None:
            _print_violations(exc.report)
        else:
            print(f"invalid: {exc}", file=sys.stderr)
        return 1
    except RedjumpsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
