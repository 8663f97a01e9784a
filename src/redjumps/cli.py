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

Importing this module loads errors, _values, graph, jumps and io from
the package and nothing else: catalog and verify (and with it numpy) are
imported inside the commands that use them, so a compute process pays
only for the modules it runs.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import graph as _graph
from . import jumps as _jumps
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


def _semantically_valid(g):
    report = g.validate()
    if not report.ok:
        _print_violations(report)
    return report.ok


def _cmd_compute(args):
    g = parse_document(_read(args.file))
    if not _semantically_valid(g):
        return 1
    report = _jumps.analyze(g, with_checks=args.check is not None)
    checks = list(report.checks or ())
    if args.check not in (None, "all"):
        checks = [c for c in checks if c[0] == args.check]
        if not checks:
            names = ", ".join(name for name, _ in report.checks)
            print(f"error: no check named {args.check!r} (have: {names})",
                  file=sys.stderr)
            return 1
    minimized = _graph.minimize(g) if args.minimize else None
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
    g = parse_document(_read(args.file))
    report = g.validate()
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
    if not _semantically_valid(g):
        return 1
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


def non_negative_int(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, not argparse's 2, which means a failed check."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser():
    parser = _Parser(
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
    p.set_defaults(func=_cmd_compute)

    p = sub.add_parser("validate", help="validate an input document")
    p.add_argument("file", help='input document ("-" for stdin)')
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("minimize", help="write the minimal model")
    p.add_argument("file", help='input document ("-" for stdin)')
    p.set_defaults(func=_cmd_minimize)

    p = sub.add_parser("catalog", help="named fiber types")
    p.add_argument("tag", nargs="?", help="emit this graph as a document")
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("verify", help="randomized verification suites")
    p.add_argument("--suite", choices=["graphs", "lattices", "monoids", "all"],
                   default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=non_negative_int, default=100)
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
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
