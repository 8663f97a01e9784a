"""The commands of the ``redjumps`` command line other than compute, and
its argparse parser.

redjumps.cli.main loads this module on first use: for validate, minimize,
catalog or verify, for a form cli._common leaves to argparse (help, a usage
error, abbreviations, ...), and to print the violations a ValidationError
carries. validate finds a document valid exactly when it parses. A plain
compute never loads it. It imports argparse only inside _parse_args, so
validate, minimize and catalog load no argparse either.

It does not import redjumps.cli: under ``python -m redjumps.cli``, cli runs
as ``__main__``, and importing it would compile it a second time. The one
helper both read, ``io._read``, lives in io.
"""

import json
import sys

from . import graph as _graph
from .errors import ValidationError
from .io import _read, dump_graph, parse_document


def _print_violations(violations):
    for v in violations:
        where = f" [{v.where}]" if v.where else ""
        print(f"invalid: {v.code}{where}: {v.message}", file=sys.stderr)


def _cmd_validate(args):
    violations = ()
    try:
        parse_document(_read(args.file))
    except ValidationError as exc:  # the constructor refused the graph
        violations = exc.violations
    if args.json:
        print(json.dumps({
            "valid": not violations,
            "violations": [{"code": v.code, "message": v.message, "where": v.where}
                           for v in violations]}, indent=2))
    elif violations:
        _print_violations(violations)
    else:
        print("valid")
    return 1 if violations else 0


def _cmd_minimize(args):
    g = parse_document(_read(args.file))
    sys.stdout.write(dump_graph(_graph.minimize(g)))
    return 0


def _cmd_catalog(args):
    from . import catalog as _catalog

    if args.tag is None:
        print("\n".join(_catalog.catalog_tags()))
    else:
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


# every command but compute, which cli runs itself
_COMMANDS = {"validate": _cmd_validate, "minimize": _cmd_minimize,
             "catalog": _cmd_catalog, "verify": _cmd_verify}


def _parse_args(argv):
    """The command and its values, by argparse, imported only here: main
    calls this for every form that cli._common does not read. A usage
    error or -h/--help exits."""
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
        if value < 1:  # a count of 0 would check nothing and pass
            raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
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
    p.add_argument("--count", type=count, default=100,
                   help="instances per check, at least 1 (default: 100)")
    return parser.parse_args(argv)
