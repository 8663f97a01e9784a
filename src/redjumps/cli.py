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

The arguments are read by a small parser over one table of the commands
(_COMMANDS), which also gives the usage and help text. It reads them as
argparse would: options anywhere after the command, "--opt=value", unique
prefixes of long options ("--js"), "--" before positional words, and "-"
as a file; --check takes the next word only when it is not an option.

Importing this module loads errors, _values, graph, jumps and io from
the package and nothing else, and no argparse, gettext or locale: catalog
and verify are imported inside the commands that use them (and numpy only
by verify's monoid suite), and the single-value and comparison code lives
in reference, which no command imports. So a compute process pays only
for the modules it runs.
"""

from __future__ import annotations

import json
import sys
from types import SimpleNamespace

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


def _cmd_compute(args):
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


# -- the command line: one table for the parser, the usage and the help ----

class _Option:
    """One --option of a command. Without a metavar it is a switch, True
    when given. Otherwise it takes a value, the text after "=" or the next
    word, converted by ``convert``; with a ``const`` the value is optional:
    the next word is taken only when it is not an option, and ``const``
    stands in for a missing one."""

    __slots__ = ("help", "metavar", "default", "convert", "const")

    def __init__(self, help, metavar=None, default=False, convert=str, const=None):
        self.help = help
        self.metavar = metavar
        self.default = default
        self.convert = convert
        self.const = const

    def usage(self, flag):
        if self.metavar is None:
            return flag
        if self.const is not None:
            return f"{flag} [{self.metavar}]"
        return f"{flag} {self.metavar}"


def _int(text):
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"invalid int value: {text!r}") from None


def _non_negative_int(text):
    value = _int(text)
    if value < 0:
        raise ValueError(f"must be non-negative, got {value}")
    return value


_SUITES = ("graphs", "lattices", "monoids", "all")


def _suite(text):
    if text not in _SUITES:
        raise ValueError(f"invalid choice: {text!r} "
                         f"(choose from {', '.join(map(repr, _SUITES))})")
    return text


_FILE = ("file", True, 'input document ("-" for stdin)')
_JSON = _Option("machine-readable output")

# name: (run, summary, positional, options); the positional is (name,
# required, help) or None, and each option is keyed by its flag, whose
# name without the dashes is the attribute it sets
_COMMANDS = {
    "compute": (_cmd_compute, "jump spectrum and invariants", _FILE, {
        "--json": _JSON,
        "--check": _Option("run consistency checks (default: all)", "NAME",
                           default=None, const="all"),
        "--minimize": _Option("also report the minimal model size")}),
    "validate": (_cmd_validate, "validate an input document", _FILE, {"--json": _JSON}),
    "minimize": (_cmd_minimize, "write the minimal model", _FILE, {}),
    "catalog": (_cmd_catalog, "named fiber types",
                ("tag", False, "emit this graph as a document"), {}),
    "verify": (_cmd_verify, "randomized verification suites", None, {
        "--suite": _Option("the suites to run (default: all)",
                           "{" + ",".join(_SUITES) + "}", "all", _suite),
        "--seed": _Option("random seed (default: 0)", "SEED", 0, _int),
        "--count": _Option("instances per check (default: 100)", "COUNT", 100,
                           _non_negative_int)}),
}
_HELP = ("-h", "--help")


def _usage(command):
    if command is None:
        return f"usage: redjumps [-h] {{{','.join(_COMMANDS)}}} ..."
    _, _, positional, options = _COMMANDS[command]
    words = [f"usage: redjumps {command} [-h]",
             *(f"[{option.usage(flag)}]" for flag, option in options.items())]
    if positional is not None:
        name, required, _ = positional
        words.append(name if required else f"[{name}]")
    return " ".join(words)


def _fail(command, message):
    """A usage error: exit 1, as for invalid input (2 is a failed check)."""
    prog = "redjumps" if command is None else f"redjumps {command}"
    print(f"{_usage(command)}\n{prog}: error: {message}", file=sys.stderr)
    raise SystemExit(1)


def _help(command, value):
    if value is not None:
        _fail(command, f"argument -h/--help: ignored explicit argument {value!r}")
    rows = [("-h, --help", "show this help message and exit")]
    if command is None:
        summary = "Jump spectra of Jacobians from sncd reduction graphs."
        sections = [("commands", [(name, c[1]) for name, c in _COMMANDS.items()])]
    else:
        _, summary, positional, options = _COMMANDS[command]
        rows += [(option.usage(flag), option.help) for flag, option in options.items()]
        sections = []
        if positional is not None:
            name, _, text = positional
            sections.append(("positional arguments", [(name, text)]))
    sections.append(("options", rows))
    width = min(22, 2 + max(len(left) for _, rows in sections for left, _ in rows))
    lines = [_usage(command), "", summary]
    for title, rows in sections:
        lines += ["", f"{title}:"]
        for left, text in rows:
            lines += ([f"  {left:<{width}}{text}"] if len(left) + 2 <= width
                      else [f"  {left}", " " * (width + 2) + text])
    print("\n".join(lines))
    raise SystemExit(0)


def _option(word, flags, command):
    """(flag, the value after "=" or None) for a word naming one of flags,
    or a unique prefix of a long one; (None, None) for an unknown option;
    None for a word that is not an option: one not starting with "-", "-"
    and "--", a negative number, or one with a space."""
    if not word.startswith("-") or word in ("-", "--"):
        return None
    name, eq, value = word.partition("=")
    value = value if eq else None
    if word in flags:
        return word, None
    if name in flags:
        return name, value
    if word.startswith("--"):
        hits = [flag for flag in flags if flag.startswith(name)]
        if len(hits) > 1:
            _fail(command, f"ambiguous option: {name} could match {', '.join(hits)}")
        if hits:
            return hits[0], value
    whole, dot, fraction = word[1:].partition(".")
    if ((whole.isdecimal() or (dot and not whole)) and (not dot or fraction.isdecimal())
            or " " in word):
        return None
    return None, None


def _parse_args(argv):
    """The command and its values, read as argparse reads them: options
    anywhere after the command, "--opt=value", unique prefixes of long
    options, "--" before words that are only positional, and "-" as a
    word. A usage error or -h/--help exits."""
    argv = list(argv)
    extras = []
    for k, word in enumerate(argv):  # before the command only -h and --help
        hit = _option(word, _HELP, None)
        if hit is None:
            break
        if hit[0] is None:
            extras.append(word)
        else:
            _help(None, hit[1])
    else:
        _fail(None, "the following arguments are required: command")
    command, words = argv[k], argv[k + 1:]
    if command not in _COMMANDS:
        _fail(None, f"argument command: invalid choice: {command!r} "
                    f"(choose from {', '.join(map(repr, _COMMANDS))})")
    _, _, positional, options = _COMMANDS[command]
    values = {"command": command, **{flag[2:]: option.default
                                     for flag, option in options.items()}}
    end = words.index("--") if "--" in words else len(words)
    flags = {**dict.fromkeys(_HELP), **options}
    hits = [_option(word, flags, command) for word in words[:end]]
    positionals = []
    i = 0
    while i < end:
        word, hit = words[i], hits[i]
        i += 1
        if hit is None:
            positionals.append(word)
        elif hit[0] is None:
            extras.append(word)
        elif hit[0] in _HELP:
            _help(command, hit[1])
        else:
            flag, value = hit
            option = options[flag]
            if option.metavar is None:
                if value is not None:
                    _fail(command, f"argument {flag}: ignored explicit argument {value!r}")
                value = True
            else:
                if value is None and i < end and hits[i] is None:
                    value, i = words[i], i + 1
                if value is not None:
                    try:
                        value = option.convert(value)
                    except ValueError as exc:
                        _fail(command, f"argument {flag}: {exc}")
                elif option.const is None:
                    _fail(command, f"argument {flag}: expected one argument")
                else:
                    value = option.const
            values[flag[2:]] = value
    positionals += words[end + 1:]
    if positional is not None:
        name, required, _ = positional
        if not positionals and required:
            _fail(command, f"the following arguments are required: {name}")
        values[name] = positionals.pop(0) if positionals else None
    if extras or positionals:
        _fail(command, "unrecognized arguments: " + " ".join(extras + positionals))
    return SimpleNamespace(**values)


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        return _COMMANDS[args.command][0](args)
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
