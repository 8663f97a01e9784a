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
0 success (and --help), 1 invalid input graph, unknown name, usage error or
unwritable stdout ("error: cannot write output: ..."), 2 failed check or
internal inconsistency, 3 unreadable (a closed stdin:
"error: cannot read -: ...") or unparsable input (a directory as stdin
never gets here: CPython stops at start-up with "Fatal Python error:
init_sys_streams: <stdin> is a directory" and exit 1), 4 over the work
budget: a candidate scan would visit more than jumps.WORK_BUDGET
candidates, and the count is printed on stderr with no check table, 141
stdout closed by its reader, as a shell reports a process that SIGPIPE
ends. compute answers
from the nodes, so only compute --check, which scans every vertex of the
model as given, meets the budget on a model whose minimal model is small.
Python's limit on the digits str() converts guards the parser; compute
lifts it once it has its answer, which may be longer, and main restores it.

The arguments are parsed by argparse, with one exception: _common reads
the plain forms of compute, validate, minimize and catalog (the command,
its exact switches, --check with or without a NAME, and the positional)
to the values argparse would return, without importing it. Any other
form, help and every usage error go to argparse. --check takes the next
word as its NAME unless that word is an option, so a bare --check goes
after FILE: "compute - --check" reads stdin.

So that a process pays only for the modules it runs (without a bytecode
cache it compiles each one from source), this module holds main, _common
and compute alone. Importing it loads errors, _values, graph and io from
the package and nothing else, and no argparse, gettext or locale; compute
loads jumps but not fractions, since it prints the jumps from integer
pairs (a, d). The other commands and the argparse parser are in
redjumps.commands, which main loads for a command other than compute, a
form _common leaves to argparse, or an invalid graph's violations; it
imports argparse itself only to parse such a form. catalog and verify
are imported inside the commands that use them (numpy only by verify's
monoid suite), and surgery by none of them.
"""

import json
import os
import sys
from types import SimpleNamespace

from . import graph as _graph
from .errors import (InternalInconsistency, OverBudget, ParseError,
                     RedjumpsError, ValidationError)
from ._values import _ratio
from .io import _read, _report_document, parse_document


def _cmd_compute(args):
    from . import jumps as _jumps

    g = parse_document(_read(args.file))  # an invalid graph exits 1 first
    if args.check not in (None, "all", *_jumps.CHECK_NAMES):
        names = ", ".join(_jumps.CHECK_NAMES)
        raise RedjumpsError(f"no check named {args.check!r} (have: {names})")
    minimized = _graph.minimize(g) if args.minimize else None
    report = _jumps._report(g, with_checks=args.check is not None)  # values as (a, d)
    name, genus, jumps, conductor, unipotent, index, principal, minimal, checks = report
    sys.set_int_max_str_digits(0)  # the answer may be long: main restores the limit
    checks = [c for c in checks or () if args.check in ("all", c[0])]
    if args.json:
        doc = _report_document(*report[:-1], None if args.check is None else checks)
        if minimized is not None:
            doc["model"] = {"vertices": len(g.vertices), "edges": len(g.edges)}
            doc["minimal_model"] = {"vertices": len(minimized.vertices),
                                    "edges": len(minimized.edges)}
        print(json.dumps(doc, indent=2))
    else:
        if name:
            print(f"name: {name}")
        print(f"genus: {genus}")
        print("jumps: " + ", ".join(f"{_ratio(*v)} (x{m})" for v, m in jumps))
        print(f"tame base-change conductor: {_ratio(*conductor)}")
        print(f"unipotent rank: {unipotent}")
        print(f"stabilization index: {index}")
        print(f"principal components: {', '.join(principal) or 'none'}")
        print(f"minimal: {'yes' if minimal else 'no'}")
        if minimized is not None:
            print(f"model: {len(g.vertices)} vertices, {len(g.edges)} edges")
            print(f"minimal model: {len(minimized.vertices)} vertices, "
                  f"{len(minimized.edges)} edges")
        for check, ok in checks:
            print(f"check {check}: {'ok' if ok else 'FAIL'}")
    return 2 if any(not ok for _, ok in checks) else 0


# -- the command line --------------------------------------------------------

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


# the message and exit code of a refusal: the first class that matches
_REFUSALS = ((ParseError, "error", 3), (InternalInconsistency, "internal inconsistency", 2),
             (OverBudget, "over the work budget", 4), (RedjumpsError, "error", 1))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _common(argv)
    if args is None:  # help, a usage error or any other form: argparse
        from .commands import _parse_args

        args = _parse_args(argv)
    if sys.stdout is None:  # fd 1 was closed when the process started
        print("error: cannot write output: stdout is closed", file=sys.stderr)
        return 1
    digits = sys.get_int_max_str_digits()
    try:
        if args.command == "compute":
            code = _cmd_compute(args)
        else:
            from .commands import _COMMANDS

            code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # a failing stdout raises here, not at exit
        return code
    except OSError as exc:  # from stdout: _read turns its own into ParseError
        null = os.open(os.devnull, os.O_WRONLY)  # fd 1 to it: the flush at exit cannot raise
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
        if isinstance(exc, BrokenPipeError):  # closed by its reader
            return 141
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 1
    except ValidationError as exc:
        from .commands import _print_violations

        _print_violations(exc.violations)
        return 1
    except RedjumpsError as exc:
        what, code = next((what, code) for cls, what, code in _REFUSALS if isinstance(exc, cls))
        print(f"{what}: {exc}", file=sys.stderr)
        return code
    finally:
        sys.set_int_max_str_digits(digits)


if __name__ == "__main__":
    raise SystemExit(main())
