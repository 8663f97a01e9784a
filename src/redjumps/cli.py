"""Command line interface.

Subcommands:

    compute FILE    jump spectrum and invariants of a reduction graph
    validate FILE   check a document and report violations
    minimize FILE   write the minimal model as a reduction-graph/1 document
    catalog [TAG]   list the named fiber types, or write one as a document
    verify          run randomized verification suites

FILE may be "-" for stdin. Exit codes: 0 success (and --help), 1 invalid
input graph, unknown name or a usage error, 2 failed check or internal
inconsistency, 3 unreadable or unparsable input.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from . import catalog as _catalog
from . import graph as _graph
from . import jumps as _jumps
from .errors import (InternalInconsistency, ParseError, RedjumpsError,
                     ValidationError)
from .io import dump_graph, parse_document, report_document


def _read(path):
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, encoding="utf-8") as fh:
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
    if args.tag is None:
        for tag in _catalog.catalog_tags():
            print(tag)
        return 0
    sys.stdout.write(dump_graph(_catalog.catalog_graph(args.tag)))
    return 0


def _verify_graphs(seed, count, results):
    tallies = {}
    for k in range(count):
        inst = _catalog.random_instance(seed + k, (seed + k) % 16)
        for name, ok in _jumps.run_checks(inst.graph):
            good, total = tallies.get(name, (0, 0))
            tallies[name] = (good + ok, total + 1)
    for name, (good, total) in tallies.items():
        results.append((f"graphs/{name}", good, total))


def _verify_lattices(seed, count, results):
    from . import lattices as _lattices

    rng = random.Random(seed)
    good = 0
    for _ in range(count):
        g = rng.randint(2, 4)
        p = rng.choice([2, 3, 5])
        n = rng.randint(0, 3)
        l0, l1, l2 = _lattices.random_sandwich_instance(rng, g, p, n)
        good += _lattices.check_sandwich(l0, l1, l2, p, n)
    results.append(("lattices/sandwich", good, count))
    good = 0
    for _ in range(count):
        g = rng.randint(2, 4)
        p = rng.choice([2, 3, 5])
        l1, l2, l3, v = _lattices.random_complement_instance(rng, g, p)
        w = _lattices.elementary_divisors(l2, l3, p)
        good += (_lattices.chain_complement(v, w)
                 == _lattices.elementary_divisors(l1, l2, p))
    results.append(("lattices/complement", good, count))
    good = 0
    for _ in range(count):
        g = rng.randint(1, 4)
        M = [[rng.randint(-9, 9) for _ in range(g)] for _ in range(g)]
        if _lattices.det(M) == 0:
            good += 1
            continue
        U, D, V = _lattices.smith_normal_form(M)
        diag = _lattices.diagonal(D)
        ok = _lattices.matmul(_lattices.matmul(U, M), V) == D
        ok = ok and all(diag[i + 1] % diag[i] == 0 for i in range(g - 1))
        ok = ok and abs(_lattices.det(U)) == 1 and abs(_lattices.det(V)) == 1
        prod = 1
        for d in diag:
            prod *= d
        ok = ok and prod == abs(_lattices.det(M))
        good += ok
    results.append(("lattices/snf", good, count))


def _verify_monoids(seed, count, results):
    from . import monoids as _monoids

    rng = random.Random(seed)
    good = total = 0
    for chart in _monoids.charts_case1(6):
        for _ in range(max(1, count // 10)):
            q = tuple(rng.randint(-8, 8) for _ in range(3))
            total += 2
            good += (_monoids.member_case1(chart, q)
                     == _monoids.member_case1_search(chart, q))
            good += (_monoids.sat_member_case1(chart, q)
                     == _monoids.sat_member_case1_search(chart, q))
    results.append(("monoids/case1-closed-forms", good, total))
    good = total = 0
    for chart in _monoids.charts_case2(5):
        for _ in range(max(1, count // 20)):
            q = tuple(rng.randint(-6, 6) for _ in range(3))
            total += 2
            good += (_monoids.member_case2(chart, q)
                     == _monoids.member_case2_search(chart, q))
            good += (_monoids.sat_member_case2(chart, q)
                     == _monoids.sat_member_case2_search(chart, q))
    results.append(("monoids/case2-closed-forms", good, total))
    good = total = 0
    for chart in _monoids.charts_case1(8):
        for j, f in _monoids.cokernel_generators_case1(chart):
            q = (0, -f, j)
            total += 1
            good += (_monoids.sat_member_case1(chart, q)
                     and _monoids.member_case1(chart, q) == (f == 0))
    results.append(("monoids/cokernel-generators", good, max(total, 1)))
    good = total = 0
    for chart in _monoids.charts_case1(8):
        for s in range(9):
            for t in range(1, 5):
                for i in range(9):
                    if _monoids.divisible_case1(chart, s, t, i):
                        total += 1
                        good += _monoids.divisible_case1(chart, s, t - 1, i + 1)
    results.append(("monoids/divisibility-monotone", good, max(total, 1)))
    good = total = 0
    from math import lcm as _lcm
    for chart in _monoids.charts_case1(6) + _monoids.charts_case2(4):
        total += 1
        branch = (chart.a,) if isinstance(chart, _monoids.SaturationChartCase1) \
            else (chart.a, chart.b)
        good += _monoids.chart_saturation_index(chart) == _lcm(*branch)
    results.append(("monoids/saturation-index", good, total))
    good = total = 0
    for _ in range(max(3, count // 20)):
        P = _monoids.random_cone_monoid(rng)
        e = P.generators[rng.randrange(len(P.generators))]
        total += 1
        good += _monoids.verify_lemm_coker(P, e, rng.randint(2, 4), 4) >= 0
    results.append(("monoids/pushout-lemma", good, total))


def _cmd_verify(args):
    results = []
    if args.suite in ("graphs", "all"):
        _verify_graphs(args.seed, args.count, results)
    if args.suite in ("lattices", "all"):
        _verify_lattices(args.seed, args.count, results)
    if args.suite in ("monoids", "all"):
        _verify_monoids(args.seed, args.count, results)
    failed = False
    for name, good, total in results:
        marker = "" if good == total else "  FAIL"
        print(f"{name}: {good}/{total}{marker}")
        failed = failed or good != total
    return 2 if failed else 0


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
    p.add_argument("--count", type=int, default=100)
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
