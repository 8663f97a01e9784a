"""Named reduction graphs and a seeded generator of random valid ones.

The named shapes are the dual graphs of the Kodaira fibers of elliptic
curves (types I_n, I_n*, II, III, IV and their duals; for I_1, whose
naive dual graph would need a loop, the blow-up of the node), and a couple
of higher-genus shapes used as corpus seeds. Each carries its classical
jump value so the table can be regenerated and checked.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction
from functools import cache

from . import graph as _graph
from ._values import Value, _below, _check_int
from .errors import UnsupportedType
from .graph import ReductionGraph, Vertex


def _star(center_mult, center_genus, tail_mults, name):
    """Central component with one tail per entry of tail_mults."""
    verts = [Vertex("c", center_mult, center_genus)]
    edges = []
    for k, n in enumerate(tail_mults, start=1):
        verts.append(Vertex(f"t{k}", n, 0))
        edges.append(("c", f"t{k}"))
    return _graph.build(verts, edges, name=name)


def _arms(center_mult, arms, name):
    """Central component with chains of given multiplicities hanging off it."""
    verts = [Vertex("c", center_mult, 0)]
    edges = []
    for a, arm in enumerate(arms, start=1):
        prev = "c"
        for k, n in enumerate(arm, start=1):
            vid = f"a{a}_{k}"
            verts.append(Vertex(vid, n, 0))
            edges.append((prev, vid))
            prev = vid
    return _graph.build(verts, edges, name=name)


def _cycle(n, name):
    verts = [Vertex(f"v{k}", 1, 0) for k in range(1, n + 1)]
    edges = [(f"v{k}", f"v{k % n + 1}") for k in range(1, n + 1)]
    return _graph.build(verts, edges, name=name)


def _istar(n):
    """Type I_n*: a chain of n+1 double components, two reduced tails per end."""
    verts = [Vertex(f"c{k}", 2, 0) for k in range(n + 1)]
    edges = [(f"c{k}", f"c{k + 1}") for k in range(n)]
    verts += [Vertex("t1", 1, 0), Vertex("t2", 1, 0),
              Vertex("t3", 1, 0), Vertex("t4", 1, 0)]
    edges += [("c0", "t1"), ("c0", "t2"), (f"c{n}", "t3"), (f"c{n}", "t4")]
    return _graph.build(verts, edges, name=f"I{n}*")


_TAG_RE = re.compile(r"I([0-9]+)(\*?)")

# Largest n for the tags I<n> and I<n>*: their graphs have about n vertices,
# so a short tag must not ask for an unbounded build.
MAX_FIBER_INDEX = 10_000

# Every fixed-shape name: (builder, classical jump, or None for a higher-
# genus shape). In I1, the blown-up node, u meets the -1 curve b (N = 2)
# twice, so b cannot be contracted. I1res is the I2 cycle under an old name,
# kept as a corpus seed; star5 (genus 5) and twin (genus 2) are seeds only.
_SHAPES = {
    "I0": (lambda: _graph.build([Vertex("e", 1, 1)], [], name="I0"), Fraction(0)),
    "I1": (lambda: _graph.build([Vertex("u", 1, 0), Vertex("b", 2, 0)],
                                [("u", "b"), ("u", "b")], name="I1"), Fraction(0)),
    "I1res": (lambda: _graph.build([Vertex("u", 1, 0), Vertex("v", 1, 0)],
                                   [("u", "v"), ("u", "v")], name="I1res"), Fraction(0)),
    "II": (lambda: _star(6, 0, [3, 2, 1], "II"), Fraction(1, 6)),
    "III": (lambda: _star(4, 0, [2, 1, 1], "III"), Fraction(1, 4)),
    "IV": (lambda: _star(3, 0, [1, 1, 1], "IV"), Fraction(1, 3)),
    "IV*": (lambda: _arms(3, [[2, 1], [2, 1], [2, 1]], "IV*"), Fraction(2, 3)),
    "III*": (lambda: _arms(4, [[2], [3, 2, 1], [3, 2, 1]], "III*"), Fraction(3, 4)),
    "II*": (lambda: _arms(6, [[3], [4, 2], [5, 4, 3, 2, 1]], "II*"), Fraction(5, 6)),
    "genus2": (lambda: _star(2, 1, [1, 1], "genus2"), None),
    "star5": (lambda: _star(4, 1, [2, 1, 1], "star5"), None),
    "twin": (lambda: _graph.build([Vertex("u", 1, 1), Vertex("v", 1, 1)], [("u", "v")],
                                  name="twin"), None),
}
_KODAIRA = frozenset(name for name, (_, jump) in _SHAPES.items() if jump is not None)


def _quoted(tag):
    """repr(tag), cut to 40 characters ending in "...": a message that
    quotes the tag stays one short line."""
    text = repr(tag)
    return text if len(text) <= 40 else text[:37] + "..."


def _family(tag):
    """The (builder, jump) entry of the tag I<n> or I<n>*: ASCII digits,
    leading zeros allowed, n at most MAX_FIBER_INDEX, checked before
    anything is built. Raises UnsupportedType for any other tag."""
    m = _TAG_RE.fullmatch(tag) if isinstance(tag, str) else None
    if m is None:
        raise UnsupportedType(f"unknown fiber tag {_quoted(tag)}")
    digits, starred = m.group(1).lstrip("0") or "0", bool(m.group(2))
    # the length test first: int() refuses strings of more than 4300 digits
    if len(digits) > len(str(MAX_FIBER_INDEX)) or int(digits) > MAX_FIBER_INDEX:
        raise UnsupportedType(
            f"fiber tag {_quoted(tag)}: n is above the limit {MAX_FIBER_INDEX}")
    n = int(digits)
    if starred:
        return (lambda: _istar(n)), Fraction(1, 2)
    return _SHAPES[f"I{n}"] if n < 2 else ((lambda: _cycle(n, f"I{n}")), Fraction(0))


def _entry(tag, names):
    """The _SHAPES entry of tag if names holds it, else _family(tag)."""
    if isinstance(tag, str) and tag in names:
        return _SHAPES[tag]
    return _family(tag)


def kodaira_graph(tag: str) -> ReductionGraph:
    """Dual graph of the Kodaira fiber tag ("I3", "I0*", "II*", ...): a
    _SHAPES name with a classical jump, or I<n> or I<n>* (see _family)."""
    return _entry(tag, _KODAIRA)[0]()


def expected_jump(tag: str) -> Fraction:
    """The classical nonzero jump of the fiber type (0 for the I_n family),
    for the tags kodaira_graph accepts; any other raises UnsupportedType."""
    return _entry(tag, _KODAIRA)[1]


def genus2_example() -> ReductionGraph:
    """Genus-2 graph with jumps 0 and 1/2: an elliptic double component
    with two reduced tails."""
    return _SHAPES["genus2"][0]()


# the names of the seed pool, sorted: random_instance draws one by position
_SEED_NAMES = tuple(sorted(("I0", "I2", "I5", "II", "III", "IV", "I0*", "I3*",
                            "IV*", "III*", "II*", "I1res", "genus2", "star5",
                            "twin")))


@cache
def _seed(name: str) -> ReductionGraph:
    """The pool seed called name, built and validated once per process:
    graphs are immutable, and blow-ups work on a copy."""
    return _entry(name, _SHAPES)[0]()


def seed_graphs() -> dict:
    """Pool of minimal valid graphs the random generator starts from."""
    return {name: _seed(name) for name in _SEED_NAMES}


def catalog_tags() -> list:
    """The names `redjumps catalog` prints, in this order. The command also
    accepts I1 and every I<n> and I<n>* up to MAX_FIBER_INDEX (10^4)."""
    tags = ["I0", "I1res"] + [f"I{n}" for n in range(2, 11)]
    tags += [f"I{n}*" for n in range(0, 6)]
    tags += ["II", "III", "IV", "IV*", "III*", "II*", "genus2"]
    return tags


_LISTED = _SHAPES.keys() & catalog_tags()


def catalog_graph(name: str) -> ReductionGraph:
    """The graph called name: a name of catalog_tags(), I1, I<n> or I<n>*."""
    return _entry(name, _LISTED)[0]()


class GeneratedGraph(Value):
    """A corpus instance: the graph, the seed it grew from, and the moves."""

    __slots__ = _fields = ("graph", "base", "base_name", "moves")

    def __init__(self, graph: ReductionGraph, base: ReductionGraph, base_name: str,
                 moves: tuple):
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "base_name", base_name)
        object.__setattr__(self, "moves", moves)


def random_instance(seed: int, moves: int) -> GeneratedGraph:
    """Grow a random valid graph by `moves` blow-ups from a pool seed.

    Deterministic in (seed, moves). Every move is a valid-by-construction
    blow-up, so the result is always a valid graph with the same genus and
    jump spectrum as its base. Each seed is built once per process, when
    first drawn, and shared by every instance grown from it. The moves run
    on vertex indices, on three plain lists grown from the seed's compiled
    form: the multiplicities, the edges as index pairs and the ids. A move
    appends one multiplicity, one id and one or two pairs, and blowing up
    edge k is ``pairs.pop(k)``, a memmove done in C; the result is the
    graph the public blow-ups give, fresh ids b1, b2, ... included, built
    once at the end. The picks are the draws rng.choice and rng.randrange
    make, taken straight from getrandbits (see _values._below). Raises
    PreconditionFailed, before any draw, unless seed is an int and moves
    an int >= 0, bools neither.
    """
    _check_int("seed", seed, None)
    _check_int("moves", moves, 0)
    rng = random.Random(seed)
    base_name = _SEED_NAMES[_below(rng, len(_SEED_NAMES))]
    base = _seed(base_name)
    c = base._compiled
    N, ids = c.N[:], base.ids
    pairs = [(c.index[a], c.index[b]) for a, b in base.edges]
    fresh = _graph._fresh_ids(c.index)  # never an id of base, nor one given before
    log = []
    for _ in range(moves):
        new = len(ids)
        # an edgeless graph (the I0 seed before any move) only admits the
        # free-point move
        if rng.random() < 0.5 or not pairs:
            i = _below(rng, new)
            N.append(N[i])
            pairs.append((i, new))
            log.append(("free", ids[i]))
        else:
            k = _below(rng, len(pairs))
            i, j = pairs.pop(k)
            if ids[j] < ids[i]:  # the end whose id sorts first gets the first edge
                i, j = j, i
            N.append(N[i] + N[j])
            pairs += (i, new), (j, new)
            log.append(("edge", k))
        ids.append(next(fresh))
    start = len(base.vertices)
    vertices = base.vertices + tuple(map(Vertex, ids[start:], N[start:]))
    graph = ReductionGraph(vertices, [(ids[i], ids[j]) for i, j in pairs], base.name)
    return GeneratedGraph(graph, base, base_name, tuple(log))
