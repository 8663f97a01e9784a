"""The Fibonacci blow-up chains the suites share. A module with a name of
its own, so that importing it cannot pick up another directory's conftest."""

from redjumps import blow_up_edge, blow_up_free_point, catalog_graph


def heaviest_edge(g):
    """Index of the edge joining the two heaviest components, the first
    such edge in edge order: blowing it up again and again makes the
    multiplicities grow like Fibonacci numbers."""
    return max(range(len(g.edges)),
               key=lambda k: sorted((g.multiplicity(x) for x in g.edges[k]), reverse=True))


def fibonacci_chain(tag, depth):
    """catalog_graph(tag) (with one free-point blow-up if it has no edge),
    then depth blow-ups of its heaviest edge."""
    g = catalog_graph(tag)
    if not g.edges:
        g = blow_up_free_point(g, g.vertices[0].id)
    for _ in range(depth):
        g = blow_up_edge(g, heaviest_edge(g))
    return g
