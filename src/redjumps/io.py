"""JSON documents for reduction graphs and analysis reports.

The input format is versioned:

    {
      "format": "reduction-graph/1",
      "name": "II",
      "vertices": [{"id": "c", "multiplicity": 6, "genus": 0}, ...],
      "edges": [["c", "t1"], ...]
    }

"genus" defaults to 0 and "name" to "". Schema problems (bad JSON, wrong
shapes or types, bytes that are not UTF-8) raise ParseError, as does JSON
past the decoder's limits (nesting deeper than the recursion limit, an
integer literal of more digits than int() converts); a well-formed
document describing a structurally broken graph raises ValidationError
from the constructor. Semantic validity (connectivity, gcd, integral
self-intersections) is the caller's decision: parse_document does not run
validate().
"""

from __future__ import annotations

import json

from .errors import ParseError
from .graph import ReductionGraph, Vertex

FORMAT = "reduction-graph/1"


def parse_document(text) -> ReductionGraph:
    """Parse a reduction-graph/1 JSON document into a ReductionGraph."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}") from exc
    except (RecursionError, ValueError) as exc:  # nested too deep, an int too long
        raise ParseError(f"JSON beyond the parser's limits: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("top-level value must be an object")
    if doc.get("format") != FORMAT:
        raise ParseError(f'"format" must be {FORMAT!r}, got {doc.get("format")!r}')
    unknown = set(doc) - {"format", "name", "vertices", "edges"}
    if unknown:
        raise ParseError(f"unknown keys: {sorted(unknown)}")
    name = doc.get("name", "")
    if not isinstance(name, str):
        raise ParseError(f'"name" must be a string, got {name!r}')
    raw_vertices = doc.get("vertices")
    if not isinstance(raw_vertices, list):
        raise ParseError('"vertices" must be a list')
    vertices = []
    for k, item in enumerate(raw_vertices):
        if not isinstance(item, dict):
            raise ParseError(f"vertex #{k} must be an object, got {item!r}")
        extra = set(item) - {"id", "multiplicity", "genus"}
        if extra:
            raise ParseError(f"vertex #{k} has unknown keys: {sorted(extra)}")
        if "id" not in item or "multiplicity" not in item:
            raise ParseError(f'vertex #{k} needs "id" and "multiplicity"')
        vid, mult, gen = item["id"], item["multiplicity"], item.get("genus", 0)
        if not isinstance(vid, str):
            raise ParseError(f'vertex #{k}: "id" must be a string, got {vid!r}')
        for key, val in (("multiplicity", mult), ("genus", gen)):
            if not isinstance(val, int) or isinstance(val, bool):
                raise ParseError(f'vertex #{k}: "{key}" must be an integer, got {val!r}')
        vertices.append(Vertex(vid, mult, gen))
    raw_edges = doc.get("edges")
    if not isinstance(raw_edges, list):
        raise ParseError('"edges" must be a list')
    edges = []
    for k, item in enumerate(raw_edges):
        if (not isinstance(item, list) or len(item) != 2
                or not all(isinstance(x, str) for x in item)):
            raise ParseError(f"edge #{k} must be a pair of vertex ids, got {item!r}")
        edges.append((item[0], item[1]))
    return ReductionGraph(tuple(vertices), tuple(edges), name)


def graph_document(g: ReductionGraph) -> dict:
    doc = {"format": FORMAT}
    if g.name:
        doc["name"] = g.name
    doc["vertices"] = [{"id": v.id, "multiplicity": v.multiplicity, "genus": v.genus}
                       for v in g.vertices]
    doc["edges"] = [[a, b] for a, b in g.edges]
    return doc


def dump_graph(g: ReductionGraph) -> str:
    return json.dumps(graph_document(g), indent=2) + "\n"


def report_document(r: AnalysisReport) -> dict:
    doc = {
        "name": r.name,
        "genus": r.genus,
        "jumps": [{"value": str(v), "multiplicity": m} for v, m in r.jumps],
        "tame_base_change_conductor": str(r.tame_base_change_conductor),
        "unipotent_rank": r.unipotent_rank,
        "stabilization_index": r.stabilization_index,
        "principal_components": list(r.principal_components),
        "minimal": r.minimal,
    }
    if r.checks is not None:
        doc["checks"] = {name: ok for name, ok in r.checks}
    return doc
