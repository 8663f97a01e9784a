"""JSON documents for reduction graphs and analysis reports.

The input format is versioned:

    {
      "format": "reduction-graph/1",
      "name": "II",
      "vertices": [{"id": "c", "multiplicity": 6, "genus": 0}, ...],
      "edges": [["c", "t1"], ...]
    }

"genus" defaults to 0 and "name" to "". Schema problems (bad JSON, wrong
shapes or types, bytes that are not UTF-8, a name or vertex id holding a
lone surrogate such as "\\ud800", which is valid JSON but has no UTF-8 form
for the output to print) raise ParseError, as does JSON
past the decoder's limits (nesting deeper than the recursion limit, an
integer literal of more digits than int() converts); a well-formed
document of an invalid graph raises the constructor's ValidationError,
whose ``violations`` list every fault. A refusal names the offending value
by at most 40 characters (``_values._quoted``), however long it is.

``_read`` reads a command's input, a path or "-" for stdin, as bytes: the
compute command of redjumps.cli and the others in redjumps.commands share
it, and neither module imports the other.
"""

import json
import sys

from ._values import _quoted, _ratio
from .errors import ParseError
from .graph import ReductionGraph, Vertex

FORMAT = "reduction-graph/1"


def _read(path) -> bytes:
    """The bytes of the file at path, or of stdin for "-"; ParseError if
    they cannot be read. The commands read their input through it."""
    try:
        if path != "-":
            with open(path, "rb") as fh:
                return fh.read()
        if sys.stdin is None:  # fd 0 was closed when the process started
            raise OSError("stdin is closed")
        return sys.stdin.buffer.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _encodable(s: str) -> bool:
    """Whether s has a UTF-8 form: a lone surrogate has none."""
    try:
        s.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


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
        raise ParseError(f'"format" must be {FORMAT!r}, got {_quoted(doc.get("format"))}')
    unknown = set(doc) - {"format", "name", "vertices", "edges"}
    if unknown:
        raise ParseError(f"unknown keys: {_quoted(sorted(unknown))}")
    name = doc.get("name", "")
    if not isinstance(name, str):
        raise ParseError(f'"name" must be a string, got {_quoted(name)}')
    if not _encodable(name):
        raise ParseError(f'"name" must be encodable as UTF-8, got {_quoted(name)}')
    raw_vertices = doc.get("vertices")
    if not isinstance(raw_vertices, list):
        raise ParseError('"vertices" must be a list')
    vertices = []
    for k, item in enumerate(raw_vertices):
        if not isinstance(item, dict):
            raise ParseError(f"vertex #{k} must be an object, got {_quoted(item)}")
        extra = set(item) - {"id", "multiplicity", "genus"}
        if extra:
            raise ParseError(f"vertex #{k} has unknown keys: {_quoted(sorted(extra))}")
        if "id" not in item or "multiplicity" not in item:
            raise ParseError(f'vertex #{k} needs "id" and "multiplicity"')
        vid, mult, gen = item["id"], item["multiplicity"], item.get("genus", 0)
        if not isinstance(vid, str):
            raise ParseError(f'vertex #{k}: "id" must be a string, got {_quoted(vid)}')
        if not _encodable(vid):
            raise ParseError(f'vertex #{k}: "id" must be encodable as UTF-8, got {_quoted(vid)}')
        for key, val in (("multiplicity", mult), ("genus", gen)):
            if not isinstance(val, int) or isinstance(val, bool):
                raise ParseError(f'vertex #{k}: "{key}" must be an integer, got {_quoted(val)}')
        vertices.append(Vertex(vid, mult, gen))
    raw_edges = doc.get("edges")
    if not isinstance(raw_edges, list):
        raise ParseError('"edges" must be a list')
    edges = []
    for k, item in enumerate(raw_edges):
        if (not isinstance(item, list) or len(item) != 2
                or not all(isinstance(x, str) for x in item)):
            raise ParseError(f"edge #{k} must be a pair of vertex ids, got {_quoted(item)}")
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


def report_document(r: "AnalysisReport") -> dict:
    name, genus, jumps, conductor, *rest = [getattr(r, field) for field in r._fields]
    return _report_document(name, genus, [(v.as_integer_ratio(), m) for v, m in jumps],
                            conductor.as_integer_ratio(), *rest)


def _report_document(name, genus, jumps, conductor, unipotent_rank, stabilization_index,
                     principal_components, minimal, checks) -> dict:
    """The document of a report's fields in the pair form of jumps._report."""
    doc = {
        "name": name,
        "genus": genus,
        "jumps": [{"value": _ratio(*v), "multiplicity": m} for v, m in jumps],
        "tame_base_change_conductor": _ratio(*conductor),
        "unipotent_rank": unipotent_rank,
        "stabilization_index": stabilization_index,
        "principal_components": list(principal_components),
        "minimal": minimal,
    }
    if checks is not None:
        doc["checks"] = dict(checks)
    return doc
