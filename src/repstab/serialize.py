"""JSON codecs for groups, graphs, tables, vectors, and reports.

Complex matrices serialize as nested arrays of [re, im] pairs. Graph
configurations may reference preset groups by name or inline a
multiplication table.
"""

from __future__ import annotations

import json
import os
import stat
from fractions import Fraction

import numpy as np

from .cones import MultiplicityVector
from .errors import ValidationError
from .graphs import GraphOfGroups, graph_of_groups, serre_graph
from .groups import FiniteGroup, group_from_json, group_to_json
from .irreps import IrrepTable
from .presets import group_preset
from .stabilize import StabilizationReport


def matrix_to_json(m) -> list:
    arr = np.asarray(m, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in arr]


def _group_ref(obj) -> FiniteGroup:
    if isinstance(obj, str):
        return group_preset(obj)
    return group_from_json(obj)


def graph_to_json(gog: GraphOfGroups) -> dict:
    edges = []
    for k, (o, t) in enumerate(gog.graph.endpoints):
        edges.append({
            "origin": o,
            "terminus": t,
            "group": group_to_json(gog.edge_groups[k]),
            "into_terminus": gog.injections[2 * k].map.tolist(),
            "into_origin": gog.injections[2 * k + 1].map.tolist(),
        })
    return {
        "name": gog.name,
        "vertices": [{"group": group_to_json(g)} for g in gog.vertex_groups],
        "edges": edges,
    }


def graph_from_json(obj) -> GraphOfGroups:
    if not isinstance(obj, dict) or "vertices" not in obj or "edges" not in obj:
        raise ValidationError("graph JSON needs 'vertices' and 'edges' lists")
    try:
        vertex_groups = []
        for entry in obj["vertices"]:
            ref = entry["group"] if isinstance(entry, dict) else entry
            vertex_groups.append(_group_ref(ref))
        endpoints, edge_groups, injections = [], [], []
        for entry in obj["edges"]:
            endpoints.append((int(entry["origin"]), int(entry["terminus"])))
            edge_groups.append(_group_ref(entry["group"]))
            injections.append(list(entry["into_terminus"]))
            injections.append(list(entry["into_origin"]))
    except KeyError as exc:
        raise ValidationError(f"edge entry missing field {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"malformed graph config: {exc}") from exc
    graph = serre_graph(len(vertex_groups), endpoints)
    return graph_of_groups(graph, vertex_groups, edge_groups, injections,
                           name=str(obj.get("name", "")))


def load_json(path):
    """Parsed contents of a JSON file; ValidationError if it cannot be read or parsed."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"could not parse {path}: {exc}") from exc
    except OSError as exc:
        raise ValidationError(f"could not read {path}: {exc}") from exc


def _overwrite(path, text: str) -> None:
    """Write `text` as UTF-8 over the file at `path`, in place.

    The file keeps its inode, so a symlink is followed and links and mode
    survive. A regular file is cut to the new length after the write; other
    files (/dev/null, a pipe) are only written. The file is never truncated
    to zero first: ext4 flushes a file that was truncated to zero and
    rewritten when it is closed, which costs tens of milliseconds per
    rewrite. An interrupted write leaves a damaged file, as `open(path, "w")`
    does. ValidationError if the file cannot be written.
    """
    data = memoryview(text.encode("utf-8"))
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        try:
            written = 0
            while written < len(data):
                written += os.write(fd, data[written:])
            if stat.S_ISREG(os.fstat(fd).st_mode):
                os.ftruncate(fd, written)
        finally:
            os.close(fd)
    except OSError as exc:
        raise ValidationError(f"could not write {path}: {exc}") from exc


def load_graph(path) -> GraphOfGroups:
    return graph_from_json(load_json(path))


def irrep_table_to_json(table: IrrepTable) -> dict:
    return {
        "group": group_to_json(table.group),
        "classes": [list(c) for c in table.group.classes],
        "irreps": [{
            "dim": p.dim,
            "character": [[float(z.real), float(z.imag)] for z in p.character],
            "matrices": [matrix_to_json(m) for m in p.matrices],
        } for p in table.irreps],
    }


def theta_to_json(vec: MultiplicityVector) -> dict:
    return {"side": vec.side, "blocks": [list(b) for b in vec.blocks]}


def _fraction_to_json(x: Fraction) -> dict:
    return {"value": float(x), "numerator": x.numerator, "denominator": x.denominator}


def report_to_json(report: StabilizationReport) -> dict:
    return {
        "p": report.p,
        "dim": report.dim,
        "delta": report.delta,
        "epsilon": report.epsilon,
        "output_defect": report.output_defect,
        "cone_gap": _fraction_to_json(report.cone_gap),
        "lambda_in": theta_to_json(report.lambda_in),
        "lambda_out": theta_to_json(report.lambda_out),
        "hypothesis_ok": report.hypothesis_ok,
        "timings_ms": {k: round(v, 3) for k, v in report.timings_ms.items()},
    }
