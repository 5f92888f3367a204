"""Graph serialization: FTG/SDG as JSON for external tooling.

The HTML and DOT exports target humans; this codec targets programs —
dashboards, notebooks, or downstream optimizers that want the decorated
graph without re-parsing traces.  Round-trips every node and edge
attribute the builders set.
"""

from __future__ import annotations

import json
from typing import Union

import networkx as nx

__all__ = ["graph_to_json_dict", "graph_from_json_dict", "graph_to_json",
           "graph_from_json"]


def _lists(attrs: dict) -> dict:
    return {k: list(v) if isinstance(v, tuple) else v
            for k, v in attrs.items()}


def _payload(g: nx.DiGraph, clean) -> dict:
    return {
        "graph": clean(g.graph),
        "nodes": [{"id": n, **clean(a)} for n, a in g.nodes(data=True)],
        "edges": [{"source": u, "target": v, **clean(a)}
                  for u, v, a in g.edges(data=True)],
    }


def graph_to_json_dict(g: nx.DiGraph) -> dict:
    """Serialize a decorated workflow graph to plain JSON-safe structures
    (tuple attributes become lists)."""
    return _payload(g, _lists)


def graph_from_json_dict(payload: dict) -> nx.DiGraph:
    """Rebuild a workflow graph from :func:`graph_to_json_dict` output."""
    g = nx.DiGraph(**payload.get("graph", {}))
    for node in payload.get("nodes", []):
        attrs = dict(node)
        node_id = attrs.pop("id")
        g.add_node(node_id, **attrs)
    for edge in payload.get("edges", []):
        attrs = dict(edge)
        u = attrs.pop("source")
        v = attrs.pop("target")
        g.add_edge(u, v, **attrs)
    return g


def graph_to_json(g: nx.DiGraph, indent: Union[int, None] = None) -> str:
    # json.dumps already writes tuples as arrays: no per-attribute copy.
    return json.dumps(_payload(g, lambda attrs: attrs), indent=indent)


def graph_from_json(text: str) -> nx.DiGraph:
    return graph_from_json_dict(json.loads(text))
