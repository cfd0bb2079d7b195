"""Backward expansion of the Collatz graph into trees, with DOT/JSON export.

Full flavor grows from a root by inverting the forward map: every node has
its doubling predecessor, and C2 nodes also have the odd one.  Reduced
flavor grows inside class C2 by inverting the reduced map.  The known
limit cycles (1-2 under the full map, the self-loop at 2 under the reduced
map) are cut during construction so the result really is a tree; the cut
edges are kept as metadata rather than discarded.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .core_map import (
    ReducedRule,
    ResidueClass,
    Rule,
    predecessors,
    reduced_predecessors,
    residue_class,
)
from .facts import SCHEMA_VERSION


class TreeFlavor(Enum):
    FULL = "full"
    REDUCED = "reduced"


class Edge(NamedTuple):
    """A tree edge pointing toward the root: parent is the forward-step of child."""

    child: int
    parent: int
    rule: Rule | ReducedRule


@dataclass(frozen=True)
class Tree:
    """A finite backward expansion, deterministic for given root and caps.

    `nodes` is ascending, `edges` is sorted by (child, parent).
    `suppressed_edges` records the limit-cycle edges cut during
    construction (the backward edge closing the 1-2 cycle in full flavor,
    the Q2 self-loop at 2 in reduced flavor).
    """

    flavor: TreeFlavor
    root: int
    max_depth: int | None
    max_value: int | None
    nodes: tuple[int, ...]
    edges: tuple[Edge, ...]
    suppressed_edges: tuple[Edge, ...]


def _closes_limit_cycle(flavor: TreeFlavor, child: int, parent: int, nodes: set[int]) -> bool:
    if flavor is TreeFlavor.FULL:
        return child in nodes and {child, parent} == {1, 2}
    return child == parent


def build_tree(
    flavor: TreeFlavor,
    root: int,
    max_depth: int | None = None,
    max_value: int | None = None,
) -> Tree:
    """Expand backward from `root` breadth-first, within the given caps.

    A predecessor is admitted iff it respects the value cap, lies within
    the depth cap, is not already present, and does not close the known
    limit cycle.  Expansion is breadth-first with ascending tie-break, so
    node and edge enumeration is deterministic.  None means no cap, but
    at least one cap must be set: every node's even predecessor is new, so
    an uncapped expansion never ends.
    """
    if flavor is TreeFlavor.REDUCED:
        if residue_class(root) is not ResidueClass.C2:
            raise ValueError(f"reduced trees are rooted in class C2, got {root}")
        expand = reduced_predecessors
    else:
        if root < 1:
            raise ValueError(f"tree root must be >= 1, got {root}")
        expand = predecessors
    if max_depth is not None and max_depth < 0:
        raise ValueError(f"max_depth must be >= 0, got {max_depth}")
    if max_depth is None and max_value is None:
        raise ValueError("need max_depth and/or max_value: an uncapped tree is infinite")
    if max_value is not None and max_value < root:
        raise ValueError(f"max_value {max_value} excludes the root {root}")

    nodes = {root}
    edges: list[Edge] = []
    suppressed: list[Edge] = []
    frontier = [root]
    depth = 0
    while frontier and (max_depth is None or depth < max_depth):
        depth += 1
        next_frontier: list[int] = []
        for parent in sorted(frontier):
            for child, rule in expand(parent):
                if _closes_limit_cycle(flavor, child, parent, nodes):
                    suppressed.append(Edge(child, parent, rule))
                    continue
                if child in nodes:
                    continue
                if max_value is not None and child > max_value:
                    continue
                nodes.add(child)
                edges.append(Edge(child, parent, rule))
                next_frontier.append(child)
        frontier = next_frontier

    return Tree(
        flavor=flavor,
        root=root,
        max_depth=max_depth,
        max_value=max_value,
        nodes=tuple(sorted(nodes)),
        edges=tuple(sorted(edges, key=lambda e: (e.child, e.parent))),
        suppressed_edges=tuple(sorted(suppressed, key=lambda e: (e.child, e.parent))),
    )


def export_dot(tree: Tree) -> str:
    """Serialize to DOT: one node per value, one edge child -> parent per rule.

    Output is deterministic: nodes ascending, edges ordered by child.
    """
    lines = ["digraph collatz_tree {"]
    for n in tree.nodes:
        lines.append(f'  {n} [label="{n}"];')
    for e in tree.edges:
        lines.append(f'  {e.child} -> {e.parent} [label="{e.rule.name}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _json_list(items: list[str]) -> str:
    """A list at depth 1 of the `json.dumps(doc, indent=2)` layout, items pre-rendered."""
    return "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"


def _json_edges(edges: tuple[Edge, ...]) -> str:
    return _json_list([
        f'    {{\n      "child": {e.child},\n      "parent": {e.parent},\n'
        f'      "rule": "{e.rule.name}"\n    }}'
        for e in edges
    ])


def export_json(tree: Tree) -> str:
    """Serialize to JSON; `tree_from_json` round-trips losslessly.

    The bytes are those of `json.dumps(doc, indent=2) + "\n"`; the node and
    edge lists are written directly rather than through the encoder.
    """
    head = json.dumps({
        "schema_version": SCHEMA_VERSION,
        "flavor": tree.flavor.value,
        "root": tree.root,
        "limits": {"max_depth": tree.max_depth, "max_value": tree.max_value},
    }, indent=2)
    return (  # head[:-2] drops the closing "\n}" so the lists can follow
        f'{head[:-2]},\n  "nodes": {_json_list([f"    {n}" for n in tree.nodes])},\n'
        f'  "edges": {_json_edges(tree.edges)},\n'
        f'  "suppressed_edges": {_json_edges(tree.suppressed_edges)}\n}}\n'
    )


def tree_from_json(text: str) -> Tree:
    """Parse the export_json format back into a Tree."""
    doc = json.loads(text)
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(f"unsupported tree schema_version: {version!r}")
    flavor = TreeFlavor(doc["flavor"])
    rule_type = Rule if flavor is TreeFlavor.FULL else ReducedRule

    def edges_of(key: str) -> tuple[Edge, ...]:
        return tuple(
            Edge(int(e["child"]), int(e["parent"]), rule_type[e["rule"]])
            for e in doc[key]
        )

    limits = doc["limits"]
    return Tree(
        flavor=flavor,
        root=int(doc["root"]),
        max_depth=limits["max_depth"],
        max_value=limits["max_value"],
        nodes=tuple(int(n) for n in doc["nodes"]),
        edges=edges_of("edges"),
        suppressed_edges=edges_of("suppressed_edges"),
    )
