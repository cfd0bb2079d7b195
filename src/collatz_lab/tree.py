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
import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .core_map import ReducedRule, ResidueClass, Rule, residue_class
from .facts import SCHEMA_VERSION, require_ints


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


def build_tree(
    flavor: TreeFlavor,
    root: int,
    max_depth: int | None = None,
    max_value: int | None = None,
) -> Tree:
    """Expand backward from `root` breadth-first, within the given caps.

    A predecessor is admitted iff it respects the value cap, lies within
    the depth cap, is not already present, and does not close the known
    limit cycle.  None means no cap, but at least one cap must be set:
    every node's even predecessor is new, so an uncapped expansion never
    ends.  Every node has one parent, its forward step, so one dict
    child -> Edge holds the nodes and the edges, and listing it by child
    gives both in order.
    """
    reduced = flavor is TreeFlavor.REDUCED
    if reduced:
        if residue_class(root) is not ResidueClass.C2:
            raise ValueError(f"reduced trees are rooted in class C2, got {root}")
    elif root < 1:
        raise ValueError(f"tree root must be >= 1, got {root}")
    if max_depth is not None and max_depth < 0:
        raise ValueError(f"max_depth must be >= 0, got {max_depth}")
    if max_depth is None and max_value is None:
        raise ValueError("need max_depth and/or max_value: an uncapped tree is infinite")
    if max_value is not None and max_value < root:
        raise ValueError(f"max_value {max_value} excludes the root {root}")

    cap = math.inf if max_value is None else max_value
    levels = math.inf if max_depth is None else max_depth
    links: dict[int, Edge | None] = {root: None}
    suppressed: list[Edge] = []
    frontier = [root]
    depth = 0
    while frontier and depth < levels:
        depth += 1
        found: list[int] = []
        for p in frontier:  # `predecessors` and `reduced_predecessors`, inline
            if reduced:
                r = p % 9  # (4p-2)/3 is in C2 iff p = 2 (mod 9), (2p-1)/3 iff p = 8
                if r == 2:
                    kids = ((4 * p, ReducedRule.Q1), ((4 * p - 2) // 3, ReducedRule.Q2))
                elif r == 8:
                    kids = ((4 * p, ReducedRule.Q1), ((2 * p - 1) // 3, ReducedRule.Q3))
                else:
                    kids = ((4 * p, ReducedRule.Q1),)
            elif p % 3 == 2:
                kids = ((2 * p, Rule.R1), ((2 * p - 1) // 3, Rule.R2))
            else:
                kids = ((2 * p, Rule.R1),)
            for c, rule in kids:
                if c in links:
                    if c == p or c + p == 3:  # 2-2 (reduced map) or 1-2 (full map)
                        suppressed.append(Edge(c, p, rule))
                elif c <= cap:
                    links[c] = Edge(c, p, rule)
                    found.append(c)
        frontier = found

    nodes = sorted(links)
    edges = tuple(filter(None, map(links.get, nodes)))  # the root's entry is None
    # At most one suppressed edge: the limit cycle closes once.
    return Tree(flavor, root, max_depth, max_value, tuple(nodes), edges, tuple(suppressed))


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


class _RuleNames(dict):
    """One flavor's rules by name; an unknown name raises ValueError, not KeyError."""

    def __missing__(self, name):
        raise ValueError(f"unknown rule name {name!r} in a tree of this flavor")


_RULES_BY_NAME = {
    TreeFlavor.FULL: _RuleNames({r.name: r for r in Rule}),
    TreeFlavor.REDUCED: _RuleNames({r.name: r for r in ReducedRule}),
}


def tree_from_json(text: str) -> Tree:
    """Parse the export_json format back into a Tree.

    Anything else raises ValueError with a message: a top level that is
    not an object, a missing key, a rule name of the other flavor, or a
    root, limit, node or edge value that is not an integer.
    """
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError(f"a tree document is a JSON object, got {type(doc).__name__}")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(f"unsupported tree schema_version: {version!r}")
    try:
        flavor = TreeFlavor(doc["flavor"])
        rules = _RULES_BY_NAME[flavor]
        root, limits, nodes = doc["root"], doc["limits"], tuple(doc["nodes"])
        max_depth, max_value = limits["max_depth"], limits["max_value"]
        edges, suppressed = (
            tuple([Edge(e["child"], e["parent"], rules[e["rule"]]) for e in doc[key]])
            for key in ("edges", "suppressed_edges")
        )
    except KeyError as exc:
        raise ValueError(f"tree document has no {exc} key") from None
    except TypeError as exc:
        raise ValueError(f"malformed tree document: {exc}") from None
    every_edge = edges + suppressed
    require_ints("tree root", [root])
    require_ints("tree limits", [v for v in (max_depth, max_value) if v is not None])
    require_ints("tree nodes", nodes)
    require_ints("tree edges", [e.child for e in every_edge] + [e.parent for e in every_edge])
    return Tree(flavor, root, max_depth, max_value, nodes, edges, suppressed)
