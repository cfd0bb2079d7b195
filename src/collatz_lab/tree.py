"""Backward expansion of the Collatz graph into trees, with DOT/JSON export.

Full flavor grows from a root by inverting the forward map: every node has
its doubling predecessor, and C2 nodes also have the odd one.  Reduced
flavor grows inside class C2 by inverting the reduced map.  The known
limit cycles (1-2 under the full map, the self-loop at 2 under the reduced
map) are cut during construction so the result really is a tree; the cut
edges are kept as metadata rather than discarded.

The layer works on columns.  A build keeps one map child -> parent and
carries no rule: the rule that sends a child to its parent is fixed by the
child mod 4 in both flavors, the limit-cycle edges included, and is read
off the child as `trajectory._walk` reads it.  Edges are made from the
child, parent and rule columns in one pass, and the exports and the parse
work on those columns.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from itertools import repeat
from operator import and_, itemgetter, lt, mod
from typing import NamedTuple

from .core_map import ReducedRule, ResidueClass, Rule, residue_class
from .facts import SCHEMA_VERSION, require_ints
from .trajectory import _REDUCED_RULES, _RULES


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


#: Each flavor's rule at a child c, by c mod 4.
_RULES_AT = {TreeFlavor.FULL: _RULES, TreeFlavor.REDUCED: _REDUCED_RULES}

#: Each flavor's limit-cycle edges: a tree has at most one of them cut.
_CYCLE_EDGES = {
    TreeFlavor.FULL: (Edge(1, 2, Rule.R2), Edge(2, 1, Rule.R1)),
    TreeFlavor.REDUCED: (Edge(2, 2, ReducedRule.Q2),),
}


def _rules(flavor: TreeFlavor, children):
    """The rule column of `children`, `_RULES_AT[flavor][c & 3]` for each c."""
    return map(_RULES_AT[flavor].__getitem__, map(and_, children, repeat(3)))


def _edges(children, parents, rules) -> tuple[Edge, ...]:
    """Edges from their columns in one pass, without an `Edge(...)` call per edge."""
    return tuple(map(tuple.__new__, repeat(Edge), zip(children, parents, rules)))


def _check_caps(flavor: TreeFlavor, root: int, max_depth: int | None, max_value: int | None):
    """The root and caps `build_tree` accepts; anything else raises ValueError."""
    if flavor is TreeFlavor.REDUCED:
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
    child -> parent holds the nodes and the edges; listing it by child
    gives both in order, and the rules are read off the children.
    """
    _check_caps(flavor, root, max_depth, max_value)
    reduced = flavor is TreeFlavor.REDUCED
    cap = math.inf if max_value is None else max_value
    levels = math.inf if max_depth is None else max_depth
    parent_of: dict[int, int | None] = {root: None}
    cut: list[tuple[int, int]] = []
    frontier = [root]
    depth = 0
    while frontier and depth < levels:
        depth += 1
        found: list[int] = []
        for p in frontier:  # `predecessors` and `reduced_predecessors`, inline
            if reduced:
                r = p % 9  # (4p-2)/3 is in C2 iff p = 2 (mod 9), (2p-1)/3 iff p = 8
                if r == 2:
                    kids = (4 * p, (4 * p - 2) // 3)
                elif r == 8:
                    kids = (4 * p, (2 * p - 1) // 3)
                else:
                    kids = (4 * p,)
            elif p % 3 == 2:
                kids = (2 * p, (2 * p - 1) // 3)
            else:
                kids = (2 * p,)
            for c in kids:
                if c in parent_of:
                    if c == p or c + p == 3:  # 2-2 (reduced map) or 1-2 (full map)
                        cut.append((c, p))
                elif c <= cap:
                    parent_of[c] = p
                    found.append(c)
        frontier = found

    nodes = sorted(parent_of)
    children = nodes.copy()
    children.remove(root)
    edges = _edges(children, map(parent_of.__getitem__, children), _rules(flavor, children))
    # At most one suppressed edge: the limit cycle closes once.
    suppressed = tuple([Edge(c, p, _RULES_AT[flavor][c & 3]) for c, p in cut])
    return Tree(flavor, root, max_depth, max_value, tuple(nodes), edges, suppressed)


def export_dot(tree: Tree) -> str:
    """Serialize to DOT: one node per value, one edge child -> parent per rule.

    Output is deterministic: nodes ascending, edges ordered by child.
    """
    return "".join([
        "digraph collatz_tree {\n",
        *[f'  {n} [label="{n}"];\n' for n in tree.nodes],
        *[f'  {c} -> {p} [label="{r._name_}"];\n' for c, p, r in tree.edges],
        "}\n",
    ])


def _json_list(items: list[str]) -> str:
    """A list at depth 1 of the `json.dumps(doc, indent=2)` layout, items pre-rendered."""
    return "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"


def _json_edges(edges: tuple[Edge, ...]) -> str:
    return _json_list([
        f'    {{\n      "child": {c},\n      "parent": {p},\n      "rule": "{r._name_}"\n    }}'
        for c, p, r in edges
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

_CHILD, _PARENT, _RULE = map(itemgetter, ("child", "parent", "rule"))


def _columns(items, names: _RuleNames) -> tuple[tuple, tuple, tuple]:
    """The child, parent and rule columns of a document's edge list.

    One pass per column: a pass that takes all three fields at once makes
    a tuple per edge, and those short-lived tuples set off more full
    garbage collections than the columns save.
    """
    return (
        tuple(map(_CHILD, items)),
        tuple(map(_PARENT, items)),
        tuple(map(names.__getitem__, map(_RULE, items))),
    )


def _images(flavor: TreeFlavor, children: tuple[int, ...]) -> tuple[int, ...]:
    """Each child's forward step under the flavor's map (`step` or `reduced_step`)."""
    if flavor is TreeFlavor.REDUCED:
        return tuple([(3 * c + 1) >> 1 if c & 1 else (3 * c + 2) >> 2 if c & 2 else c >> 2
                      for c in children])
    return tuple([(3 * c + 1) >> 1 if c & 1 else c >> 1 for c in children])


def _check_tree(
    flavor: TreeFlavor,
    root: int,
    max_value: int | None,
    nodes: tuple[int, ...],
    columns: tuple[tuple, tuple, tuple],
    suppressed: tuple[Edge, ...],
) -> None:
    """Raise ValueError unless the parsed columns have the shape of a `build_tree` result.

    The nodes strictly ascend from 1 up, hold the root, stay within
    `max_value` and, in reduced flavor, lie in class C2.  The edge children
    are the nodes other than the root, in order.  Each parent is its
    child's forward step and a node, and each rule is the one the map fires
    at the child.  At most one edge is cut, and it is a limit-cycle edge;
    no regular edges close that cycle.  So following parents from a
    node walks its orbit, which ends at the root (an unknown cycle aside).
    The caps are not re-applied beyond `max_value`: a tree cut short, or
    deeper than `max_depth`, still passes.
    """
    children, parents, rules = columns
    if not all(map(lt, nodes, nodes[1:])):
        raise ValueError("tree nodes do not strictly ascend")
    i = bisect_left(nodes, root)
    if nodes[i : i + 1] != (root,):
        raise ValueError(f"tree nodes do not include the root {root}")
    if nodes[0] < 1:
        raise ValueError(f"tree node {nodes[0]} is not a positive integer")
    if max_value is not None and nodes[-1] > max_value:
        raise ValueError(f"tree node {nodes[-1]} exceeds max_value {max_value}")
    if flavor is TreeFlavor.REDUCED and {*map(mod, nodes, repeat(3))} != {2}:
        raise ValueError("reduced tree nodes lie outside class C2")
    if children != nodes[:i] + nodes[i + 1 :]:
        raise ValueError("tree edge children are not the nodes other than the root, in order")
    images = _images(flavor, children)
    if parents != images:
        c, p, q = next(e for e in zip(children, parents, images) if e[1] != e[2])
        raise ValueError(f"tree edge {c} -> {p}: the map sends {c} to {q}")
    want = tuple(_rules(flavor, children))
    if rules != want:
        c, r, w = next(e for e in zip(children, rules, want) if e[1] is not e[2])
        raise ValueError(f"tree edge from {c} has rule {r._name_}, but the map fires {w._name_}")
    if missing := set(parents).difference(nodes):
        raise ValueError(f"tree edge parent {min(missing)} is not a node")
    cycle = _CYCLE_EDGES[flavor]
    if len(suppressed) > 1:
        raise ValueError(f"a tree cuts at most one limit-cycle edge, got {len(suppressed)}")
    # The cycle's values are 1 and 2, so its edges and nodes come first.
    if suppressed and (suppressed[0] not in cycle or not {*suppressed[0][:2]} <= {*nodes[:2]}):
        raise ValueError(f"suppressed edge {suppressed[0][:2]} is not a limit-cycle edge")
    if _edges(children[: len(cycle)], parents, rules) == cycle:
        raise ValueError("regular tree edges close the limit cycle")


def tree_from_json(text: str) -> Tree:
    """Parse the export_json format back into a Tree.

    Anything else raises ValueError with a message: a top level that is
    not an object, a missing key, a rule name of the other flavor, a root,
    limit, node or edge value that is not an integer, caps `build_tree`
    refuses, or nodes and edges that do not form a tree of the flavor (see
    `_check_tree`).  The edge lists are read as child, parent and rule
    columns, and the checks compare whole columns.
    """
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError(f"a tree document is a JSON object, got {type(doc).__name__}")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(f"unsupported tree schema_version: {version!r}")
    try:
        flavor = TreeFlavor(doc["flavor"])
        names = _RULES_BY_NAME[flavor]
        root, limits, nodes = doc["root"], doc["limits"], tuple(doc["nodes"])
        max_depth, max_value = limits["max_depth"], limits["max_value"]
        columns, cut_columns = (_columns(doc[k], names) for k in ("edges", "suppressed_edges"))
    except KeyError as exc:
        raise ValueError(f"tree document has no {exc} key") from None
    except TypeError as exc:
        raise ValueError(f"malformed tree document: {exc}") from None
    require_ints("tree root", [root])
    require_ints("tree limits", [v for v in (max_depth, max_value) if v is not None])
    require_ints("tree nodes", nodes)
    require_ints("tree edges", columns[0] + columns[1] + cut_columns[0] + cut_columns[1])
    suppressed = _edges(*cut_columns)
    _check_caps(flavor, root, max_depth, max_value)
    _check_tree(flavor, root, max_value, nodes, columns, suppressed)
    return Tree(flavor, root, max_depth, max_value, nodes, _edges(*columns), suppressed)
