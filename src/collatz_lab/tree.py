"""Backward expansion of the Collatz graph into trees, with DOT/JSON export.

Full flavor grows from a root by inverting the forward map: every node has
its doubling predecessor, and C2 nodes also have the odd one.  Reduced
flavor grows inside class C2 by inverting the reduced map.  The known
limit cycles (1-2 under the full map, the self-loop at 2 under the reduced
map) are cut during construction so the result really is a tree; the cut
edges are kept as metadata rather than discarded.

A tree stores its nodes only.  Every node but the root has one parent,
its forward step, and the rule on that edge is fixed by the child mod 4 in
both flavors, the limit-cycle edges included (it is read off the child as
`trajectory._walk` reads it).  So the edges are a function of the nodes:
the build expands one level at a time and keeps no edge, and the exports
render the child, parent and rule columns.  The parse builds the tree of
the document's flavor, root and caps again and compares the two: a text in
`export_json`'s own layout is compared byte for byte with the export of the
build, with only its header and node list decoded, and any other text is
decoded whole and compared field by field.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from enum import Enum
from itertools import repeat, zip_longest
from operator import and_, itemgetter, lt
from typing import NamedTuple

from .core_map import REDUCED_RULE_AT, RULE_AT, ReducedRule, ResidueClass, Rule, residue_class
from .report import SCHEMA_VERSION, read_document, require_ints


class TreeFlavor(Enum):
    FULL = "full"
    REDUCED = "reduced"


class Edge(NamedTuple):
    """A tree edge pointing toward the root: parent is the forward-step of child."""

    child: int
    parent: int
    rule: Rule | ReducedRule


class Tree(NamedTuple):
    """A finite backward expansion, deterministic for given root and caps.

    `nodes` is ascending.  `suppressed_edges` records the limit-cycle edges
    cut during construction (the backward edge closing the 1-2 cycle in
    full flavor, the Q2 self-loop at 2 in reduced flavor).  `edges` is not
    stored: it is derived from the nodes on each read, so equality,
    hashing and `repr` go by the stored fields alone.
    """

    flavor: TreeFlavor
    root: int
    max_depth: int | None
    max_value: int | None
    nodes: tuple[int, ...]
    suppressed_edges: tuple[Edge, ...]

    @property
    def edges(self) -> tuple[Edge, ...]:
        """Each node other than the root to its forward step, sorted by child.

        Made from the columns in one pass, without an `Edge(...)` call per edge.
        """
        return tuple(map(tuple.__new__, repeat(Edge), zip(*_columns_of(self))))


#: Each flavor's rule at a child c, by c mod 4.
_RULES_AT = {TreeFlavor.FULL: RULE_AT, TreeFlavor.REDUCED: REDUCED_RULE_AT}


def _rules(table, children):
    """The rule column of `children`, `table[c & 3]` for each c: rules or their names."""
    return map(table.__getitem__, map(and_, children, repeat(3)))


def _columns_of(tree: Tree):
    """The child, parent and rule columns of a tree's edges: its nodes other than the root."""
    i = bisect_left(tree.nodes, tree.root)
    children = tree.nodes[:i] + tree.nodes[i + 1 :]
    return children, _images(tree.flavor, children), _rules(_RULES_AT[tree.flavor], children)


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
    """Expand backward from `root` one level at a time, within the given caps.

    A predecessor is admitted iff it respects the value cap, lies within
    the depth cap, is not already present, and does not close the known
    limit cycle.  None means no cap, but at least one cap must be set:
    every node's even predecessor is new, so an uncapped expansion never
    ends.  Every value has one forward step, so a level can repeat only the
    root, when the root's orbit has come back to it; that is the one
    membership test.
    """
    nodes, cut = _grow(flavor, root, max_depth, max_value)
    nodes.sort()
    return Tree(flavor, root, max_depth, max_value, tuple(nodes), cut)


def _grow(flavor: TreeFlavor, root: int, max_depth: int | None, max_value: int | None,
          most: float = math.inf) -> tuple[list[int], tuple[Edge, ...]]:
    """`build_tree`'s level loop: the nodes in the order found, and the suppressed edges.

    The loop stops after the first level that brings the nodes' total bit
    length past `most`.  A node's predecessors have at most 3.5 times its bit
    length between them, so the nodes then hold at most 4.5 * `most` bits (or
    are the root alone), whatever the caps.
    """
    _check_caps(flavor, root, max_depth, max_value)
    cap = math.inf if max_value is None else max_value
    levels = math.inf if max_depth is None else max_depth
    nodes, frontier, cut, depth, size = [root], [root], [], 0, root.bit_length()
    while frontier and depth < levels and size <= most:
        depth += 1
        # `predecessors` and `reduced_predecessors` within the value cap, a level at
        # a time.  Reduced flavor: (4p-2)/3 is in C2 iff p = 2 (mod 9), and (2p-1)/3
        # iff p = 8.  (2p-1)/3 is below p, so it is within the cap whenever p is.
        if flavor is TreeFlavor.REDUCED:
            kids = [4 * p for p in frontier if 4 * p <= cap]
            kids += [(4 * p - 2) // 3 for p in frontier if p % 9 == 2 and (4 * p - 2) // 3 <= cap]
            kids += [(2 * p - 1) // 3 for p in frontier if p % 9 == 8]
        else:
            kids = [2 * p for p in frontier if 2 * p <= cap]
            kids += [(2 * p - 1) // 3 for p in frontier if p % 3 == 2]
        if root in kids:
            kids.remove(root)
            (p,) = _images(flavor, (root,))
            if root == p or root + p == 3:  # 2-2 (reduced map) or 1-2 (full map)
                cut.append(Edge(root, p, _RULES_AT[flavor][root & 3]))
        nodes += kids
        size += sum(map(int.bit_length, kids))
        frontier = kids
    # At most one suppressed edge: the limit cycle closes once.
    return nodes, tuple(cut)


def export_dot(tree: Tree) -> str:
    """Serialize to DOT: one node per value, one edge child -> parent per rule.

    Output is deterministic: nodes ascending, edges ordered by child.
    """
    return "".join([
        "digraph collatz_tree {\n",
        *[f'  {s} [label="{s}"];\n' for s in map(str, tree.nodes)],
        *[f'  {c} -> {p} [label="{r._name_}"];\n' for c, p, r in zip(*_columns_of(tree))],
        "}\n",
    ])


def _json_list(items: list[str]) -> str:
    """A list at depth 1 of the `json.dumps(doc, indent=2)` layout, items pre-rendered."""
    return "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"


def _json_edges(edges) -> str:
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
        f'  "edges": {_json_edges(zip(*_columns_of(tree)))},\n'
        f'  "suppressed_edges": {_json_edges(tree.suppressed_edges)}\n}}\n'
    )


def _images(flavor: TreeFlavor, children: tuple[int, ...]) -> tuple[int, ...]:
    """Each child's forward step under the flavor's map (`step` or `reduced_step`)."""
    if flavor is TreeFlavor.REDUCED:
        return tuple([(3 * c + 1) >> 1 if c & 1 else (3 * c + 2) >> 2 if c & 2 else c >> 2
                      for c in children])
    return tuple([(3 * c + 1) >> 1 if c & 1 else c >> 1 for c in children])


def tree_from_json(text: str) -> Tree:
    """Parse the export_json format back into a Tree.

    Anything else raises ValueError with a message.  A top level that is
    not an object, a missing key, a root, limit, node or edge value that is
    not an integer, and caps `build_tree` refuses fail first.  Then the tree
    of the document's flavor, root and caps is built again, and the
    document's nodes, edges and suppressed edges must be the build's: the
    message names the first node or edge where the two differ (a rule name
    of the other flavor is such an edge).  The build stops once its nodes
    hold more bits than the document's, so a document costs time and memory
    in proportion to its own size, whatever caps it claims.

    A str in `export_json`'s own layout is first read as such: only its
    header and node list are decoded, and the build is returned if its
    export is the text, byte for byte.  Any other text, compact or
    re-indented JSON and `bytes` included, is decoded whole and checked
    field by field as above.  A text that is the export of a build passes
    that check too, with the same Tree, so the two reads differ in cost
    alone.
    """
    if isinstance(text, str) and (tree := _exported(text)) is not None:
        return tree
    doc = read_document(text, "tree")
    try:
        flavor = TreeFlavor(doc["flavor"])
        root, limits, nodes = doc["root"], doc["limits"], tuple(doc["nodes"])
        max_depth, max_value = limits["max_depth"], limits["max_value"]
        # The child, parent and rule columns of each edge list, one pass per column: a
        # pass that takes all three fields at once makes a tuple per edge, and those
        # short-lived tuples set off more garbage collections than the columns save.
        edges, cut = ([tuple(map(itemgetter(f), doc[k])) for f in ("child", "parent", "rule")]
                      for k in ("edges", "suppressed_edges"))
    except KeyError as exc:
        raise ValueError(f"tree document has no {exc} key") from None
    except TypeError as exc:
        raise ValueError(f"malformed tree document: {exc}") from None
    del doc  # a full garbage collection during the rebuild would walk every edge dict
    require_ints("tree root", [root])
    require_ints("tree limits", [v for v in (max_depth, max_value) if v is not None])
    require_ints("tree nodes", nodes)
    require_ints("tree edges", edges[0] + edges[1] + cut[0] + cut[1])
    built, suppressed = _grow(flavor, root, max_depth, max_value, sum(map(int.bit_length, nodes)))
    # The build's nodes are distinct, so ascending nodes of the same count that
    # it holds are its nodes in order.
    have = set(built)
    if len(nodes) != len(built) or not have.issuperset(nodes) or not all(map(lt, nodes, nodes[1:])):
        # A node the build has and the document lacks comes first: a build that stopped
        # early has one, as its nodes hold more bits than the document's, while nodes
        # past where it stopped may still be the tree's.
        if lack := have.difference(nodes):
            raise ValueError(f"tree node {min(lack)}: the build has it, the document does not")
        if extra := set(nodes).difference(have):
            raise ValueError(f"tree node {min(extra)}: the document has it, the build does not")
        raise ValueError("tree nodes do not strictly ascend")
    # Edges and suppressed edges alike go from a child to its forward step by its rule.
    names = tuple(r._name_ for r in _RULES_AT[flavor])
    i = bisect_left(nodes, root)
    for what, got, children in (("tree edge", edges, nodes[:i] + nodes[i + 1 :]),
                                ("suppressed edge", cut, tuple(e.child for e in suppressed))):
        want = [children, _images(flavor, children), tuple(_rules(names, children))]
        if got != want:
            g, w = next(pair for pair in zip_longest(zip(*got), zip(*want)) if pair[0] != pair[1])
            raise ValueError(f"{what}: the document has {g or 'none'} "
                             f"where the build has {w or 'none'}")
    return Tree(flavor, root, max_depth, max_value, nodes, suppressed)


def _exported(text: str) -> Tree | None:
    """The tree whose `export_json` is `text`, byte for byte, or None.

    The header before the node list is decoded for the flavor, root and
    caps, whose values must be exact ints (or null caps) as in
    `tree_from_json`, and the node list for the bits of the document's
    nodes, which bound the build as there.  A text this refuses, a
    malformed one included, is left to `tree_from_json`'s field-by-field
    check, which names what is wrong.
    """
    key = ',\n  "nodes": '
    head = text.find(key)
    tail = text.find(',\n  "edges": ', head)
    if head < 0 or tail < 0:
        return None
    try:
        doc = read_document(text[:head] + "\n}", "tree")
        flavor, root, limits = TreeFlavor(doc["flavor"]), doc["root"], doc["limits"]
        max_depth, max_value = limits["max_depth"], limits["max_value"]
        require_ints("tree root", [root])
        require_ints("tree limits", [v for v in (max_depth, max_value) if v is not None])
        bits = sum(map(int.bit_length, json.loads(text[head + len(key) : tail])))
        nodes, cut = _grow(flavor, root, max_depth, max_value, bits)
    except (KeyError, TypeError, ValueError):
        return None
    nodes.sort()
    tree = Tree(flavor, root, max_depth, max_value, tuple(nodes), cut)
    return tree if export_json(tree) == text else None
