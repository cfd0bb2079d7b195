"""Unit tests for backward tree construction and DOT/JSON export."""

import json
import pickle
from typing import NamedTuple

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from collatz_lab.core_map import (
    ReducedRule,
    ResidueClass,
    Rule,
    predecessors,
    reduced_predecessors,
    reduced_step,
    residue_class,
    step,
)
from collatz_lab.facts import SCHEMA_VERSION
from collatz_lab.tree import (
    Edge,
    Tree,
    TreeFlavor,
    build_tree,
    export_dot,
    export_json,
    tree_from_json,
)


def reference_export_json(tree: Tree) -> str:
    """The document through the stdlib encoder, which `export_json` writes directly."""

    def edge_dicts(edges):
        return [{"child": e.child, "parent": e.parent, "rule": e.rule.name} for e in edges]

    doc = {
        "schema_version": SCHEMA_VERSION,
        "flavor": tree.flavor.value,
        "root": tree.root,
        "limits": {"max_depth": tree.max_depth, "max_value": tree.max_value},
        "nodes": list(tree.nodes),
        "edges": edge_dicts(tree.edges),
        "suppressed_edges": edge_dicts(tree.suppressed_edges),
    }
    return json.dumps(doc, indent=2) + "\n"


def reference_export_dot(tree: Tree) -> str:
    """The per-line DOT writer that `export_dot` replaces with two f-string comprehensions."""
    lines = ["digraph collatz_tree {"]
    for n in tree.nodes:
        lines.append(f'  {n} [label="{n}"];')
    for e in tree.edges:
        lines.append(f'  {e.child} -> {e.parent} [label="{e.rule.name}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


class ReferenceTree(NamedTuple):
    """The reference build's record: every field of a `Tree`, with the edges it found stored."""

    flavor: TreeFlavor
    root: int
    max_depth: int | None
    max_value: int | None
    nodes: tuple
    edges: tuple
    suppressed_edges: tuple


def reference_build_tree(flavor, root, max_depth=None, max_value=None) -> ReferenceTree:
    """Breadth-first expansion through `predecessors`/`reduced_predecessors`.

    The body `build_tree` replaces with level-wide arithmetic and no edge
    list: frontiers in ascending order, a node set, an edge list with each
    rule taken from the predecessor function, sorted at the end.
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

    def closes_limit_cycle(child, parent, nodes):
        if flavor is TreeFlavor.FULL:
            return child in nodes and {child, parent} == {1, 2}
        return child == parent

    nodes = {root}
    edges = []
    suppressed = []
    frontier = [root]
    depth = 0
    while frontier and (max_depth is None or depth < max_depth):
        depth += 1
        next_frontier = []
        for parent in sorted(frontier):
            for child, rule in expand(parent):
                if closes_limit_cycle(child, parent, nodes):
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

    return ReferenceTree(
        flavor=flavor,
        root=root,
        max_depth=max_depth,
        max_value=max_value,
        nodes=tuple(sorted(nodes)),
        edges=tuple(sorted(edges, key=lambda e: (e.child, e.parent))),
        suppressed_edges=tuple(sorted(suppressed, key=lambda e: (e.child, e.parent))),
    )


@st.composite
def tree_args(draw):
    flavor = draw(st.sampled_from(TreeFlavor))
    if flavor is TreeFlavor.REDUCED:
        root = 3 * draw(st.integers(0, 666)) + 2
    else:
        root = draw(st.integers(1, 2000))
    max_depth = draw(st.one_of(st.none(), st.integers(0, 12)))
    max_value = draw(st.one_of(st.none(), st.integers(root, 5000)))
    assume(max_depth is not None or max_value is not None)
    return flavor, root, max_depth, max_value


class TestBuildAgainstPredecessorFunctions:
    """The inline build is the tree of the predecessor-function build, to the byte.

    Every field agrees, the derived edges included, so each edge is checked
    against the one `predecessors` found.  The exports are the bytes of the
    reference writers, and the tree survives a round trip through the
    structural checks of `tree_from_json`.
    """

    @settings(max_examples=300, deadline=None)
    @given(tree_args())
    @example((TreeFlavor.FULL, 1, None, 5000))  # suppressed (1, 2, R2)
    @example((TreeFlavor.FULL, 2, 12, None))  # suppressed (2, 1, R1)
    @example((TreeFlavor.FULL, 1, 1, None))  # the cycle edge lies past the depth cap
    @example((TreeFlavor.REDUCED, 2, None, 5000))  # suppressed (2, 2, Q2)
    @example((TreeFlavor.REDUCED, 2, 0, None))
    @example((TreeFlavor.REDUCED, 5, 12, 5000))
    def test_equal_trees_and_bytes(self, args):
        got, want = build_tree(*args), reference_build_tree(*args)
        assert tuple(getattr(got, field) for field in ReferenceTree._fields) == want
        assert export_json(got) == reference_export_json(want)
        assert export_dot(got) == reference_export_dot(want)
        assert tree_from_json(export_json(got)) == got

    def test_every_suppressed_edge(self):
        """The examples above reach each of the three limit-cycle edges."""
        cases = {
            (TreeFlavor.FULL, 1, None, 50): Edge(1, 2, Rule.R2),
            (TreeFlavor.FULL, 2, 3, None): Edge(2, 1, Rule.R1),
            (TreeFlavor.REDUCED, 2, None, 50): Edge(2, 2, ReducedRule.Q2),
        }
        for args, edge in cases.items():
            assert build_tree(*args).suppressed_edges == (edge,)
            assert reference_build_tree(*args).suppressed_edges == (edge,)


class TestDerivedEdges:
    """`edges` is derived from the stored fields and cached: it changes no comparison."""

    @settings(max_examples=100, deadline=None)
    @given(tree_args())
    def test_one_edge_per_node_but_the_root(self, args):
        tree = build_tree(*args)
        assert len(tree.edges) == len(tree.nodes) - 1

    @pytest.mark.parametrize("flavor, root", [(TreeFlavor.FULL, 1), (TreeFlavor.REDUCED, 2)])
    def test_no_edges_at_depth_zero(self, flavor, root):
        assert build_tree(flavor, root, max_depth=0).edges == ()

    @pytest.mark.parametrize("flavor, root", [(TreeFlavor.FULL, 1), (TreeFlavor.REDUCED, 2)])
    def test_parse_and_build_hash_alike(self, flavor, root):
        tree = build_tree(flavor, root, max_value=500)
        parsed = tree_from_json(export_json(tree))
        assert parsed == tree
        assert hash(parsed) == hash(tree)

    @pytest.mark.parametrize("read_first", [False, True])
    def test_pickle_round_trip(self, read_first):
        tree = build_tree(TreeFlavor.REDUCED, 2, max_value=2000)
        if read_first:
            tree.edges
        copy = pickle.loads(pickle.dumps(tree))
        assert copy == tree
        assert copy.edges == tree.edges

    def test_equal_whether_or_not_edges_were_read(self):
        a = build_tree(TreeFlavor.FULL, 1, max_value=300)
        b = build_tree(TreeFlavor.FULL, 1, max_value=300)
        assert a.edges
        assert a == b and b == a
        assert hash(a) == hash(b)
        assert repr(a) == repr(b)


class TestBuildFull:
    def test_doubling_chain_within_cap_24(self):
        tree = build_tree(TreeFlavor.FULL, 1, max_value=24)
        assert {3, 6, 12, 24} <= set(tree.nodes)

    def test_depth_one_from_5(self):
        tree = build_tree(TreeFlavor.FULL, 5, max_depth=1)
        assert tree.nodes == (3, 5, 10)
        assert tree.edges == (
            Edge(3, 5, Rule.R2),
            Edge(10, 5, Rule.R1),
        )

    def test_limit_cycle_edge_suppressed_and_recorded(self):
        tree = build_tree(TreeFlavor.FULL, 1, max_value=16)
        assert tree.suppressed_edges == (Edge(1, 2, Rule.R2),)
        assert all(e.child != 1 for e in tree.edges)

    def test_forward_consistency(self):
        tree = build_tree(TreeFlavor.FULL, 1, max_value=500)
        for edge in tree.edges:
            assert step(edge.child) == (edge.parent, edge.rule)

    def test_expansion_is_complete_and_branching_follows_class(self):
        cap = 1000
        tree = build_tree(TreeFlavor.FULL, 1, max_value=cap)
        children = {n: [] for n in tree.nodes}
        for edge in tree.edges:
            children[edge.parent].append(edge.child)
        for parent in tree.nodes:
            expected = [
                y
                for y, _rule in predecessors(parent)
                if y <= cap and not (parent == 2 and y == 1)  # suppressed cycle edge
            ]
            assert sorted(children[parent]) == sorted(expected)
            if parent != 2:
                both_fit = all(y <= cap for y, _ in predecessors(parent))
                assert (len(children[parent]) == 2) == (
                    parent % 3 == 2 and both_fit
                )

    def test_coverage_matches_forward_simulation(self):
        # A value belongs to the cap-1000 tree rooted at 1 exactly when its
        # forward orbit reaches 1 without ever exceeding 1000.
        cap = 1000
        tree = build_tree(TreeFlavor.FULL, 1, max_value=cap)
        reach = set()
        for n in range(1, cap + 1):
            v, ok = n, True
            while v != 1:
                v, _rule = step(v)
                if v > cap:
                    ok = False
                    break
            if ok:
                reach.add(n)
        assert set(tree.nodes) == reach

    def test_single_node_when_depth_zero(self):
        tree = build_tree(TreeFlavor.FULL, 1, max_depth=0)
        assert tree.nodes == (1,)
        assert tree.edges == ()

    def test_deterministic(self):
        a = build_tree(TreeFlavor.FULL, 1, max_value=300)
        b = build_tree(TreeFlavor.FULL, 1, max_value=300)
        assert a == b


class TestBuildReduced:
    def test_cap_32(self):
        # Backward closure of 2 under the reduced inverses, capped at 32.
        tree = build_tree(TreeFlavor.REDUCED, 2, max_value=32)
        assert tree.nodes == (2, 5, 8, 11, 14, 17, 20, 26, 32)
        assert len(tree.edges) == 8
        assert tree.suppressed_edges == (Edge(2, 2, ReducedRule.Q2),)

    def test_cap_128_contains_named_rule_assignments(self):
        tree = build_tree(TreeFlavor.REDUCED, 2, max_value=128)
        assert {2, 5, 8, 11, 17, 20, 26, 32, 128} <= set(tree.nodes)
        rule_at = {e.child: e.rule for e in tree.edges}
        for n in (8, 20, 32, 128):
            assert rule_at[n] is ReducedRule.Q1
        assert rule_at[26] is ReducedRule.Q2
        for n in (5, 11, 17):
            assert rule_at[n] is ReducedRule.Q3
        # the root's own rule is the suppressed self-loop
        assert Edge(2, 2, ReducedRule.Q2) in tree.suppressed_edges

    def test_every_node_in_c2(self):
        tree = build_tree(TreeFlavor.REDUCED, 2, max_value=2000)
        assert all(n % 3 == 2 for n in tree.nodes)

    def test_forward_consistency(self):
        tree = build_tree(TreeFlavor.REDUCED, 2, max_value=2000)
        for edge in tree.edges:
            assert reduced_step(edge.child) == (edge.parent, edge.rule)


class TestDomainErrors:
    def test_reduced_root_outside_c2(self):
        with pytest.raises(ValueError):
            build_tree(TreeFlavor.REDUCED, 3, max_value=100)

    def test_nonpositive_root(self):
        with pytest.raises(ValueError):
            build_tree(TreeFlavor.FULL, 0, max_value=100)

    def test_value_cap_below_root(self):
        with pytest.raises(ValueError):
            build_tree(TreeFlavor.FULL, 5, max_value=4)

    def test_negative_depth(self):
        with pytest.raises(ValueError):
            build_tree(TreeFlavor.FULL, 1, max_depth=-1)

    @pytest.mark.parametrize("flavor, root", [(TreeFlavor.FULL, 1), (TreeFlavor.REDUCED, 2)])
    def test_no_cap(self, flavor, root):
        # Every node's even predecessor is new: without a cap the expansion never ends.
        with pytest.raises(ValueError, match="max_depth and/or max_value"):
            build_tree(flavor, root)


class TestExportDot:
    def test_single_node(self):
        dot = export_dot(build_tree(TreeFlavor.FULL, 1, max_depth=0))
        assert dot == 'digraph collatz_tree {\n  1 [label="1"];\n}\n'

    def test_edge_line_with_rule_label(self):
        dot = export_dot(build_tree(TreeFlavor.FULL, 5, max_depth=1))
        assert '10 -> 5 [label="R1"];' in dot
        assert '3 -> 5 [label="R2"];' in dot

    def test_byte_deterministic(self):
        t = build_tree(TreeFlavor.REDUCED, 2, max_value=128)
        assert export_dot(t) == export_dot(t)
        rebuilt = build_tree(TreeFlavor.REDUCED, 2, max_value=128)
        assert export_dot(t) == export_dot(rebuilt)


class TestExportJson:
    @pytest.mark.parametrize(
        "flavor, root, kwargs",
        [
            (TreeFlavor.FULL, 1, {"max_depth": 0}),  # root only: every list but nodes empty
            (TreeFlavor.REDUCED, 2, {"max_depth": 0}),
            (TreeFlavor.FULL, 1, {"max_value": 24}),
            (TreeFlavor.FULL, 1, {"max_depth": 9}),
            (TreeFlavor.FULL, 1, {"max_depth": 12, "max_value": 500}),
            (TreeFlavor.FULL, 5, {"max_depth": 8}),  # no suppressed edge
            (TreeFlavor.REDUCED, 2, {"max_value": 64}),
            (TreeFlavor.REDUCED, 2, {"max_depth": 6}),
            (TreeFlavor.REDUCED, 5, {"max_depth": 5, "max_value": 10**4}),  # no suppressed edge
            (TreeFlavor.REDUCED, 2, {"max_value": 10**4}),
        ],
    )
    def test_bytes_equal_the_stdlib_encoder(self, flavor, root, kwargs):
        tree = build_tree(flavor, root, **kwargs)
        assert export_json(tree) == reference_export_json(tree)

    def test_degenerate_tree_document(self):
        doc = json.loads(export_json(build_tree(TreeFlavor.FULL, 1, max_depth=0)))
        assert doc["flavor"] == "full"
        assert doc["root"] == 1
        assert doc["nodes"] == [1]
        assert doc["edges"] == []
        assert doc["schema_version"] == 1

    def test_byte_deterministic(self):
        t = build_tree(TreeFlavor.FULL, 1, max_value=100)
        assert export_json(t) == export_json(t)

    @pytest.mark.parametrize(
        "flavor, kwargs",
        [
            (TreeFlavor.REDUCED, {"max_value": 128}),
            (TreeFlavor.FULL, {"max_value": 24}),
            (TreeFlavor.FULL, {"max_depth": 6, "max_value": 1000}),
            (TreeFlavor.FULL, {"max_depth": 0}),  # root only: empty edge columns
            (TreeFlavor.REDUCED, {"max_depth": 0}),
        ],
    )
    def test_round_trip_lossless(self, flavor, kwargs):
        root = 2 if flavor is TreeFlavor.REDUCED else 1
        tree = build_tree(flavor, root, **kwargs)
        parsed = tree_from_json(export_json(tree))
        assert parsed == tree
        # Edges made from columns are Edges, not plain tuples that compare equal.
        for e in parsed.edges + parsed.suppressed_edges:
            assert type(e) is Edge
            assert (e.child, e.parent, e.rule) == tuple(e)

    def test_rejects_unknown_schema_version(self):
        text = export_json(build_tree(TreeFlavor.FULL, 1, max_depth=0))
        with pytest.raises(ValueError):
            tree_from_json(text.replace('"schema_version": 1', '"schema_version": 99'))


def _tree_doc():
    return json.loads(export_json(build_tree(TreeFlavor.FULL, 1, max_value=24)))


class TestMalformedDocument:
    """A document `export_json` cannot write raises ValueError with a message."""

    @pytest.mark.parametrize("text", ["[]", "3", '"tree"', "null"])
    def test_top_level_not_an_object(self, text):
        with pytest.raises(ValueError, match="a tree document is a JSON object"):
            tree_from_json(text)

    @pytest.mark.parametrize(
        "key", ["flavor", "root", "limits", "nodes", "edges", "suppressed_edges"]
    )
    def test_missing_key(self, key):
        doc = _tree_doc()
        del doc[key]
        with pytest.raises(ValueError, match=f"no '{key}' key"):
            tree_from_json(json.dumps(doc))

    @pytest.mark.parametrize("key", ["child", "parent", "rule"])
    def test_missing_edge_key(self, key):
        doc = _tree_doc()
        del doc["edges"][0][key]
        with pytest.raises(ValueError, match=f"no '{key}' key"):
            tree_from_json(json.dumps(doc))

    @pytest.mark.parametrize("key", ["child", "parent", "rule"])
    def test_missing_suppressed_edge_key(self, key):
        doc = _tree_doc()
        del doc["suppressed_edges"][0][key]
        with pytest.raises(ValueError, match=f"no '{key}' key"):
            tree_from_json(json.dumps(doc))

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda doc: doc.update(limits=[]),
            lambda doc: doc.update(edges=3),
            lambda doc: doc["edges"].__setitem__(0, [2, 1, "R1"]),
            lambda doc: doc["edges"][0].update(rule=["R1"]),
        ],
        ids=["limits-list", "edges-int", "edge-list", "rule-list"],
    )
    def test_wrong_container(self, mutate):
        doc = _tree_doc()
        mutate(doc)
        with pytest.raises(ValueError, match="malformed tree document"):
            tree_from_json(json.dumps(doc))

    @pytest.mark.parametrize("name", ["Q1", "Q2", "Q3", "R3", "r1"])
    def test_unknown_rule_name(self, name):
        doc = _tree_doc()
        doc["suppressed_edges"][0]["rule"] = name
        with pytest.raises(ValueError, match=f"unknown rule name '{name}'"):
            tree_from_json(json.dumps(doc))

    def test_full_rule_name_in_reduced_tree(self):
        doc = json.loads(export_json(build_tree(TreeFlavor.REDUCED, 2, max_value=32)))
        doc["edges"][0]["rule"] = "R1"
        with pytest.raises(ValueError, match="unknown rule name 'R1'"):
            tree_from_json(json.dumps(doc))

    @pytest.mark.parametrize(
        "value, kind",
        [(2.5, "float"), (2.0, "float"), (True, "bool"), ("2", "str"), (None, "NoneType")],
    )
    @pytest.mark.parametrize("where", ["child", "parent", "node", "root", "suppressed"])
    def test_non_integer_value(self, where, value, kind):
        """`int()` used to turn 2.5 into 2 and true into 1: the round trip was not lossless."""
        doc = _tree_doc()
        if where == "node":
            doc["nodes"][0] = value
            what = "nodes"
        elif where == "root":
            doc["root"] = value
            what = "root"
        elif where == "suppressed":
            doc["suppressed_edges"][0]["child"] = value
            what = "edges"
        else:
            doc["edges"][0][where] = value
            what = "edges"
        with pytest.raises(ValueError, match=f"non-integer tree {what}: {kind}$"):
            tree_from_json(json.dumps(doc))

    @pytest.mark.parametrize("value", [2.5, True, "3"])
    def test_non_integer_limit(self, value):
        doc = _tree_doc()
        doc["limits"]["max_value"] = value
        with pytest.raises(ValueError, match="non-integer tree limits"):
            tree_from_json(json.dumps(doc))

    def test_well_formed_document_still_parses(self):
        tree = build_tree(TreeFlavor.FULL, 1, max_value=24)
        assert tree_from_json(json.dumps(_tree_doc())) == tree


def _doc(flavor, root, **caps):
    return json.loads(export_json(build_tree(flavor, root, **caps)))


def _add(doc, *edges):
    """Add nodes with their edges, keeping both lists sorted as `export_json` writes them."""
    for child, parent, rule in edges:
        doc["nodes"].append(child)
        doc["edges"].append({"child": child, "parent": parent, "rule": rule})
    doc["nodes"].sort()
    doc["edges"].sort(key=lambda e: e["child"])
    return doc


def _edge_of(doc, child):
    return next(e for e in doc["edges"] if e["child"] == child)


def _set_limits(doc, **limits):
    doc["limits"].update(limits)
    return doc


def _structure_cases():
    """(document, message) pairs: each document breaks one structural rule."""
    full, reduced = TreeFlavor.FULL, TreeFlavor.REDUCED
    cases = {}
    doc = _tree_doc()  # the first three documents parsed before the structural checks
    _edge_of(doc, 2)["parent"] = 7
    cases["parent-1-to-7"] = doc, "tree edge 2 -> 7: the map sends 2 to 1"
    doc = _tree_doc()
    doc["nodes"].reverse()
    cases["nodes-reversed"] = doc, "tree nodes do not strictly ascend"
    doc = _tree_doc()
    doc["nodes"].append(999)
    cases["extra-node-999"] = doc, "tree node 999 exceeds max_value 24"
    doc = _doc(full, 1, max_depth=4)
    doc["nodes"].append(999)
    cases["extra-node-999-depth-cap"] = doc, "children are not the nodes other than the root"
    doc = _tree_doc()
    doc["nodes"].remove(1)
    cases["root-not-a-node"] = doc, "tree nodes do not include the root 1"
    doc = _add(_tree_doc(), (0, 0, "R1"))
    cases["node-0"] = doc, "tree node 0 is not a positive integer"
    doc = _add(_doc(reduced, 2, max_value=32), (3, 5, "Q3"))
    cases["reduced-node-in-c0"] = doc, "reduced tree nodes lie outside class C2"
    doc = _tree_doc()
    _edge_of(doc, 2)["rule"] = "R2"
    cases["wrong-rule"] = doc, "tree edge from 2 has rule R2, but the map fires R1"
    doc = _add(_doc(full, 5, max_depth=1), (12, 6, "R1"))
    cases["parent-not-a-node"] = doc, "tree edge parent 6 is not a node"
    doc = _tree_doc()
    doc["suppressed_edges"].append({"child": 2, "parent": 1, "rule": "R1"})
    cases["two-suppressed"] = doc, "a tree cuts at most one limit-cycle edge, got 2"
    doc = _tree_doc()
    doc["suppressed_edges"] = [{"child": 4, "parent": 2, "rule": "R1"}]
    cases["suppressed-not-a-cycle-edge"] = doc, r"suppressed edge \(4, 2\) is not a limit-cycle"
    doc = _doc(full, 5, max_depth=1)
    doc["suppressed_edges"] = [{"child": 1, "parent": 2, "rule": "R2"}]
    cases["suppressed-off-the-tree"] = doc, r"suppressed edge \(1, 2\) is not a limit-cycle"
    doc = _add(_doc(full, 4, max_depth=1), (1, 2, "R2"), (2, 1, "R1"))
    cases["full-cycle-closed"] = doc, "regular tree edges close the limit cycle"
    doc = _add(_doc(reduced, 5, max_depth=1), (2, 2, "Q2"))
    cases["reduced-cycle-closed"] = doc, "regular tree edges close the limit cycle"
    doc = _set_limits(_tree_doc(), max_value=None)
    cases["uncapped"] = doc, "need max_depth and/or max_value"
    doc = _set_limits(_tree_doc(), max_depth=-1)
    cases["negative-depth"] = doc, "max_depth must be >= 0"
    doc = _tree_doc()
    doc["root"] = 0
    cases["root-0"] = doc, "tree root must be >= 1"
    doc = _doc(reduced, 2, max_depth=0)
    doc["root"] = doc["nodes"][0] = 3
    cases["reduced-root-in-c0"] = doc, "reduced trees are rooted in class C2"
    return cases


_STRUCTURE_CASES = _structure_cases()


class TestStructure:
    """A document that `build_tree` could never have returned raises ValueError."""

    @pytest.mark.parametrize("name", list(_STRUCTURE_CASES))
    def test_not_a_tree(self, name):
        doc, message = _STRUCTURE_CASES[name]
        with pytest.raises(ValueError, match=message):
            tree_from_json(json.dumps(doc))

    def test_other_flavor_rule_name_is_reported_first(self):
        """A rule name of the other flavor fails before the structural checks."""
        doc = _tree_doc()
        _edge_of(doc, 2)["rule"] = "Q1"
        doc["nodes"].reverse()
        with pytest.raises(ValueError, match="unknown rule name 'Q1'"):
            tree_from_json(json.dumps(doc))

    @settings(max_examples=300, deadline=None)
    @given(tree_args(), st.data())
    def test_one_mutated_field_raises(self, args, data):
        """Any other value in one field of an exported tree makes it no tree of its flavor.

        Raising `max_value` or `max_depth` is left out: it only makes the
        tree one cut short, which the parse does not detect.
        """
        doc = json.loads(export_json(build_tree(*args)))
        fields = ("child", "parent", "rule")
        places = [("root",), *[("nodes", i) for i in range(len(doc["nodes"]))]]
        for key in ("edges", "suppressed_edges"):
            places += [(key, i, f) for i in range(len(doc[key])) for f in fields]
        if doc["edges"]:  # a root-only tree may be a tree of the other flavor too
            places.append(("flavor",))
        if doc["limits"]["max_value"] is not None:
            places.append(("limits", "max_value"))
        *path, last = data.draw(st.sampled_from(places))
        holder = doc
        for key in path:
            holder = holder[key]
        old, top = holder[last], doc["nodes"][-1]
        if last == "flavor":
            new = "reduced" if old == "full" else "full"
        elif last == "rule":
            new = data.draw(st.sampled_from(["R1", "R2", "Q1", "Q2", "Q3"]).filter(old.__ne__))
        elif last == "max_value":
            new = data.draw(st.integers(-3, top - 1))
        else:
            new = data.draw(st.integers(-3, 2 * top + 3).filter(old.__ne__))
        holder[last] = new
        with pytest.raises(ValueError):
            tree_from_json(json.dumps(doc))
