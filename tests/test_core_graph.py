import ast
import itertools
import os
import subprocess
import sys

import pytest

from oracles import is_cycle_graph
import dpchroma
from dpchroma.core_graph import (
    Graph,
    blocks_and_cut_vertices,
    connected_components,
    connectivity_at_least,
    is_complete_graph,
    is_connected,
    is_gallai_tree,
    is_gdp_tree,
    parse_graph,
    write_graph,
    bfs_parents,
)
from dpchroma.errors import MalformedInput


def cycle(n):
    return Graph(range(n), [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    return Graph(range(n), list(itertools.combinations(range(n), 2)))


def path(n):
    return Graph(range(n), [(i, i + 1) for i in range(n - 1)])


def test_basic_accessors():
    g = Graph(range(4), [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    assert g.n == 4 and g.m == 5
    assert g.degree(0) == 3 and g.degree(3) == 2
    assert g.adj[1] == {0, 2}
    assert g.has_edge(0, 2) and g.has_edge(2, 0) and not g.has_edge(1, 3)
    assert g.edges() == [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)]


def test_self_loop_rejected():
    with pytest.raises(ValueError):
        Graph(range(2), [(1, 1)])


def test_subgraph_keeps_ids():
    g = complete(5)
    h = g.subgraph({1, 3, 4})
    assert h.vertices == {1, 3, 4}
    assert h.edges() == [(1, 3), (1, 4), (3, 4)]
    assert g.without_vertex(0).n == 4


def test_bad_vertices_raise_value_error():
    g = path(3)
    with pytest.raises(ValueError):
        g.subgraph({0, 7})
    with pytest.raises(ValueError):
        Graph(g.vertices, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(g.vertices, [(0, 9)])


def test_bad_vertex_checks_survive_optimize():
    src = os.path.dirname(os.path.dirname(os.path.abspath(dpchroma.__file__)))
    script = (
        "import sys\n"
        "from dpchroma.core_graph import Graph\n"
        "g = Graph(range(3), [(0, 1)])\n"
        "for call in (lambda: g.subgraph({0, 7}), lambda: Graph(range(3), [(0, 0)]),\n"
        "             lambda: Graph(range(3), [(0, 9)])):\n"
        "    try:\n"
        "        call()\n"
        "    except ValueError:\n"
        "        continue\n"
        "    sys.exit('no ValueError')\n"
        "print('raised', sys.flags.optimize)\n")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=60)
    assert (out.returncode, out.stdout) == (0, "raised 1\n"), out.stderr


def test_no_assert_statements_in_the_package():
    # checks must survive python -O, so the package raises instead
    root = os.path.dirname(os.path.abspath(dpchroma.__file__))
    found = []
    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            with open(os.path.join(root, name)) as fh:
                tree = ast.parse(fh.read(), name)
            found += ["%s:%d" % (name, n.lineno) for n in ast.walk(tree)
                      if isinstance(n, ast.Assert)]
    assert found == []


def test_every_public_name_has_a_caller_in_the_package():
    # a public top-level function or class that nothing else in the
    # package uses (an import alone is not a use) gets a caller or goes
    root = os.path.dirname(os.path.abspath(dpchroma.__file__))
    top = []
    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            with open(os.path.join(root, name)) as fh:
                tree = ast.parse(fh.read(), name)
            top += [(name, node, {n.id if isinstance(n, ast.Name) else n.attr
                                  for n in ast.walk(node)
                                  if isinstance(n, (ast.Name, ast.Attribute))})
                    for node in tree.body]
    found = ["%s:%s" % (name, d.name) for name, d, _ in top
             if isinstance(d, (ast.FunctionDef, ast.ClassDef)) and not d.name.startswith("_")
             and not any(d.name in used for _, other, used in top if other is not d)]
    # ROADMAP item 9 gives these their caller: the Gallai-tree sweeps of
    # a verify family run the two oracles against is_gallai_tree
    assert found == ["core_graph.py:is_gallai_tree", "exact_oracle.py:is_degree_choosable",
                     "exact_oracle.py:is_degree_dp_colorable"]


def test_write_graph_needs_dense_ids():
    with pytest.raises(ValueError, match="dense ids"):
        write_graph(Graph([0, 2], [(0, 2)]))


def test_parse_roundtrip():
    g = Graph(range(3), [(0, 1), (1, 2)])
    text = write_graph(g)
    h = parse_graph("c a comment\n" + text)
    assert h.vertices == g.vertices and h.edges() == g.edges()


def test_parse_errors_carry_line_numbers():
    for text, line in [
        ("e 0 1\n", 1),
        ("v 2\ne 0 2\n", 2),
        ("v 2\ne 0 0\n", 2),
        ("v 2\ne 0 1\ne 1 0\n", 3),
        ("v 2\nq 1\n", 2),
        ("v 2\nv 2\n", 2),
    ]:
        with pytest.raises(MalformedInput) as ei:
            parse_graph(text)
        assert ei.value.line == line
    with pytest.raises(MalformedInput):
        parse_graph("c nothing\n")


def test_components_sorted():
    g = Graph(range(6), [(5, 3), (1, 0)])
    assert connected_components(g) == [[0, 1], [2], [3, 5], [4]]
    assert not is_connected(g)
    assert is_connected(path(4))


def test_bfs_parents_deterministic():
    g = cycle(5)
    parent, order = bfs_parents(g, 0)
    assert order == [0, 1, 4, 2, 3]
    assert parent == {0: None, 1: 0, 4: 0, 2: 1, 3: 4}


def blocks_as_sets(g):
    blocks, cuts = blocks_and_cut_vertices(g)
    return {frozenset(b) for b in blocks}, cuts


def test_blocks_two_triangles_sharing_vertex():
    g = Graph(range(5), [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
    blocks, cuts = blocks_as_sets(g)
    assert blocks == {frozenset({0, 1, 2}), frozenset({2, 3, 4})}
    assert cuts == {2}


def test_blocks_path_and_isolated():
    g = Graph(range(5), [(0, 1), (1, 2)])
    blocks, cuts = blocks_as_sets(g)
    assert blocks == {frozenset({0, 1}), frozenset({1, 2}), frozenset({3}), frozenset({4})}
    assert cuts == {1}


def test_blocks_biconnected():
    blocks, cuts = blocks_as_sets(cycle(6))
    assert blocks == {frozenset(range(6))} and cuts == set()
    blocks, cuts = blocks_as_sets(complete(4))
    assert blocks == {frozenset(range(4))} and cuts == set()


def test_blocks_theta_like():
    # two 4-cycles sharing an edge, a pendant hanging off
    g = Graph(range(7), [(0, 1), (1, 2), (2, 3), (3, 0), (1, 4), (4, 5), (5, 2), (3, 6)])
    blocks, cuts = blocks_as_sets(g)
    assert blocks == {frozenset({0, 1, 2, 3, 4, 5}), frozenset({3, 6})}
    assert cuts == {3}


def brute_force_cut_vertices(g):
    out = set()
    k = len(connected_components(g))
    for v in g.vertices:
        if len(connected_components(g.without_vertex(v))) > k - (0 if g.degree(v) else 1):
            out.add(v)
    return out


def test_blocks_random_sweep_against_brute_force():
    # deterministic pseudo-random graphs, checked against vertex deletion
    state = 12345
    for trial in range(60):
        state = (state * 6364136223846793005 + 1442695040888963407) % 2**64
        n = 3 + state % 8
        edges = []
        s = state
        for u, w in itertools.combinations(range(n), 2):
            s = (s * 6364136223846793005 + 1442695040888963407) % 2**64
            if s % 100 < 38:
                edges.append((u, w))
        g = Graph(range(n), edges)
        blocks, cuts = blocks_and_cut_vertices(g)
        assert cuts == brute_force_cut_vertices(g)
        # every edge in exactly one block, blocks pairwise share <= 1 vertex
        edge_cover = []
        for b in blocks:
            sub = g.subgraph(b)
            edge_cover.extend(sub.edges())
            if len(b) > 1:
                assert is_connected(sub)
                assert not blocks_and_cut_vertices(sub)[1]
        assert sorted(edge_cover) == g.edges()
        for b1, b2 in itertools.combinations(blocks, 2):
            assert len(set(b1) & set(b2)) <= 1


def test_shape_predicates():
    assert is_complete_graph(complete(4)) and is_complete_graph(Graph([7], []))
    assert not is_complete_graph(cycle(4))
    assert is_cycle_graph(cycle(3)) and is_cycle_graph(cycle(8))
    assert not is_cycle_graph(path(3)) and not is_cycle_graph(complete(4))


def test_gallai_and_gdp_trees():
    assert is_gallai_tree(complete(4))
    assert is_gallai_tree(cycle(5))
    assert not is_gallai_tree(cycle(6))
    assert is_gdp_tree(cycle(6))
    assert is_gallai_tree(path(4))
    # two triangles at a cut vertex: both
    g = Graph(range(5), [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
    assert is_gallai_tree(g) and is_gdp_tree(g)
    # C4 hanging off a triangle: gdp yes, gallai no
    g = Graph(range(6), [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 2)])
    assert not is_gallai_tree(g) and is_gdp_tree(g)
    # K4 minus an edge is one block, neither complete nor cycle
    g = Graph(range(4), [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    assert not is_gallai_tree(g) and not is_gdp_tree(g)


def prism(rungs):
    """Two cycles 0..r-1 and r..2r-1 joined by the rungs (i, r + i)."""
    r = rungs
    return Graph(range(2 * r), [(i, (i + 1) % r) for i in range(r)]
                 + [(r + i, r + (i + 1) % r) for i in range(r)] + [(i, r + i) for i in range(r)])


def test_three_connectivity_of_deep_prisms():
    """A 20,000-rung prism is 3-connected.  A second copy glued on along
    the rung halfway round (a 2-sum, the rung kept) leaves that rung's
    ends a separation pair.  Every search runs tens of thousands of
    vertices deep, under the default recursion limit."""
    r = 20000
    g = prism(r)
    assert connectivity_at_least(g, 3)
    a, b = r // 2, r + r // 2
    label = {v: 2 * r + v for v in g.vertices}
    label[a], label[b] = a, b
    edges = g.edges() + [(label[u], label[w]) for u, w in g.edges() if (u, w) != (a, b)]
    two = Graph(g.vertices | set(label.values()), edges)
    assert connectivity_at_least(two, 2) and min(map(two.degree, two.vertices)) == 3
    assert not connectivity_at_least(two, 3)


def test_connectivity_levels():
    assert connectivity_at_least(complete(4), 3)
    assert not connectivity_at_least(complete(4), 4)
    assert connectivity_at_least(cycle(5), 2)
    assert not connectivity_at_least(cycle(5), 3)
    assert connectivity_at_least(path(3), 1)
    assert not connectivity_at_least(path(3), 2)
    # octahedron is 4-connected, so certainly 3-connected
    octa = Graph(range(6), [(u, w) for u, w in itertools.combinations(range(6), 2)
                            if (u, w) not in [(0, 5), (1, 4), (2, 3)]])
    assert connectivity_at_least(octa, 3)
    # wheel on 6 rim vertices: 3-connected, not 4
    wheel = Graph(range(7), [(i, (i % 6) + 1) for i in range(1, 7)] + [(0, i) for i in range(1, 7)])
    assert connectivity_at_least(wheel, 3)
