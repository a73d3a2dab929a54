import itertools
import random

import pytest

from oracles import induced_cover

from dpchroma import dp_cover
from dpchroma.core_graph import Graph, connected_components, is_gdp_tree
from dpchroma.dp_cover import (
    Cover,
    degree_dp_color,
    degree_truncated_sizes,
    is_coloring_valid,
    is_partial_coloring_valid,
    parse_cover,
    parse_lists,
    residual_cover,
    write_cover,
    write_lists,
)
from dpchroma.errors import GDPTreeTight, MalformedInput


def triangle():
    return Graph(range(3), [(0, 1), (1, 2), (0, 2)])


def test_cover_partner_and_neighborhood():
    g = triangle()
    c = Cover(g, {0: 2, 1: 2, 2: 2}, {(0, 1): [(0, 1), (1, 0)], (1, 2): [(0, 0)]})
    assert c.partner(0, 0, 1) == 1
    assert c.partner(1, 1, 0) == 0
    assert c.partner(1, 0, 2) == 0
    assert c.partner(2, 0, 1) == 0
    assert c.partner(0, 0, 2) is None
    assert {(w, c.partner(1, 0, w)) for w in g.adj[1]} == {(0, 1), (2, 0)}
    assert all(c.partner(2, 1, w) is None for w in g.adj[2])
    assert c.edge_pairs(0, 1) == [(0, 1), (1, 0)]
    assert c.edge_pairs(1, 0) == [(0, 1), (1, 0)]


def test_cover_rejects_bad_matchings():
    g = triangle()
    with pytest.raises(ValueError):
        Cover(g, {0: 2, 1: 2, 2: 2}, {(0, 1): [(0, 0), (0, 1)]})
    with pytest.raises(ValueError):
        Cover(g, {0: 2, 1: 2, 2: 2}, {(0, 1): [(0, 0), (1, 0)]})
    with pytest.raises(ValueError):
        Cover(g, {0: 1, 1: 1, 2: 1}, {(0, 1): [(0, 1)]})
    with pytest.raises(ValueError):
        Cover(Graph(range(3), [(0, 1)]), {0: 1, 1: 1, 2: 1}, {(0, 2): [(0, 0)]})
    with pytest.raises(ValueError):
        Cover(g, {0: 1, 1: 1}, {})
    with pytest.raises(ValueError, match="^negative list size at 1$"):
        Cover(g, {0: 1, 1: -1, 2: 1}, {})


def test_induced_cover_matches_equal_tokens():
    g = triangle()
    cover, tokens = induced_cover(g, {0: [2, 1], 1: [1, 3], 2: ["x", 1]})
    assert tokens == {0: [1, 2], 1: [1, 3], 2: [1, "x"]}
    assert cover.partner(0, 0, 1) == 0   # token 1 on both sides
    assert cover.partner(0, 1, 1) is None
    assert cover.partner(1, 0, 2) == 0
    assert cover.partner(2, 1, 0) is None
    col = {0: (0, 1), 1: (1, 0), 2: (2, 1)}   # tokens 2, 1, x
    assert is_coloring_valid(cover, col)
    bad = {0: (0, 0), 1: (1, 0), 2: (2, 1)}   # 0 and 1 both take token 1
    assert not is_coloring_valid(cover, bad)


def test_coloring_validity_shape_checks():
    g = triangle()
    cover, _ = induced_cover(g, {0: [1], 1: [2], 2: [3]})
    assert not is_coloring_valid(cover, {0: (0, 0), 1: (1, 0)})
    assert not is_coloring_valid(cover, {0: (1, 0), 1: (0, 0), 2: (2, 0)})
    assert not is_coloring_valid(cover, {0: (0, 1), 1: (1, 0), 2: (2, 0)})
    assert is_coloring_valid(cover, {0: (0, 0), 1: (1, 0), 2: (2, 0)})


def test_cover_file_roundtrip():
    g = triangle()
    c = Cover(g, {0: 2, 1: 3, 2: 1}, {(0, 1): [(0, 2), (1, 0)], (0, 2): [(1, 0)]})
    text = write_cover(c)
    c2 = parse_cover(text, g)
    assert c2.sizes == c.sizes
    for u, w in g.edges():
        assert c2.edge_pairs(u, w) == c.edge_pairs(u, w)
    # orientation in the file should not matter
    c3 = parse_cover("L 0 2\nL 1 3\nL 2 1\nM 1 2 0 0\n", g)
    assert c3.partner(0, 0, 1) == 2


def test_cover_parse_errors():
    g = triangle()
    for text in ["L 0 2\n", "L 0 1\nL 1 1\nL 2 1\nM 0 0 1 5\n",
                 "L 0 1\nL 1 1\nL 2 1\nM 0 0 1 0\nM 0 0 1 0\n",
                 "L 5 1\n", "L 0 1\nL 0 2\n", "X 1\n"]:
        with pytest.raises(MalformedInput):
            parse_cover(text, g)


def test_lists_file_roundtrip():
    lists = {0: [1, 2], 1: ["a", 5], 2: []}
    parsed = parse_lists(write_lists(lists))
    assert parsed == lists
    with pytest.raises(MalformedInput):
        parse_lists("A 0 1 1\n")
    with pytest.raises(MalformedInput):
        parse_lists("B 0 1\n")


def identity_cover(g, sizes):
    """Tokens 0..s-1 everywhere, equal tokens matched (list coloring)."""
    cover, _ = induced_cover(g, {v: list(range(sizes[v])) for v in g.vertices})
    return cover


def test_degree_dp_color_surplus():
    g = Graph(range(5), [(i, i + 1) for i in range(4)])
    sizes = {v: g.degree(v) for v in g.vertices}
    sizes[2] += 1
    col = degree_dp_color(g, identity_cover(g, sizes))
    assert is_coloring_valid(identity_cover(g, sizes), col)


def test_degree_dp_color_tight_gdp_tree_refuses():
    c5 = Graph(range(5), [(i, (i + 1) % 5) for i in range(5)])
    with pytest.raises(GDPTreeTight):
        degree_dp_color(c5, identity_cover(c5, {v: 2 for v in c5.vertices}))
    k4 = Graph(range(4), list(itertools.combinations(range(4), 2)))
    with pytest.raises(GDPTreeTight):
        degree_dp_color(k4, identity_cover(k4, {v: 3 for v in k4.vertices}))


def test_degree_dp_color_tight_awkward_block():
    # K4 minus an edge: single block, neither complete nor cycle
    g = Graph(range(4), [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    cover = identity_cover(g, {v: g.degree(v) for v in g.vertices})
    col = degree_dp_color(g, cover)
    assert is_coloring_valid(cover, col)


def test_degree_dp_color_tight_block_with_tails():
    # K4 minus an edge with pendant paths hanging off
    g = Graph(range(7), [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
                         (3, 4), (4, 5), (0, 6)])
    cover = identity_cover(g, {v: g.degree(v) for v in g.vertices})
    col = degree_dp_color(g, cover)
    assert is_coloring_valid(cover, col)


def test_degree_dp_color_awkward_block_falls_back_to_search(monkeypatch):
    # K_{2,3} (a = 0, b = 1, z = 2, 3, 4) with three leaves on each of a
    # and b, tight sizes: every induced path z-a-z' or z-b-z' has its ends
    # matched into distinct colors at the middle, so no pair spares a
    # color and the block is colored by the exact search
    edges = [(a, z) for a in (0, 1) for z in (2, 3, 4)]
    edges += [(0, x) for x in (5, 6, 7)] + [(1, x) for x in (8, 9, 10)]
    g = Graph(range(11), edges)
    matchings = {(a, 2 + k): [(2 * k, 0), (2 * k + 1, 1)] for a in (0, 1) for k in range(3)}
    cover = Cover(g, {v: g.degree(v) for v in g.vertices}, matchings)
    calls = []
    search = dp_cover.find_dp_coloring

    def counting(res, budget=None):
        calls.append(sorted(res.g.vertices))
        return search(res, budget)

    monkeypatch.setattr(dp_cover, "find_dp_coloring", counting)
    col = degree_dp_color(g, cover)
    assert calls == [[0, 1, 2, 3, 4]]
    assert is_coloring_valid(cover, col)


def random_cover(g, sizes, rng):
    matchings = {}
    for u, w in g.edges():
        a, b = sizes[u], sizes[w]
        if min(a, b) == 0:
            continue
        js = list(range(b))
        rng.shuffle(js)
        matchings[(u, w)] = list(zip(range(a), js))[: min(a, b)]
    return Cover(g, sizes, matchings)


def test_degree_dp_color_random_sweep():
    rng = random.Random(7)
    done = 0
    while done < 120:
        n = rng.randint(2, 9)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.45]
        g = Graph(range(n), edges)
        comp = max(connected_components(g), key=len)
        if len(comp) < 2:
            continue
        g = g.subgraph(comp)
        sizes = {v: g.degree(v) + (1 if rng.random() < 0.4 else 0) for v in g.vertices}
        cover = random_cover(g, sizes, rng)
        tight = all(cover.sizes[v] == g.degree(v) for v in g.vertices)
        if tight and is_gdp_tree(g):
            with pytest.raises(GDPTreeTight):
                degree_dp_color(g, cover)
        else:
            col = degree_dp_color(g, cover)
            assert is_coloring_valid(cover, col)
        done += 1


def test_degree_truncated_sizes():
    c4 = Graph(range(4), [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert degree_truncated_sizes(c4, 7) == {v: 2 for v in range(4)}
    star = Graph(range(21), [(0, i) for i in range(1, 21)])
    f = degree_truncated_sizes(star, 16)
    assert f[0] == 16 and all(f[i] == 1 for i in range(1, 21))


def test_residual_cover_identity_and_k2():
    g = Graph(range(2), [(0, 1)])
    cover = Cover(g, {0: 2, 1: 2}, {(0, 1): [(0, 0), (1, 1)]})
    same, kept = residual_cover(cover, {})
    assert same.sizes == cover.sizes
    assert same.edge_pairs(0, 1) == cover.edge_pairs(0, 1)
    assert kept == {0: [0, 1], 1: [0, 1]}
    # using color a0 kills its partner a1, leaving only b1
    res, kept = residual_cover(cover, {0: (0, 0)})
    assert set(res.g.vertices) == {1}
    assert res.sizes == {1: 1}
    assert kept == {1: [1]}


def test_residual_cover_rejects_invalid_phi():
    g = Graph(range(2), [(0, 1)])
    cover = Cover(g, {0: 1, 1: 1}, {(0, 1): [(0, 0)]})
    assert not is_partial_coloring_valid(cover, {0: (0, 0), 1: (1, 0)})
    assert not is_partial_coloring_valid(cover, {2: (2, 0)})
    with pytest.raises(ValueError):
        residual_cover(cover, {0: (0, 0), 1: (1, 0)})
    with pytest.raises(ValueError):
        residual_cover(cover, {0: (0, 3)})


def test_residual_cover_composition_and_extension():
    from dpchroma.exact_oracle import find_dp_coloring

    rng = random.Random(31)
    for trial in range(40):
        n = 6
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5]
        g = Graph(range(n), edges)
        sizes = {v: rng.randint(1, 3) for v in range(n)}
        cover = random_cover(g, sizes, rng)
        # a random valid partial coloring on up to 3 vertices
        phi = {}
        for v in rng.sample(range(n), 3):
            opts = [i for i in range(sizes[v])
                    if is_partial_coloring_valid(cover, {**phi, v: (v, i)})]
            if opts:
                phi[v] = (v, rng.choice(opts))
        res, kept = residual_cover(cover, phi)

        # extension exists iff the residual instance is colorable
        ext = None
        rest = sorted(res.g.vertices)
        for combo in itertools.product(*[range(cover.sizes[v]) for v in rest]):
            full = dict(phi)
            full.update({v: (v, i) for v, i in zip(rest, combo)})
            if is_coloring_valid(cover, full):
                ext = full
                break
        assert (ext is not None) == (find_dp_coloring(res) is not None)

        # coloring in two steps equals coloring at once
        if len(phi) >= 2:
            vs = sorted(phi)
            first = {v: phi[v] for v in vs[:1]}
            res1, kept1 = residual_cover(cover, first)
            phi2 = {}
            for v in vs[1:]:
                old = phi[v][1]
                if old not in kept1[v]:
                    break
                phi2[v] = (v, kept1[v].index(old))
            else:
                res2, kept2 = residual_cover(res1, phi2)
                assert res2.sizes == res.sizes
                assert {v: [kept1[v][i] for i in kept2[v]] for v in res2.g.vertices} == kept
                for u, w in res2.g.edges():
                    assert res2.edge_pairs(u, w) == res.edge_pairs(u, w)


def test_residual_cover_monotone():
    rng = random.Random(5)
    g = Graph(range(5), [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)])
    sizes = {v: 3 for v in g.vertices}
    cover = random_cover(g, sizes, rng)
    phi = {0: (0, 0), 2: (2, 1)}
    assert is_partial_coloring_valid(cover, phi)
    res, _ = residual_cover(cover, phi)
    for v in res.g.vertices:
        colored_nbrs = len([w for w in g.adj[v] if w in phi])
        assert res.sizes[v] >= sizes[v] - colored_nbrs
