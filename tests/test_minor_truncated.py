import math

import pytest

from dpchroma import minor_truncated
from dpchroma.core_graph import Graph, connected_components, degeneracy_order, is_gdp_tree
from dpchroma.dp_cover import Cover, is_coloring_valid
from dpchroma.errors import (DegreeBelowS, InstanceTooLarge, InternalInvariantBreach,
                             ListTooSmall, PeelBoundExceeded, PreconditionViolated)
from dpchroma.generators import (Xorshift64Star, drum_identity_cover, drum_plane,
                                 generate_hub_instance, random_tight_matchings)
from dpchroma.minor_truncated import (MinorState, color_minor_truncated, constants,
                                      contract_components, peel_sequence,
                                      select_sublists)
from dpchroma.planar_truncated import color_planar_truncated, partition_threshold, step_r2


def desk_params(s, t, **kw):
    return constants(s, t).with_overrides(**kw)


def two_c5_instance():
    """Two 5-cycles, two hubs adjacent to everything, a 2-pair matching
    on the hub-hub edge so sublist selection has something to dodge."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 1) % 5) for i in range(5)]
    for h in (10, 11):
        edges += [(h, v) for v in range(10)]
    edges.append((10, 11))
    g = Graph(range(12), edges)
    sizes = {v: 4 for v in range(10)}
    sizes[10] = sizes[11] = 10
    matchings = {}
    for u, w in g.edges():
        if (u, w) == (10, 11):
            matchings[(u, w)] = [(0, 0), (1, 1)]
        else:
            matchings[(u, w)] = [(t, t) for t in range(min(sizes[u], sizes[w]))]
    return g, Cover(g, sizes, matchings)


def double_protection_instance():
    """two_c5_instance with desk constants under which hub 10 protects both cycles."""
    g, cov = two_c5_instance()
    return g, cov, desk_params(2, 2, q=7, k=10, peel_bound=2, degeneracy_bound=1)


def test_constants_closed_forms():
    p = constants(2, 2)
    assert (p.q, p.k) == (1537, 49184)
    assert (p.peel_bound, p.degeneracy_bound) == (512, 31)
    assert not p.overridden
    for s, t in ((1, 4), (2, 3), (3, 3), (4, 2)):
        p = constants(s, t)
        assert p.peel_bound == 4 ** (s + 1) * math.factorial(s) * s * t
        assert p.q == p.peel_bound * (s + t - 1) + 1
        assert p.k == (p.degeneracy_bound + 1) * p.q
        assert p.degeneracy_bound == 2 ** (s + 2) * t - 1
    q = desk_params(2, 2, q=5, k=12)
    assert q.overridden and (q.q, q.k) == (5, 12)
    assert q.peel_bound == 512  # untouched fields carry over


def test_select_sublists():
    g, cov = two_c5_instance()
    sub = select_sublists(g, [11, 10], cov, 7)
    assert sub[11] == (0, 1, 2, 3, 4, 5, 6)
    assert sub[10] == (2, 3, 4, 5, 6, 7, 8)  # partners of 0,1 are banned
    for i in sub[10]:
        assert cov.partner(10, i, 11) not in sub[11]
    with pytest.raises(ListTooSmall):
        select_sublists(g, [11, 10], cov, 9)
    # independent pair: no exclusions, both take the smallest ids
    h = Graph(range(2), [])
    hc = Cover(h, {0: 5, 1: 5}, {})
    assert select_sublists(h, [0, 1], hc, 2) == {0: (0, 1), 1: (0, 1)}


def test_select_sublists_property():
    rng = Xorshift64Star(11)
    for n in (4, 5, 6):
        for _ in range(10):
            edges = [(u, w) for u in range(n) for w in range(u + 1, n)
                     if rng.randrange(2)]
            g = Graph(range(n), edges)
            sizes = {v: 20 for v in range(n)}
            cov = Cover(g, sizes, random_tight_matchings(g, sizes, rng))
            order = degeneracy_order(g, n - 1)
            sub = select_sublists(g, order, cov, 3)
            for u, w in g.edges():
                for i in sub[u]:
                    assert cov.partner(u, i, w) not in sub[w]
                for j in sub[w]:
                    assert cov.partner(w, j, u) not in sub[u]


def contract(g, v1, s):
    """contract_components on the split of G[v1]."""
    return contract_components(g, connected_components(g.subgraph(v1)), g.vertices - v1, s)


def test_contract_components():
    pg, _ = generate_hub_instance(3, 34, 1)
    g = pg.g
    v1 = frozenset(range(34))
    gp, node_of = contract(g, v1, 3)
    assert set(node_of.values()) == {0} and gp.degree(0) == 3
    assert sorted(gp.adj[0]) == [34, 35, 36]
    g2 = Graph(range(2), [(0, 1)])
    gp2, node_of2 = contract(g2, frozenset(), 3)
    assert node_of2 == {} and gp2.edges() == []
    wheel, _ = generate_hub_instance(1, 20, 1)
    with pytest.raises(DegreeBelowS):
        contract(wheel.g, frozenset(range(20)), 2)


def test_contract_degrees_match_neighborhood_unions():
    for hubs, rim in ((2, 24), (3, 33)):
        pg, _ = generate_hub_instance(hubs, rim, 5)
        g = pg.g
        v1 = frozenset(range(rim))
        gp, node_of = contract(g, v1, 2)
        for node in set(node_of.values()):
            comp = [v for v, n in node_of.items() if n == node]
            seen = {w for v in comp for w in g.adj[v] if w not in v1}
            assert gp.degree(node) == len(seen)


def test_peel_sequence():
    star = Graph([1, 2, 5], [(1, 5), (2, 5)])
    assert peel_sequence(star, {5}, 5) == ((5,), ((1, 2),))
    k23 = Graph(range(5), [(a, b) for a in (0, 1) for b in (2, 3, 4)])
    assert peel_sequence(k23, {2, 3, 4}, 2) == ((4, 3, 2), ((), (), (0, 1)))
    with pytest.raises(PeelBoundExceeded):
        peel_sequence(k23, {2, 3, 4}, 1)
    with pytest.raises(PeelBoundExceeded):
        peel_sequence(star, {5}, 0)
    # component node 2 sees no V2 vertex, so it survives the peel
    with pytest.raises(InternalInvariantBreach):
        peel_sequence(Graph([1, 2, 5], [(1, 5)]), {5}, 5)


def test_peel_plan_invariants():
    rng = Xorshift64Star(3)
    for _ in range(20):
        na, nb = 1 + rng.randrange(5), 1 + rng.randrange(5)
        a = list(range(na))
        b = list(range(na, na + nb))
        edges = sorted({(x, na + rng.randrange(nb)) for x in a
                        for _ in range(1 + rng.randrange(3))})
        gp = Graph(a + b, edges)
        if any(not gp.adj[x] for x in a):
            continue  # stranded component node, peel cannot place it
        order, parts = peel_sequence(gp, b, na)
        assert len(order) == len(parts) == nb
        placed = [n for part in parts for n in part]
        assert sorted(placed) == a  # partition of the component side
        for i, part in enumerate(parts):
            assert len(part) <= na
            for n in part:
                # order[i] is the last vertex of the order seeing n
                assert all(order[j] not in gp.adj[n] for j in range(i + 1, len(order)))


def test_color_minor_double_protection():
    g, cov, params = double_protection_instance()
    runs = []
    for _ in range(2):
        trace = []
        phi = color_minor_truncated(g, cov, params, trace=trace)
        assert is_coloring_valid(cov, phi)
        runs.append((tuple(trace), tuple(sorted(phi.items()))))
    assert runs[0] == runs[1]
    assert runs[0][0] == ("R2 11 11.0", "R2 10 10.4 protects 0 5")


def drum_minor_instance(quarter=15, perm=(0, 1, 2, 3)):
    """The drum fixture under identity matchings (none between hubs)."""
    g = drum_plane(quarter, perm).g
    return g, drum_identity_cover(g), desk_params(2, 2, q=7, k=16, peel_bound=2,
                                                  degeneracy_bound=2)


def test_color_minor_part_cost_check():
    # hub 10 owes both cycles; 2 * (s + t - 1) colors do not fit in q = 5
    g, cov, _ = double_protection_instance()
    params = desk_params(2, 2, q=5, k=10, peel_bound=2, degeneracy_bound=1)
    trace = []
    with pytest.raises(InternalInvariantBreach, match=r"\(D2\) part of 2 components"):
        color_minor_truncated(g, cov, params, trace=trace)
    assert trace == ["R2 11 11.0"]


def test_minor_state_requires_cheap_neighbor():
    g, cov, params = double_protection_instance()
    v1, v2 = frozenset(range(10)), frozenset({10, 11})
    sublists = select_sublists(g, [11, 10], cov, params.q)
    comps = connected_components(g.subgraph(v1))
    plan = peel_sequence(contract_components(g, comps, v2, 2)[0], v2, params.peel_bound)
    st = MinorState(g, cov, comps, v2, plan, sublists, params)
    assert (st.owed, st.cost_cap, st.protector_cap, st.turn_colors) == (
        {11: set(), 10: {0, 1}}, 3, 2, 7)
    step_r2(st)
    st.cost_cap = 2  # every cycle vertex keeps residual degree 3
    with pytest.raises(InternalInvariantBreach, match="no cheap neighbor of 10"):
        step_r2(st)


def test_color_minor_drum_interleaves_r1():
    g, cov, params = drum_minor_instance()
    trace = []
    phi = color_minor_truncated(g, cov, params, trace=trace)
    assert is_coloring_valid(cov, phi)
    r2 = [ln for ln in trace if ln.startswith("R2")]
    assert r2 == ["R2 11 11.0", "R2 10 10.0", "R2 9 9.0", "R2 8 8.2 protects 0"]
    r1 = [ln for ln in trace if ln.startswith("R1")]
    assert len(r1) == 20 and r1[0] == "R1 6 6.1" and r1[2] == "R1 58 58.1"


def test_color_minor_hub_sweep():
    for s, hubs, rims in ((2, 2, (24, 40)), (3, 3, (30, 44))):
        params = desk_params(s, 2, q=6, k=16, peel_bound=2, degeneracy_bound=1)
        for rim in rims:
            for seed in (1, 8):
                pg, cov = generate_hub_instance(hubs, rim, seed)
                trace = []
                phi = color_minor_truncated(pg.g, cov, params, trace=trace)
                assert is_coloring_valid(cov, phi)
                assert sum(1 for ln in trace if ln.startswith("R2")) == hubs


def test_color_minor_s1_degree_path():
    k4e = Graph(range(4), [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    sizes = {v: k4e.degree(v) for v in range(4)}
    cov = Cover(k4e, sizes, {(0, 1): [(0, 0), (1, 1)]})
    phi = color_minor_truncated(k4e, cov, constants(1, 4))
    assert is_coloring_valid(cov, phi)
    c5 = Graph(range(5), [(i, (i + 1) % 5) for i in range(5)])
    tight = Cover(c5, {v: 2 for v in range(5)}, {})
    with pytest.raises(PreconditionViolated):
        color_minor_truncated(c5, tight, constants(1, 4))


def test_color_minor_v2_empty():
    pg, _ = generate_hub_instance(2, 24, 4)
    params = desk_params(2, 2, k=40)  # nobody reaches degree 40
    sizes = {v: min(40, pg.g.degree(v)) for v in pg.g.vertices}
    cov40 = Cover(pg.g, sizes, random_tight_matchings(pg.g, sizes, Xorshift64Star(4)))
    trace = []
    phi = color_minor_truncated(pg.g, cov40, params, trace=trace)
    assert trace == [] and is_coloring_valid(cov40, phi)


def test_color_minor_rejects():
    g, cov = two_c5_instance()
    params = desk_params(2, 2, q=7, k=10, peel_bound=2, degeneracy_bound=1)
    p4 = Graph(range(4), [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(PreconditionViolated):
        color_minor_truncated(p4, Cover(p4, {0: 1, 1: 2, 2: 2, 3: 1}, {}), params)
    k4 = Graph(range(4), [(a, b) for a in range(4) for b in range(a + 1, 4)])
    assert is_gdp_tree(k4)
    with pytest.raises(PreconditionViolated):
        color_minor_truncated(k4, Cover(k4, {v: 3 for v in range(4)}, {}),
                              desk_params(3, 2, k=10))
    short = dict(cov.sizes)
    short[0] -= 1
    with pytest.raises(PreconditionViolated):
        color_minor_truncated(g, Cover(g, short, {}), params)
    with pytest.raises(ValueError):
        color_minor_truncated(p4, cov, params)


def test_gdp_tree_read_off_connectivity(monkeypatch):
    """For s > 1 the GDP-tree test is read off the s-connectivity just
    shown, so is_gdp_tree is never reached: C6 at s = 2 and K4 at s = 3
    are still refused, and the drum and hubs-3 runs color as they do
    unpatched (test_golden pins those colorings)."""
    pg, hub_cov = generate_hub_instance(3, 30, 1)
    runs = [drum_minor_instance(),
            (pg.g, hub_cov, desk_params(3, 2, q=6, k=16, peel_bound=2, degeneracy_bound=1))]
    want = [color_minor_truncated(g, cov, params) for g, cov, params in runs]

    def unreachable(g):
        raise AssertionError("is_gdp_tree called")

    monkeypatch.setattr(minor_truncated, "is_gdp_tree", unreachable)
    c6 = Graph(range(6), [(i, (i + 1) % 6) for i in range(6)])
    k4 = Graph(range(4), [(a, b) for a in range(4) for b in range(a + 1, 4)])
    for g, s in ((c6, 2), (k4, 3)):
        cov = Cover(g, {v: g.degree(v) for v in g.vertices}, {})
        with pytest.raises(PreconditionViolated, match="^GDP-trees are excluded$"):
            color_minor_truncated(g, cov, desk_params(s, 2, k=10))
    got = [color_minor_truncated(g, cov, params) for g, cov, params in runs]
    assert got == want
    assert all(is_coloring_valid(cov, phi) for (_, cov, _), phi in zip(runs, got))


def test_true_constants_refuse_high_degree_work():
    n = 49185
    star = Graph(range(n), [(0, i) for i in range(1, n)])
    sizes = {0: n - 1}
    sizes.update({i: 1 for i in range(1, n)})
    cov = Cover(star, sizes, {})
    with pytest.raises(InstanceTooLarge):
        color_minor_truncated(star, cov, constants(2, 2))


def v1_splits(monkeypatch, run, g, v1):
    """How many Graph.subgraph calls keep exactly v1 during run()."""
    calls = []
    subgraph = Graph.subgraph

    def counted(self, keep):
        keep = frozenset(keep)
        if self is g and keep == v1:
            calls.append(keep)
        return subgraph(self, keep)

    monkeypatch.setattr(Graph, "subgraph", counted)
    run()
    return len(calls)


def test_one_split_of_v1_per_run(monkeypatch):
    g, cov, params = drum_minor_instance(quarter=60)
    pg = drum_plane(60)
    v1 = partition_threshold(g, params.k)[0]
    assert v1 == partition_threshold(pg.g)[0] and len(v1) == 248
    assert v1_splits(monkeypatch, lambda: color_minor_truncated(g, cov, params), g, v1) == 1
    assert v1_splits(monkeypatch, lambda: color_planar_truncated(pg, cov), pg.g, v1) == 1
