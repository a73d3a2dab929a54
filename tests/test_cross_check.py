"""The fast graph paths against slow references and networkx.

connectivity_at_least (low-point passes, vertex skipped in place),
Graph.subgraph (adjacency intersection) and block_kind (vertex and
edge counts) are each compared with the straightforward construction
in tests/oracles.py, and connectivity also with networkx's
node_connectivity on the hub instances and the drum fixture.  The
exact cover search (one loop over bitmasks and buckets) is compared
with the recursive search it replaced: same witnesses in the same
order, same None verdicts, same budget trips.  The quantified
oracles (surviving colorings kept as one bitmask per search node) are
compared with the versions that re-searched the colorings at every
leaf: same verdicts, same bad lists, same bad covers.  The
pipelines' component safety (comp_safe_now, read off the running
availability sets) is compared with oracles.is_safe, which recounts
the colors left from the cover, after every R1/R2 step of the
protection runs pinned in tests/test_golden.py.
"""

import itertools
import random

import networkx as nx
import pytest

from corpus import connected_graph_classes, connected_graph_extensions
from oracles import block_kind_by_subgraph, connectivity_by_deletion, is_safe, \
    recursive_dp_coloring, reference_dp_f_colorable, reference_f_choosable, \
    subgraph_by_edge_filter
from dpchroma import minor_truncated, planar_truncated
from dpchroma.cli import generate_hub_instance
from dpchroma.constructions import chain_case
from dpchroma.core_graph import Graph, block_kind, blocks_and_cut_vertices, connectivity_at_least
from dpchroma.dp_cover import Cover, find_dp_coloring, induced_cover
from dpchroma.errors import InstanceTooLarge
from dpchroma.exact_oracle import is_dp_f_colorable, is_f_choosable
from test_golden import PROTECTION_RUNS
from test_planar_truncated import drum_plane


def corpus_graphs(max_n):
    """Every connected class up to max_n vertices (n = 7 with repeats)."""
    for n in range(1, max_n + 1):
        yield from connected_graph_classes(n) if n <= 6 else connected_graph_extensions(n)


def random_graphs(count, seed):
    """Seeded graphs on 0-9 vertices with sparse to dense edge sets.

    Many are disconnected or have isolated vertices; a third of them are
    relabelled to sparse, non-contiguous ids.
    """
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randrange(10)
        p = rng.choice((0.15, 0.3, 0.5, 0.7, 0.9))
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
        if rng.random() < 1 / 3:
            ids = rng.sample(range(100), n)
            yield Graph(ids, [(ids[u], ids[w]) for u, w in edges])
        else:
            yield Graph(range(n), edges)


def nx_graph(g):
    G = nx.Graph()
    G.add_nodes_from(g.vertices)
    G.add_edges_from(g.edges())
    return G


def test_connectivity_matches_deletion_on_corpus():
    for g in corpus_graphs(7):
        for s in range(1, 5):
            assert connectivity_at_least(g, s) == connectivity_by_deletion(g, s), (g.edges(), s)


def test_connectivity_matches_deletion_on_random_graphs():
    for g in random_graphs(600, 20240):
        for s in range(0, 5):
            assert connectivity_at_least(g, s) == connectivity_by_deletion(g, s), (g.edges(), s)


@pytest.mark.parametrize("hubs,rim", [(1, 24), (1, 60), (2, 24), (2, 60), (3, 30), (3, 60)])
def test_connectivity_matches_networkx_on_hub_instances(hubs, rim):
    g = generate_hub_instance(hubs, rim, 7)[0].g
    # the wheel and the fan wheel are 3-connected, the double wheel 4-connected
    assert nx.node_connectivity(nx_graph(g)) == (4 if hubs == 2 else 3)
    for h in (g, Graph(g.vertices, [e for e in g.edges() if e != (0, 1)])):
        kappa = nx.node_connectivity(nx_graph(h))
        for s in range(1, 5):
            assert connectivity_at_least(h, s) == (kappa >= s), (kappa, s)


def test_connectivity_matches_networkx_on_drum():
    g = drum_plane(quarter=15).g
    kappa = nx.node_connectivity(nx_graph(g))
    for s in range(1, 5):
        assert connectivity_at_least(g, s) == (kappa >= s)
        assert connectivity_at_least(g, s) == connectivity_by_deletion(g, s)


def test_subgraph_matches_edge_filter():
    graphs = list(corpus_graphs(6)) + list(random_graphs(200, 77))
    for g in graphs:
        vs = sorted(g.vertices)
        for r in range(len(vs) + 1):
            for keep in itertools.combinations(vs, r):
                got = g.subgraph(keep)
                want = subgraph_by_edge_filter(g, keep)
                assert got.vertices == want.vertices and got.adj == want.adj
                assert got.edges() == want.edges()


def test_block_kind_matches_subgraph_reference():
    kinds = set()
    for g in itertools.chain(corpus_graphs(7), random_graphs(300, 5)):
        for blk in blocks_and_cut_vertices(g)[0]:
            kind = block_kind(g, blk)
            assert kind == block_kind_by_subgraph(g, blk), (g.edges(), blk)
            kinds.add(kind)
    assert kinds == {"complete", "cycle", None}


def search_outcome(search, cover, budget):
    """("witness", items in order), ("none",) or ("trip", message)."""
    try:
        col = search(cover, budget)
    except InstanceTooLarge as exc:
        return ("trip", str(exc))
    return ("none",) if col is None else ("witness", list(col.items()))


def random_covers(count, seed):
    """Seeded covers with list sizes 0-4 and a partial matching per edge."""
    rng = random.Random(seed)
    for g in random_graphs(count, seed):
        sizes = {v: rng.randrange(5) for v in g.vertices}
        matchings = {}
        for u, w in g.edges():
            cols = rng.sample(range(sizes[w]), min(sizes[u], sizes[w]))
            matchings[(u, w)] = [(i, j) for i, j in enumerate(cols) if rng.random() < 0.8]
        yield Cover(g, sizes, matchings)


def random_induced_covers(count, seed):
    """Seeded list assignments over mixed int and str tokens, as covers."""
    rng = random.Random(seed)
    for g in random_graphs(count, seed):
        yield induced_cover(g, {v: rng.sample((0, 1, 2, "a", "b", "c"), rng.randrange(5))
                                for v in g.vertices})[0]


def test_search_matches_recursive_reference():
    rng = random.Random(8)
    seen = set()
    covers = itertools.chain(random_covers(2400, 31), random_induced_covers(600, 32))
    for cover in covers:
        budget = rng.choice((None, 1, 3, 10, 30))
        want = search_outcome(recursive_dp_coloring, cover, budget)
        assert search_outcome(find_dp_coloring, cover, budget) == want, \
            (cover.sizes, [(e, cover.edge_pairs(*e)) for e in cover.g.edges()], budget)
        seen.add(want[0])
    assert seen == {"witness", "none", "trip"}
    for i in range(42):
        cover = induced_cover(*chain_case(i))[0]
        assert find_dp_coloring(cover) is None and recursive_dp_coloring(cover) is None


def oracle_outcome(oracle, g, f):
    """Verdict plus certificate: the bad lists, or the bad cover's sizes
    and the matching on every edge."""
    ok, cert = oracle(g, f)
    if isinstance(cert, Cover):
        cert = (cert.sizes, [(e, cert.edge_pairs(*e)) for e in g.edges()])
    return ok, cert


def test_oracles_match_reference():
    """Every connected class on at most 5 vertices under degree sizes,
    300 seeded size vectors (each size in 1..deg+1; DP only on the
    classes with at most 6 edges, where the reference is quick), and
    the disconnected inputs of test_disconnected_inputs."""
    cases = [(g, {v: g.degree(v) for v in g.vertices}, True)
             for n in range(1, 6) for g in connected_graph_classes(n)]
    pool = [g for n in range(1, 6) for g in connected_graph_classes(n)]
    rng = random.Random(2024)
    for _ in range(300):
        g = rng.choice(pool)
        cases.append((g, {v: rng.randint(1, g.degree(v) + 1) for v in sorted(g.vertices)},
                      g.m <= 6))
    triangle = Graph(range(5), [(0, 1), (1, 2), (0, 2)])
    cases += [(triangle, {0: s, 1: s, 2: s, 3: 1, 4: 1}, True) for s in (2, 3)]
    seen = set()
    for g, f, with_dp in cases:
        pairs = [(is_f_choosable, reference_f_choosable)]
        if with_dp:
            pairs.append((is_dp_f_colorable, reference_dp_f_colorable))
        for oracle, reference in pairs:
            want = oracle_outcome(reference, g, f)
            assert oracle_outcome(oracle, g, f) == want, (oracle.__name__, g.edges(), f)
            seen.add((oracle.__name__, want[0]))
    assert seen == {(name, ok) for name in ("is_f_choosable", "is_dp_f_colorable")
                    for ok in (True, False)}


@pytest.mark.parametrize("name", sorted(PROTECTION_RUNS))
def test_safety_matches_recount_after_every_step(monkeypatch, name):
    steps = []

    def checked(step):
        def run(state):
            out = step(state)
            steps.append(step.__name__)
            for qi, comp in enumerate(state.comps):
                want = is_safe(state.g, state.cover, comp, state.phi)
                assert state.comp_safe_now(qi) == want, (step.__name__, comp[0], len(steps))
            return out
        return run

    for module in (planar_truncated, minor_truncated):
        for attr in ("step_r1", "step_r2"):
            monkeypatch.setattr(module, attr, checked(getattr(module, attr)))
    trace = []
    PROTECTION_RUNS[name]()(trace)
    assert steps.count("step_r2") == sum(ln.startswith("R2") for ln in trace)
