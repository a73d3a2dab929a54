"""The fast graph paths against slow references and networkx.

connectivity_at_least (one search: a depth-first search, and for s = 3
the linear separation-pair search that starts from it), Graph.subgraph
(adjacency intersection) and block_kind (vertex and edge counts) are
each compared with the straightforward construction in
tests/oracles.py, and connectivity also with networkx's
node_connectivity on the hub instances and the drum fixture.  The s = 3
search is also compared with one block search per deleted vertex, on
relabelled graphs from small classes to G42, over a thousand of which
pass every cheap guard and still have a 2-cut.  Since gen and color-planar make the same call, the cases
include the planar inputs too: random planar graphs, planar 2-sums
that pass every cheap guard, and the drawn fixtures (the hubs, the
drum and the gadget H).  The exact cover search (one loop over bitmasks
and buckets, with conflict-directed backjumping) is compared with the
recursive forward-checking search it replaced: same witnesses in the
same order and same None verdicts.  On small random covers under small
budgets the two also trip alike.  On the G42 chain cases, relabelled
K_{2,k^2} and denser list assignments, where the search jumps back
several levels, every color attempt is counted: the search never makes
more than the reference, so no budget the reference meets trips it.
The search is also compared with the one it replaced, whose pick
scanned buckets by colors left alone, on random covers with empty
lists and isolated vertices, on covers whose picks tie across degree
classes, on the chain cases and on K_{2,36}: same witnesses in the
same order, and the same number of color attempts, to the one.
The list search, which fills the strike table straight from the lists,
is compared with induced_cover followed by the cover search, on seeded
mixed-token lists, the chain cases, H, K_{2,4}, K_{2,36}, the ks
instance and 2-list paths up to 5,000 vertices: same witnesses in the
same order, the same color attempts and budget trips, and the same
ValueError on bad lists.
The quantified oracles (surviving colorings kept as one bitmask per
search node) are compared with the versions that re-searched the
colorings at every leaf: same verdicts, same bad lists, same bad
covers.  That includes seeded six-vertex inputs whose root has subset
forms, where the DP oracle skips covers that only rename the root's
colors, each also relabelled so that another vertex is the root.  The
pipelines' component safety (comp_safe_now, read off the
running availability sets) is compared with oracles.is_safe, which recounts
the colors left from the cover, after every R1/R2 step of the
protection runs pinned in tests/test_golden.py.  The block-cut record
that the steps edit in place is compared with a rebuild after every
step of those runs, of the planar drum march at quarter 60 and of the
minor pipeline on the same drums at quarters 15, 30 and 60: same safe
set, same cut vertices per unsafe component, same next (R1) pick.  very_nice_subgraph
(one working drawing cut down in place, copied at each leaf-block
split) is compared with the construction that rebuilt a PlaneGraph at
every reduction: same H, with every reduction firing and the face test
for deleting an interior vertex checked against 2-connectivity each
time it runs; every inner face misses exactly two of its vertices, the
leaf-block pick passes over a block whose rest lies in two of its
faces, and a chain of 60 triangles stacks 59 leaf-block splits.
is_nice (one pass over h) is compared with the checker that rescanned
h per face: same violations in the same order.  augment_visibility (one
pass over the faces, one PlaneGraph built) is compared with the loop
that rebuilt the drawing after every chord: same rotation, faces and
outer face on 3-connected drawings under many outer faces and seeded
V2 sets, and pg itself back exactly when no chord is added.  On a ring
of 60 hubs it builds one PlaneGraph for its 57 chords, and color-planar
gives the same witness and trace with either.  The degree-DP
finisher's orders (bfs_parents' queue read backwards) are compared with
the finisher's former breadth-first search, from every source set of
one to three vertices on small classes and from seeded sources on
random planar graphs: same orders.  finish, which colors on the run's
live lists, is compared with the finisher that built a residual cover
of the uncolored rest and a sub-cover per component: the same coloring,
in the same dict order, from deep copies of the closing states of the
drum marches at quarters 15, 30 and 60 under both pipelines, of hubs
1-3 at rims 20-120 over three seeds, of the ring of 25 hubs and of the
V2-empty polyhedra, whose tight components take the awkward-block
path.  The corpus of
connected graph classes is checked against the OEIS counts up to 7
vertices.
"""

import copy
import functools
import itertools
import math
import random
import re
from fractions import Fraction

import networkx as nx
import pytest

from corpus import connected_graph_classes, connected_graph_extensions, planar_classes, \
    random_connected_planar, triangle_chain
from oracles import _reverse_bfs_from, block_kind_by_subgraph, connectivity_by_deletion, \
    induced_cover, inner_face_misses, is_safe, recursive_dp_coloring, reference_augment_visibility, \
    reference_dp_f_colorable, reference_f_choosable, reference_find_dp_coloring, reference_finish, \
    reference_is_nice, reference_solve_list, reference_very_nice_subgraph, \
    subgraph_by_edge_filter, \
    three_connected_by_low_point, vertex_face_incidences
from dpchroma import dp_cover, minor_truncated, plane_embed, planar_truncated
from dpchroma.constructions import (build_G42, build_k2_k2, build_ks_minus1, chain_case,
                                    gadget_h, gadget_h_plane)
from dpchroma.core_graph import (Graph, bfs_parents, block_kind, blocks_and_cut_vertices,
                                 connectivity_at_least)
from dpchroma.dp_cover import Cover, degree_truncated_sizes, find_dp_coloring
from dpchroma.errors import InstanceTooLarge
from dpchroma.exact_oracle import is_dp_f_colorable, is_f_choosable, solve_list
from dpchroma.generators import (Xorshift64Star, drum_forcing_cover, drum_plane,
                                 generate_hub_instance, random_tight_matchings)
from dpchroma.minor_truncated import color_minor_truncated
from dpchroma.planar_truncated import THRESHOLD, color_planar_truncated, partition_threshold
from dpchroma.plane_embed import (PlaneGraph, augment_visibility, drawn_graph, is_nice,
                                  very_nice_subgraph)
from test_golden import PROTECTION_RUNS, _minor, _planar_drum
from test_minor_truncated import desk_params, drum_minor_instance
from test_planar_truncated import nx_plane, tight_cover


def corpus_graphs(max_n):
    """Every connected class up to max_n vertices (n = 7 with repeats)."""
    for n in range(1, max_n + 1):
        yield from connected_graph_classes(n) if n <= 6 else connected_graph_extensions(n)


def test_connected_graph_classes_match_oeis():
    """A001349: connected graphs on n unlabeled vertices."""
    counts = [len(connected_graph_classes(n)) for n in range(1, 8)]
    assert counts == [1, 1, 2, 6, 21, 112, 853]


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


def two_sum(g1, g2, rng):
    """g1 and g2 (dense ids) glued along a random edge of each, as the
    glued graph with and without that edge; g2's other vertices follow
    g1's."""
    a, b = rng.choice(g1.edges())
    a2, b2 = rng.choice(g2.edges())
    label = {a2: a, b2: b}
    label.update((v, g1.n + i) for i, v in enumerate(sorted(g2.vertices - {a2, b2})))
    edges = set(g1.edges()) | {tuple(sorted((label[u], label[w]))) for u, w in g2.edges()}
    vs = range(g1.n + g2.n - 2)
    return Graph(vs, edges), Graph(vs, edges - {(a, b)})


def two_sums(count, seed):
    """Seeded 2-sums of two 3-connected random planar graphs along an
    edge, each with and without that edge.  Every one is planar,
    2-connected with minimum degree 3, and has a 2-cut."""
    pool = []
    for k in range(40):
        g, _ = random_connected_planar(4 + k % 8, 3 * (4 + k % 8), k)
        if connectivity_at_least(g, 3):
            pool.append(g)
    rng = random.Random(seed)
    for _ in range(count):
        yield from two_sum(*rng.sample(pool, 2), rng)


def relabelled(g, rng):
    """g under random sparse ids, so the search's root and scan orders move."""
    vs = sorted(g.vertices)
    ids = rng.sample(range(10 * len(vs) + 10), len(vs))
    label = dict(zip(vs, ids))
    return Graph(ids, [(label[u], label[w]) for u, w in g.edges()])


def three_connectivity_cases():
    """Every connected class up to 7 vertices; seeded G(n, p) on 4-16
    vertices; chains of one to three 2-sums of 3-connected G(n, p)
    pieces (not planar as a rule), with and without each glued edge;
    chains of such pieces glued at cut vertices, open and closed into a
    ring by one edge; seeded random planar graphs on 4-20 vertices;
    planar 2-sums; the hub instances at rims 24-240 with and without rim
    edge 01; the drum at quarters 15 and 30; the gadget H; K_{3,t} and
    K_{2,t} plus an edge; and G42."""
    rng = random.Random(14)
    yield from corpus_graphs(7)

    def gnp(n, p):
        return Graph(range(n), [e for e in itertools.combinations(range(n), 2) if rng.random() < p])

    for _ in range(600):
        yield gnp(rng.randint(4, 16), rng.choice((0.2, 0.3, 0.5, 0.7)))
    pool = [g for g in (gnp(rng.randint(4, 10), rng.choice((0.5, 0.7, 1.0))) for _ in range(300))
            if three_connected_by_low_point(g)]
    for _ in range(1000):
        g = rng.choice(pool)
        for _ in range(rng.randint(1, 3)):
            g = two_sum(g, rng.choice(pool), rng)[rng.random() < 0.5]
        yield g
    for _ in range(60):
        edges, n = [], 1
        for g in rng.sample(pool, rng.randint(2, 4)):
            # the piece's vertex 0 is the previous piece's last vertex
            edges += [(u + n - 1, w + n - 1) for u, w in g.edges()]
            n += g.n - 1
        yield Graph(range(n), edges)
        yield Graph(range(n), edges + [(1, n - 2)])
    for seed in range(300):
        draw = random.Random(seed)
        n = draw.randint(4, 20)
        yield random_connected_planar(n, draw.randint(0, 2 * n - 6), seed)[0]
    yield from two_sums(60, 42)
    for hubs, rim in ((1, 24), (1, 60), (2, 24), (2, 60), (3, 30), (3, 60), (3, 240)):
        g = generate_hub_instance(hubs, rim, 7)[0].g
        yield g
        yield Graph(g.vertices, [e for e in g.edges() if e != (0, 1)])
    yield drum_plane(quarter=15).g
    yield drum_plane(quarter=30).g
    yield gadget_h_plane().g
    for t in range(1, 13):
        yield Graph(range(3 + t), [(i, 3 + j) for i in range(3) for j in range(t)])
        yield Graph(range(2 + t), [(0, 1)] + [(i, 2 + j) for i in range(2) for j in range(t)])
    yield build_G42()[0]


def test_three_connectivity_matches_low_point_pass():
    rng = random.Random(3)
    ran = guarded_no = 0
    for g in three_connectivity_cases():
        h = relabelled(g, rng)
        want = three_connected_by_low_point(h)
        assert connectivity_at_least(h, 3) == want, h.edges()
        if h.n < 100:
            assert connectivity_by_deletion(h, 3) == want, h.edges()
        ran += 1
        guarded_no += (not want and h.n >= 4 and min(map(len, h.adj.values())) >= 3
                       and connectivity_at_least(h, 2))
    assert ran > 8000
    assert guarded_no >= 1000, guarded_no


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


def test_reversed_bfs_queue_matches_reference():
    def same_orders(g, sources):
        queue = bfs_parents(g, *sources)[1]
        assert queue[len(sources):][::-1] == _reverse_bfs_from(g, sources)
        if len(sources) == 1:
            assert queue[::-1] == _reverse_bfs_from(g, sources) + list(sources)

    for n in range(1, 7):
        for g in connected_graph_classes(n):
            for r in (1, 2, 3):
                for sources in itertools.combinations(range(n), r):
                    same_orders(g, sources)
    rng = random.Random(29)
    for seed in range(200):
        n = 4 + seed % 17
        g, _ = random_connected_planar(n, n, seed)
        for v in range(n):
            same_orders(g, (v,))
        for r in (2, 3):
            same_orders(g, tuple(rng.sample(range(n), r)))


def test_block_kind_matches_subgraph_reference():
    kinds = set()
    for g in itertools.chain(corpus_graphs(7), random_graphs(300, 5)):
        for blk in blocks_and_cut_vertices(g)[0]:
            kind = block_kind(g, blk)
            assert kind == block_kind_by_subgraph(g, blk), (g.edges(), blk)
            kinds.add(kind)
    assert kinds == {"complete", "cycle", None}


def search_outcome(search, *args):
    """("witness", items in order), ("none",), ("trip", message) or
    ("error", message) of search(*args): a cover and a budget, or a
    graph, its lists and a budget."""
    try:
        col = search(*args)
    except InstanceTooLarge as exc:
        return ("trip", str(exc))
    except ValueError as exc:
        return ("error", str(exc))
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
        assert find_dp_coloring(cover) is None and chain_reference(i)[0] is None


class CountingBudget(int):
    """A budget no search reaches that keeps the highest node count it
    was compared with.  Both searches test `nodes > budget`, which
    Python hands to this subclass's __lt__ first."""

    def __new__(cls):
        self = super().__new__(cls, 1 << 62)
        self.nodes = 0
        return self

    def __lt__(self, nodes):
        self.nodes = max(self.nodes, nodes)
        return False


def counted_outcome(search, cover):
    """(witness items in order, or None; color attempts made)."""
    budget = CountingBudget()
    col = search(cover, budget)
    return (None if col is None else list(col.items())), budget.nodes


@functools.cache
def chain_reference(i):
    """counted_outcome of the recursive reference on chain case i.  It
    takes 68,459 color attempts per case, so the two tests that
    read it share one run."""
    return counted_outcome(recursive_dp_coloring, induced_cover(*chain_case(i))[0])


def relabelled_lists(g, lists, rng):
    """g and its lists under random sparse ids."""
    vs = sorted(g.vertices)
    label = dict(zip(vs, rng.sample(range(10 * len(vs) + 10), len(vs))))
    return (Graph(label.values(), [(label[u], label[w]) for u, w in g.edges()]),
            {label[v]: ts for v, ts in lists.items()})


def with_reference(cover):
    return cover, counted_outcome(recursive_dp_coloring, cover)


def backjumping_cases():
    """(cover, counted_outcome of the recursive reference) on the 42
    chain cases; K_{2,k^2} for k <= 5, each under three seeded
    relabellings; seeded list assignments on 12-16 vertices with lists
    of 2-3 tokens out of 3-5, dense enough that the search hits dead
    ends several levels below their cause; and the same on two random
    pieces of 7-9 vertices with their labels interleaved, so that the
    pick alternates between the pieces and a dead end in one piece
    jumps over the levels of the other."""
    for i in range(42):
        yield induced_cover(*chain_case(i))[0], chain_reference(i)
    rng = random.Random(16)
    for k in range(1, 6):
        for _ in range(3):
            yield with_reference(induced_cover(*relabelled_lists(*build_k2_k2(k), rng))[0])
    for _ in range(2000):
        n = rng.randint(12, 16)
        p = rng.choice((0.2, 0.3, 0.4))
        g = Graph(range(n), [e for e in itertools.combinations(range(n), 2) if rng.random() < p])
        tokens = range(rng.randint(3, 5))
        yield with_reference(induced_cover(g, {v: rng.sample(tokens, rng.randint(2, 3))
                                               for v in g.vertices})[0])
    for _ in range(1000):
        n1, n2 = rng.randint(7, 9), rng.randint(7, 9)
        label = rng.sample(range(n1 + n2), n1 + n2)
        p = rng.choice((0.4, 0.5))
        edges = [(label[a], label[b]) for piece in (range(n1), range(n1, n1 + n2))
                 for a, b in itertools.combinations(piece, 2) if rng.random() < p]
        tokens = range(rng.randint(3, 5))
        yield with_reference(induced_cover(Graph(range(n1 + n2), edges),
                                           {v: rng.sample(tokens, rng.randint(2, 3))
                                            for v in label})[0])


def test_backjumping_keeps_forward_checking_witnesses_in_fewer_nodes():
    """The search against the recursive forward-checking search: same
    verdict, same witness in the same order, and never more color
    attempts, so no budget the reference meets trips the search."""
    seen = set()
    fewer = 0
    for cover, (want, want_nodes) in backjumping_cases():
        got, got_nodes = counted_outcome(find_dp_coloring, cover)
        assert got == want and got_nodes <= want_nodes, \
            (cover.sizes, [(e, cover.edge_pairs(*e)) for e in cover.g.edges()])
        seen.add(want is None)
        fewer += got_nodes < want_nodes
    assert seen == {True, False}
    assert fewer >= 100, fewer


def tied_class_covers(count, seed):
    """Seeded covers whose picks tie across degree classes.  Each list
    holds as many colors as its vertex has neighbors, or half as many
    rounded up, so ratios such as 1 / 2 and 2 / 4 meet; a vertex of
    degree 0 gets 0-2 colors.  The ids go by descending degree, so the
    smallest vertex of a tie sits in its highest degree class."""
    rng = random.Random(seed)
    for g in random_graphs(count, seed):
        vs = sorted(g.vertices, key=lambda v: (-g.degree(v), rng.random()))
        label = dict(zip(vs, range(len(vs))))
        h = Graph(range(len(vs)), [(label[u], label[w]) for u, w in g.edges()])
        sizes = {v: rng.choice((h.degree(v), (h.degree(v) + 1) // 2)) if h.degree(v)
                 else rng.randrange(3) for v in h.vertices}
        matchings = {}
        for u, w in h.edges():
            cols = rng.sample(range(sizes[w]), min(sizes[u], sizes[w]))
            matchings[(u, w)] = [(i, j) for i, j in enumerate(cols) if rng.random() < 0.8]
        yield Cover(h, sizes, matchings)


def first_pick_ties_classes(cover):
    """Whether the least ratio colors left / degree at the start is
    shared by vertices of two degree classes."""
    g = cover.g
    least = min((Fraction(cover.sizes[v], g.degree(v)) for v in g.vertices if g.degree(v)),
                default=None)
    return len({g.degree(v) for v in g.vertices
                if g.degree(v) and Fraction(cover.sizes[v], g.degree(v)) == least}) > 1


def test_search_matches_reference_search():
    """The search against the one it replaced, which picked from buckets
    by colors left alone and then scanned the later buckets for a better
    ratio: same verdict, same witness in the same order, and the same
    number of color attempts n, checked as the budget the search answers
    under while n - 1 trips it."""
    covers = [*random_covers(300, 43), *tied_class_covers(300, 44),
              *(induced_cover(*chain_case(i))[0] for i in range(42)),
              induced_cover(*build_k2_k2(6))[0]]
    seen = set()
    ties = 0
    for cover in covers:
        want, attempts = counted_outcome(reference_find_dp_coloring, cover)
        assert search_outcome(find_dp_coloring, cover, attempts) == \
            (("none",) if want is None else ("witness", want)), \
            (cover.sizes, [(e, cover.edge_pairs(*e)) for e in cover.g.edges()])
        if attempts:
            with pytest.raises(InstanceTooLarge):
                find_dp_coloring(cover, attempts - 1)
        degrees = {cover.g.degree(v) for v in cover.g.vertices}
        if 0 in degrees and len(degrees) > 1:
            seen.add("degree 0")
        if 0 in cover.sizes.values():
            seen.add("empty list")
        ties += first_pick_ties_classes(cover)
        seen.add(want is None)
    assert seen == {"degree 0", "empty list", True, False}
    assert ties >= 50, ties


def list_instances():
    """Seeded list assignments on 0-9 vertices, half of them under sparse
    ids, each list 0-5 tokens out of four ints and three strings (empty
    with chance 0.03); seeded list assignments on 5-12 vertices, 1-3 of
    them hubs joined to nearly all others, where a color attempt can
    take the last color of two neighbors, so the order of a slot's
    strikes decides which one is blamed and can change the attempt
    count; the 42 chain cases; H; K_{2,4} and K_{2,36} with
    their lists; the ks instance at s = k = 3; and 2-list paths of 250,
    500 and 5,000 vertices."""
    rng = random.Random(35)
    for _ in range(400):
        n = rng.randint(0, 9)
        g = Graph(range(n), [e for e in itertools.combinations(range(n), 2)
                             if rng.random() < 0.35])
        lists = {v: rng.sample((0, 1, 2, 3, "a", "b", "c"),
                               0 if rng.random() < 0.03 else rng.randint(1, 5))
                 for v in g.vertices}
        yield relabelled_lists(g, lists, rng) if rng.random() < 0.5 else (g, lists)
    for _ in range(3000):
        n = rng.randint(5, 12)
        hubs = rng.randint(1, 3)
        p = rng.choice((0.15, 0.25, 0.35))
        g = Graph(range(n), [(u, w) for u, w in itertools.combinations(range(n), 2)
                             if rng.random() < (0.9 if u < hubs else p)])
        tokens = range(rng.randint(2, 4))
        yield g, {v: rng.sample(tokens, rng.randint(1, len(tokens))) for v in g.vertices}
    for i in range(42):
        yield chain_case(i)
    yield gadget_h()
    yield build_k2_k2(2)
    yield build_k2_k2(6)
    yield build_ks_minus1(3, 3)
    for n in (250, 500, 5000):
        yield (Graph(range(n), [(i, i + 1) for i in range(n - 1)]),
               {v: ["a", "b"] for v in range(n)})


def test_list_search_matches_induced_cover_search():
    """solve_list against the search it replaced, induced_cover and then
    find_dp_coloring: the same witness in the same order, and the same
    number of color attempts n, checked as the budget the list search
    answers under while n - 1 trips both with the same message; on bad
    lists, the same ValueError."""
    seen = set()
    for g, lists in list_instances():
        budget = CountingBudget()
        want = search_outcome(reference_solve_list, g, lists, budget)
        attempts = budget.nodes
        assert search_outcome(solve_list, g, lists, attempts) == want, (g.edges(), lists)
        if attempts:
            trip = search_outcome(solve_list, g, lists, attempts - 1)
            assert trip[0] == "trip"
            assert trip == search_outcome(reference_solve_list, g, lists, attempts - 1)
        seen.add(want[0])
        if any(len({type(t) for t in ts}) == 2 for ts in lists.values()):
            seen.add("mixed tokens")
        if any(not ts for ts in lists.values()):
            seen.add("empty list")
        if any(not g.adj[v] for v in g.vertices):
            seen.add("isolated vertex")
        if not g.vertices:
            seen.add("no vertex")
    assert seen == {"witness", "none", "mixed tokens", "empty list", "isolated vertex",
                    "no vertex"}
    p3 = Graph(range(3), [(0, 1), (1, 2)])
    bad = [{0: [1], 1: [2], 2: [3], 9: [1], 5: [1]},
           {0: [1], 2: [3]}, {1: [1]},
           {0: [1], 1: ["a", 2, "a"], 2: [3]},
           {0: [1, 1], 2: [3]}, {1: [2, 2]},
           {0: [1], 1: [2], 2: [3], 3: [1, 1]}]
    for lists in bad:
        want = search_outcome(reference_solve_list, p3, lists, None)
        assert want[0] == "error"
        assert search_outcome(solve_list, p3, lists, None) == want


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


def test_dp_oracle_matches_reference_when_the_root_has_subset_forms():
    """400 seeded six-vertex inputs, each size in 1..deg+1, where the
    root (vertex 0) has a neighbor with a smaller size, so its tree forms
    are subsets, and with at most 100,000 covers of maximal matchings,
    where the reference is quick; each is also relabelled so that
    another vertex is the root."""
    pool = connected_graph_classes(6)
    rng = random.Random(37)
    seen = set()
    inputs = 0
    while inputs < 400:
        g = rng.choice(pool)
        f = {v: rng.randint(1, g.degree(v) + 1) for v in sorted(g.vertices)}
        if all(f[w] >= f[0] for w in g.adj[0]) or math.prod(
                math.perm(max(f[u], f[w]), min(f[u], f[w])) for u, w in g.edges()) > 100_000:
            continue
        inputs += 1
        perm = list(range(6))
        while perm[0] == 0:
            rng.shuffle(perm)
        h = Graph(range(6), [(min(perm[u], perm[w]), max(perm[u], perm[w])) for u, w in g.edges()])
        for gi, fi in ((g, f), (h, {perm[v]: f[v] for v in f})):
            want = oracle_outcome(reference_dp_f_colorable, gi, fi)
            assert oracle_outcome(is_dp_f_colorable, gi, fi) == want, (gi.edges(), fi)
            seen.add(want[0])
    assert seen == {True, False}


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


# PROTECTION_RUNS, the planar drum march at quarter 60, and the minor
# pipeline on the drum with the march's perm at quarters 15, 30 and 60
RECORD_RUNS = dict(PROTECTION_RUNS, **{"planar-drum-q60": lambda: _planar_drum(60)})
RECORD_RUNS.update(("minor-drum-perm-q%d" % q, lambda q=q: _minor(
    lambda: drum_minor_instance(q, (0, 3, 1, 2)))) for q in (15, 30, 60))


def rebuilt_record(state):
    """The safe set, each unsafe component's cut vertices and the next
    (R1) pick, from scratch: oracles.is_safe recounts the colors left
    from the cover, and each unsafe component's uncolored part is
    rebuilt by edge filtering and searched for blocks."""
    safe, cuts = set(), {}
    for qi, comp in enumerate(state.comps):
        if is_safe(state.g, state.cover, comp, state.phi):
            safe.add(qi)
        else:
            rest = [v for v in comp if v not in state.phi]
            cuts[qi] = blocks_and_cut_vertices(subgraph_by_edge_filter(state.g, rest))[1]
    free = [v for qi, cut in cuts.items() for v in state.comps[qi]
            if v not in state.phi and v not in cut
            and all(w not in state.v2 or w in state.phi for w in state.g.adj[v])]
    return safe, cuts, min(free, default=None)


def kept_record(state):
    """The same three, as the run state keeps them."""
    return set(state.safe), state.cut_vertices(), state.next_free()


@pytest.mark.parametrize("name", sorted(RECORD_RUNS))
def test_record_matches_rebuild_after_every_step(monkeypatch, name):
    steps = []

    def checked(step):
        def run(state):
            out = step(state)
            steps.append(step.__name__)
            assert kept_record(state) == rebuilt_record(state), (step.__name__, len(steps))
            return out
        return run

    for module in (planar_truncated, minor_truncated):
        for attr in ("step_r1", "step_r2"):
            monkeypatch.setattr(module, attr, checked(getattr(module, attr)))
    trace = []
    RECORD_RUNS[name]()(trace)
    assert steps.count("step_r2") == sum(ln.startswith("R2") for ln in trace)
    assert name.startswith("minor-double") or any(ln.startswith("R1") for ln in trace)


# a triangle with pendant vertices 3 and 4 at 0, drawn in two of its faces
PENDANT_TRIANGLE = (Graph(range(5), [(0, 1), (1, 2), (0, 2), (0, 3), (0, 4)]),
                    {0: (1, 3, 2, 4), 1: (2, 0), 2: (0, 1), 3: (0,), 4: (0,)})


def very_nice_cases():
    """(plane graph, v_star): every planar class on 6 vertices, and a
    triangle with two pendant vertices at 0 drawn in two of its faces,
    under every outer face and outer v_star, seeded random planar graphs
    on 20-30 vertices with 10-40 extra edges, the hubs 2 and hubs 3
    instances at rim 60, and a chain of 60 triangles under its long
    face and the faces of its first, middle and last triangle, with the
    smallest outer v_star.  The triangle is a leaf block whose rest lies
    in two of its faces, so the leaf-block pick passes it over; the
    chain is 59 stacked leaf-block splits."""
    for g, rot in planar_classes(6) + [PENDANT_TRIANGLE]:
        for outer in range(PlaneGraph(g, rot).face_count()):
            pg = PlaneGraph(g, rot)
            pg.outer = outer
            for v_star in sorted(pg.face_vertices(outer)):
                yield pg, v_star
    rng = random.Random(11)
    for seed in range(30):
        pg = PlaneGraph(*random_connected_planar(rng.randint(20, 30), rng.randint(10, 40), seed))
        for v_star in sorted(pg.face_vertices(pg.outer)):
            yield pg, v_star
    for hubs in (2, 3):
        pg = generate_hub_instance(hubs, 60, 1)[0]
        yield pg, min(pg.face_vertices(pg.outer))
    chain = PlaneGraph(*triangle_chain(60))
    faces = {frozenset(chain.face_vertices(f)): f for f in range(chain.face_count())}
    for outer in (range(121), (0, 1, 2), (60, 61, 62), (118, 119, 120)):
        pg = PlaneGraph(chain.g, chain.rot)
        pg.outer = faces[frozenset(outer)]
        yield pg, min(outer)


def test_very_nice_subgraph_matches_reference(monkeypatch):
    fired = dict.fromkeys(("_vns_ear", "_vns_suppress", "_vns_interior", "_vns_leaf_block"), 0)
    for name in fired:
        def counted(*args, _step=getattr(plane_embed, name), _name=name):
            fired[_name] += 1
            return (yield from _step(*args))
        monkeypatch.setattr(plane_embed, name, counted)
    face_tests = []
    face_test = plane_embed._faces_around

    def checked(wd, u):
        got = face_test(wd, u)
        g = Graph(wd.succ, [(a, b) for a in wd.succ for b in wd.succ[a] if a < b])
        assert (got is not None) == connectivity_at_least(g.without_vertex(u), 2), (g.edges(), u)
        if got is not None:
            # face theta[t] leaves u towards the next neighbor, so paths[t]
            # runs from nbrs[t + 1] to nbrs[t]
            nbrs, theta, walks = got
            for t, walk in enumerate(walks):
                assert walk[1] == (u, nbrs[(t + 1) % len(nbrs)]), (g.edges(), u, theta[t])
        face_tests.append(got is not None)
        return got

    monkeypatch.setattr(plane_embed, "_faces_around", checked)
    # each interior candidate's face test reads one rotation, a leaf-block
    # split one per block it tries: the surplus counts the blocks passed over
    rotations = []
    around = plane_embed._Drawing.around
    monkeypatch.setattr(plane_embed._Drawing, "around",
                        lambda wd, v: rotations.append(v) or around(wd, v))
    ran = 0
    for pg, v_star in very_nice_cases():
        before = (pg.rot, list(pg.faces), dict(pg._edge_face), pg.outer)
        want = reference_very_nice_subgraph(pg, v_star)
        got = very_nice_subgraph(pg, v_star)
        assert got == want, (pg.g.edges(), pg.rot, pg.outer, v_star)
        assert (pg.rot, pg.faces, pg._edge_face, pg.outer) == before
        assert set(inner_face_misses(pg, got).values()) <= {2}, (pg.g.edges(), pg.outer, v_star)
        ran += 1
    assert ran > 1000
    assert min(fired.values()) > 0, fired
    assert set(face_tests) == {True, False}
    assert len(rotations) - len(face_tests) - fired["_vns_leaf_block"] == 4


def test_face_walks_read_two_connectivity():
    """No face walk repeats a vertex exactly when the block search finds
    one block, on every drawing of very_nice_cases, a tree and the
    pendant triangle; both answers occur."""
    tree = (Graph(range(5), [(0, 1), (1, 2), (1, 3), (3, 4)]),
            {0: (1,), 1: (0, 2, 3), 2: (1,), 3: (1, 4), 4: (3,)})
    drawings = [PlaneGraph(*tree), PlaneGraph(*PENDANT_TRIANGLE)]
    for pg, _ in very_nice_cases():
        # the cases yield one drawing once per v_star, in a row
        if pg is not drawings[-1]:
            drawings.append(pg)
    answers = []
    for pg in drawings:
        got = plane_embed._one_block(pg)
        assert got == (len(blocks_and_cut_vertices(pg.g)[0]) == 1), (pg.g.edges(), pg.rot)
        answers.append(got)
    assert set(answers) == {True, False}, answers


def augment_cases(rng):
    """(3-connected drawing, outer face ids): the planar classes on 4-6
    vertices, seeded random planar graphs that pass
    connectivity_at_least(g, 3), hubs 1-3 and the gadget H under every
    outer face; the drum at quarters 15 and 30 under face 0 and five
    seeded other faces, since the reference rebuilds the drum once per
    chord and every face at three densities would take a minute."""
    for n in range(4, 7):
        for g, rot in planar_classes(n):
            if connectivity_at_least(g, 3):
                yield PlaneGraph(g, rot), None
    for seed in range(60):
        draw = random.Random(seed)
        g, rot = random_connected_planar(draw.randint(8, 16), draw.randint(12, 30), seed)
        if connectivity_at_least(g, 3):
            yield PlaneGraph(g, rot), None
    for hubs, rim in ((1, 20), (2, 24), (3, 31)):
        yield generate_hub_instance(hubs, rim, 1)[0], None
    yield gadget_h_plane(), None
    for quarter in (15, 30):
        pg = drum_plane(quarter)
        yield pg, [0] + rng.sample(range(1, pg.face_count()), 5)


def test_augment_visibility_matches_reference():
    rng = random.Random(23)
    ran = kept = 0
    for pg, outers in augment_cases(rng):
        for outer in outers or range(pg.face_count()):
            pg.outer = outer
            for density in (0.3, 0.6, 0.9):
                v2 = {v for v in sorted(pg.g.vertices) if rng.random() < density}
                want = reference_augment_visibility(pg, v2)
                got = augment_visibility(pg, v2)
                assert (got is pg) == (want is pg)
                assert (got.rot, got.faces, got.outer) == (want.rot, want.faces, want.outer), \
                    (pg.g.edges(), pg.rot, outer, sorted(v2))
                ran += 1
                kept += want is pg
    assert ran > 3000
    assert 0 < kept < ran


def ring_of_hubs(hubs, fan=17):
    """hubs hubs on a cycle that bounds one hubs-gon face, each fanned to
    fan vertices of the outer rim cycle, neighbouring fans sharing their
    end vertex: 3-connected, with the hubs as V2 (rim vertices first,
    hubs last), and the hubs-gon needs hubs - 3 chords."""
    q = fan - 1
    n_o = q * hubs
    hub = lambda j: n_o + j % hubs
    out = lambda i: i % n_o
    rot = {hub(j): (hub(j + 1), hub(j - 1)) + tuple(out(i) for i in range(q * j, q * j + fan))
           for j in range(hubs)}
    for i in range(n_o):
        if i % q == 0:
            rot[out(i)] = (out(i + 1), hub(i // q), hub(i // q - 1), out(i - 1))
        else:
            rot[out(i)] = (out(i + 1), hub(i // q), out(i - 1))
    return PlaneGraph(drawn_graph(rot), rot)


def test_augment_visibility_chords_the_ring_in_one_build(monkeypatch):
    hubs = 60
    pg = ring_of_hubs(hubs)
    v2 = partition_threshold(pg.g)[1]
    assert v2 == frozenset(range(pg.g.n - hubs, pg.g.n)) and connectivity_at_least(pg.g, 3)
    want = reference_augment_visibility(pg, v2)
    builds = []
    build = PlaneGraph.__init__

    def counted(self, g, rot):
        builds.append(g.m)
        build(self, g, rot)

    monkeypatch.setattr(PlaneGraph, "__init__", counted)
    aug = augment_visibility(pg, v2)
    monkeypatch.undo()
    assert builds == [pg.g.m + hubs - 3]
    for fid in range(aug.face_count()):
        on = [v for v in aug.face_vertices(fid) if v in v2]
        assert all(aug.g.has_edge(a, b) for a, b in itertools.combinations(on, 2)), fid
    assert (aug.rot, aug.faces, aug.outer) == (want.rot, want.faces, want.outer)


def test_color_planar_on_the_ring_matches_reference_chords(monkeypatch):
    pg = ring_of_hubs(60)
    sizes = degree_truncated_sizes(pg.g, THRESHOLD)
    runs = []
    for chords in (augment_visibility, reference_augment_visibility):
        monkeypatch.setattr(planar_truncated, "augment_visibility", chords)
        cover = Cover(pg.g, sizes, random_tight_matchings(pg.g, sizes, Xorshift64Star(5)))
        trace = []
        runs.append((color_planar_truncated(pg, cover, trace), trace))
    assert runs[0] == runs[1]
    assert any(ln.startswith("R2") for ln in runs[0][1])


def _planar_run(pg, cover):
    return lambda: color_planar_truncated(pg, cover)


def _hub_runs():
    runs = []
    for hubs in (1, 2, 3):
        for rim in ((20, 30, 60, 120) if hubs < 3 else (30, 60, 120)):
            for seed in (1, 2, 3):
                pg, cover = generate_hub_instance(hubs, rim, seed)
                runs.append(_planar_run(pg, cover))
                if hubs > 1:
                    params = desk_params(hubs, 2, q=6, k=16, peel_bound=2, degeneracy_bound=1)
                    runs.append(lambda g=pg.g, c=cover, p=params: color_minor_truncated(g, c, p))
    return runs


def _ring_runs():
    pg = ring_of_hubs(25)
    sizes = degree_truncated_sizes(pg.g, THRESHOLD)
    cover = Cover(pg.g, sizes, random_tight_matchings(pg.g, sizes, Xorshift64Star(5)))
    return [_planar_run(pg, cover)]


def _polyhedra_runs():
    return [_planar_run(pg, tight_cover(pg.g, seed))
            for pg in map(nx_plane, ("icosahedron", "dodecahedron")) for seed in (1, 2, 3, 4, 5)]


# name -> () -> runs, each a pipeline call that reaches finish
FINISH_RUNS = {
    "drum": lambda: [_planar_run(pg, drum_forcing_cover(pg))
                     for pg in (drum_plane(q, perm=(0, 3, 1, 2)) for q in (15, 30, 60))]
    + [lambda q=q: color_minor_truncated(*drum_minor_instance(q, (0, 3, 1, 2)))
       for q in (15, 30, 60)],
    "hubs": _hub_runs,
    "ring": _ring_runs,
    "polyhedra": _polyhedra_runs,
}


@pytest.mark.parametrize("name", sorted(FINISH_RUNS))
def test_finish_matches_reference(monkeypatch, name):
    """finish, on the run's live lists, against the finisher that built
    a residual cover and a sub-cover per component: the same coloring,
    in the same dict order, from a deep copy of each closing state."""
    finished = []
    real = planar_truncated.finish

    def compared(state):
        want = reference_finish(copy.deepcopy(state))
        got = real(copy.deepcopy(state))
        assert list(got.items()) == list(want.items())
        finished.append(len(got) - len(state.phi))
        return got

    awkward = []
    block = dp_cover._color_awkward_block

    def counted(cover, avail, coloring, blk):
        awkward.append(len(blk))
        block(cover, avail, coloring, blk)

    for module in (planar_truncated, minor_truncated):
        monkeypatch.setattr(module, "finish", compared)
    monkeypatch.setattr(dp_cover, "_color_awkward_block", counted)
    runs = FINISH_RUNS[name]()
    for run in runs:
        run()
    assert len(finished) == len(runs)
    assert all(finished)
    assert bool(awkward) == (name == "polyhedra"), awkward


def test_is_nice_matches_reference():
    rng = random.Random(5)
    kinds = set()
    for n in range(1, 6):
        for g, rot in planar_classes(n):
            pg = PlaneGraph(g, rot)
            pairs = sorted(vertex_face_incidences(pg))
            stray = [(v, pg.face_count()) for v in sorted(g.vertices)]
            for _ in range(40):
                pg.outer = rng.randrange(pg.face_count())
                h = set(rng.sample(pairs, rng.randint(0, len(pairs))))
                if rng.random() < 0.2:
                    h.add(rng.choice(stray))
                very = rng.choice([None] + sorted(g.vertices))
                want = reference_is_nice(pg, h, very=very)
                assert is_nice(pg, h, very=very) == want, (g.edges(), sorted(h), very)
                kinds.update(" ".join(re.sub("[^a-z ]", "", msg).split()) for msg in want[1])
                kinds.add(want[0])
    assert kinds == {True, False, "not an incidence vertex face", "vertex covered times",
                     "face misses vertices", "face misses vertices across blocks",
                     "outer face not saturated missing", "designated vertex has degree"}, kinds
