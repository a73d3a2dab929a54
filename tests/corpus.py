"""Shared test corpora: small graph catalogs and generators.

connected_graph_classes(n) lists one representative per isomorphism
class of connected graphs on n vertices, built by attaching a fresh
vertex to every nonempty subset of each (n-1)-class and deduplicating
by the minimum edge bitmask over all vertex permutations.
"""

import itertools

from dpchroma.core_graph import Graph

_CLASS_CACHE = {}


def _perm_tables(n):
    eidx = {e: i for i, e in enumerate(itertools.combinations(range(n), 2))}
    tables = []
    for perm in itertools.permutations(range(n)):
        tab = [0] * len(eidx)
        for (u, w), i in eidx.items():
            a, b = perm[u], perm[w]
            tab[i] = eidx[(min(a, b), max(a, b))]
        tables.append(tab)
    return eidx, tables


def _canon(mask, tables):
    best = None
    for tab in tables:
        m = 0
        rem = mask
        while rem:
            low = rem & -rem
            m |= 1 << tab[low.bit_length() - 1]
            rem ^= low
        if best is None or m < best:
            best = m
    return best


def connected_graph_classes(n):
    if n in _CLASS_CACHE:
        return _CLASS_CACHE[n]
    if n == 1:
        out = [Graph([0], [])]
        _CLASS_CACHE[n] = out
        return out
    eidx, tables = _perm_tables(n)
    seen = set()
    out = []
    for small in connected_graph_classes(n - 1):
        base = 0
        for u, w in small.edges():
            base |= 1 << eidx[(u, w)]
        v = n - 1
        for r in range(1, n):
            for sub in itertools.combinations(range(n - 1), r):
                mask = base
                for u in sub:
                    mask |= 1 << eidx[(u, v)]
                c = _canon(mask, tables)
                if c not in seen:
                    seen.add(c)
                    edges = [e for e, i in eidx.items() if mask >> i & 1]
                    out.append(Graph(range(n), edges))
    _CLASS_CACHE[n] = out
    return out


def connected_graph_extensions(n):
    """Every connected graph class on n >= 2 vertices, with repeats.

    Each (n-1)-class gets a fresh vertex joined to every nonempty
    subset, as in connected_graph_classes(n) but without the canonical
    deduplication that makes n = 7 take over a minute.
    """
    out = []
    for small in connected_graph_classes(n - 1):
        for r in range(1, n):
            for sub in itertools.combinations(range(n - 1), r):
                out.append(Graph(range(n), small.edges() + [(u, n - 1) for u in sub]))
    return out


def nx_planar_rotation(g: Graph):
    """Rotation system for g from networkx's planarity test, or None.

    networkx is only an embedding provider here; all face structure is
    rebuilt by our own tracing.
    """
    import networkx as nx

    G = nx.Graph()
    G.add_nodes_from(sorted(g.vertices))
    G.add_edges_from(g.edges())
    ok, emb = nx.check_planarity(G)
    if not ok:
        return None
    data = emb.get_data()
    return {v: tuple(data[v]) for v in g.vertices}


def planar_classes(n):
    """Connected planar representatives on n vertices with one rotation each."""
    out = []
    for g in connected_graph_classes(n):
        rot = nx_planar_rotation(g)
        if rot is not None:
            out.append((g, rot))
    return out


def random_connected_planar(n, extra_edges, seed):
    """Random connected planar graph: random tree plus planar chords."""
    import random

    import networkx as nx

    rng = random.Random(seed)
    G = nx.Graph()
    G.add_nodes_from(range(n))
    order = list(range(1, n))
    rng.shuffle(order)
    avail = [0]
    for v in order:
        G.add_edge(v, rng.choice(avail))
        avail.append(v)
    added = 0
    tries = 0
    while added < extra_edges and tries < 30 * extra_edges:
        tries += 1
        u, w = rng.sample(range(n), 2)
        if G.has_edge(u, w):
            continue
        G.add_edge(u, w)
        if nx.check_planarity(G)[0]:
            added += 1
        else:
            G.remove_edge(u, w)
    g = Graph(range(n), [(min(u, w), max(u, w)) for u, w in G.edges()])
    rot = nx_planar_rotation(g)
    assert rot is not None
    return g, rot
