"""Shared test corpora: small graph catalogs and generators.

connected_graph_classes(n) lists one representative per isomorphism
class of connected graphs on n vertices, built by attaching a fresh
vertex to every nonempty subset of each (n-1)-class and deduplicating
by a canonical edge bitmask (see _canonical_mask).
"""

import itertools

from dpchroma.core_graph import Graph

_CLASS_CACHE = {}


def _canonical_mask(n, edges, eidx):
    """Smallest edge bitmask over the labelings that order the vertices
    by (degree, sorted neighbor degrees), any order within a tie; an
    isomorphism maps those labelings onto each other, so isomorphic
    graphs get equal masks."""
    adj = [set() for _ in range(n)]
    for u, w in edges:
        adj[u].add(w)
        adj[w].add(u)
    cells = {}
    for v in range(n):
        key = (len(adj[v]), tuple(sorted(len(adj[w]) for w in adj[v])))
        cells.setdefault(key, []).append(v)
    best = None
    for parts in itertools.product(*(itertools.permutations(cells[k]) for k in sorted(cells))):
        label = {v: i for i, v in enumerate(itertools.chain.from_iterable(parts))}
        mask = 0
        for u, w in edges:
            a, b = label[u], label[w]
            mask |= 1 << eidx[(a, b) if a < b else (b, a)]
        if best is None or mask < best:
            best = mask
    return best


def connected_graph_classes(n):
    if n in _CLASS_CACHE:
        return _CLASS_CACHE[n]
    if n == 1:
        out = [Graph([0], [])]
        _CLASS_CACHE[n] = out
        return out
    eidx = {e: i for i, e in enumerate(itertools.combinations(range(n), 2))}
    seen = set()
    out = []
    for small in connected_graph_classes(n - 1):
        base = small.edges()
        for r in range(1, n):
            for sub in itertools.combinations(range(n - 1), r):
                edges = base + [(u, n - 1) for u in sub]
                c = _canonical_mask(n, edges, eidx)
                if c not in seen:
                    seen.add(c)
                    out.append(Graph(range(n), edges))
    _CLASS_CACHE[n] = out
    return out


def connected_graph_extensions(n):
    """Every connected graph class on n >= 2 vertices, with repeats.

    Each (n-1)-class gets a fresh vertex joined to every nonempty
    subset, as in connected_graph_classes(n) but without the canonical
    deduplication.
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


def triangle_chain(k):
    """k triangles (2i, 2i+1, 2i+2) glued at their even vertices, drawn
    along a line: evens on the axis, each odd vertex above its triangle's
    base, so every vertex lies on the long face and each triangle's
    inside is a face of its own."""
    g = Graph(range(2 * k + 1), [e for i in range(k)
                                 for e in ((2 * i, 2 * i + 1), (2 * i, 2 * i + 2),
                                           (2 * i + 1, 2 * i + 2))])
    # counterclockwise by angle: right, upper right, upper left, left
    rot = {v: tuple(w for w in (v + 2, v + 1, v - 1, v - 2) if w in g.adj[v])
           for v in g.vertices}
    return g, rot
