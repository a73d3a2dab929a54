"""Independent brute-force deciders used to freeze expected test values.

Everything here is deliberately naive: straight products over itertools,
no pruning, no sharing with the package under test beyond the Graph
container (and, for connectivity_by_deletion, the block decomposition;
for is_safe, the GDP-tree test).
Only usable for tiny instances.  The exception is
recursive_dp_coloring, the package's exact cover search written as a
recursion over dicts and sets: the reference that pins the iterative
search's witnesses, verdicts and budget trips.
"""

import itertools

from dpchroma.core_graph import (Graph, blocks_and_cut_vertices, is_complete_graph, is_connected,
                                 is_gdp_tree)
from dpchroma.errors import InstanceTooLarge


def subgraph_by_edge_filter(g, keep):
    """Induced subgraph rebuilt from the parent's filtered edge list."""
    keep = frozenset(keep)
    return Graph(keep, [(u, w) for u, w in g.edges() if u in keep and w in keep])


def is_cycle_graph(g):
    return g.n >= 3 and is_connected(g) and all(len(g.adj[v]) == 2 for v in g.vertices)


def block_kind_by_subgraph(g, blk):
    """Kind of a block ("complete", "cycle" or None), from the block built as a graph."""
    b = subgraph_by_edge_filter(g, blk)
    if is_complete_graph(b):
        return "complete"
    if is_cycle_graph(b):
        return "cycle"
    return None


def connectivity_by_deletion(g, s):
    """s-connectivity by deleting vertices one at a time down to s = 2,
    where one block decomposition decides."""
    if s <= 0:
        return g.n > 0
    if g.n <= s:
        return False
    if s == 1:
        return is_connected(g)
    if s == 2:
        return is_connected(g) and not blocks_and_cut_vertices(g)[1]
    for v in sorted(g.vertices):
        if not connectivity_by_deletion(subgraph_by_edge_filter(g, g.vertices - {v}), s - 1):
            return False
    return True


def vertex_face_incidences(pg):
    """Every (vertex, face id) pair of a plane graph, face by face."""
    return {(v, fid) for fid in range(pg.face_count()) for v in pg.face_vertices(fid)}


def is_safe(g, cover, q, phi):
    """A component q is safe when its uncolored rest is not a GDP-tree or
    some uncolored vertex has more colors left than uncolored neighbors;
    the colors left are recounted from the cover and phi."""
    rest = [v for v in sorted(q) if v not in phi]
    if not rest:
        return True
    blocked = {v: set() for v in rest}
    for v in rest:
        for w in g.adj[v]:
            if w in phi:
                j = cover.partner(w, phi[w][1], v)
                if j is not None:
                    blocked[v].add(j)
    for v in rest:
        left = cover.sizes[v] - len(blocked[v])
        if left > sum(1 for w in g.adj[v] if w not in phi):
            return True
    sub = subgraph_by_edge_filter(g, rest)
    if not is_connected(sub):
        return True
    return not is_gdp_tree(sub)


def raw_has_coloring(g, lists):
    vs = sorted(g.vertices)
    es = g.edges()
    for combo in itertools.product(*(list(lists[v]) for v in vs)):
        col = dict(zip(vs, combo))
        if all(col[u] != col[w] for u, w in es):
            return True
    return False


def raw_choosable(g, f, universe):
    """All assignments with lists drawn from a fixed universe."""
    vs = sorted(g.vertices)
    pools = [itertools.combinations(universe, f[v]) for v in vs]
    for combo in itertools.product(*pools):
        lists = dict(zip(vs, combo))
        if not raw_has_coloring(g, lists):
            return False, lists
    return True, None


def _edge_matchings(a, b, maximal_only):
    """Partial matchings between [a] and [b] as tuples of (i, j)."""
    out = []
    for k in range(min(a, b) + 1):
        if maximal_only and k < min(a, b):
            continue
        for isub in itertools.combinations(range(a), k):
            for jperm in itertools.permutations(range(b), k):
                out.append(tuple(zip(isub, jperm)))
    return out


def raw_dp_colorable(g, f, maximal_only=True):
    """All covers edge by edge; colorings checked by straight product."""
    vs = sorted(g.vertices)
    es = g.edges()
    pools = [_edge_matchings(f[u], f[w], maximal_only) for u, w in es]
    for combo in itertools.product(*pools):
        conflict = {e: dict(m) for e, m in zip(es, combo)}
        ok = False
        for colors in itertools.product(*(range(f[v]) for v in vs)):
            col = dict(zip(vs, colors))
            if all(conflict[(u, w)].get(col[u]) != col[w] for u, w in es):
                ok = True
                break
        if not ok:
            return False, dict(zip(es, combo))
    return True, None


def recursive_dp_coloring(cover, budget=None):
    """Coloring of a cover, or None.

    Most-constrained vertex first with forward checking; good enough to
    refute the engineered gadgets in milliseconds.  budget caps the
    number of color attempts; exceeding it raises InstanceTooLarge
    instead of risking an open-ended search.  So does a search deeper
    than Python's recursion limit.
    """
    g = cover.g
    # per vertex: (neighbor, own color -> matched color at the neighbor)
    links = {v: [(u, dict(cover.edge_pairs(v, u))) for u in g.adj[v]] for v in g.vertices}
    avail = {v: set(range(cover.sizes[v])) for v in g.vertices}
    coloring = {}
    nodes = [0]

    def step():
        pending = [v for v in avail if v not in coloring]
        if not pending:
            return True
        v = min(pending, key=lambda u: (len(avail[u]), u))
        for i in sorted(avail[v]):
            nodes[0] += 1
            if budget is not None and nodes[0] > budget:
                raise InstanceTooLarge(
                    "search passed %d nodes; raise --budget to keep going" % budget)
            coloring[v] = i
            removed = []
            dead = False
            for u, match in links[v]:
                if u not in coloring:
                    j = match.get(i)
                    if j is not None and j in avail[u]:
                        avail[u].discard(j)
                        removed.append((u, j))
                        if not avail[u]:
                            dead = True
            if not dead and step():
                return True
            del coloring[v]
            for u, j in removed:
                avail[u].add(j)
        return False

    try:
        found = step()
    except RecursionError:
        raise InstanceTooLarge("search on %d vertices passed the recursion limit" % g.n)
    return {v: (v, i) for v, i in coloring.items()} if found else None
