"""Independent brute-force deciders used to freeze expected test values.

Everything here is deliberately naive: straight products over itertools,
no pruning, no sharing with the package under test beyond the Graph
container (and, for connectivity_by_deletion, the block decomposition;
for is_safe, the GDP-tree test).
Only usable for tiny instances.  The exception is
recursive_dp_coloring, the package's exact cover search written as a
recursion over dicts and sets: the reference that pins the iterative
search's witnesses, verdicts and budget trips.  Likewise
reference_f_choosable and reference_dp_f_colorable are the package's
quantified oracles as they were before the surviving colorings became
one bitmask per search node: they re-search the colorings at every leaf
(by recursion over G - w, and once per color pair across the left-out
edge), and pin the bitmask oracles' verdicts and certificates.
"""

import itertools

from dpchroma.core_graph import (Graph, bfs_parents, blocks_and_cut_vertices, connected_components,
                                 is_complete_graph, is_connected, is_gdp_tree)
from dpchroma.dp_cover import Cover, induced_cover
from dpchroma.errors import InstanceTooLarge
from dpchroma.exact_oracle import _maximal_matchings, _profile_count, _refuted, _tree_forms


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


def reference_f_choosable(g: Graph, f):
    """Decide f-choosability.  Returns (True, None) or (False, bad_lists)."""
    f = {v: int(f[v]) for v in g.vertices}
    bad_size = sorted(v for v in g.vertices if f[v] <= 0)
    if bad_size:
        cert = {v: list(range(f[v])) for v in g.vertices}
        cert[bad_size[0]] = []
        return False, cert
    if g.n > 8:
        raise InstanceTooLarge("choosability oracle handles at most 8 vertices")
    comps = connected_components(g)
    if len(comps) > 1:
        for comp in comps:
            ok, cert = reference_f_choosable(g.subgraph(comp), {v: f[v] for v in comp})
            if not ok:
                for v in g.vertices:
                    if v not in cert:
                        cert[v] = list(range(f[v]))
                _refuted(induced_cover(g, cert)[0])
                return False, cert
        return True, None
    if g.n == 1:
        return True, None

    vs = sorted(g.vertices)
    w = max(vs, key=lambda v: (f[v], -v))
    rest = sorted((v for v in vs if v != w), key=lambda v: (-f[v], v))
    k = len(rest)
    if k >= 6:
        if _profile_count([f[v] for v in rest], 300000, 20_000_000) is None:
            raise InstanceTooLarge("too many list assignments to enumerate")
    pos = {v: p for p, v in enumerate(rest)}
    fp = [f[v] for v in rest]
    fw = f[w]

    # search order for colorings of G - w: neighbors of w first
    nw = sorted(pos[u] for u in g.adj[w])
    sorder = nw + [p for p in range(k) if p not in set(nw)]
    sidx = {p: i for i, p in enumerate(sorder)}
    sadj = [[sidx[pos[u]] for u in g.adj[rest[p]]
             if u in pos and sidx[pos[u]] < sidx[p]] for p in sorder]
    nw_count = len(nw)

    vlist = [[] for _ in range(k)]
    entries = []            # [mask, ids]; ids sorted, masks pairwise distinct
    counter = [0]
    found = [None]

    def leaf_has_bad_list():
        assign = [None] * k
        inter = [None]
        realized = [False]

        def extend(i):
            if i == k:
                return True
            for c in vlist[sorder[i]]:
                if all(assign[j] != c for j in sadj[i]):
                    assign[i] = c
                    if extend(i + 1):
                        assign[i] = None
                        return True
                    assign[i] = None
            return False

        def enum_nw(i):
            # True means the leaf is settled as fine
            if i == nw_count:
                if extend(nw_count):
                    realized[0] = True
                    s = {assign[j] for j in range(nw_count)}
                    inter[0] = s if inter[0] is None else inter[0] & s
                    if len(inter[0]) < fw:
                        return True
                return False
            used = {assign[j] for j in range(i)}
            lst = vlist[sorder[i]]
            for c in [c for c in lst if c in used] + [c for c in lst if c not in used]:
                if all(assign[j] != c for j in sadj[i]):
                    assign[i] = c
                    if enum_nw(i + 1):
                        assign[i] = None
                        return True
                    assign[i] = None
            return False

        if enum_nw(0):
            return False
        bad = {rest[p]: list(vlist[p]) for p in range(k)}
        if not realized[0]:
            bad[w] = [-(i + 1) for i in range(fw)]
        else:
            bad[w] = sorted(inter[0])[:fw]
        found[0] = bad
        return True

    def at_vertex(p):
        if p == k:
            return leaf_has_bad_list()
        ne = len(entries)
        chosen = []

        def pick(ti, r):
            if r == 0 or ti == ne:
                if r:
                    base = counter[0]
                    fresh = list(range(base, base + r))
                    counter[0] = base + r
                    entries.append([1 << p, fresh])
                    vlist[p] = chosen + fresh
                    stop = at_vertex(p + 1)
                    entries.pop()
                    counter[0] = base
                else:
                    vlist[p] = list(chosen)
                    stop = at_vertex(p + 1)
                vlist[p] = []
                return stop
            mask, ids = entries[ti]
            for take in range(min(len(ids), r), -1, -1):
                if take:
                    moved = ids[:take]
                    del ids[:take]
                    entries.append([mask | (1 << p), moved])
                    chosen.extend(moved)
                    stop = pick(ti + 1, r - take)
                    del chosen[len(chosen) - take:]
                    entries.pop()
                    ids[:0] = moved
                else:
                    stop = pick(ti + 1, r)
                if stop:
                    return True
            return False

        return pick(0, fp[p])

    if at_vertex(0):
        _refuted(induced_cover(g, found[0])[0])
        return False, found[0]
    return True, None


def reference_dp_f_colorable(g: Graph, f):
    """Decide DP-colorability for every cover with sizes f.

    Returns (True, None) or (False, cover) with an uncolorable cover.
    """
    f = {v: int(f[v]) for v in g.vertices}
    bad_size = sorted(v for v in g.vertices if f[v] <= 0)
    if bad_size:
        return False, _refuted(Cover(g, {v: max(0, f[v]) for v in g.vertices}, {}))
    if g.n > 8:
        raise InstanceTooLarge("DP oracle handles at most 8 vertices")
    comps = connected_components(g)
    if len(comps) > 1:
        for comp in comps:
            ok, cert = reference_dp_f_colorable(g.subgraph(comp), {v: f[v] for v in comp})
            if not ok:
                matchings = {(u, w): cert.edge_pairs(u, w) for u, w in cert.g.edges()}
                return False, _refuted(Cover(g, f, matchings))
        return True, None

    vs = sorted(g.vertices)
    parent, order = bfs_parents(g, vs[0])
    tree = {(min(v, parent[v]), max(v, parent[v])) for v in order[1:]}
    slots = []
    for v in order[1:]:
        p = parent[v]
        slots.append((p, v, _tree_forms(f[p], f[v])))
    free = [e for e in g.edges() if e not in tree]
    e_star = None
    if free:
        e_star = max(free, key=lambda e: (len(_maximal_matchings(f[e[0]], f[e[1]])), e))
        for u, w in free:
            if (u, w) != e_star:
                slots.append((u, w, _maximal_matchings(f[u], f[w])))

    total = 1
    for _, _, forms in slots:
        total *= len(forms)
        if total > 30_000_000:
            raise InstanceTooLarge("too many covers to enumerate")

    pt = {}
    for u in vs:
        for w in g.adj[u]:
            pt[(u, w)] = [None] * f[u]

    if e_star is not None:
        x, y = e_star
        corder = [x, y] + [v for v in order if v not in (x, y)]
    else:
        x = y = None
        corder = list(order)
    cpos = {v: i for i, v in enumerate(corder)}
    cadj = [[u for u in sorted(g.adj[v]) if cpos[u] < cpos[v]
             and not (e_star is not None and {u, v} == {x, y})] for v in corder]
    colors = [None] * len(corder)

    def exists(i):
        if i == len(corder):
            return True
        v = corder[i]
        for c in range(f[v]):
            ok = True
            for u in cadj[i]:
                if pt[(u, v)][colors[cpos[u]]] == c:
                    ok = False
                    break
            if ok:
                colors[i] = c
                if exists(i + 1):
                    colors[i] = None
                    return True
                colors[i] = None
        return False

    def current_matchings(extra=None):
        out = {}
        for u, w in g.edges():
            if e_star is not None and (u, w) == e_star:
                continue
            pairs = [(i, j) for i, j in enumerate(pt[(u, w)]) if j is not None]
            if pairs:
                out[(u, w)] = pairs
        if extra:
            out[e_star] = extra
        return out

    witness = [None]

    def handle_full():
        if e_star is None:
            if exists(0):
                return False
            witness[0] = current_matchings()
            return True
        # realizable color pairs across the missing edge
        rows = {}
        for cx in range(f[x]):
            colors[0] = cx
            hits = []
            for cy in range(f[y]):
                colors[1] = cy
                if exists(2):
                    hits.append(cy)
                    if len(hits) > 1:
                        colors[0] = colors[1] = None
                        return False
            rows[cx] = hits
            colors[1] = None
        colors[0] = None
        used = [cy for hits in rows.values() for cy in hits]
        if len(set(used)) < len(used):
            return False
        pairs = sorted((cx, hits[0]) for cx, hits in rows.items() if hits)
        # extend the realizable pairs to a maximal matching
        free_x = [cx for cx in range(f[x]) if not rows[cx]]
        free_y = [cy for cy in range(f[y]) if cy not in set(used)]
        pairs += list(zip(free_x, free_y))
        witness[0] = current_matchings(extra=sorted(pairs))
        return True

    def assign_slot(si):
        if si == len(slots):
            return handle_full()
        u, w, forms = slots[si]
        fu, fw_ = pt[(u, w)], pt[(w, u)]
        for form in forms:
            for i, j in form:
                fu[i] = j
                fw_[j] = i
            stop = assign_slot(si + 1)
            for i, j in form:
                fu[i] = None
                fw_[j] = None
            if stop:
                return True
        return False

    if assign_slot(0):
        return False, _refuted(Cover(g, f, witness[0]))
    return True, None
