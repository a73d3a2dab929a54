"""Independent brute-force deciders used to freeze expected test values.

Everything here is deliberately naive: straight products over itertools,
no pruning, no sharing with the package under test beyond the Graph
container (and, for connectivity_by_deletion, the block decomposition;
for is_safe, the GDP-tree test).
Only usable for tiny instances.  The exception is
recursive_dp_coloring, the package's exact cover search (the same
dom/deg pick, forward checking, no backjumping) written as a recursion
over dicts and sets: the reference that pins the iterative search's
witnesses, verdicts and budget trips.  Likewise
reference_f_choosable and reference_dp_f_colorable are the package's
quantified oracles as they were before the surviving colorings became
one bitmask per search node: they re-search the colorings at every leaf
(by recursion over G - w, and once per color pair across the left-out
edge), and pin the bitmask oracles' verdicts and certificates.
reference_f_choosable keeps the guard the package oracle had before it
counted its own search nodes: _profile_count, the number of list
assignments up to color renaming.
reference_is_nice (one scan of h per face) and
reference_very_nice_subgraph (a fresh PlaneGraph, block decomposition
and face-id map at every reduction) are the covering-subgraph checker
and construction as they were before the one working drawing; they pin
the violations and the H that plane_embed produces.
reference_find_dp_coloring (with _undo) is the exact cover search as
it was before the pick kept one row of buckets per degree: one bucket
per number of colors left, the vertices indexed by descending degree,
and a scan of the later buckets for a better ratio, which ran on to the
largest degree even once its vertices were colored; it pins the
search's witnesses, their order and its color attempts.
reference_augment_visibility (with _insert_chord) is the chord
insertion as it was before the one pass over the faces: one chord per
turn, a fresh PlaneGraph after each, and a rescan of every face from id
0; it pins the chorded drawing that augment_visibility produces.
three_connected_by_low_point is 3-connectivity as minimum degree 3 and
one block search per deleted vertex, O(n (n + m)), which shares no code
with core_graph's one-search test; it pins that test's verdicts.
_reverse_bfs_from is the degree-DP finisher's own breadth-first search
as it was before the finisher read core_graph.bfs_parents' queue
backwards; it pins the orders, on which the finisher's witnesses depend.
reference_finish is the pipelines' finish as it was before it colored
on the run's live lists: a renumbered residual cover of the whole
uncolored rest, one sub-cover per component, each colored by
degree_dp_color and mapped back through the renumbering; it pins the
colorings finish returns, dict order included.
reference_enumerate_claim is the gadget's claim counting as it was
before the colorings became the bits of one int: one tuple and one dict
per element of the product of the lists; it pins the three counts
constructions._enumerate_claim returns.
reference_solve_list is the list search as it was before the strike
table was filled straight from the lists: induced_cover, then
find_dp_coloring on the cover, then each color mapped to its token; it
pins the list search's witnesses, their order, its color attempts and
its errors.
reference_parse_graph, reference_parse_cover, reference_parse_lists and
reference_parse_plane (with _reference_token and reference_plane_graph)
are the file parsers as they were before each made one pass: every
record checked by the parser and again by the Graph or Cover
constructor, the plane file's graph lines joined and parsed a second
time, and faces traced from the sorted list of all directed edges.  They
pin the objects the parsers build, key orders included, and every error
message.
"""

import itertools
import math
from collections import defaultdict

from dpchroma.core_graph import (Graph, bfs_parents, blocks_and_cut_vertices, connected_components,
                                 connectivity_at_least, is_complete_graph, is_connected, is_gdp_tree)
from dpchroma.dp_cover import (Cover, degree_dp_color, find_dp_coloring, induced_cover,
                               is_coloring_valid, residual_cover)
from dpchroma.errors import (BadRotation, GDPTreeTight, InstanceTooLarge, InternalInvariantBreach,
                             MalformedInput, NotConnected, PreconditionViolated)
from dpchroma.exact_oracle import (DEFAULT_SOLVE_BUDGET, _maximal_matchings, _refuted,
                                   _tree_forms)
from dpchroma.plane_embed import PlaneGraph


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


def three_connected_by_low_point(g):
    """3-connectivity as minimum degree 3 and a 2-connected g - v for
    every vertex v, each checked by one block search
    (connectivity_by_deletion at s = 2)."""
    if g.n <= 3 or any(len(ns) < 3 for ns in g.adj.values()):
        return False
    return all(connectivity_by_deletion(g.without_vertex(v), 2) for v in g.vertices)


def _reverse_bfs_from(g, sources):
    """Vertices outside sources, farthest from sources first.

    Ties broken by the canonical BFS order, so for every emitted vertex
    some neighbor strictly closer to sources comes later.
    """
    seen = set(sources)
    queue = sorted(sources)
    head = 0
    order = []
    while head < len(queue):
        v = queue[head]
        head += 1
        for w in sorted(g.adj[v]):
            if w not in seen:
                seen.add(w)
                order.append(w)
                queue.append(w)
    order.reverse()
    return order


def vertex_face_incidences(pg):
    """Every (vertex, face id) pair of a plane graph, face by face."""
    return {(v, fid) for fid in range(pg.face_count()) for v in pg.face_vertices(fid)}


def inner_face_misses(pg, h):
    """{inner face id: how many of its vertices h leaves uncovered on it}."""
    return {fid: sum(1 for v in pg.face_vertices(fid) if (v, fid) not in h)
            for fid in range(pg.face_count()) if fid != pg.outer}


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


def reference_enumerate_claim(g, lists, prop):
    """(total, proper, violations) over the full product of the lists."""
    vs = sorted(g.vertices)
    es = g.edges()
    total = proper = bad = 0
    for combo in itertools.product(*(lists[v] for v in vs)):
        total += 1
        col = dict(zip(vs, combo))
        if all(col[u] != col[w] for u, w in es):
            proper += 1
            if not prop(col):
                bad += 1
    return total, proper, bad


def reference_solve_list(g: Graph, lists, budget=DEFAULT_SOLVE_BUDGET):
    cover, tokens = induced_cover(g, lists)
    col = find_dp_coloring(cover, budget=budget)
    if col is None:
        return None
    return {v: tokens[v][i] for v, (_, i) in col.items()}


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

    The package's pick with forward checking and no backjumping: the
    next vertex has the fewest colors left per degree, ties to the
    smallest vertex.  The ratio is exact: colors left times the lcm of
    the degrees, over the degree (0 for a vertex with no colors left,
    infinite for one of degree 0 with colors).  budget caps the number
    of color attempts; exceeding it raises InstanceTooLarge instead of
    risking an open-ended search.  So does a search deeper than
    Python's recursion limit.
    """
    g = cover.g
    # per vertex: (neighbor, own color -> matched color at the neighbor)
    links = {v: [(u, dict(cover.edge_pairs(v, u))) for u in g.adj[v]] for v in g.vertices}
    avail = {v: set(range(cover.sizes[v])) for v in g.vertices}
    coloring = {}
    nodes = [0]

    scale = math.lcm(*(d for d in map(g.degree, g.vertices) if d))

    def dom_deg(c, d):
        return c * scale // d if d else math.inf if c else 0

    def step():
        pending = [v for v in avail if v not in coloring]
        if not pending:
            return True
        v = min(pending, key=lambda u: (dom_deg(len(avail[u]), g.degree(u)), u))
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


def reference_find_dp_coloring(cover: Cover, budget=None):
    """Coloring of a cover, or None.

    The next vertex is the uncolored one with the fewest colors left
    per degree in cover.g (dom/deg, Bessiere and Regin 1996), ties to
    the smallest vertex; a vertex of degree 0 comes after every other.
    Its colors are tried in ascending order, with forward checking: an
    attempt stops as soon as it leaves an uncolored neighbor no color.
    On top of that, conflict-directed backjumping (FC-CBJ, Prosser
    1993): each struck color remembers the stack level that struck it.
    A vertex that runs out of colors blames the levels that struck its
    own missing colors and, for each dead attempt, those that struck
    the other colors of the neighbor the attempt emptied.  The search
    jumps straight back to the highest level blamed, which inherits the
    rest of the blame, and returns None when no level is to blame.  The
    pick reads only the colors left and the static degrees, so plain
    forward checking with the same pick walks the same tree, and
    whatever it would try at the levels jumped over cannot lead to a
    coloring: the jump skips only subtrees without one.  So the witness,
    and its order, are those of forward checking with the dom/deg pick,
    found in at most as many color attempts.  The search is one loop
    over an explicit stack, so its depth has no limit but the vertex
    count.  budget still caps the number of color attempts (a jump makes
    none); exceeding it raises InstanceTooLarge instead of risking an
    open-ended search.  A vertex with an empty list answers None before
    any attempt.  The witness lists the vertices in the order they were
    colored.
    """
    adj = cover.g.adj
    # vertices by index, highest degree first and ties in vertex order,
    # so the first index in a bucket below has the bucket's best ratio
    order = sorted(adj)
    order.sort(key=lambda v: len(adj[v]), reverse=True)
    index = {v: x for x, v in enumerate(order)}
    deg = [len(adj[v]) for v in order]
    top = deg[0] if deg else 0
    # avail[x] is a bitmask of x's colors left (0 while x is colored, so
    # no strike reaches it).  Color j of x has slot base[x] + j:
    # strikes[slot] lists the (neighbor, bit, slot) triples that the
    # color rules out, and by[slot] is the stack level that struck it
    # (stale while it is not struck)
    sizes = [cover.sizes[v] for v in order]
    avail = [(1 << s) - 1 for s in sizes]
    base = list(itertools.accumulate(sizes, initial=0))
    by = [0] * base[-1]
    strikes = [[] for _ in by]
    for (v, u), match in cover._m.items():
        at, y = base[index[v]], index[u]
        for i, j in match.items():
            strikes[at + i].append((y, 1 << j, base[y] + j))
    # buckets[c]: the uncolored vertices with c colors left
    buckets = [set() for _ in range(max(sizes, default=0) + 1)]
    for x, s in enumerate(sizes):
        buckets[s].add(x)
    if buckets[0]:
        return None
    # (vertex, color, colors still to try, struck triples, full mask,
    # levels blamed so far)
    stack = []
    nodes = 0
    x = None
    while True:
        if x is None:
            for bucket in buckets:
                if bucket:
                    break
            else:
                return {order[y]: (order[y], i) for y, i, _, _, _, _ in stack}
            x = min(bucket)
            dx = deg[x]
            if dx < top or not dx:
                # a later bucket's first index wins if its c / d is less
                # (c * dx < cx * d), or equal with a smaller vertex (as
                # when both degrees are 0); none from c on can once
                # c / top is more than cx / dx
                cx = avail[x].bit_count()
                for c in range(cx + 1, len(buckets)):
                    if c * dx > cx * top:
                        break
                    if buckets[c]:
                        y = min(buckets[c])
                        d = deg[y]
                        if c * dx < cx * d or c * dx == cx * d and order[y] < order[x]:
                            x, cx, dx, bucket = y, c, d, buckets[c]
            bucket.remove(x)
            rest = full = avail[x]
            avail[x] = 0
            level = len(stack)
            conf = 0
        if rest:
            low = rest & -rest
            rest ^= low
            i = low.bit_length() - 1
            nodes += 1
            if budget is not None and nodes > budget:
                raise InstanceTooLarge(
                    "search passed %d nodes; raise --budget to keep going" % budget)
            struck = []
            for strike in strikes[base[x] + i]:
                y, bit, slot = strike
                if avail[y] & bit:
                    c = avail[y].bit_count()
                    buckets[c].remove(y)
                    buckets[c - 1].add(y)
                    avail[y] ^= bit
                    by[slot] = level
                    struck.append(strike)
                    if c == 1:
                        break
            else:
                stack.append((x, i, rest, struck, full, conf))
                x = None
                continue
            # a dead attempt: y lost its last color to x
            _undo(struck, avail, buckets)
        else:
            avail[x] = full
            buckets[full.bit_count()].add(x)
            y = x
        # blame the levels that struck y's missing colors, unless every
        # level below x is blamed already
        missing = (1 << sizes[y]) - 1 & ~avail[y] if conf != (1 << level) - 1 else 0
        at = base[y] - 1
        while missing:
            low = missing & -missing
            missing ^= low
            conf |= 1 << by[at + low.bit_length()]
        if y != x:
            continue
        # x is out of colors: jump back to the highest level blamed,
        # undoing every level above it, and hand it the rest of the blame
        if not conf:
            return None
        level = conf.bit_length() - 1  # where x resumes
        while True:
            y, _, rest, struck, full, blamed = stack.pop()
            _undo(struck, avail, buckets)
            if len(stack) == level:
                break
            avail[y] = full
            buckets[full.bit_count()].add(y)
        x = y
        conf = blamed | conf ^ (1 << level)


def _undo(struck, avail, buckets):
    """Give back the colors that one attempt struck."""
    for y, bit, _ in struck:
        c = avail[y].bit_count()
        buckets[c].remove(y)
        buckets[c + 1].add(y)
        avail[y] |= bit


def _profile_count(sizes, cap, limit):
    """Number of list assignments up to color renaming, or None once the
    state table passes cap or a prefix count passes limit.

    Subsets are visited in increasing order, so after t = 2^p - 1 the
    state with the first p sizes spent and the rest untouched counts the
    assignments of the first p vertices.  Each one extends to a distinct
    full assignment (the later vertices take fresh colors), so the full
    count is at least every prefix count, and the last prefix is the
    full count itself.
    """
    n = len(sizes)
    cur = {tuple(sizes): 1}
    for t in range(1, 1 << n):
        mem = [i for i in range(n) if t >> i & 1]
        nxt = defaultdict(int)
        for state, ways in cur.items():
            top = min(state[i] for i in mem)
            for m in range(top + 1):
                ns = list(state)
                for i in mem:
                    ns[i] = state[i] - m
                nxt[tuple(ns)] += ways
        cur = nxt
        if len(cur) > cap:
            return None
        if t & (t + 1) == 0:
            p = t.bit_length()
            if cur.get((0,) * p + tuple(sizes[p:]), 0) > limit:
                return None
    return cur.get((0,) * n, 0)


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


# ---------------------------------------------------------------------------
# covering subgraphs as built before the working drawing


def reference_is_nice(pg: PlaneGraph, h, very=None):
    """Check the covering-subgraph conditions; returns (ok, violations).

    h is a collection of (vertex, face id) incidence pairs.  With
    very=v_star the outer face must be fully covered and v_star must
    have degree exactly 1.
    """
    h = set(h)
    viol = []
    face_vs = {fid: pg.face_vertices(fid) for fid in range(pg.face_count())}
    for (v, fid) in sorted(h):
        if fid not in face_vs or v not in face_vs[fid]:
            viol.append("not an incidence: vertex %r face %r" % (v, fid))
    dv = {}
    for (v, fid) in h:
        dv[v] = dv.get(v, 0) + 1
    for v in sorted(dv):
        if dv[v] > 2:
            viol.append("vertex %r covered %d times" % (v, dv[v]))
    blocks = [set(b) for b in blocks_and_cut_vertices(pg.g)[0]]
    for fid in range(pg.face_count()):
        vs = face_vs[fid]
        covered = {v for (v, f) in h if f == fid}
        uncovered = [v for v in vs if v not in covered]
        if len(uncovered) > 2:
            viol.append("face %d misses %d vertices" % (fid, len(uncovered)))
        if uncovered and not any(set(uncovered) <= b for b in blocks):
            viol.append("face %d misses vertices across blocks: %r" % (fid, sorted(uncovered)))
    if very is not None:
        outer_vs = face_vs[pg.outer]
        missing = [v for v in outer_vs if (v, pg.outer) not in h]
        if missing:
            viol.append("outer face not saturated, missing %r" % (sorted(missing),))
        if dv.get(very, 0) != 1:
            viol.append("designated vertex %r has degree %d" % (very, dv.get(very, 0)))
    return (not viol), viol


def _lift(h, face_map):
    return {(v, face_map[f]) for (v, f) in h}


def _exact_face_map(child, parent, skip=(), translate=None):
    """Map child face ids to parent ids by directed-edge identity.

    translate rewrites a child directed edge into a parent one (used
    when an edge was introduced by suppression).  Faces listed in skip
    are left out; every other face must match exactly one parent face.
    """
    fmap = {}
    for fid, walk in enumerate(child.faces):
        if fid in skip:
            continue
        got = {parent.face_of_directed_edge(*(translate(de) if translate else de))
               for de in walk}
        if len(got) != 1:
            raise InternalInvariantBreach("child face %d maps to parent faces %r"
                                          % (fid, sorted(got)))
        fmap[fid] = got.pop()
    return fmap


def reference_very_nice_subgraph(pg: PlaneGraph, v_star):
    """Covering subgraph that saturates the outer face and pins v_star.

    Follows the inductive construction: ear removal when everything is
    on the outer face, suppression of a degree-2 vertex, deletion of an
    interior vertex with a face-by-face patch, and leaf-block gluing
    when the graph is not 2-connected.  The result is checked before it
    is returned; a failed check is a bug, not an input problem.
    """
    if v_star not in pg.face_vertices(pg.outer):
        raise PreconditionViolated("v_star %r not on the outer face" % (v_star,))
    h = _vns(pg, v_star)
    ok, viol = reference_is_nice(pg, h, very=v_star)
    if not ok:
        raise InternalInvariantBreach("construction failed checks: %s" % "; ".join(viol))
    return frozenset(h)


def _vns(pg, v_star):
    """Run the reductions from one loop over an explicit stack.

    Each reduction is a generator: it yields a smaller (plane graph,
    v_star) instance, receives that instance's covering subgraph back,
    and returns its own.  Depth grows with n, so no Python recursion.
    """
    stack = [_vns_reduce(pg, v_star)]
    h = None
    while stack:
        try:
            child = stack[-1].send(h)
        except StopIteration as done:
            stack.pop()
            h = done.value
        else:
            stack.append(_vns_reduce(*child))
            h = None
    return h


def _vns_reduce(pg, v_star):
    g = pg.g
    if g.n <= 2:
        return {(v, fid) for fid in range(pg.face_count()) for v in pg.face_vertices(fid)}
    blocks, cuts = blocks_and_cut_vertices(g)
    if len(blocks) > 1:
        return (yield from _vns_leaf_block(pg, v_star, blocks, cuts))
    outer_vs = set(pg.face_vertices(pg.outer))
    if outer_vs == set(g.vertices):
        return (yield from _vns_ear(pg, v_star))
    for v in sorted(g.vertices):
        if v != v_star and g.degree(v) == 2:
            x, y = sorted(g.adj[v])
            if not g.has_edge(x, y):
                return (yield from _vns_suppress(pg, v_star, v, x, y))
    return (yield from _vns_interior(pg, v_star))


def _vns_ear(pg, v_star):
    """All vertices on the outer cycle: peel an inner face that is an
    ear (every vertex between two chosen boundary neighbors has degree
    2), recurse, then cover the ear on its two faces."""
    g = pg.g
    pick = None
    for fid in range(pg.face_count()):
        if fid == pg.outer:
            continue
        cyc = pg.face_vertices(fid)
        k = len(cyc)
        high = [v for v in cyc if g.degree(v) >= 3]
        if len(high) > 2:
            continue
        for i in range(k):
            e1, e2 = cyc[i], cyc[(i + 1) % k]
            internals = [v for v in cyc if v not in (e1, e2)]
            if all(v in (e1, e2) for v in high) and v_star not in internals and internals:
                pick = (fid, e1, e2, internals)
                break
        if pick:
            break
    if pick is None:
        raise InternalInvariantBreach("no removable ear face")
    fid, e1, e2, internals = pick
    dead = set(internals)
    surv = next(de for de in pg.faces[pg.outer] if de[0] not in dead and de[1] not in dead)
    pg2 = pg.restrict(g.vertices - dead)
    pg2.outer = pg2.face_of_directed_edge(*surv)
    h2 = yield pg2, v_star
    fmap = _exact_face_map(pg2, pg, skip={pg2.outer})
    fmap[pg2.outer] = pg.outer
    h = _lift(h2, fmap)
    for v in internals:
        h.add((v, fid))
        h.add((v, pg.outer))
    return h


def _vns_suppress(pg, v_star, v, x, y):
    """Replace the path x-v-y by the edge x-y at the same rotation slot."""
    g = pg.g
    f1 = pg.face_of_directed_edge(x, v)
    f2 = pg.face_of_directed_edge(y, v)
    if f1 == f2:
        raise InternalInvariantBreach("degree-2 vertex sees one face twice")
    keep = g.vertices - {v}
    g2 = Graph(keep, [e for e in g.edges() if v not in e] + [(x, y)])
    rot2 = {w: pg.rot[w] for w in keep}
    for a, b in ((x, y), (y, x)):
        rot2[a] = tuple(b if z == v else z for z in pg.rot[a])
    surv = next(de for de in pg.faces[pg.outer] if v not in de)
    pg2 = PlaneGraph(g2, rot2)
    pg2.outer = pg2.face_of_directed_edge(*surv)

    def translate(de):
        if de == (x, y):
            return (x, v)
        if de == (y, x):
            return (y, v)
        return de

    h2 = yield pg2, v_star
    fmap = _exact_face_map(pg2, pg, translate=translate)
    h = _lift(h2, fmap)
    h.add((v, f1))
    h.add((v, f2))
    return h


def _vns_interior(pg, v_star):
    """Delete an interior vertex u; its faces merge into one face of
    G - u, and the recursion's coverage of that face is redistributed
    over the restored faces around u."""
    g = pg.g
    outer_vs = set(pg.face_vertices(pg.outer))
    u = None
    for cand in sorted(g.vertices - outer_vs):
        if connectivity_at_least(g.without_vertex(cand), 2):
            u = cand
            break
    if u is None:
        raise InternalInvariantBreach("no interior vertex with 2-connected remainder")
    nbrs = pg.rot[u]
    k = len(nbrs)
    theta = [pg.face_of_directed_edge(nbrs[t], u) for t in range(k)]
    if len(set(theta)) != k:
        raise InternalInvariantBreach("faces around interior vertex repeat")
    paths = []
    for t in range(k):
        wk = list(pg.faces[theta[t]])
        i = wk.index((nbrs[t], u))
        rotated = wk[i + 1:] + wk[: i + 1]
        pvs = [de[0] for de in rotated[1:]]
        after = nbrs[(t + 1) % k]
        if rotated[0] != (u, after) or (pvs[0], pvs[-1]) != (after, nbrs[t]):
            raise InternalInvariantBreach("face %d does not leave %r between neighbors %r and %r"
                                          % (theta[t], u, nbrs[t], after))
        paths.append(pvs)

    pg2 = pg.restrict(g.vertices - {u})
    pg2.outer = pg2.face_of_directed_edge(*pg.faces[pg.outer][0])
    link_de = next(de for de in pg.faces[theta[0]] if u not in de)
    theta_u = pg2.face_of_directed_edge(*link_de)
    link_walk = pg2.faces[theta_u]
    link_vs = pg2.face_vertices(theta_u)
    if len(link_walk) != len(link_vs):
        raise InternalInvariantBreach("merged face around deleted vertex is not a cycle")

    h2 = yield pg2, v_star
    fmap = _exact_face_map(pg2, pg, skip={theta_u})
    h = {(w, fmap[f]) for (w, f) in h2 if f != theta_u}
    base, where = {}, {}
    for t in range(k):
        for w in paths[t][1:]:
            base[w] = (w, theta[t])
            where.setdefault(w, t)
    zs = sorted(w for w in link_vs if (w, theta_u) not in h2)
    add = set()
    drop = set()
    if len(zs) == 0:
        add = {(u, theta[0]), (u, theta[1 % k])}
    elif len(zs) == 1:
        i = where[zs[0]]
        j = next(t for t in range(k) if t != i)
        add = {(u, theta[i]), (u, theta[j])}
        drop = {base[zs[0]]}
    else:
        if len(zs) != 2:
            raise InternalInvariantBreach("more than two uncovered link vertices")
        z1, z2 = zs
        i, j = where[z1], where[z2]
        if i != j:
            add = {(u, theta[i]), (u, theta[j])}
            drop = {base[z1], base[z2]}
        else:
            s = paths[j][0]
            jn = (j + 1) % k
            if base[s] != (s, theta[jn]):
                raise InternalInvariantBreach("path start %r is not covered on face %d"
                                              % (s, theta[jn]))
            add = {(u, theta[j]), (u, theta[jn]), (s, theta[j])}
            drop = {base[z1], base[z2], base[s]}
    h |= set(base.values()) - drop
    h |= add
    return h


def _vns_leaf_block(pg, v_star, blocks, cuts):
    """Split off a leaf block B at its cut vertex r.  B must hold the
    rest of the graph in a single one of its faces (that face plays the
    infinite face of B).  Recurse on both sides and glue at r, dropping
    r's block-side incidence when the other side left r uncovered on
    the shared face, so r never exceeds degree 2."""
    g = pg.g
    p_keys = {frozenset(walk): f for f, walk in enumerate(pg.faces)}
    chosen = None
    for blk in sorted(blocks, key=lambda b: b[0]):
        bcuts = [v for v in blk if v in cuts]
        if len(bcuts) != 1:
            continue
        r = bcuts[0]
        pgb = pg.restrict(blk)
        impure = [f for f, walk in enumerate(pgb.faces) if frozenset(walk) not in p_keys]
        if len(impure) != 1:
            continue
        if v_star in set(blk) - {r}:
            continue
        # the outer face must not sit strictly inside this block
        pure_fids = {p_keys[frozenset(walk)] for f, walk in enumerate(pgb.faces)
                     if f != impure[0]}
        if pg.outer in pure_fids:
            continue
        chosen = (blk, r, pgb, impure[0])
        break
    if chosen is None:
        raise InternalInvariantBreach("no splittable leaf block")
    blk, r, pgb, star_idx = chosen
    pgb.outer = star_idx
    mixed = pg.face_of_directed_edge(*pgb.faces[pgb.outer][0])

    dead = set(blk) - {r}
    pg2 = pg.restrict(g.vertices - dead)
    theta_b = 0
    if pg2.g.m:
        def alive(fid):
            return [de for de in pg.faces[fid] if de[0] not in dead and de[1] not in dead]

        mixed_surv = alive(mixed)
        if not mixed_surv:
            raise InternalInvariantBreach("rest of the graph has edges but none on the shared face")
        theta_b = pg2.face_of_directed_edge(*mixed_surv[0])
        outer_surv = alive(pg.outer)
        pg2.outer = pg2.face_of_directed_edge(*outer_surv[0]) if outer_surv else theta_b

    hb = yield pgb, r
    h2 = yield pg2, v_star
    fmap_b = _exact_face_map(pgb, pg, skip={pgb.outer})
    fmap_b[pgb.outer] = mixed
    fmap_2 = _exact_face_map(pg2, pg, skip={theta_b})
    fmap_2[theta_b] = mixed
    if (r, theta_b) not in h2:
        if (r, pgb.outer) not in hb:
            raise InternalInvariantBreach("cut vertex %r is uncovered on both sides" % (r,))
        hb = set(hb) - {(r, pgb.outer)}
    return _lift(h2, fmap_2) | _lift(hb, fmap_b)


# ---------------------------------------------------------------------------
# visibility chords as added before the one pass over the faces


def _insert_chord(pg, fid, a, b):
    """New PlaneGraph with the chord a-b drawn inside face fid, after
    the edge on which the face walk arrives at each end."""
    g = pg.g
    rot2 = {v: list(pg.rot[v]) for v in g.vertices}
    for v, w in ((a, b), (b, a)):
        x = next(de[0] for de in pg.faces[fid] if de[1] == v)
        rot2[v].insert(rot2[v].index(x) + 1, w)
    pg2 = PlaneGraph(Graph(g.vertices, list(g.edges()) + [(min(a, b), max(a, b))]), rot2)
    pg2.outer = pg2.face_of_directed_edge(*min(pg.faces[pg.outer]))
    return pg2


def reference_augment_visibility(pg: PlaneGraph, v2) -> PlaneGraph:
    """Add chords until v2-vertices that share a face are all adjacent.

    Faces are scanned by id and the lexicographically smallest
    nonadjacent v2-pair on a boundary gets the chord; the scan restarts
    after every insertion, so the output embedding is deterministic.
    The chords carry no color constraint; the planar set-up checks that
    each face of the drawn subgraph holds at most one component.
    """
    v2 = frozenset(v2)
    cur = pg
    for _ in range(3 * pg.g.n + 8):
        pick = next(((fid, a, b) for fid in range(cur.face_count())
                     for a, b in itertools.combinations(sorted(set(cur.face_vertices(fid)) & v2), 2)
                     if not cur.g.has_edge(a, b)), None)
        if pick is None:
            return cur
        cur = _insert_chord(cur, *pick)
    raise InternalInvariantBreach("chord insertion did not reach a fixpoint")


def reference_finish(state):
    """Greedy-color every uncolored component and validate the total."""
    if not state.v2 <= set(state.phi):
        raise InternalInvariantBreach("finish needs every V2 vertex colored")
    res, kept = residual_cover(state.cover, state.phi)
    for v in res.g.vertices:
        if kept[v] != sorted(state.avail[v]):
            raise InternalInvariantBreach("availability drifted at %r" % (v,))
    phi = dict(state.phi)
    for comp in connected_components(res.g):
        sub = res.subcover(comp)
        try:
            col = degree_dp_color(sub.g, sub)
        except GDPTreeTight:
            raise GDPTreeTight("component %d was never made safe" % comp[0])
        for v, (_, i) in col.items():
            phi[v] = (v, kept[v][i])
    if not is_coloring_valid(state.cover, phi):
        raise InternalInvariantBreach("the finished coloring is not valid")
    return phi


def reference_parse_graph(text: str) -> Graph:
    """Read the plain `v`/`e` format; `c` lines are comments."""
    count = None
    edges = []
    seen = set()
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "v":
            if count is not None:
                raise MalformedInput("second v line", ln)
            if len(parts) != 2:
                raise MalformedInput("v line needs one count", ln)
            try:
                count = int(parts[1])
            except ValueError:
                raise MalformedInput("bad vertex count %r" % parts[1], ln)
            if count < 0:
                raise MalformedInput("negative vertex count", ln)
        elif parts[0] == "e":
            if count is None:
                raise MalformedInput("e line before v line", ln)
            if len(parts) != 3:
                raise MalformedInput("e line needs two endpoints", ln)
            try:
                u, w = int(parts[1]), int(parts[2])
            except ValueError:
                raise MalformedInput("bad endpoint on e line", ln)
            if not (0 <= u < count and 0 <= w < count):
                raise MalformedInput("endpoint out of range", ln)
            if u == w:
                raise MalformedInput("self-loop", ln)
            key = (min(u, w), max(u, w))
            if key in seen:
                raise MalformedInput("duplicate edge %d %d" % key, ln)
            seen.add(key)
            edges.append(key)
        else:
            raise MalformedInput("unknown record %r" % parts[0], ln)
    if count is None:
        raise MalformedInput("missing v line")
    return Graph(range(count), edges)


def reference_parse_cover(text: str, g: Graph) -> Cover:
    """`L <v> <n>` size lines and `M <u> <i> <w> <j>` matched pairs."""
    sizes = {}
    matchings = {}
    back = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "L":
            if len(parts) != 3:
                raise MalformedInput("L line needs vertex and size", ln)
            try:
                v, nsz = int(parts[1]), int(parts[2])
            except ValueError:
                raise MalformedInput("bad L line", ln)
            if v not in g.vertices:
                raise MalformedInput("unknown vertex %d" % v, ln)
            if v in sizes:
                raise MalformedInput("second L line for vertex %d" % v, ln)
            if nsz < 0:
                raise MalformedInput("negative size", ln)
            sizes[v] = nsz
        elif parts[0] == "M":
            if len(parts) != 5:
                raise MalformedInput("M line needs u i w j", ln)
            try:
                u, i, w, j = (int(p) for p in parts[1:])
            except ValueError:
                raise MalformedInput("bad M line", ln)
            if not g.has_edge(u, w):
                raise MalformedInput("M line on non-edge %d %d" % (u, w), ln)
            if u > w:
                u, w, i, j = w, u, j, i
            fwd = matchings.setdefault((u, w), {})
            bwd = back.setdefault((u, w), set())
            if i in fwd or j in bwd:
                raise MalformedInput("repeated color in matching on %d %d" % (u, w), ln)
            fwd[i] = j
            bwd.add(j)
        else:
            raise MalformedInput("unknown record %r" % parts[0], ln)
    missing = sorted(set(g.vertices) - set(sizes))
    if missing:
        raise MalformedInput("no L line for vertex %d" % missing[0])
    try:
        return Cover(g, sizes, {e: sorted(d.items()) for e, d in matchings.items()})
    except ValueError as exc:
        raise MalformedInput(str(exc))


def reference_parse_lists(text: str):
    """`A <v> <tok>...` lines; tokens become ints when they parse as ints."""
    lists = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] != "A":
            raise MalformedInput("unknown record %r" % parts[0], ln)
        if len(parts) < 2:
            raise MalformedInput("A line needs a vertex", ln)
        try:
            v = int(parts[1])
        except ValueError:
            raise MalformedInput("bad vertex %r" % parts[1], ln)
        if v in lists:
            raise MalformedInput("second A line for vertex %d" % v, ln)
        toks = [_reference_token(t) for t in parts[2:]]
        if len(set(toks)) != len(toks):
            raise MalformedInput("duplicate token for vertex %d" % v, ln)
        lists[v] = toks
    return lists


def _reference_token(t):
    """t as an int when it parses as one.  int() needs a sign or a
    decimal digit first, so a word is kept without raising ValueError."""
    if t[0] in "+-" or t[0].isdecimal():
        try:
            return int(t)
        except ValueError:
            pass
    return t


def reference_parse_plane(text: str) -> PlaneGraph:
    """Graph records plus `r <v> <edge-index>...` rotation lines.

    Edge indices refer to the lexicographically sorted edge list.  The
    graph must be connected, and every vertex with neighbors needs an r
    line.  The outer face is face id 0.
    """
    graph_lines = []
    rot_lines = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line.split()[:1] == ["r"]:
            rot_lines.append((ln, line.split()))
            raw = ""  # a blank placeholder keeps parse_graph on the file's line numbers
        graph_lines.append(raw)
    g = reference_parse_graph("\n".join(graph_lines))
    edges = g.edges()
    rot = {}
    for ln, parts in rot_lines:
        if len(parts) < 2:
            raise MalformedInput("r line needs a vertex", ln)
        try:
            v = int(parts[1])
        except ValueError:
            raise MalformedInput("bad vertex %r" % parts[1], ln)
        if v not in g.vertices:
            raise MalformedInput("unknown vertex %d" % v, ln)
        if v in rot:
            raise MalformedInput("second r line for vertex %d" % v, ln)
        nbrs = []
        for p in parts[2:]:
            try:
                ei = int(p)
            except ValueError:
                raise MalformedInput("bad edge index %r" % p, ln)
            if not (0 <= ei < len(edges)):
                raise MalformedInput("edge index out of range", ln)
            a, b = edges[ei]
            if v == a:
                nbrs.append(b)
            elif v == b:
                nbrs.append(a)
            else:
                raise MalformedInput("edge %d not incident to vertex %d" % (ei, v), ln)
        rot[v] = nbrs
    for v in sorted(g.vertices):
        if v not in rot:
            if g.adj[v]:
                raise MalformedInput("missing r line for vertex %d" % v)
            rot[v] = ()
    return reference_plane_graph(g, rot)


def reference_plane_graph(g: Graph, rot) -> PlaneGraph:
    """PlaneGraph(g, rot) as it was traced before: rotations checked by
    sorting both lists, faces started from the sorted list of all
    directed edges."""
    if not is_connected(g):
        raise NotConnected("a plane graph must be connected and non-empty")
    if set(rot) != g.vertices:
        raise BadRotation("rotation must cover exactly the vertex set")
    pg = PlaneGraph.__new__(PlaneGraph)
    pg.g = g
    pg.rot = {v: tuple(rot[v]) for v in g.vertices}
    for v in g.vertices:
        if sorted(pg.rot[v]) != sorted(g.adj[v]):
            raise BadRotation("rotation at %r is not a permutation of neighbors" % (v,))
    nxt = {}
    for v in g.vertices:
        r = pg.rot[v]
        for i, u in enumerate(r):
            nxt[(u, v)] = (v, r[(i + 1) % len(r)])
    faces = []
    ef = {}
    for e in sorted(nxt):
        if e in ef:
            continue
        walk = []
        cur = e
        while cur not in ef:
            ef[cur] = len(faces)
            walk.append(cur)
            cur = nxt[cur]
        if cur != e:
            raise BadRotation("face trace did not close")
        faces.append(tuple(walk))
    pg.faces = faces or [()]
    if g.n - g.m + len(pg.faces) != 2:
        raise BadRotation("rotation system is not planar (Euler check failed)")
    pg.outer = 0
    pg._edge_face = ef
    return pg
