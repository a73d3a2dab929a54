"""Exact deciders for list colorability, choosability and DP-colorability.

The two quantified oracles (is_f_choosable, is_dp_f_colorable) decide a
universal statement over all list assignments / all covers with given
sizes.  Both enumerate canonical representatives only:

* list assignments are enumerated up to renaming of colors, as a tree of
  "reuse or fresh" decisions, and the vertex with the largest list is
  never enumerated: whether some list for it breaks the assignment is
  decided from the colorings of the rest (the set of colors a bad list
  would have to be contained in shrinks monotonically, so this closes
  early almost always);
* covers are enumerated with spanning-tree matchings normalized by
  relabeling colors top-down, the remaining edges carrying arbitrary
  injections, and one non-tree edge left out: the realizable color pairs
  across that edge admit a bad matching iff they form a partial matching.

Both return a certificate when the answer is negative (a bad list
assignment / a bad cover), and the certificate is re-verified by the
plain solver before being returned; a certificate that the solver
colors raises InternalInvariantBreach.  Instances past the budget guards
raise InstanceTooLarge.
"""

from __future__ import annotations

import itertools
from collections import defaultdict

from .core_graph import Graph, bfs_parents, connected_components
from .dp_cover import Cover, find_dp_coloring, induced_cover
from .errors import InstanceTooLarge, InternalInvariantBreach


DEFAULT_SOLVE_BUDGET = 5_000_000


def solve_list(g: Graph, lists, budget=DEFAULT_SOLVE_BUDGET):
    """Token coloring of g from explicit lists, or None.

    Decided on the induced cover, so the verdict agrees with
    find_dp_coloring by construction.  Passing budget=None lifts the
    node cap.
    """
    cover, tokens = induced_cover(g, lists)
    col = find_dp_coloring(cover, budget=budget)
    if col is None:
        return None
    return {v: tokens[v][i] for v, (_, i) in col.items()}


def find_list_coloring(g: Graph, lists):
    """Proper coloring from explicit token lists, or None: solve_list
    with no node cap."""
    return solve_list(g, lists, budget=None)


def _refuted(cover: Cover):
    """Re-check a negative certificate: the plain search must fail on it."""
    if find_dp_coloring(cover) is not None:
        raise InternalInvariantBreach("certificate cover has a coloring")
    return cover


# ---------------------------------------------------------------------------
# choosability


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


def is_f_choosable(g: Graph, f):
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
            ok, cert = is_f_choosable(g.subgraph(comp), {v: f[v] for v in comp})
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


# ---------------------------------------------------------------------------
# DP-colorability


def _maximal_matchings(a, b):
    """All maximal matchings between [a] and [b] as (i, j) pair lists."""
    if a <= b:
        return [list(zip(range(a), pj)) for pj in itertools.permutations(range(b), a)]
    return [list(zip(pi, range(b))) for pi in itertools.permutations(range(a), b)]


def _tree_forms(fp, fc):
    """Canonical matchings for a tree edge parent->child.

    The child's colors are freshly relabelable, so a matching is fixed up
    to the choice of the matched parent-side subset when the parent list
    is bigger; otherwise the identity is the single representative.
    """
    if fp <= fc:
        return [[(i, i) for i in range(fp)]]
    return [[(a, r) for r, a in enumerate(sub)]
            for sub in itertools.combinations(range(fp), fc)]


def is_dp_f_colorable(g: Graph, f):
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
            ok, cert = is_dp_f_colorable(g.subgraph(comp), {v: f[v] for v in comp})
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


def is_degree_choosable(g: Graph):
    return is_f_choosable(g, {v: g.degree(v) for v in g.vertices})


def is_degree_dp_colorable(g: Graph):
    return is_dp_f_colorable(g, {v: g.degree(v) for v in g.vertices})
