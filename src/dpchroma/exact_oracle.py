"""Exact deciders for list colorability, choosability and DP-colorability.

The two quantified oracles (is_f_choosable, is_dp_f_colorable) decide a
universal statement over all list assignments / all covers with given
sizes.  Both enumerate canonical representatives only, and both carry
the proper colorings that survive at a search node as one int: bit
sum(c_i * stride_i) stands for the coloring giving vertex i its color
(or list entry) c_i, in mixed radix over the list sizes, and
_coloring_masks gives the colorings where a vertex takes a color.

* list assignments are enumerated up to renaming of colors, as a tree of
  "reuse or fresh" decisions, and the vertex w with the largest list is
  never enumerated.  Fixing a vertex's list strikes the colorings of
  G - w where it shares a token with an earlier neighbor; at a leaf, a
  list for w is bad iff every token in it is used on N(w) by every
  surviving coloring (any list at all when none survives);
* covers are enumerated with spanning-tree matchings normalized by
  relabeling colors top-down, the remaining edges carrying arbitrary
  injections, and one non-tree edge left out.  Each matching strikes
  the colorings it forbids; at a leaf, the realizable color pairs across
  the left-out edge admit a bad matching iff they form a partial
  matching.  The root's colors are renamed away as well (isomorph
  rejection, McKay 1998): a root slot's form is kept only if it meets
  every block of root colors that the earlier root slots leave
  interchangeable in an initial segment, which keeps the first bad leaf
  (see _dp_connected).

Both go through one front door, _quantified, which decides what does
not depend on the enumeration: it reads the sizes as ints, answers a
size f(v) <= 0 with lists or a cover of those sizes (before the cap),
refuses more than 8 vertices, splits the input into its components and
applies the lemma below to each.  Each oracle is left with its
enumeration of one connected component the lemma leaves open
(_choosable_connected, _dp_connected), which returns a bad certificate
or None.  The first bad component decides: its certificate is lifted to
the whole input (every other vertex gets the colors 0, ..., f(v) - 1,
every other edge no matching) and re-checked there once, by solve_list
for lists and by find_dp_coloring for covers.  A certificate that the
search colors raises InternalInvariantBreach.  Past the budget guards
the oracles raise InstanceTooLarge: more than 8 vertices, more than
30,000,000 covers, or a list enumeration past DEFAULT_SOLVE_BUDGET
nodes (one per partial list assignment visited; the cap solve_list puts
on its search).

The front door prunes with one greedy lemma, the local step that opens
the characterization proofs of degree-choosability (Erdos-Rubin-Taylor
1979: not a Gallai tree) and degree-DP-colorability (Bernshteyn-
Kostochka-Pron 2017: not a GDP tree).

Lemma.  Let G be connected with f(x) >= deg(x) for every x, let u be a
vertex that is not a cut vertex, and let uv be an edge.  If L(u) is not
a subset of L(v) (lists), or the cover's matching on uv leaves some
color c of u unmatched (covers), then G is colorable.
Proof.  Give u a color of L(u) - L(v) (lists), or c (covers).  Then
color G - u greedily in order of decreasing distance to v.  G - u is
connected, and every vertex keeps at least its degree in G - u in
colors; v keeps one spare, since it lost a neighbor and no color.  So
each vertex before v has an uncolored neighbor nearer to v when it is
colored, and v has its spare.

So on a component with f >= deg everywhere, _quantified finds its cut
vertices and:

* calls it colorable at once when a non-cut vertex u has a neighbor v
  with f(v) < f(u): sizes alone break L(u) <= L(v), and every matching
  leaves a color of u unmatched;
* otherwise hands the cut set to the enumeration (None when some
  f(v) < deg(v)).  The list enumeration keeps only branches with
  L(u) <= L(v) for every edge uv between enumerated vertices whose end
  u is not a cut vertex.  A pruned subtree holds no bad leaf and the
  surviving branches keep their order, so the first bad list assignment
  found is unchanged.
"""

from __future__ import annotations

import itertools
import math

from .core_graph import Graph, bfs_parents, blocks_and_cut_vertices, connected_components
from .dp_cover import DEFAULT_SOLVE_BUDGET, Cover, find_dp_coloring, solve_list
from .errors import InstanceTooLarge, InternalInvariantBreach


def find_list_coloring(g: Graph, lists):
    """Proper coloring from explicit token lists, or None: solve_list
    with no node cap."""
    return solve_list(g, lists, budget=None)


def _refuted(cover: Cover):
    """Re-check a negative certificate: the plain search must fail on it."""
    if find_dp_coloring(cover) is not None:
        raise InternalInvariantBreach("certificate cover has a coloring")
    return cover


def _refuted_lists(g: Graph, f, lists):
    """Lift a component's bad lists (or {}) to g, giving every vertex
    they lack the colors 0, ..., f(v) - 1, and re-check them: the list
    search must fail on them."""
    lists |= {v: list(range(f[v])) for v in g.vertices if v not in lists}
    if solve_list(g, lists, budget=None) is not None:
        raise InternalInvariantBreach("certificate lists have a coloring")
    return lists


def _quantified(g: Graph, f, name, connected, lift):
    """The front door of both oracles (see the module docstring):
    connected(component, f, cuts) enumerates one component and returns a
    bad certificate or None, and lift(g, f, certificate) makes it one for
    all of g and re-checks it."""
    f = {v: int(f[v]) for v in g.vertices}
    if any(f[v] <= 0 for v in g.vertices):
        return False, lift(g, f, {})
    if g.n > 8:
        raise InstanceTooLarge(name + " handles at most 8 vertices")
    comps = connected_components(g)
    for comp in comps:
        sub = g if len(comps) == 1 else g.subgraph(comp)
        cuts = None
        if all(f[v] >= g.degree(v) for v in comp):
            cuts = blocks_and_cut_vertices(sub)[1]
            if any(f[v] < f[u] for u in comp if u not in cuts for v in g.adj[u]):
                continue
        cert = connected(sub, f, cuts)
        if cert is not None:
            return False, lift(g, f, cert)
    return True, None


def _coloring_masks(sizes):
    """(every, at) over the prod(sizes) colorings of vertices 0, 1, ...
    (mixed radix, vertex 0 the lowest digit): every has all their bits
    set, at[i][c] those of the colorings where i takes color c.  An empty
    list leaves no coloring: every and all masks are 0.  Callers: the
    two quantified oracles and constructions._enumerate_claim."""
    total = 1
    for s in sizes:
        total *= s
    if total == 0:
        return 0, [[0] * s for s in sizes]
    at = []
    stride = 1
    for s in sizes:
        period = stride * s
        rep = ((1 << total) - 1) // ((1 << period) - 1)
        at.append([((1 << stride) - 1 << c * stride) * rep for c in range(s)])
        stride = period
    return (1 << total) - 1, at


# ---------------------------------------------------------------------------
# choosability


def is_f_choosable(g: Graph, f):
    """Decide f-choosability.  Returns (True, None) or (False, bad_lists)."""
    return _quantified(g, f, "choosability oracle", _choosable_connected, _refuted_lists)


def _choosable_connected(g: Graph, f, cuts):
    """The first bad list assignment of connected g, or None."""
    vs = sorted(g.vertices)
    w = max(vs, key=lambda v: (f[v], -v))
    rest = sorted((v for v in vs if v != w), key=lambda v: (-f[v], v))
    k = len(rest)
    pos = {v: p for p, v in enumerate(rest)}
    fp = [f[v] for v in rest]
    fw = f[w]
    nw = sorted(pos[u] for u in g.adj[w])
    earlier = [[pos[u] for u in g.adj[v] if u in pos and pos[u] < p] for p, v in enumerate(rest)]
    # the lemma's pruning: a non-cut p draws only from tokens that all its
    # earlier neighbors hold (inner[p], None when p may draw anything) and
    # from fresh ones only with no earlier neighbor; tokens held by an
    # earlier non-cut neighbor all go to p (whole[p])
    inner = [None] * k
    whole = [0] * k
    if cuts is not None:
        for p, v in enumerate(rest):
            if v not in cuts:
                inner[p] = sum(1 << q for q in earlier[p])
            whole[p] = sum(1 << q for q in earlier[p] if rest[q] not in cuts)
    # colorings of G - w, vertex p taking entry i of its list
    every, at = _coloring_masks(fp)
    stride = [1] * k
    for p in range(1, k):
        stride[p] = stride[p - 1] * fp[p - 1]

    vlist = [[] for _ in range(k)]
    entries = []            # [mask, ids]; ids sorted, masks pairwise distinct
    counter = [0]
    nodes = [0]
    found = [None]

    def leaf_has_bad_list(surv):
        forced = []
        if surv:
            # only the tokens of one surviving coloring on N(w) can be
            # used by all of them
            bit = (surv & -surv).bit_length() - 1
            tokens = sorted({vlist[p][bit // stride[p] % fp[p]] for p in nw})
            spare = len(tokens) - fw
            if spare < 0:
                return False
            for c in tokens:
                uses = 0
                for p in nw:
                    if c in vlist[p]:
                        uses |= at[p][vlist[p].index(c)]
                if not surv & ~uses:
                    forced.append(c)
                elif spare:
                    spare -= 1
                else:
                    return False
        bad = {rest[p]: list(vlist[p]) for p in range(k)}
        bad[w] = forced[:fw] if surv else [-(i + 1) for i in range(fw)]
        found[0] = bad
        return True

    def at_vertex(p, surv):
        nodes[0] += 1
        if nodes[0] > DEFAULT_SOLVE_BUDGET:
            raise InstanceTooLarge("too many list assignments to enumerate")
        if p == k:
            return leaf_has_bad_list(surv)
        # near[c]: the colorings where an earlier neighbor of p takes c
        near = {}
        for q in earlier[p]:
            for i, c in enumerate(vlist[q]):
                near[c] = near.get(c, 0) | at[q][i]
        ne = len(entries)
        chosen = []

        def strike():
            # fresh tokens come last in vlist[p] and no neighbor has them
            hit = 0
            for j, c in enumerate(chosen):
                if c in near:
                    hit |= at[p][j] & near[c]
            return surv & ~hit

        need = inner[p]
        full = whole[p]

        def pick(ti, r):
            if r == 0 or ti == ne:
                if r and need or any(ids and mask & full for mask, ids in entries[ti:ne]):
                    return False
                if r:
                    base = counter[0]
                    fresh = list(range(base, base + r))
                    counter[0] = base + r
                    entries.append([1 << p, fresh])
                    vlist[p] = chosen + fresh
                    stop = at_vertex(p + 1, strike())
                    entries.pop()
                    counter[0] = base
                else:
                    vlist[p] = list(chosen)
                    stop = at_vertex(p + 1, strike())
                vlist[p] = []
                return stop
            mask, ids = entries[ti]
            top = min(len(ids), r)
            low = 0
            if need is not None and mask & need != need:
                top = 0
            if mask & full:
                if len(ids) > top:
                    return False
                low = top
            for take in range(top, low - 1, -1):
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

    at_vertex(0, every)
    return found[0]


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
    return _quantified(g, f, "DP oracle", _dp_connected, _lifted_cover)


def _lifted_cover(g: Graph, f, matchings):
    """The cover of g with sizes f (0 for f <= 0) and a component's bad
    matchings (or {}), re-checked."""
    return _refuted(Cover(g, {v: max(0, f[v]) for v in g.vertices}, matchings))


def _dp_connected(g: Graph, f, cuts):
    """The matchings of the first bad cover of connected g, or None.
    cuts goes unread: the cover enumeration prunes by no cut vertex.

    The BFS root r = vs[0] has only tree edges, so its slots come first.
    Renaming r's colors by a permutation p, then renaming each child's
    colors top-down so that its tree form is canonical again, maps each
    leaf of the enumeration to a leaf with an isomorphic cover, bad iff
    the first one is, whose root forms are the p-images of the first
    one's.  Call two root colors alike when every earlier root form
    holds both or neither; the classes are blocks.  If a root form meets
    a block in more than an initial segment, some a < b of the block
    have b in the form and a not, and swapping a and b keeps the earlier
    root forms and makes this one earlier, so the image leaf comes
    first.  The first bad leaf therefore passes this test at every root
    slot, and skipping the forms that fail it visits a subset of the
    leaves in the same order: the same verdict and the same certificate.
    The cover cap still counts every form.
    """
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
        # the edge with the most maximal matchings, perm(max, min) of them
        e_star = max(free, key=lambda e: (math.perm(*sorted((f[e[0]], f[e[1]]))[::-1]), e))
        for u, w in free:
            if (u, w) != e_star:
                slots.append((u, w, _maximal_matchings(f[u], f[w])))

    total = 1
    for _, _, forms in slots:
        total *= len(forms)
        if total > 30_000_000:
            raise InstanceTooLarge("too many covers to enumerate")

    every, at = _coloring_masks([f[v] for v in vs])
    at = dict(zip(vs, at))
    slot_of = {(min(u, w), max(u, w)): si for si, (u, w, _) in enumerate(slots)}
    # tables[si]: (form, the colorings it forbids, the root colors it
    # matches) per form of slot si, filled on the slot's first visit
    tables = [None] * len(slots)
    root = vs[0]
    chosen = [None] * len(slots)
    witness = [None]

    def current_matchings(extra=None):
        out = {}
        for e in g.edges():
            if e != e_star:
                si = slot_of[e]
                form = chosen[si]
                out[e] = sorted(form if slots[si][0] == e[0] else [(j, i) for i, j in form])
        if extra:
            out[e_star] = extra
        return out

    def handle_full(surv):
        if e_star is None:
            if surv:
                return False
            witness[0] = current_matchings()
            return True
        # realizable color pairs across the missing edge
        x, y = e_star
        pairs = []
        for cx, ax in enumerate(at[x]):
            sx = surv & ax
            if sx:
                for cy, ay in enumerate(at[y]):
                    if sx & ay:
                        break
                # a second color at y, or a second color at x for cy
                if sx & ~ay or any(cy == b for _, b in pairs):
                    return False
                pairs.append((cx, cy))
        # extend the realizable pairs to a maximal matching
        free_x = [cx for cx in range(f[x]) if all(cx != a for a, _ in pairs)]
        free_y = [cy for cy in range(f[y]) if all(cy != b for _, b in pairs)]
        pairs += zip(free_x, free_y)
        witness[0] = current_matchings(extra=sorted(pairs))
        return True

    def assign_slot(si, surv, starts):
        if si == len(slots):
            return handle_full(surv)
        table = tables[si]
        if table is None:
            u, w, forms = slots[si]
            au, aw = at[u], at[w]
            table = tables[si] = []
            for form in forms:
                hit = sub = 0
                for i, j in form:
                    hit |= au[i] & aw[j]
                    sub |= 1 << i
                table.append((form, hit, sub if u == root else 0))
        for form, hit, sub in table:
            # sub must meet each block of interchangeable root colors
            # (starts holds their lowest colors) in an initial segment
            if sub & ~(sub << 1 | starts):
                continue
            chosen[si] = form
            if assign_slot(si + 1, surv & ~hit, starts | sub << 1 & ~sub):
                return True
        return False

    assign_slot(0, every, 1)
    return witness[0]


def is_degree_choosable(g: Graph):
    return is_f_choosable(g, {v: g.degree(v) for v in g.vertices})


def is_degree_dp_colorable(g: Graph):
    return is_dp_f_colorable(g, {v: g.degree(v) for v in g.vertices})
