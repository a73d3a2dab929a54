"""Covers for DP-coloring.

A cover assigns each vertex v a list of colors, represented as pairs
(v, 0), ..., (v, size-1), and each edge a partial matching between the
two endpoint lists.  A coloring picks one color per vertex avoiding
matched pairs across edges.  List coloring is the special case where
colors sharing a token are matched (induced_cover).  A list search runs
on the induced cover's strike table, built straight from the lists
(_list_coloring): the exact search reads only that table, so no Cover
is built on the way.
"""

from __future__ import annotations

import itertools
import math

from .core_graph import Graph, bfs_parents, block_kind, blocks_and_cut_vertices, is_connected
# not called here; kept bound because perfbench/layers.py wraps it by name
from .core_graph import is_gdp_tree
from .errors import (GDPTreeTight, InstanceTooLarge, InternalInvariantBreach, MalformedInput,
                     NotConnected, PreconditionViolated)


class Cover:
    """List sizes plus matchings.  partner(u, i, w) answers in O(1)."""

    __slots__ = ("g", "sizes", "_m")

    def __init__(self, g: Graph, sizes, matchings):
        self.g = g
        self.sizes = dict(sizes)
        if set(self.sizes) != set(g.vertices):
            raise ValueError("sizes must cover exactly the vertex set")
        for v, s in self.sizes.items():
            if s < 0:
                raise ValueError("negative list size at %r" % (v,))
        m = {}
        for (u, w), pairs in matchings.items():
            if not g.has_edge(u, w):
                raise ValueError("matching on non-edge (%r, %r)" % (u, w))
            fwd = m.setdefault((u, w), {})
            bwd = m.setdefault((w, u), {})
            for i, j in pairs:
                if not (0 <= i < self.sizes[u] and 0 <= j < self.sizes[w]):
                    raise ValueError("matched color out of range on (%r, %r)" % (u, w))
                if i in fwd or j in bwd:
                    raise ValueError("matching on (%r, %r) is not a matching" % (u, w))
                fwd[i] = j
                bwd[j] = i
        self._m = m

    def partner(self, u, i, w):
        """Index at w matched to (u, i), or None."""
        d = self._m.get((u, w))
        if d is None:
            return None
        return d.get(i)

    def edge_pairs(self, u, w):
        """The matching on edge (u, w) as a sorted list of (i, j)."""
        d = self._m.get((u, w), {})
        return sorted(d.items())

    def subcover(self, keep) -> "Cover":
        """Induced cover on a vertex subset (matchings restricted)."""
        keep = frozenset(keep)
        sub = self.g.subgraph(keep)
        matchings = {}
        for u, w in sub.edges():
            d = self._m.get((u, w), {})
            if d:
                matchings[(u, w)] = sorted(d.items())
        return Cover(sub, {v: self.sizes[v] for v in keep}, matchings)


def find_dp_coloring(cover: Cover, budget=None):
    """Coloring of a cover, or None.

    The next vertex is the uncolored one with the fewest colors left
    per degree in cover.g (dom/deg, Bessiere and Regin 1996), ties to
    the smallest vertex; a vertex of degree 0 comes after every other.
    The uncolored vertices sit in one row of buckets per distinct
    degree, bucket c of a row holding those with c colors left, so a
    strike moves a vertex between two buckets of its own row.  Rows
    share one bucket per ratio c / d, read in ascending ratio, so the
    pick is the smallest vertex of the first non-empty bucket.
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
    order = sorted(adj)
    index = {v: x for x, v in enumerate(order)}
    sizes = [cover.sizes[v] for v in order]
    if 0 in sizes:
        return None
    rows = {}
    row = [rows.setdefault(len(adj[v]), []) for v in order]
    base = list(itertools.accumulate(sizes, initial=0))
    strikes = [[] for _ in range(base[-1])]
    for (v, u), match in cover._m.items():
        at, y = base[index[v]], index[u]
        cells, b = row[y], base[y]
        for i, j in match.items():
            strikes[at + i].append((y, 1 << j, b + j, cells))
    stack = _search(sizes, rows, row, base, strikes, budget)
    if stack is None:
        return None
    return {order[y]: (order[y], i) for y, i, _, _, _, _ in stack}


def _search(sizes, rows, row, base, strikes, budget):
    """find_dp_coloring's search on a strike table: its stack once every
    vertex is colored, or None.

    Vertex x is the x-th smallest, so the least index in a bucket is
    its smallest vertex, and sizes[x] counts its colors.  Color j of x
    has slot base[x] + j, and strikes[slot] lists the (neighbor, bit,
    slot, neighbor's row) tuples that the color rules out, in the order
    an attempt strikes them: an attempt stops at the first neighbor it
    leaves no color, so the order reaches the blame.  row[x] is the one
    list for every vertex of x's degree, and rows maps each degree to
    it; a set-up hands them over empty, so that its strikes can name
    them, and they are filled here.
    """
    # rows[d][c]: the uncolored vertices of degree d with c colors left
    # (c = 0 only inside a dead attempt).  Equal ratios c / d share one
    # bucket, keyed c * scale // d on ints, so buckets, in ascending key,
    # has the pick's vertices in its first non-empty bucket
    # the lcm is 0 when some vertex has degree 0: then take it over the rest
    scale = math.lcm(*rows) or math.lcm(*rows.keys() - {0})
    counts = range(max(sizes, default=0) + 1)
    ratio = {}
    for d, cells in rows.items():
        if d:
            cells += [ratio.setdefault(c * scale // d, set()) for c in counts]
        else:
            # degree 0 comes last: its vertices share the bucket keyed inf
            last = ratio.setdefault(math.inf, set())
            cells += [ratio.setdefault(0, set())] + [last] * (len(counts) - 1)
    ratio.pop(0, None)  # empty whenever the pick reads the buckets
    buckets = list(map(ratio.get, sorted(ratio)))
    for x, s in enumerate(sizes):
        row[x][s].add(x)
    # avail[x] is a bitmask of x's colors left (0 while x is colored, so
    # no strike reaches it), and by[slot] is the stack level that struck
    # the slot's color (stale while it is not struck)
    avail = [(1 << s) - 1 for s in sizes]
    by = [0] * base[-1]
    # (vertex, color, colors still to try, struck tuples, full mask,
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
                return stack
            x = min(bucket)
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
                y, bit, slot, cells = strike
                a = avail[y]
                if a & bit:
                    c = a.bit_count()
                    cells[c].remove(y)
                    cells[c - 1].add(y)
                    avail[y] = a ^ bit
                    by[slot] = level
                    struck.append(strike)
                    if c == 1:
                        break
            else:
                stack.append((x, i, rest, struck, full, conf))
                x = None
                continue
            # a dead attempt: y lost its last color to x
            _undo(struck, avail)
        else:
            avail[x] = full
            row[x][full.bit_count()].add(x)
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
            _undo(struck, avail)
            if len(stack) == level:
                break
            avail[y] = full
            row[y][full.bit_count()].add(y)
        x = y
        conf = blamed | conf ^ (1 << level)


def _undo(struck, avail):
    """Give back the colors that one attempt struck."""
    for y, bit, _, cells in struck:
        a = avail[y]
        c = a.bit_count()
        cells[c].remove(y)
        cells[c + 1].add(y)
        avail[y] = a | bit


def is_coloring_valid(cover: Cover, coloring) -> bool:
    """Full proper coloring: every vertex, own color, no matched edge pair."""
    return set(coloring) == set(cover.g.vertices) and is_partial_coloring_valid(cover, coloring)


def degree_truncated_sizes(g: Graph, k: int):
    """f(v) = min(k, d(v))."""
    return {v: min(k, g.degree(v)) for v in g.vertices}


def is_partial_coloring_valid(cover: Cover, phi) -> bool:
    """phi colors a subset of vertices; no matched pair across an edge."""
    for v, col in phi.items():
        if v not in cover.g.vertices:
            return False
        cv, i = col
        if cv != v or not (0 <= i < cover.sizes[v]):
            return False
    for u in phi:
        for w in cover.g.adj[u]:
            if w in phi and u < w:
                if cover.partner(u, phi[u][1], w) == phi[w][1]:
                    return False
    return True


def residual_cover(cover: Cover, phi):
    """Cover on the uncolored rest after the partial coloring phi.

    A color matched to a used color disappears; matchings restrict to
    the survivors.  Colors are renumbered, so this returns (residual,
    kept) where kept[v] lists the surviving original indices in order:
    residual color (v, i) stands for original (v, kept[v][i]).
    """
    if not is_partial_coloring_valid(cover, phi):
        raise ValueError("partial coloring is not valid on the cover")
    g = cover.g
    rest = g.vertices - set(phi)
    blocked = {v: set() for v in rest}
    for u, (_, i) in phi.items():
        for w in g.adj[u]:
            if w in blocked:
                j = cover.partner(u, i, w)
                if j is not None:
                    blocked[w].add(j)
    kept = {v: [i for i in range(cover.sizes[v]) if i not in blocked[v]] for v in rest}
    pos = {v: {old: new for new, old in enumerate(kept[v])} for v in rest}
    sub = g.subgraph(rest)
    matchings = {}
    for u, w in sub.edges():
        pairs = [(pos[u][i], pos[w][j]) for i, j in cover.edge_pairs(u, w)
                 if i in pos[u] and j in pos[w]]
        if pairs:
            matchings[(u, w)] = pairs
    return Cover(sub, {v: len(kept[v]) for v in rest}, matchings), kept


def token_sort_key(tok):
    # ints before strings, each kind in natural order
    return (isinstance(tok, str), tok)


def _sorted_tokens(g: Graph, lists):
    """Each vertex's list sorted in token_sort_key order, keyed in vertex
    order.  lists maps each vertex (and nothing else: ValueError) to an
    iterable of distinct hashable tokens."""
    extra = set(lists) - g.vertices
    if extra:
        raise ValueError("list for vertex %r, which is not in the graph" % (min(extra),))
    tokens = {}
    for v in sorted(g.vertices):
        if v not in lists:
            raise ValueError("no list for vertex %r" % (v,))
        ts = list(lists[v])
        if len(set(ts)) != len(ts):
            raise ValueError("duplicate token in list of %r" % (v,))
        # token_sort_key's order; only a list that mixes strings with
        # other tokens, which do not compare, needs the key
        try:
            ts.sort()
        except TypeError:
            ts.sort(key=token_sort_key)
        tokens[v] = ts
    return tokens


def induced_cover(g: Graph, lists):
    """Cover induced by a list assignment.

    lists maps each vertex (and nothing else: ValueError) to an iterable
    of distinct hashable tokens.  Colors of adjacent vertices are
    matched iff their tokens are equal.
    Returns (cover, tokens) where tokens[v] is the sorted token list, so
    color (v, i) stands for tokens[v][i].
    """
    tokens = _sorted_tokens(g, lists)
    pos = {v: {t: j for j, t in enumerate(ts)} for v, ts in tokens.items()}
    # the matchings as Cover stores them, each edge both ways; tokens
    # are distinct within a list, so they are matchings by construction
    # and Cover's checks are skipped, as Graph.subgraph skips Graph's
    m = {}
    for u, w in g.edges():
        pos_w = pos[w]
        fwd = {i: pos_w[t] for i, t in enumerate(tokens[u]) if t in pos_w}
        if fwd:
            m[(u, w)] = fwd
            m[(w, u)] = {j: i for i, j in fwd.items()}
    cover = Cover.__new__(Cover)
    cover.g = g
    cover.sizes = {v: len(tokens[v]) for v in g.vertices}
    cover._m = m
    return cover, tokens


def _list_coloring(g: Graph, lists, budget):
    """Token coloring of g from explicit lists, or None: find_dp_coloring
    on the induced cover, with the strike table filled from the lists.

    The ValueErrors are induced_cover's.  Each edge strikes both ways,
    edges in sorted order, so each slot lists its neighbors in
    ascending order, as on the induced cover.
    """
    tokens = _sorted_tokens(g, lists)
    adj = g.adj
    sizes = [len(ts) for ts in tokens.values()]
    if 0 in sizes:
        return None
    rows = {}
    row = [rows.setdefault(len(adj[v]), []) for v in tokens]
    base = list(itertools.accumulate(sizes, initial=0))
    strikes = [[] for _ in range(base[-1])]
    # hit[v][t]: the strike on v's color of token t
    hit = {}
    for x, (v, ts) in enumerate(tokens.items()):
        b, cells = base[x], row[x]
        hit[v] = {t: (x, 1 << j, b + j, cells) for j, t in enumerate(ts)}
    for u, w in g.edges():
        hit_w = hit[w]
        for t, at_u in hit[u].items():
            at_w = hit_w.get(t)
            if at_w is not None:
                strikes[at_u[2]].append(at_w)
                strikes[at_w[2]].append(at_u)
    stack = _search(sizes, rows, row, base, strikes, budget)
    if stack is None:
        return None
    vs, named = list(tokens), list(tokens.values())
    return {vs[y]: named[y][i] for y, i, _, _, _, _ in stack}


class _Parsed(dict):
    """Token -> value, computed by read once per distinct token.

    A cover or list file names its few colors and each vertex on many
    lines, and a lookup costs a fraction of int(); read's ValueError
    reaches the caller as it would from a direct call."""

    __slots__ = ("read",)

    def __init__(self, read):
        super().__init__()
        self.read = read

    def __missing__(self, token):
        value = self[token] = self.read(token)
        return value


def parse_lists(text: str):
    """`A <v> <tok>...` lines; tokens become ints when they parse as ints."""
    lists = {}
    token = _Parsed(_token)
    for ln, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts or parts[0][0] == "c":
            continue
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
        toks = [token[t] for t in parts[2:]]
        if len(set(toks)) != len(toks):
            raise MalformedInput("duplicate token for vertex %d" % v, ln)
        lists[v] = toks
    return lists


def _token(t):
    """t as an int when it parses as one.  int() needs a sign or a
    decimal digit first, so a word is kept without raising ValueError."""
    if t[0] in "+-" or t[0].isdecimal():
        try:
            return int(t)
        except ValueError:
            pass
    return t


def write_lists(lists) -> str:
    lines = []
    for v in sorted(lists):
        lines.append("A %d %s" % (v, " ".join(str(t) for t in lists[v])))
    return "\n".join(lines) + "\n"


def parse_cover(text: str, g: Graph) -> Cover:
    """`L <v> <n>` size lines and `M <u> <i> <w> <j>` matched pairs.

    One pass fills the matchings both ways as Cover stores them, so the
    Cover skips its constructor's second round of checks, as
    induced_cover does.  An edge is checked to be one on the first M
    line that names it, a repeated color on the line that repeats it.
    The colors are checked against the sizes once per edge at the end,
    since L lines may come last; each edge's pairs are then put in
    ascending color order at its smaller end, which is the order a
    written cover already has.
    """
    vertices = g.vertices
    adj = g.adj
    sizes = {}
    m = {}
    number = _Parsed(int)
    last_u = last_w = None
    for ln, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts:
            continue
        word = parts[0]
        if word == "M":
            if len(parts) != 5:
                raise MalformedInput("M line needs u i w j", ln)
            try:
                u, i, w, j = (number[parts[1]], number[parts[2]], number[parts[3]],
                              number[parts[4]])
            except ValueError:
                raise MalformedInput("bad M line", ln)
            if u != last_u or w != last_w:
                # a new edge, or one named before: a written cover
                # names each edge on consecutive lines
                last_u, last_w = u, w
                fwd = m.get((u, w))
                if fwd is None:
                    if w not in adj.get(u, ()):
                        raise MalformedInput("M line on non-edge %d %d" % (u, w), ln)
                    # the smaller end's key first, as Cover stores an edge
                    if u < w:
                        fwd = m[(u, w)] = {}
                        bwd = m[(w, u)] = {}
                    else:
                        bwd = m[(w, u)] = {}
                        fwd = m[(u, w)] = {}
                else:
                    bwd = m[(w, u)]
            if i in fwd or j in bwd:
                raise MalformedInput("repeated color in matching on %d %d"
                                     % (min(u, w), max(u, w)), ln)
            fwd[i] = j
            bwd[j] = i
        elif word[0] == "c":
            continue
        elif word == "L":
            if len(parts) != 3:
                raise MalformedInput("L line needs vertex and size", ln)
            try:
                v, nsz = number[parts[1]], number[parts[2]]
            except ValueError:
                raise MalformedInput("bad L line", ln)
            if v not in vertices:
                raise MalformedInput("unknown vertex %d" % v, ln)
            if v in sizes:
                raise MalformedInput("second L line for vertex %d" % v, ln)
            if nsz < 0:
                raise MalformedInput("negative size", ln)
            sizes[v] = nsz
        else:
            raise MalformedInput("unknown record %r" % word, ln)
    if len(sizes) != len(vertices):
        raise MalformedInput("no L line for vertex %d" % min(vertices - sizes.keys()))
    pairs = iter(m.items())
    for ((u, w), fwd), (_, bwd) in zip(pairs, pairs):
        order = sorted(fwd)
        if order[0] < 0 or order[-1] >= sizes[u] or min(bwd) < 0 or max(bwd) >= sizes[w]:
            raise MalformedInput("matched color out of range on (%r, %r)" % (u, w))
        if len(order) > 1 and order != list(fwd):
            m[(u, w)] = {i: fwd[i] for i in order}
            m[(w, u)] = {fwd[i]: i for i in order}
    cover = Cover.__new__(Cover)
    cover.g = g
    cover.sizes = sizes
    cover._m = m
    return cover


def write_cover(cover: Cover) -> str:
    lines = ["L %d %d" % (v, cover.sizes[v]) for v in sorted(cover.g.vertices)]
    for u, w in cover.g.edges():
        for i, j in cover.edge_pairs(u, w):
            lines.append("M %d %d %d %d" % (u, i, w, j))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# constructive degree-DP-coloring


def color_vertex(cover, avail, coloring, v, i):
    """Color v with i and strike i's partners from its uncolored neighbors' avail."""
    coloring[v] = (v, i)
    for w in cover.g.adj[v]:
        if w not in coloring:
            j = cover.partner(v, i, w)
            if j is not None:
                avail[w].discard(j)


def _greedy_color(cover, avail, coloring, order):
    """Color `order` greedily, smallest index first, updating avail."""
    for v in order:
        if not avail[v]:
            raise InternalInvariantBreach("greedy ran dry at %r" % (v,))
        color_vertex(cover, avail, coloring, v, min(avail[v]))


def _color_awkward_block(cover, avail, coloring, block):
    """Color a 2-connected block that is neither complete nor a cycle,
    once every vertex next to it is colored.

    Looks for an induced path v1-u-v2 whose ends can be colored so that
    together they forbid at most one color at u and whose removal keeps
    the block connected; then greedy toward u finishes.  Falls back to
    the exact search on the block alone: the residual cover of the
    block and its colored neighbors (the cover theory says a coloring
    exists).
    """
    sub = cover.g.subgraph(block)
    for u in sorted(block):
        nbrs = sorted(sub.adj[u])
        for a in range(len(nbrs)):
            for b in range(a + 1, len(nbrs)):
                v1, v2 = nbrs[a], nbrs[b]
                if sub.has_edge(v1, v2):
                    continue
                rest = sub.subgraph(set(block) - {v1, v2})
                if not is_connected(rest):
                    continue
                pick = _pair_sparing_u(cover, avail, u, v1, v2)
                if pick is None:
                    continue
                color_vertex(cover, avail, coloring, v1, pick[0])
                color_vertex(cover, avail, coloring, v2, pick[1])
                _greedy_color(cover, avail, coloring, bfs_parents(rest, u)[1][::-1])
                return
    near = set(block).union(*(cover.g.adj[v] for v in block))
    res, kept = residual_cover(cover.subcover(near),
                               {v: coloring[v] for v in near if v in coloring})
    col = find_dp_coloring(res)
    if col is None:
        raise InternalInvariantBreach("block believed colorable was not")
    for v, (_, i) in col.items():
        coloring[v] = (v, kept[v][i])


def _pair_sparing_u(cover, avail, u, v1, v2):
    """Colors for v1 and v2 removing at most one color from avail[u]."""
    for c1 in sorted(avail[v1]):
        p1 = cover.partner(v1, c1, u)
        if p1 is None or p1 not in avail[u]:
            return c1, min(avail[v2])
        for c2 in sorted(avail[v2]):
            p2 = cover.partner(v2, c2, u)
            if p2 is None or p2 not in avail[u] or p2 == p1:
                return c1, c2
    return None


def degree_dp_extend(cover, avail, coloring, vertices):
    """Color vertices from the colors avail[v] each has left, adding
    them to coloring.

    vertices span a connected part G' of cover.g whose other neighbors
    are all colored, and each list must hold at least deg_G'(v) colors
    (else PreconditionViolated).  Greedy away from a surplus vertex when
    one exists.  With every list tight this is possible iff G' is not a
    GDP-tree (every block complete or a cycle); on a GDP-tree, which
    has no awkward block (neither complete nor a cycle), we refuse with
    GDPTreeTight since no strategy can promise a coloring there.
    Otherwise the rest goes greedily toward the smallest awkward block,
    which is colored last.  Every color strikes its partners from avail.
    """
    g = cover.g.subgraph(vertices)
    for v in g.vertices:
        if len(avail[v]) < g.degree(v):
            raise PreconditionViolated("size below degree at %r" % (v,))
    surplus = sorted(v for v in g.vertices if len(avail[v]) > g.degree(v))
    if surplus:
        _greedy_color(cover, avail, coloring, bfs_parents(g, surplus[0])[1][::-1])
        return
    awkward = [blk for blk in blocks_and_cut_vertices(g)[0] if block_kind(g, blk) is None]
    if not awkward:
        raise GDPTreeTight("tight cover on a GDP-tree")
    block = min(awkward)
    _greedy_color(cover, avail, coloring, bfs_parents(g, *block)[1][len(block):][::-1])
    _color_awkward_block(cover, avail, coloring, block)


def degree_dp_color(g: Graph, cover: Cover):
    """Color a connected graph whose cover has sizes >= degrees:
    degree_dp_extend from the full lists, with nothing colored yet, and
    the coloring checked on the whole cover."""
    if not is_connected(g):
        raise NotConnected("degree_dp_color needs a connected graph")
    coloring = {}
    degree_dp_extend(cover, {v: set(range(cover.sizes[v])) for v in g.vertices}, coloring,
                     g.vertices)
    if not is_coloring_valid(cover, coloring):
        raise InternalInvariantBreach("degree_dp_color produced an invalid coloring")
    return coloring
