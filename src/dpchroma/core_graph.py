"""Undirected simple graphs with the little structure theory we need.

Vertices are arbitrary non-negative ints (dense 0..n-1 in files, but
induced subgraphs keep their original ids).  A Graph is immutable once
built; operations return new graphs.  All iteration orders are sorted so
every algorithm downstream is deterministic.
"""

from __future__ import annotations

from .errors import InternalInvariantBreach, MalformedInput, NotConnected, NotDegenerate


class Graph:
    __slots__ = ("vertices", "adj")

    def __init__(self, vertices, edges):
        vs = frozenset(vertices)
        adj = {v: set() for v in vs}
        for u, w in edges:
            if u == w:
                raise ValueError("self-loop at %r" % (u,))
            if u not in vs or w not in vs:
                raise ValueError("edge (%r, %r) uses unknown vertex" % (u, w))
            adj[u].add(w)
            adj[w].add(u)
        self.vertices = vs
        self.adj = {v: frozenset(ns) for v, ns in adj.items()}

    @property
    def n(self):
        return len(self.vertices)

    @property
    def m(self):
        return sum(len(ns) for ns in self.adj.values()) // 2

    def degree(self, v):
        return len(self.adj[v])

    def has_edge(self, u, w):
        return w in self.adj.get(u, ())

    def edges(self):
        """Sorted list of edges as (min, max) tuples."""
        return sorted((v, w) for v, ns in self.adj.items() for w in ns if v < w)

    def subgraph(self, keep) -> "Graph":
        """Induced subgraph in O(sum of the kept vertices' degrees)."""
        keep = frozenset(keep)
        if not keep <= self.vertices:
            raise ValueError("subgraph keeps unknown vertices %r" % (sorted(keep - self.vertices),))
        sub = Graph.__new__(Graph)
        sub.vertices = keep
        sub.adj = {v: self.adj[v] & keep for v in keep}
        return sub

    def without_vertex(self, v) -> "Graph":
        return self.subgraph(self.vertices - {v})

    def __repr__(self):
        return "Graph(n=%d, m=%d)" % (self.n, self.m)


def parse_graph(text: str) -> Graph:
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


def write_graph(g: Graph) -> str:
    if g.vertices != frozenset(range(g.n)):
        raise ValueError("file format needs dense ids")
    lines = ["v %d" % g.n]
    lines.extend("e %d %d" % e for e in g.edges())
    return "\n".join(lines) + "\n"


def connected_components(g: Graph):
    """Components as sorted vertex lists, ordered by smallest member."""
    seen = set()
    comps = []
    for s in sorted(g.vertices):
        if s in seen:
            continue
        comp = [s]
        seen.add(s)
        queue = [s]
        while queue:
            v = queue.pop()
            for w in g.adj[v]:
                if w not in seen:
                    seen.add(w)
                    comp.append(w)
                    queue.append(w)
        comps.append(sorted(comp))
    return comps


def is_connected(g: Graph) -> bool:
    return g.n > 0 and len(connected_components(g)) == 1


def bfs_parents(g: Graph, source):
    """BFS tree as {vertex: parent}; source maps to None.

    Neighbors are scanned in sorted order, so the tree is canonical.
    Only the component of source is reached.
    """
    parent = {source: None}
    queue = [source]
    head = 0
    while head < len(queue):
        v = queue[head]
        head += 1
        for w in sorted(g.adj[v]):
            if w not in parent:
                parent[w] = v
                queue.append(w)
    return parent, queue


def blocks_and_cut_vertices(g: Graph):
    """Biconnected components (iterative Hopcroft-Tarjan).

    Returns (blocks, cuts): blocks is a list of sorted vertex lists,
    cuts a set.  Isolated vertices count as single-vertex blocks.
    The recursion is unrolled by hand because callers feed graphs with
    thousands of vertices and long paths.
    """
    disc = {}
    low = {}
    blocks = []
    cuts = set()
    counter = 0
    for root in sorted(g.vertices):
        if root in disc:
            continue
        disc[root] = low[root] = counter
        counter += 1
        if not g.adj[root]:
            blocks.append([root])
            continue
        root_blocks = 0
        estack = []
        stack = [(root, None, iter(sorted(g.adj[root])))]
        while stack:
            v, parent, it = stack[-1]
            w = next(it, None)
            if w is not None:
                if w == parent:
                    continue
                if w not in disc:
                    disc[w] = low[w] = counter
                    counter += 1
                    estack.append((v, w))
                    stack.append((w, v, iter(sorted(g.adj[w]))))
                elif disc[w] < disc[v]:
                    estack.append((v, w))
                    low[v] = min(low[v], disc[w])
                continue
            stack.pop()
            if not stack:
                continue
            p = stack[-1][0]
            low[p] = min(low[p], low[v])
            if low[v] >= disc[p]:
                blk = set()
                while True:
                    e = estack.pop()
                    blk.update(e)
                    if e == (p, v):
                        break
                blocks.append(sorted(blk))
                if p == root:
                    root_blocks += 1
                else:
                    cuts.add(p)
        if root_blocks > 1:
            cuts.add(root)
        if estack:
            raise InternalInvariantBreach("edge stack not empty after the block search")
    return blocks, cuts


def is_complete_graph(g: Graph) -> bool:
    return 2 * g.m == g.n * (g.n - 1)


def block_kind(g: Graph, blk):
    """Kind of a block of g: "complete", "cycle" or None.

    Decided from the vertex count k and the induced edge count e alone:
    complete iff e = k(k-1)/2, and, since a block on k >= 3 vertices is
    2-connected, a cycle iff k >= 3 and e = k.  K3 counts as complete.
    """
    keep = frozenset(blk)
    k = len(keep)
    e = sum(len(g.adj[v] & keep) for v in keep) // 2
    if 2 * e == k * (k - 1):
        return "complete"
    if k >= 3 and e == k:
        return "cycle"
    return None


def is_gallai_tree(g: Graph) -> bool:
    """Every block complete or an odd cycle (the graph must be connected)."""
    if not is_connected(g):
        raise NotConnected("is_gallai_tree needs a connected graph")
    for blk in blocks_and_cut_vertices(g)[0]:
        kind = block_kind(g, blk)
        if not (kind == "complete" or (kind == "cycle" and len(blk) % 2 == 1)):
            return False
    return True


def is_gdp_tree(g: Graph) -> bool:
    """Every block complete or a cycle of any parity."""
    if not is_connected(g):
        raise NotConnected("is_gdp_tree needs a connected graph")
    return all(block_kind(g, blk) for blk in blocks_and_cut_vertices(g)[0])


def degeneracy_order(g: Graph, d: int, groups=None):
    """Order where every vertex has at most d earlier neighbors.

    Built by repeated minimum-degree removal (ties to the smallest id)
    and reversing.  When groups are given they must be unions of
    components; each group's vertices come out consecutive, groups in
    the given sequence.  Raises NotDegenerate(d) if some removal step
    only finds vertices of degree above d.
    """
    if groups is None:
        groups = [sorted(g.vertices)] if g.n else []
    order = []
    for grp in groups:
        sub = g.subgraph(grp)
        deg = {v: sub.degree(v) for v in sub.vertices}
        alive = set(sub.vertices)
        removed = []
        while alive:
            v = min(alive, key=lambda x: (deg[x], x))
            if deg[v] > d:
                raise NotDegenerate(d)
            alive.remove(v)
            removed.append(v)
            for w in sub.adj[v]:
                if w in alive:
                    deg[w] -= 1
        removed.reverse()
        order.extend(removed)
    return order


def _biconnected_without(g: Graph) -> bool:
    """Is g 2-connected?

    One iterative low-point pass over g's own adjacency: no graph is
    built, nothing is sorted, and the pass stops at the first
    articulation point.
    """
    if g.n <= 2:
        return False
    adj = g.adj
    root = next(iter(adj))
    disc = {root: 0}
    low = {root: 0}
    root_children = 0
    stack = [(root, None, iter(adj[root]))]
    while stack:
        v, parent, it = stack[-1]
        for w in it:
            if w == parent:
                continue
            if w not in disc:
                disc[w] = low[w] = len(disc)
                stack.append((w, v, iter(adj[w])))
                break
            if disc[w] < low[v]:
                low[v] = disc[w]
        else:
            stack.pop()
            if not stack:
                continue
            p = stack[-1][0]
            if low[v] < disc[p]:
                if low[v] < low[p]:
                    low[p] = low[v]
            elif p != root:
                return False
            else:
                root_children += 1
                if root_children > 1:
                    return False
    return len(disc) == g.n


_EOS = (0, -1, 0)   # end-of-segment marker on the triple stack; its a matches no vertex


def _no_separation_pair(g: Graph) -> bool:
    """Does the 2-connected simple graph g, with minimum degree 3, have
    no separation pair?

    The path search of Hopcroft and Tarjan (SIAM J. Comput. 1973) as
    corrected by Gutwenger and Mutzel (GD 2000), stopped at the first
    separation pair: since nothing has been split off before it, the
    graph is still g, every degree is at least 3, and the edge stack,
    the splitting and the multiple-edge cases are never needed.  Three
    iterative passes, O(n + m) after one sort of the arcs:

    - DFS 1 numbers the vertices 1..n from a root, splits the arcs into
      tree arcs v -> w and fronds v ~> w (w a proper ancestor), and
      computes father, lowpt1, lowpt2 and ND (descendant count).
    - Each adjacency list is sorted by phi: 3 lowpt1(w), plus 2 if
      lowpt2(w) >= v, for a tree arc; 3 w + 1 for a frond.
    - DFS 2 walks the sorted lists, gives v the new number m - ND(v) + 1
      (m starts at n and drops by one on each return from a child),
      marks the arcs that start a path (the first arc, and each arc
      after a frond), and sets high(w) to the source of the first frond
      into w.
    - The path search keeps triples (h, a, b) of type-2 candidates on a
      stack, with an end-of-segment marker per path, and answers False
      at the first type-2 triple with a = v and father(b) != a, or at
      the first tree arc v -> w with lowpt2(w) >= v > lowpt1(w) where
      father(v) is not the root or v has a second child (type 1).

    The arcs live in one sorted list of ints and the DFS stacks hold
    ints, so a search tens of thousands of vertices deep allocates few
    objects for the garbage collector to trace.
    """
    adj = g.adj
    n = g.n
    N = n + 1
    K = 3 * N * N
    root = next(iter(adj))
    # DFS 1 over g's adjacency; vertices are their DFS numbers from here on
    num = {root: 1}
    father = [0, 0]
    low1 = [0, 1]
    low2 = [0, 1]
    nd = [0, 1]
    out = [0] * (N + 1)             # arcs leaving each vertex
    keys = []                       # arc v -> w with sort key phi, as v K + phi N + w
    stack = [1]
    its = [iter(adj[root])]
    while stack:
        v = stack[-1]
        for y in its[-1]:
            w = num.get(y)
            if w is None:
                w = num[y] = len(father)
                father.append(v)
                low1.append(w)
                low2.append(w)
                nd.append(1)
                stack.append(w)
                its.append(iter(adj[y]))
                break
            if w < v and w != father[v]:
                keys.append(v * K + (3 * w + 1) * N + w)
                out[v] += 1
                if w < low1[v]:
                    low2[v] = low1[v]
                    low1[v] = w
                elif low1[v] < w < low2[v]:
                    low2[v] = w
        else:
            stack.pop()
            its.pop()
            p = father[v]
            if not p:
                continue
            l1, l2 = low1[v], low2[v]
            keys.append(p * K + (3 * l1 + 2 * (l2 >= p)) * N + v)
            out[p] += 1
            if l1 < low1[p]:
                low2[p] = min(low1[p], l2)
                low1[p] = l1
            elif l1 == low1[p]:
                if l2 < low2[p]:
                    low2[p] = l2
            elif l1 < low2[p]:
                low2[p] = l1
            nd[p] += nd[v]
    keys.sort()
    first = [0] * (N + 1)           # the arcs of v are keys[first[v]:first[v + 1]]
    for v in range(1, N):
        first[v + 1] = first[v] + out[v]
    # DFS 2 over the sorted arcs: new numbers, path starts, high
    new = [0] * N
    new[1] = 1
    high = [0] * N
    starts = [False] * len(keys)
    nxt = first[:]
    m = n
    fresh = True                    # the next arc starts a path
    stack = [1]
    while stack:
        v = stack[-1]
        i = nxt[v]
        if i == first[v + 1]:
            stack.pop()
            m -= 1
            continue
        nxt[v] = i + 1
        starts[i] = fresh
        key = keys[i]
        w = key % N
        fresh = key // N % 3 == 1
        if fresh:
            if not high[w]:
                high[w] = new[v]
        else:
            new[w] = m - nd[w] + 1
            stack.append(w)
    # the path search: walks the old numbers, compares the new ones
    lowpt1 = [new[x] for x in low1]
    lowpt2 = [new[x] for x in low2]
    dad = [0] * N                   # by new number
    for x in range(2, N):
        dad[new[x]] = new[father[x]]
    ts = [_EOS]
    nxt = first[:]
    stack = [1]
    while stack:
        x = stack[-1]
        i = nxt[x]
        if i < first[x + 1]:
            nxt[x] = i + 1
            key = keys[i]
            y = key % N
            tree = key // N % 3 != 1
            v, w = new[x], new[y]
            a = lowpt1[y] if tree else w
            if starts[i]:
                if ts[-1][1] > a:
                    h = 0
                    while ts[-1][1] > a:
                        top, _, b = ts.pop()
                        if top > h:
                            h = top
                    ts.append((max(h, w + nd[y] - 1) if tree else h, a, b))
                else:
                    ts.append((w + nd[y] - 1, a, v) if tree else (v, a, v))
            if tree:
                if starts[i]:
                    ts.append(_EOS)
                stack.append(y)
            continue
        stack.pop()
        if not stack:
            break
        y, x = x, stack[-1]
        v = new[x]
        if v != 1:
            while ts[-1][1] == v:
                if dad[ts[-1][2]] != v:
                    return False
                ts.pop()
        # a child of the root has no fronds, so its arcs are its children
        if lowpt2[y] >= v > lowpt1[y] and (father[x] != 1 or out[x] > 1):
            return False
        if starts[nxt[x] - 1]:
            while ts.pop() is not _EOS:
                pass
        hv = high[x]
        while ts[-1] is not _EOS and ts[-1][1] != v and ts[-1][2] != v and hv > ts[-1][0]:
            ts.pop()
    return True


def connectivity_at_least(g: Graph, s: int) -> bool:
    """Is g s-connected: more than s vertices, and no set of fewer than
    s vertices whose deletion disconnects it?

    s = 2 is one low-point pass.  For s >= 3 a vertex of degree below s
    refutes at once: deleting its neighbours cuts it off from the rest.
    s = 3 is then one low-point pass for 2-connectivity and one linear
    separation-pair search (_no_separation_pair), O(n + m) after one
    sort of the arcs.  s >= 4 deletes each vertex in turn and
    recurses down to s = 3, so it costs n linear tests.  This is the
    one 3-connectivity check for drawn and abstract graphs alike (gen,
    both pipelines, verify).
    """
    if s <= 0:
        return g.n > 0
    if g.n <= s:
        return False
    if s == 1:
        return is_connected(g)
    if s == 2:
        return _biconnected_without(g)
    if any(len(ns) < s for ns in g.adj.values()):
        return False
    if s == 3:
        return _biconnected_without(g) and _no_separation_pair(g)
    for v in sorted(g.vertices):
        if not connectivity_at_least(g.without_vertex(v), s - 1):
            return False
    return True
