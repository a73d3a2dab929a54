"""Plane graphs as rotation systems, and the covering-subgraph machinery.

A PlaneGraph is a connected, non-empty Graph plus, for each vertex, the
cyclic order of its neighbors; it stores that rotation, the face walks
and the directed-edge-to-face map, and derives the rest (the faces at a
vertex are those of the edges leaving it; restrict cuts out G[keep]).
Faces are traced eagerly: the walk leaving v toward the successor of u
in rot(v) after arriving from u.  Each face has one boundary walk (a
single vertex has one face with an empty walk), and a rotation system is
accepted only if |V| - |E| + |F| = 2, i.e. the embedding is planar.

very_nice_subgraph copies the caller's drawing once into a private
working drawing with stable face ids, which only shrinks: each face
keeps its id until a reduction merges it away, and the merged face
takes the id of one of the faces it merges.  Every reduction (interior
deletion, degree-2 suppression, ear removal, leaf-block split) cuts
away what it removes, relabels only the faces it merges, and builds its
H from the smaller instance's H and values saved before the cut; none
reads the drawing again once it yields.  The leaf-block split, which
needs both sides, copies the drawing and cuts the copy down to the
block and the drawing itself to the rest.  H is therefore built in the
caller's face ids with no per-level re-trace or face-id map.  A step
costs the face edges it reads plus the heap work that picks it, and an
ear step reads every inner face once: near-linear on the hub instances,
where each interior step reads a dozen face edges and the ear phase is
about one step.  A connected plane graph on at least 3 vertices is
2-connected iff no face walk repeats a vertex, so the block search runs
at the top only when an input face repeats one, and on every leaf
block's remainder; an interior candidate's faces are walked once, for
its test (the merged face visits no vertex twice) and its repair.

Every inner face of the H so built misses exactly two of its vertices,
by induction over the reductions: the base case (at most two vertices)
has only the outer face; an ear face misses exactly its two ends;
suppression adds the vertex to both faces it joins, so their misses do
not change; a leaf-block glue keeps the rest side's two misses on the
mixed face, which the block side covers whole as its outer face; and
interior deletion turns the two misses of the merged face into two on
each face it restores (_vns_interior).  So the interior repair has two
cases, and any other count is a breach.

augment_visibility draws the chords of each face of a 3-connected
drawing on that face's vertex cycle alone, and builds one PlaneGraph
on the drawn_graph of the merged rotation.
"""

from __future__ import annotations

import heapq
from itertools import combinations

from .core_graph import Graph, connected_components, is_connected, parse_graph, write_graph
from .errors import (BadRotation, InternalInvariantBreach, MalformedInput, NotConnected,
                     PreconditionViolated)


class PlaneGraph:
    """Stores g, rot, the face walks, the directed-edge-to-face map and
    outer; faces at a vertex and sub-drawings are derived from those."""

    __slots__ = ("g", "rot", "faces", "outer", "_edge_face")

    def __init__(self, g: Graph, rot):
        """Trace every face once, each from the smallest unvisited
        directed edge; a face id is its walk's index in that order.  The
        outer face is face 0 until a caller names another one."""
        if not is_connected(g):
            raise NotConnected("a plane graph must be connected and non-empty")
        if set(rot) != g.vertices:
            raise BadRotation("rotation must cover exactly the vertex set")
        self.g = g
        self.rot = rot = {v: tuple(rot[v]) for v in g.vertices}
        adj = g.adj
        # r is a permutation of v's neighbors when it has their number,
        # names only neighbors and adds as many keys to nxt as it is long
        nxt = {}
        for v, r in rot.items():
            ns = adj[v]
            before = len(nxt)
            for u, x in zip(r, r[1:] + r[:1]):
                nxt[(u, v)] = (v, x)
            if len(r) != len(ns) or len(nxt) - before != len(r) or not ns.issuperset(r):
                raise BadRotation("rotation at %r is not a permutation of neighbors" % (v,))
        faces = []
        ef = {}
        # directed edges in sorted order: by tail, then by head
        for u in sorted(adj):
            for v in sorted(adj[u]):
                e = (u, v)
                if e in ef:
                    continue
                fid = len(faces)
                walk = []
                cur = e
                while cur not in ef:
                    ef[cur] = fid
                    walk.append(cur)
                    cur = nxt[cur]
                if cur != e:
                    raise BadRotation("face trace did not close")
                faces.append(tuple(walk))
        self.faces = faces or [()]
        if g.n - g.m + len(self.faces) != 2:
            raise BadRotation("rotation system is not planar (Euler check failed)")
        self.outer = 0
        self._edge_face = ef

    def face_vertices(self, fid):
        """Distinct vertices on the face boundary, in order of first visit."""
        return list(dict.fromkeys(u for u, _ in self.faces[fid])) or list(self.g.vertices)

    def face_of_directed_edge(self, u, v):
        return self._edge_face[(u, v)]

    def faces_at(self, v):
        """Face ids at v, once each in id order: those of its out-edges."""
        return sorted({self._edge_face[(v, u)] for u in self.rot[v]}) or [0]

    def restrict(self, keep):
        """Drawing of G[keep], rotations filtered; outer face 0 until set."""
        sub = self.g.subgraph(keep)
        return PlaneGraph(sub, {v: tuple(w for w in self.rot[v] if w in sub.vertices)
                                for v in sub.vertices})

    def face_count(self):
        return len(self.faces)

    def __repr__(self):
        return "PlaneGraph(n=%d, m=%d, f=%d)" % (self.g.n, self.g.m, len(self.faces))


def drawn_graph(rot) -> Graph:
    """The graph a rotation system draws: its keys and, once each, the
    edges it lists from their smaller end.  A neighbor listed on one
    side only leaves a rotation PlaneGraph refuses."""
    return Graph(rot, [(v, w) for v, r in rot.items() for w in r if v < w])


def parse_plane(text: str) -> PlaneGraph:
    """Graph records plus `r <v> <edge-index>...` rotation lines.

    Edge indices refer to the lexicographically sorted edge list.  The
    graph must be connected, and every vertex with neighbors needs an r
    line.  The outer face is face id 0.  One pass of parse_graph reads
    the graph records and sets the r lines aside, split once, so every
    graph-record error comes before any r-line error and both carry the
    file's line numbers.
    """
    rot_lines = []
    g = parse_graph(text, rot_lines)
    edges = g.edges()
    count = len(edges)
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
            if not (0 <= ei < count):
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
    return PlaneGraph(g, rot)


def write_plane(pg: PlaneGraph) -> str:
    edges = pg.g.edges()
    eidx = {e: i for i, e in enumerate(edges)}
    lines = [write_graph(pg.g).rstrip("\n")]
    for v in sorted(pg.g.vertices):
        if not pg.rot[v]:
            continue
        idxs = [eidx[(min(v, u), max(v, u))] for u in pg.rot[v]]
        lines.append("r %d %s" % (v, " ".join(str(i) for i in idxs)))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# vertex-face incidence and nice subgraphs


def _one_block(pg):
    """Whether no face walk repeats a vertex: pg is 2-connected, K1 or K2."""
    return all(len(dict(walk)) == len(walk) for walk in pg.faces)


def is_nice(pg: PlaneGraph, h, very=None):
    """Check the covering-subgraph conditions; returns (ok, violations).

    h is a collection of (vertex, face id) incidence pairs.  With
    very=v_star the outer face must be fully covered and v_star must
    have degree exactly 1.  One pass over h groups it by face and
    counts vertex degrees.  Blocks are searched only when some face
    walk is longer than its vertex list, so repeats a vertex: one block
    has no misses across blocks.
    """
    from .core_graph import blocks_and_cut_vertices

    h = set(h)
    viol = []
    face_vs = {fid: pg.face_vertices(fid) for fid in range(pg.face_count())}
    on_face = {fid: set(vs) for fid, vs in face_vs.items()}
    for (v, fid) in sorted(h):
        if fid not in on_face or v not in on_face[fid]:
            viol.append("not an incidence: vertex %r face %r" % (v, fid))
    dv = {}
    covered = {}
    for (v, fid) in h:
        dv[v] = dv.get(v, 0) + 1
        covered.setdefault(fid, set()).add(v)
    for v in sorted(dv):
        if dv[v] > 2:
            viol.append("vertex %r covered %d times" % (v, dv[v]))
    in_blocks = {}
    if any(len(walk) > len(face_vs[fid]) for fid, walk in enumerate(pg.faces)):
        for i, blk in enumerate(blocks_and_cut_vertices(pg.g)[0]):
            for v in blk:
                in_blocks.setdefault(v, set()).add(i)
    for fid in range(pg.face_count()):
        cov = covered.get(fid, ())
        uncovered = [v for v in face_vs[fid] if v not in cov]
        if len(uncovered) > 2:
            viol.append("face %d misses %d vertices" % (fid, len(uncovered)))
        if uncovered and in_blocks and not in_blocks[uncovered[0]].intersection(
                *(in_blocks[v] for v in uncovered[1:])):
            viol.append("face %d misses vertices across blocks: %r" % (fid, sorted(uncovered)))
    if very is not None:
        outer_vs = face_vs[pg.outer]
        missing = [v for v in outer_vs if (v, pg.outer) not in h]
        if missing:
            viol.append("outer face not saturated, missing %r" % (sorted(missing),))
        if dv.get(very, 0) != 1:
            viol.append("designated vertex %r has degree %d" % (very, dv.get(very, 0)))
    return (not viol), viol


def very_nice_subgraph(pg: PlaneGraph, v_star):
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
    ok, viol = is_nice(pg, h, very=v_star)
    if not ok:
        raise InternalInvariantBreach("construction failed checks: %s" % "; ".join(viol))
    return frozenset(h)


class _Drawing:
    """The working drawing that very_nice_subgraph cuts down in place.

    A private copy of the caller's PlaneGraph.  Each rotation is a
    cyclic linked list (succ, pred), read from any neighbor; the vertex
    set is succ's keys.  Faces have stable ids: rep holds one directed
    edge of each face (None for a lone vertex's face) and ef the face id
    of every directed edge, and a walk is traced from the rotation when
    it is read.  Ids are never renumbered: the caller's faces keep
    theirs, and a face made by a surgery takes the id of one of the
    faces it merges, so only the edges of the others are relabelled.
    The drawing only shrinks: no reduction reads it again once its
    smaller instance is made, and the leaf-block split, which needs two
    views of it, hands the block side a copy.
    """

    __slots__ = ("succ", "pred", "ef", "rep")

    def __init__(self, pg):
        self.succ, self.pred = {}, {}
        for v, r in pg.rot.items():
            k = len(r)
            self.succ[v] = {r[i]: r[(i + 1) % k] for i in range(k)}
            self.pred[v] = {r[(i + 1) % k]: r[i] for i in range(k)}
        self.ef = dict(pg._edge_face)
        self.rep = {fid: walk[0] if walk else None for fid, walk in enumerate(pg.faces)}

    def copy(self):
        new = object.__new__(_Drawing)
        new.succ = {v: dict(nb) for v, nb in self.succ.items()}
        new.pred = {v: dict(nb) for v, nb in self.pred.items()}
        new.ef, new.rep = dict(self.ef), dict(self.rep)
        return new

    def around(self, v):
        """v's neighbors in rotation order, from any of them; v is an
        interior or a cut vertex, so it has some."""
        nxt = self.succ[v]
        first = next(iter(nxt))
        out = [first]
        w = nxt[first]
        while w != first:
            out.append(w)
            w = nxt[w]
        return out

    def walk(self, fid, de=None):
        """Face fid's walk, from its edge de or its representative."""
        de = de or self.rep[fid]
        if de is None:
            return []
        walk = [de]
        u, v = de
        cur = (v, self.succ[v][u])
        while cur != de:
            walk.append(cur)
            u, v = cur
            cur = (v, self.succ[v][u])
        return walk

    def face_vertices(self, fid):
        return list(dict.fromkeys(a for a, _ in self.walk(fid))) or list(self.succ)

    def cut(self, dead, fid, rep, walks=None):
        """Delete the vertices in dead, leaving a connected graph on at
        least two vertices.  What is left of the faces with an edge at
        dead is one face, which takes the id fid and rep, one of its
        edges: the surviving edges of the faces other than fid are
        relabelled, read from walks when the caller has their walks."""
        dead = set(dead)
        succ, pred, ef = self.succ, self.pred, self.ef
        if walks is None:
            merged = {ef[de] for v in dead for w in succ[v] for de in ((v, w), (w, v))}
            merged.discard(fid)
            walks = map(self.walk, merged)
        for walk in walks:
            del self.rep[ef[walk[0]]]
            for de in walk:
                ef[de] = fid
        for v in dead:
            for w in succ.pop(v):
                del ef[(v, w)]
                if w not in dead:
                    del ef[(w, v)]
                    # the rest is connected, so w keeps a neighbor besides v
                    nxt, prv = succ[w], pred[w]
                    a, b = prv.pop(v), nxt.pop(v)
                    nxt[a], prv[b] = b, a
            del pred[v]
        self.rep[fid] = rep

    def _rename(self, w, old, new):
        """Put new in old's slot of w's rotation."""
        nxt, prv = self.succ[w], self.pred[w]
        a, b = prv.pop(old), nxt.pop(old)
        if a == old:
            a = b = new
        nxt[a], prv[b] = new, new
        nxt[new], prv[new] = b, a

    def smooth(self, v, x, y, f1, f2):
        """Replace the path x-v-y by the edge x-y at the same rotation
        slots; the faces f1 of (x, v) and f2 of (y, v) keep their ids."""
        ef = self.ef
        self._rename(x, v, y)
        self._rename(y, v, x)
        del self.succ[v], self.pred[v]
        for de in ((x, v), (v, y), (y, v), (v, x)):
            del ef[de]
        ef[(x, y)], ef[(y, x)] = f1, f2
        self.rep[f1], self.rep[f2] = (x, y), (y, x)


class _Instance:
    """One instance of the reductions: its drawing, v_star, the outer
    face id, whether the graph is known to be 2-connected, and two
    lazily checked min-heaps of candidates, for suppression (degree-2
    vertices) and for deletion (vertices off the outer face).  A chain
    of interior deletions, suppressions and ear removals shares one
    instance; none of them moves a vertex onto the outer face, so the
    second heap only loses vertices.  The rest of a leaf-block split
    keeps its instance too: an instance not known to be 2-connected has
    done only splits, so its heaps hold what fresh ones would, plus dead
    vertices, skipped as they surface; a split moves no survivor on or
    off the outer face and changes the degree of its cut vertex alone."""

    __slots__ = ("wd", "v_star", "outer", "biconnected", "deg2", "interior")

    def __init__(self, wd, v_star, outer, biconnected):
        self.wd = wd
        self.v_star = v_star
        self.outer = outer
        self.biconnected = biconnected
        vs = sorted(wd.succ)
        on_outer = set(wd.face_vertices(outer))
        self.deg2 = [v for v in vs if len(wd.succ[v]) == 2]
        self.interior = [v for v in vs if v not in on_outer]

    def touched(self, vs):
        """Queue those of vs, all survivors, that now have degree 2."""
        for v in vs:
            if len(self.wd.succ[v]) == 2:
                heapq.heappush(self.deg2, v)


def _vns(pg, v_star):
    """Run the reductions from one loop over an explicit stack.

    Each reduction is a generator: it cuts its instance's drawing down,
    yields the smaller instance, receives that instance's covering
    subgraph back and builds its own H from it and from values it saved
    before the cut, in the same face ids.  Depth grows with n, so no
    Python recursion.
    """
    stack = [_vns_reduce(_Instance(_Drawing(pg), v_star, pg.outer, _one_block(pg)))]
    h = None
    while stack:
        try:
            child = stack[-1].send(h)
        except StopIteration as done:
            stack.pop()
            h = done.value
        else:
            stack.append(_vns_reduce(child))
            h = None
    return h


def _vns_reduce(inst):
    wd = inst.wd
    if len(wd.succ) <= 2:
        return {(v, fid) for fid in wd.rep for v in wd.face_vertices(fid)}
    if not inst.biconnected:
        from .core_graph import blocks_and_cut_vertices

        blocks, cuts = blocks_and_cut_vertices(drawn_graph(wd.succ))
        if len(blocks) > 1:
            return (yield from _vns_leaf_block(inst, blocks, cuts))
        inst.biconnected = True
    heap = inst.interior
    while heap and heap[0] not in wd.succ:
        heapq.heappop(heap)
    if not heap:
        return (yield from _vns_ear(inst))
    heap = inst.deg2
    while heap:
        v = heapq.heappop(heap)
        nb = wd.succ.get(v, ())
        if v != inst.v_star and len(nb) == 2:
            x, y = sorted(nb)
            if y not in wd.succ[x]:
                return (yield from _vns_suppress(inst, v, x, y))
    return (yield from _vns_interior(inst))


def _ear_in(inst, fid):
    """(smallest directed edge, ear) of face fid; the ear, read from that
    edge, is (e1, e2, internals) with every vertex but the boundary
    neighbors e1 and e2 of degree 2 and v_star not among them, or None."""
    wd = inst.wd
    walk = wd.walk(fid)
    i = walk.index(min(walk))
    cyc = list(dict.fromkeys(a for a, _ in walk[i:] + walk[:i]))
    k = len(cyc)
    high = [v for v in cyc if len(wd.succ[v]) >= 3]
    if len(high) > 2 or k < 3:
        return walk[i], None
    for j in range(k):
        e1, e2 = cyc[j], cyc[(j + 1) % k]
        if all(v in (e1, e2) for v in high) and (inst.v_star in (e1, e2) or inst.v_star not in cyc):
            return walk[i], (e1, e2, [v for v in cyc if v not in (e1, e2)])
    return walk[i], None


def _vns_ear(inst):
    """All vertices on the outer cycle: peel an inner face that is an
    ear, recurse, then cover the ear on its two faces.  The first face
    in order of smallest directed edge that holds an ear is peeled."""
    outer = inst.outer
    ears = [(first, fid, ear) for fid in inst.wd.rep if fid != outer
            for first, ear in [_ear_in(inst, fid)] if ear]
    if not ears:
        raise InternalInvariantBreach("no removable ear face")
    _, fid, (e1, e2, internals) = min(ears)
    inst.wd.cut(internals, outer, (e1, e2))
    h = yield inst
    for v in internals:
        h.add((v, fid))
        h.add((v, outer))
    return h


def _vns_suppress(inst, v, x, y):
    """Replace the path x-v-y by the edge x-y at the same rotation slot."""
    wd = inst.wd
    f1 = wd.ef[(x, v)]
    f2 = wd.ef[(y, v)]
    if f1 == f2:
        raise InternalInvariantBreach("degree-2 vertex sees one face twice")
    wd.smooth(v, x, y, f1, f2)
    inst.touched((x, y))
    h = yield inst
    h.add((v, f1))
    h.add((v, f2))
    return h


def _faces_around(wd, u):
    """(nbrs, theta, walks) for u off the outer face of a 2-connected G,
    or None when G - u is not 2-connected: nbrs is u's rotation, walks[t]
    the walk of face theta[t] from (nbrs[t], u).  The faces around u
    merge into one, so G - u is 2-connected iff that merged walk, the
    heads of every walks[t][2:], visits no vertex twice."""
    nbrs = wd.around(u)
    theta = [wd.ef[(w, u)] for w in nbrs]
    if len(set(theta)) != len(theta):
        raise InternalInvariantBreach("faces around interior vertex repeat")
    walks = [wd.walk(f, (w, u)) for f, w in zip(theta, nbrs)]
    link = [b for walk in walks for _, b in walk[2:]]
    return (nbrs, theta, walks) if len(set(link)) == len(link) else None


def _vns_interior(inst):
    """Delete an interior vertex u; its faces merge into one face of
    G - u, which takes theta[0]'s id, and the recursion's coverage of
    that face is redistributed over the restored faces around u.

    Face theta[t] runs from u along paths[t], from the next neighbor of
    u to nbrs[t].  The merged face is a cycle, so each link vertex w
    lies in paths[t][1:] for one t, where[w], and is put back on that
    face; then each theta[t] misses u and its path's first vertex.  By
    induction the child's H misses exactly two link vertices z1, z2 on
    the merged face.  On two faces, u covers those two; on one face
    theta[j], u covers it and theta[j + 1], and the start s of path j,
    which ends path j + 1, moves from theta[j + 1] to theta[j].  Either
    way every theta[t] misses exactly two vertices and u has degree 2.
    Only link vertices lie on the merged face, and every incidence on it
    is dropped before the restored ones are added, so reusing theta[0]'s
    id leaves no trace in H."""
    wd = inst.wd
    heap = inst.interior
    failed = []
    found = None
    while heap:
        u = heapq.heappop(heap)
        if u not in wd.succ:
            continue
        found = _faces_around(wd, u)
        if found:
            break
        failed.append(u)
    for cand in failed:
        heapq.heappush(heap, cand)
    if found is None:
        raise InternalInvariantBreach("no interior vertex with 2-connected remainder")
    nbrs, theta, walks = found
    k = len(nbrs)
    paths = [[b for _, b in walk[1:]] for walk in walks]

    merged = theta[0]
    wd.cut((u,), merged, (paths[0][0], paths[0][1]), walks[1:])
    link_walk = wd.walk(merged)
    link_vs = {a for a, _ in link_walk}
    if len(link_walk) != len(link_vs):
        raise InternalInvariantBreach("merged face around deleted vertex is not a cycle")
    inst.touched(nbrs)

    h = yield inst
    zs = sorted(w for w in link_vs if (w, merged) not in h)
    if len(zs) != 2:
        raise InternalInvariantBreach("merged face %d misses %d link vertices, not two"
                                      % (merged, len(zs)))
    h.difference_update((w, merged) for w in link_vs)
    where = {w: t for t in range(k) for w in paths[t][1:]}
    z1, z2 = zs
    i, j = where[z1], where[z2]
    if i != j:
        add = {(u, theta[i]), (u, theta[j])}
        drop = {z1, z2}
    else:
        s = paths[j][0]
        jn = (j + 1) % k
        if where[s] != jn:
            raise InternalInvariantBreach("path start %r is not covered on face %d"
                                          % (s, theta[jn]))
        add = {(u, theta[j]), (u, theta[jn]), (s, theta[j])}
        drop = {z1, z2, s}
    h.update((w, theta[t]) for w, t in where.items() if w not in drop)
    h |= add
    return h


def _vns_leaf_block(inst, blocks, cuts):
    """Split off a leaf block B at its cut vertex r.  B must hold the
    rest of the graph in a single one of its faces (that face plays the
    infinite face of B): the rest's neighbors of r form one run of r's
    rotation.  The mixed face of G passes from the run's last vertex a
    through r to the next B-neighbor b.  A copy of the drawing is cut
    down to B, in a fresh instance, and the drawing itself to the rest,
    which keeps inst with r queued again; each side's share of the
    mixed face keeps the mixed face's id.  Recurse on both sides
    and glue at r, dropping r's block-side incidence when the other side
    left r uncovered on the shared face, so r never exceeds degree 2."""
    wd = inst.wd
    outer_vs = set(wd.face_vertices(inst.outer))
    chosen = None
    for blk in sorted(blocks, key=lambda b: b[0]):
        bcuts = [v for v in blk if v in cuts]
        if len(bcuts) != 1:
            continue
        r = bcuts[0]
        inside = set(blk)
        if inst.v_star != r and inst.v_star in inside:
            continue
        # the outer face must not sit strictly inside this block
        if outer_vs <= inside:
            continue
        ring = wd.around(r)
        d = len(ring)
        starts = [t for t in range(d) if ring[t] not in inside and ring[t - 1] in inside]
        if len(starts) != 1:
            continue
        t = starts[0]
        while ring[t % d] not in inside:
            t += 1
        chosen = (inside, r, ring[(t - 1) % d], ring[t % d])
        break
    if chosen is None:
        raise InternalInvariantBreach("no splittable leaf block")
    inside, r, a, b = chosen
    mixed = wd.ef[(r, b)]

    block = wd.copy()
    block.cut([v for v in wd.succ if v not in inside], mixed, (r, b))
    wd.cut(inside - {r}, mixed, (a, r))
    inst.touched((r,))
    hb = yield _Instance(block, r, mixed, True)
    h2 = yield inst
    if (r, mixed) not in h2:
        if (r, mixed) not in hb:
            raise InternalInvariantBreach("cut vertex %r is uncovered on both sides" % (r,))
        hb.discard((r, mixed))
    h2 |= hb
    return h2


# ---------------------------------------------------------------------------
# visibility augmentation and the face structure of a drawn subgraph


class FaceClasses:
    """Faces of the subgraph drawn on a vertex subset.

    Erasing the other vertices (and every edge leaving the subset) fuses
    the ambient faces on the two sides of each erased edge.  The fused
    classes are exactly the faces of the drawn subgraph in the inherited
    drawing, which is the honest face structure even when the subgraph
    is disconnected or nested.  A class is named by its smallest member
    face id.  It stores each face's class, G[v2] as sub and its
    components as pieces; depths and holding classes are derived.
    """

    __slots__ = ("pg", "v2", "sub", "pieces", "_cls", "outer_class")

    def __init__(self, pg: PlaneGraph, v2):
        self.pg = pg
        self.v2 = frozenset(v2)
        self.sub = pg.g.subgraph(self.v2)
        self.pieces = connected_components(self.sub)
        parent = list(range(pg.face_count()))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for (u, v), fid in pg._edge_face.items():
            if u in self.v2 and v in self.v2:
                continue
            a, b = find(fid), find(pg._edge_face[(v, u)])
            if a != b:
                parent[max(a, b)] = min(a, b)
        self._cls = tuple(find(f) for f in range(pg.face_count()))
        self.outer_class = self._cls[pg.outer]

    def class_of(self, fid):
        return self._cls[fid]

    def class_holding(self, comp):
        """The class of the face that holds comp, a connected vertex set
        outside v2: every ambient face at comp must fuse into it."""
        cls = {self._cls[f] for v in comp for f in self.pg.faces_at(v)}
        if len(cls) != 1:
            raise InternalInvariantBreach(
                "vertices %r see face classes %r" % (sorted(comp), sorted(cls)))
        return cls.pop()

    def classes(self):
        return sorted(set(self._cls))

    def class_depths(self):
        """BFS depth of every class from the outer one, where one step
        crosses an edge of the drawn subgraph."""
        adj = {c: set() for c in self.classes()}
        for (u, v), fid in self.pg._edge_face.items():
            if u in self.v2 and v in self.v2:
                a = self._cls[fid]
                b = self._cls[self.pg._edge_face[(v, u)]]
                if a != b:
                    adj[a].add(b)
                    adj[b].add(a)
        depth = {self.outer_class: 0}
        queue = [self.outer_class]
        for c in queue:
            for c2 in adj[c]:
                if c2 not in depth:
                    depth[c2] = depth[c] + 1
                    queue.append(c2)
        if set(depth) != set(adj):
            raise InternalInvariantBreach("face classes are not connected")
        return depth


def component_planes(fc: FaceClasses):
    """Standalone plane pieces of the subgraph drawn on fc.v2 in fc.pg.

    For each piece in fc.pieces, ordered by smallest vertex, yields
    (vertices, piece PlaneGraph, local face id -> class, v_star).  The
    piece's outer face is its incident class nearest the ambient outer
    region; v_star is the smallest vertex on it.  The planar set-up
    builds fc once and runs the one-component-per-face check on it.
    """
    pg = fc.pg
    depth = fc.class_depths()
    out = []
    for comp in fc.pieces:
        pgq = pg.restrict(comp)
        cmap = {}
        for fid, walk in enumerate(pgq.faces):
            # a single-vertex piece has one face and no edges to read it from
            cs = ({fc.class_of(pg.face_of_directed_edge(*de)) for de in walk}
                  or {fc.class_of(f) for f in pg.faces_at(comp[0])})
            if len(cs) != 1:
                raise InternalInvariantBreach("piece face touches several classes")
            cmap[fid] = cs.pop()
        order = sorted(cmap, key=lambda f: (depth[cmap[f]], f))
        if len(order) > 1 and depth[cmap[order[0]]] == depth[cmap[order[1]]]:
            raise InternalInvariantBreach("outer face of a piece is not unique")
        pgq.outer = order[0]
        out.append((tuple(comp), pgq, cmap, min(pgq.face_vertices(pgq.outer))))
    return out


def augment_visibility(pg: PlaneGraph, v2) -> PlaneGraph:
    """Join every two v2-vertices that share a face of a 3-connected pg.

    Its faces are cycles, their vertices adjacent only along them, so
    each face is read as its vertex cycle: while it holds a nonadjacent
    v2-pair, the smallest pair gets a chord after the vertex before each
    end, and the two faces it leaves are treated alike.  Only the
    rotations a chord changes are copied, and one PlaneGraph is drawn
    from them over pg's, or none (no chord: pg comes back).  Its outer
    face holds pg's smallest outer edge, which leaves the smallest
    outer vertex, so no chord cuts it off.  The chords carry no color
    constraint.
    """
    v2 = frozenset(v2)
    rot = {}
    todo = [[u for u, _ in walk] for walk in pg.faces]
    while todo:
        cyc = todo.pop()
        pos = {v: i for i, v in enumerate(cyc) if v in v2}
        pick = next(((a, b) for a, b in combinations(sorted(pos), 2)
                     if abs(pos[a] - pos[b]) not in (1, len(cyc) - 1)), None)
        if pick:
            for v, w in (pick, pick[::-1]):
                r = rot.setdefault(v, list(pg.rot[v]))
                r.insert(r.index(cyc[pos[v] - 1]) + 1, w)
            i, j = sorted(pos[v] for v in pick)
            todo += [cyc[i:j + 1], cyc[j:] + cyc[:i + 1]]
    if not rot:
        return pg
    rot = {**pg.rot, **rot}
    aug = PlaneGraph(drawn_graph(rot), rot)
    aug.outer = aug.face_of_directed_edge(*min(pg.faces[pg.outer]))
    return aug
