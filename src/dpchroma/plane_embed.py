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
working drawing with stable face ids: each face keeps its id until a
reduction merges it away, a merged face takes an id the reduction names,
and every reduction (interior deletion, degree-2 suppression, ear
removal, leaf-block split) edits only the faces it merges and puts them
back from its undo record when the smaller instance's H returns.  H is
therefore built in the caller's face ids with no per-level re-trace or
face-id map.  A step costs the face edges it reads plus the heap work
that picks it, and an ear step scans every inner face: near-linear on
the hub instances, where each interior step reads a dozen face edges
and the ear phase is about one step.  The
block decomposition runs only where 2-connectivity is not known (at the
top and on a leaf block's remainder); whether deleting an interior
vertex keeps 2-connectivity is read off the merged face, which must
visit no vertex twice.
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
        self.rot = {v: tuple(rot[v]) for v in g.vertices}
        for v in g.vertices:
            if sorted(self.rot[v]) != sorted(g.adj[v]):
                raise BadRotation("rotation at %r is not a permutation of neighbors" % (v,))
        nxt = {}
        for v in g.vertices:
            r = self.rot[v]
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
        self.faces = faces or [()]
        if g.n - g.m + len(self.faces) != 2:
            raise BadRotation("rotation system is not planar (Euler check failed)")
        self.outer = 0
        self._edge_face = ef

    def face_walk(self, fid):
        return self.faces[fid]

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


def parse_plane(text: str) -> PlaneGraph:
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
    g = parse_graph("\n".join(graph_lines))
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


def is_nice(pg: PlaneGraph, h, very=None):
    """Check the covering-subgraph conditions; returns (ok, violations).

    h is a collection of (vertex, face id) incidence pairs.  With
    very=v_star the outer face must be fully covered and v_star must
    have degree exactly 1.  One pass over h groups it by face and
    counts vertex degrees.
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
    for i, blk in enumerate(blocks_and_cut_vertices(pg.g)[0]):
        for v in blk:
            in_blocks.setdefault(v, set()).add(i)
    for fid in range(pg.face_count()):
        cov = covered.get(fid, ())
        uncovered = [v for v in face_vs[fid] if v not in cov]
        if len(uncovered) > 2:
            viol.append("face %d misses %d vertices" % (fid, len(uncovered)))
        if uncovered and not in_blocks[uncovered[0]].intersection(
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
    """The one working drawing that very_nice_subgraph edits in place.

    A private copy of the caller's PlaneGraph.  Each rotation is a
    cyclic linked list (succ, pred) with head, the first neighbor of the
    caller's rotation still present; the vertex set is succ's keys.
    Faces have stable ids: rep holds one directed edge of each face (None
    for a lone vertex's face) and ef the face id of every directed edge,
    and a walk is traced from the rotation when it is read.  Ids are never
    renumbered: the caller's faces keep theirs, and a face made by a
    surgery takes an id the surgery names, so only the edges of the faces
    that lose their id are relabelled.  Each surgery returns an undo
    record that restores the drawing exactly, so the reductions' H is
    built in the caller's face ids.
    """

    __slots__ = ("succ", "pred", "head", "ef", "rep", "fresh")

    def __init__(self, pg):
        self.succ, self.pred, self.head = {}, {}, {}
        for v, r in pg.rot.items():
            k = len(r)
            self.succ[v] = {r[i]: r[(i + 1) % k] for i in range(k)}
            self.pred[v] = {r[(i + 1) % k]: r[i] for i in range(k)}
            self.head[v] = r[0] if r else None
        self.ef = dict(pg._edge_face)
        self.rep = {fid: walk[0] if walk else None for fid, walk in enumerate(pg.faces)}
        self.fresh = len(pg.faces)

    def around(self, v):
        """v's neighbors in rotation order, from its head."""
        first = self.head[v]
        if first is None:
            return []
        out = [first]
        nxt = self.succ[v]
        w = nxt[first]
        while w != first:
            out.append(w)
            w = nxt[w]
        return out

    def walk(self, fid):
        """Face fid's walk, from its representative edge."""
        de = self.rep[fid]
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

    def graph(self):
        return Graph(self.succ, [(v, w) for v, nb in self.succ.items() for w in nb if v < w])

    def cut(self, dead, fid, rep):
        """Delete the vertices in dead.  What is left of the faces with
        an edge at dead is one face, which takes the id fid and rep, one
        of its edges: the surviving edges of the faces other than fid
        are relabelled.  Returns the undo record."""
        dead = set(dead)
        succ, ef = self.succ, self.ef
        labels = {}
        for v in dead:
            for w in succ[v]:
                labels[(v, w)] = ef[(v, w)]
                labels[(w, v)] = ef[(w, v)]
        merged = {f: self.walk(f) for f in set(labels.values()) if f != fid}
        reps = {f: self.rep.pop(f) for f in merged}
        reps[fid] = self.rep.get(fid)
        links = []
        kept = {}
        for v in dead:
            for w in succ[v]:
                if w not in dead:
                    links.append(self._unlink(w, v))
            kept[v] = (succ.pop(v), self.pred.pop(v), self.head.pop(v))
        for de in labels:
            del ef[de]
        for walk in merged.values():
            for de in walk:
                if de in ef:
                    ef[de] = fid
        self.rep[fid] = rep
        return (labels, merged, reps, links, kept)

    def _unlink(self, w, v):
        """Take v out of w's rotation; returns what puts it back."""
        nxt, prv = self.succ[w], self.pred[w]
        a, b = prv.pop(v), nxt.pop(v)
        was_head = self.head[w] == v
        if a == v:
            self.head[w] = None
        else:
            nxt[a], prv[b] = b, a
            if was_head:
                self.head[w] = b
        return (w, v, a, b, was_head)

    def uncut(self, rec):
        labels, merged, reps, links, kept = rec
        succ, pred, head, ef = self.succ, self.pred, self.head, self.ef
        for v, (nxt, prv, first) in kept.items():
            succ[v], pred[v], head[v] = nxt, prv, first
        for w, v, a, b, was_head in reversed(links):
            nxt, prv = succ[w], pred[w]
            nxt[v], prv[v] = b, a
            if a != v:
                nxt[a], prv[b] = v, v
            if was_head:
                head[w] = v
        for f, walk in merged.items():
            for de in walk:
                ef[de] = f
        ef.update(labels)
        for f, de in reps.items():
            if de is None:
                del self.rep[f]
            else:
                self.rep[f] = de

    def _rename(self, w, old, new):
        """Put new in old's slot of w's rotation."""
        nxt, prv = self.succ[w], self.pred[w]
        a, b = prv.pop(old), nxt.pop(old)
        if a == old:
            a = b = new
        nxt[a], prv[b] = new, new
        nxt[new], prv[new] = b, a
        if self.head[w] == old:
            self.head[w] = new

    def smooth(self, v, x, y, f1, f2):
        """Replace the path x-v-y by the edge x-y at the same rotation
        slots; the faces f1 of (x, v) and f2 of (y, v) keep their ids."""
        ef = self.ef
        self._rename(x, v, y)
        self._rename(y, v, x)
        kept = (self.succ.pop(v), self.pred.pop(v), self.head.pop(v))
        for de in ((x, v), (v, y), (y, v), (v, x)):
            del ef[de]
        ef[(x, y)], ef[(y, x)] = f1, f2
        reps = (self.rep[f1], self.rep[f2])
        self.rep[f1], self.rep[f2] = (x, y), (y, x)
        return (v, x, y, f1, f2, kept, reps)

    def unsmooth(self, rec):
        v, x, y, f1, f2, kept, reps = rec
        ef = self.ef
        self.succ[v], self.pred[v], self.head[v] = kept
        self._rename(x, y, v)
        self._rename(y, x, v)
        del ef[(x, y)], ef[(y, x)]
        ef[(x, v)] = ef[(v, y)] = f1
        ef[(y, v)] = ef[(v, x)] = f2
        self.rep[f1], self.rep[f2] = reps


class _Instance:
    """What a chain of reductions shares besides the drawing: v_star,
    the outer face id, whether the graph is known to be 2-connected,
    and two lazily checked min-heaps of candidates, for suppression
    (degree-2 vertices) and for deletion (vertices off the outer face).
    Interior deletion, suppression and ear removal never move a vertex
    onto the outer face, so the second heap only loses vertices."""

    __slots__ = ("v_star", "outer", "biconnected", "deg2", "interior")

    def __init__(self, wd, v_star, outer, biconnected):
        self.v_star = v_star
        self.outer = outer
        self.biconnected = biconnected
        vs = sorted(wd.succ)
        on_outer = set(wd.face_vertices(outer))
        self.deg2 = [v for v in vs if len(wd.succ[v]) == 2]
        self.interior = [v for v in vs if v not in on_outer]

    def touched(self, wd, vs):
        """Queue the survivors among vs that now have degree 2."""
        for v in vs:
            if len(wd.succ.get(v, ())) == 2:
                heapq.heappush(self.deg2, v)


def _vns(pg, v_star):
    """Run the reductions from one loop over an explicit stack.

    Each reduction is a generator: it edits the shared drawing, yields
    the smaller instance, receives that instance's covering subgraph
    back, undoes its edit and returns its own H, in the same face ids.
    Depth grows with n, so no Python recursion.
    """
    wd = _Drawing(pg)
    stack = [_vns_reduce(wd, _Instance(wd, v_star, pg.outer, False))]
    h = None
    while stack:
        try:
            child = stack[-1].send(h)
        except StopIteration as done:
            stack.pop()
            h = done.value
        else:
            stack.append(_vns_reduce(wd, child))
            h = None
    return h


def _vns_reduce(wd, inst):
    from .core_graph import blocks_and_cut_vertices

    if len(wd.succ) <= 2:
        return {(v, fid) for fid in wd.rep for v in wd.face_vertices(fid)}
    if not inst.biconnected:
        blocks, cuts = blocks_and_cut_vertices(wd.graph())
        if len(blocks) > 1:
            return (yield from _vns_leaf_block(wd, inst, blocks, cuts))
        inst.biconnected = True
    heap = inst.interior
    while heap and heap[0] not in wd.succ:
        heapq.heappop(heap)
    if not heap:
        return (yield from _vns_ear(wd, inst))
    heap = inst.deg2
    while heap:
        v = heapq.heappop(heap)
        nb = wd.succ.get(v, ())
        if v != inst.v_star and len(nb) == 2:
            x, y = sorted(nb)
            if y not in wd.succ[x]:
                return (yield from _vns_suppress(wd, inst, v, x, y))
    return (yield from _vns_interior(wd, inst))


def _ear_in(wd, inst, fid):
    """(e1, e2, internals) of face fid's first ear, read from its
    smallest directed edge, or None: every vertex but the boundary
    neighbors e1 and e2 has degree 2, and v_star is not among them."""
    walk = wd.walk(fid)
    i = walk.index(min(walk))
    cyc = list(dict.fromkeys(a for a, _ in walk[i:] + walk[:i]))
    k = len(cyc)
    high = [v for v in cyc if len(wd.succ[v]) >= 3]
    if len(high) > 2 or k < 3:
        return None
    for i in range(k):
        e1, e2 = cyc[i], cyc[(i + 1) % k]
        if all(v in (e1, e2) for v in high) and (inst.v_star in (e1, e2) or inst.v_star not in cyc):
            return e1, e2, [v for v in cyc if v not in (e1, e2)]
    return None


def _vns_ear(wd, inst):
    """All vertices on the outer cycle: peel an inner face that is an
    ear, recurse, then cover the ear on its two faces.  The first face
    in order of smallest directed edge that holds an ear is peeled."""
    outer = inst.outer
    ears = [(min(wd.walk(fid)), fid) for fid in wd.rep
            if fid != outer and _ear_in(wd, inst, fid)]
    if not ears:
        raise InternalInvariantBreach("no removable ear face")
    fid = min(ears)[1]
    e1, e2, internals = _ear_in(wd, inst, fid)
    rec = wd.cut(internals, outer, (e1, e2))
    h = yield inst
    wd.uncut(rec)
    for v in internals:
        h.add((v, fid))
        h.add((v, outer))
    return h


def _vns_suppress(wd, inst, v, x, y):
    """Replace the path x-v-y by the edge x-y at the same rotation slot."""
    f1 = wd.ef[(x, v)]
    f2 = wd.ef[(y, v)]
    if f1 == f2:
        raise InternalInvariantBreach("degree-2 vertex sees one face twice")
    rec = wd.smooth(v, x, y, f1, f2)
    inst.touched(wd, (x, y))
    h = yield inst
    wd.unsmooth(rec)
    h.add((v, f1))
    h.add((v, f2))
    return h


def _merges_to_cycle(wd, u):
    """Whether G - u is 2-connected, for a 2-connected G and a vertex u
    off the outer face: the faces around u merge into one, and a
    connected plane graph on at least 3 vertices is 2-connected iff
    every face is bounded by a cycle, so it is iff the merged walk
    visits no vertex twice.  Each face around u is a cycle through u,
    so that walk has sum(len - 2) steps over the faces' other
    vertices."""
    theta = [wd.ef[(w, u)] for w in wd.succ[u]]
    if len(set(theta)) != len(theta):
        raise InternalInvariantBreach("faces around interior vertex repeat")
    seen = set()
    steps = 0
    for f in theta:
        walk = wd.walk(f)
        steps += len(walk) - 2
        seen.update(a for a, _ in walk)
    seen.discard(u)
    return steps == len(seen)


def _vns_interior(wd, inst):
    """Delete an interior vertex u; its faces merge into one face of
    G - u, and the recursion's coverage of that face is redistributed
    over the restored faces around u."""
    heap = inst.interior
    failed = []
    u = None
    while heap:
        cand = heapq.heappop(heap)
        if cand not in wd.succ:
            continue
        if _merges_to_cycle(wd, cand):
            u = cand
            break
        failed.append(cand)
    for cand in failed:
        heapq.heappush(heap, cand)
    if u is None:
        raise InternalInvariantBreach("no interior vertex with 2-connected remainder")
    nbrs = wd.around(u)
    k = len(nbrs)
    theta = [wd.ef[(nbrs[t], u)] for t in range(k)]
    paths = []
    for t in range(k):
        wk = wd.walk(theta[t])
        i = wk.index((nbrs[t], u))
        rotated = wk[i + 1:] + wk[: i + 1]
        pvs = [de[0] for de in rotated[1:]]
        after = nbrs[(t + 1) % k]
        if rotated[0] != (u, after) or (pvs[0], pvs[-1]) != (after, nbrs[t]):
            raise InternalInvariantBreach("face %d does not leave %r between neighbors %r and %r"
                                          % (theta[t], u, nbrs[t], after))
        paths.append(pvs)

    theta_u = wd.fresh
    wd.fresh += 1
    rec = wd.cut((u,), theta_u, (paths[0][0], paths[0][1]))
    link_walk = wd.walk(theta_u)
    link_vs = {a for a, _ in link_walk}
    if len(link_walk) != len(link_vs):
        raise InternalInvariantBreach("merged face around deleted vertex is not a cycle")
    inst.touched(wd, nbrs)

    h = yield inst
    wd.uncut(rec)
    zs = sorted(w for w in link_vs if (w, theta_u) not in h)
    h.difference_update((w, theta_u) for w in link_vs)
    base, where = {}, {}
    for t in range(k):
        for w in paths[t][1:]:
            base[w] = (w, theta[t])
            where.setdefault(w, t)
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


def _vns_leaf_block(wd, inst, blocks, cuts):
    """Split off a leaf block B at its cut vertex r.  B must hold the
    rest of the graph in a single one of its faces (that face plays the
    infinite face of B): the rest's neighbors of r form one run of r's
    rotation.  The mixed face of G passes from the run's last vertex a
    through r to the next B-neighbor b; each side is cut out of the
    drawing in turn, its share of the mixed face keeping the mixed
    face's id.  Recurse on both sides and glue at r, dropping r's
    block-side incidence when the other side left r uncovered on the
    shared face, so r never exceeds degree 2."""
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

    rec = wd.cut([v for v in wd.succ if v not in inside], mixed, (r, b))
    hb = yield _Instance(wd, r, mixed, True)
    wd.uncut(rec)
    rec = wd.cut(inside - {r}, mixed, (a, r))
    h2 = yield _Instance(wd, inst.v_star, inst.outer, False)
    wd.uncut(rec)
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


def _insert_chord(pg, fid, a, b):
    """New PlaneGraph with the chord a-b drawn inside face fid, after
    the edge on which the face walk arrives at each end."""
    g = pg.g
    rot2 = {v: list(pg.rot[v]) for v in g.vertices}
    for v, w in ((a, b), (b, a)):
        x = next(de[0] for de in pg.face_walk(fid) if de[1] == v)
        rot2[v].insert(rot2[v].index(x) + 1, w)
    pg2 = PlaneGraph(Graph(g.vertices, list(g.edges()) + [(min(a, b), max(a, b))]), rot2)
    pg2.outer = pg2.face_of_directed_edge(*min(pg.face_walk(pg.outer)))
    return pg2


def augment_visibility(pg: PlaneGraph, v2) -> PlaneGraph:
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
                     for a, b in combinations(sorted(set(cur.face_vertices(fid)) & v2), 2)
                     if not cur.g.has_edge(a, b)), None)
        if pick is None:
            return cur
        cur = _insert_chord(cur, *pick)
    raise InternalInvariantBreach("chord insertion did not reach a fixpoint")
