"""Plane graphs as rotation systems, and the covering-subgraph machinery.

A PlaneGraph is a connected, non-empty Graph plus, for each vertex, the
cyclic order of its neighbors; it stores that rotation, the face walks
and the directed-edge-to-face map, and derives the rest (the faces at a
vertex are those of the edges leaving it; restrict cuts out G[keep]).
Faces are traced eagerly: the walk leaving v toward the successor of u
in rot(v) after arriving from u.  Each face has one boundary walk (a
single vertex has one face with an empty walk), and a rotation system is
accepted only if |V| - |E| + |F| = 2, i.e. the embedding is planar.
Faces are identified across graphs by their directed edges, so
operations that modify the graph can report how old face ids map to new.
"""

from __future__ import annotations

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
    have degree exactly 1.
    """
    from .core_graph import blocks_and_cut_vertices

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
    from .core_graph import blocks_and_cut_vertices

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
    surv = next(de for de in pg.face_walk(pg.outer) if de[0] not in dead and de[1] not in dead)
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
    surv = next(de for de in pg.face_walk(pg.outer) if v not in de)
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
    from .core_graph import connectivity_at_least

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
        wk = list(pg.face_walk(theta[t]))
        i = wk.index((nbrs[t], u))
        rotated = wk[i + 1:] + wk[: i + 1]
        pvs = [de[0] for de in rotated[1:]]
        after = nbrs[(t + 1) % k]
        if rotated[0] != (u, after) or (pvs[0], pvs[-1]) != (after, nbrs[t]):
            raise InternalInvariantBreach("face %d does not leave %r between neighbors %r and %r"
                                          % (theta[t], u, nbrs[t], after))
        paths.append(pvs)

    pg2 = pg.restrict(g.vertices - {u})
    pg2.outer = pg2.face_of_directed_edge(*pg.face_walk(pg.outer)[0])
    link_de = next(de for de in pg.face_walk(theta[0]) if u not in de)
    theta_u = pg2.face_of_directed_edge(*link_de)
    link_walk = pg2.face_walk(theta_u)
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
    mixed = pg.face_of_directed_edge(*pgb.face_walk(pgb.outer)[0])

    dead = set(blk) - {r}
    pg2 = pg.restrict(g.vertices - dead)
    theta_b = 0
    if pg2.g.m:
        def alive(fid):
            return [de for de in pg.face_walk(fid) if de[0] not in dead and de[1] not in dead]

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
