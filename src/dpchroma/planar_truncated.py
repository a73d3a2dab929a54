"""Degree-truncated DP-coloring of 3-connected plane graphs.

The threshold 16 splits the vertices into a low-degree part V1 and a
high-degree part V2.  V2 vertices sharing a face are made adjacent by
chords, a covering subgraph H of the vertex-face incidences of the drawn
G[V2] assigns each V2 vertex at most two faces to look after, and two
rules consume the graph: (R1) colors a free vertex of a non-safe
low-degree component, (R2) colors the next V2 vertex, picking its color
so that the components it looks after keep a vertex with list surplus.
Everything left at the end is safe, and finish colors it with the
degree-DP finisher, on the input cover and the lists the run kept.
"""

from __future__ import annotations

import heapq

from .core_graph import (block_kind, blocks_and_cut_vertices, connected_components,
                         connectivity_at_least, degeneracy_order, is_complete_graph,
                         is_connected)
# not called here; kept bound because perfbench/layers.py wraps it by name
from .core_graph import is_gdp_tree
from .dp_cover import color_vertex, degree_dp_extend, is_coloring_valid
# not called here; kept bound because perfbench/layers.py wraps them by name
from .dp_cover import degree_dp_color, residual_cover
from .errors import (A2Unattainable, EmptyResidualList, GDPTreeTight,
                     InternalInvariantBreach, PreconditionViolated, ProtectorInfeasible)
from .plane_embed import FaceClasses, augment_visibility, component_planes, very_nice_subgraph

THRESHOLD = 16


def partition_threshold(g, k=THRESHOLD):
    """(V1, V2) split by degree in the original, unaugmented graph."""
    v1 = frozenset(v for v in g.vertices if g.degree(v) < k)
    return v1, g.vertices - v1


def plan_order(fc):
    """5-degenerate order on fc's G[V2], each of fc.pieces consecutive."""
    return degeneracy_order(fc.sub, 5, groups=fc.pieces)


class PipelineState:
    """Mutable run state; the step functions below drive it.

    owed[v] holds the indices of the components a V2 vertex v looks
    after.  v reaches its turn in order with at least turn_colors colors (C4),
    protects at most protector_cap components (D1), and each protection
    costs at most cost_cap colors (D2).  Here a vertex owes the
    components in the face classes that H assigns to it; the minor
    pipeline's subclass takes them from its peel plan and sets its own
    caps.  The planar set-up stores the input g and cover; the chorded
    drawing of augment_visibility lives only in one FaceClasses, whose
    G[V2] and pieces plan_order and H read.  It raises A2Unattainable
    when a face class of that drawing holds two components of G[V1].

    res[v] counts v's uncolored neighbors.  The uncolored part of a
    component not in safe is a GDP-tree whose vertices are all tight,
    and the state keeps its block-cut record: blocks_of maps each of its
    vertices to the blocks (vertex sets) that hold it, so the cut
    vertices are those in two or more.  refresh_safety builds the record
    from scratch at set-up; from then on assign edits it in place, since
    (R1) only deletes a non-cut vertex and any coloring changes lists and
    residual degrees only at the colored vertex's neighbors.  candidates
    is a lazy min-heap of the vertices that may be free for (R1), and
    order[turn] the next vertex for (R2) unless it is colored.

    No component's uncolored part, and so no block, is ever empty before
    finish: (R2) colors only V2, and (R1) never colors the last
    uncolored vertex w of a component.  By then w has no uncolored
    neighbor in its component and, being free, none in V2, so its
    residual degree is 0; the component is unsafe only if w has no
    color left, and step_r1 raises EmptyResidualList before assign
    runs.  An empty part would fail rebuilt's (C1) check.
    """

    __slots__ = ("g", "cover", "v2", "order", "comps", "comp_of",
                 "owed", "phi", "avail", "safe", "protectors", "trace",
                 "res", "blocks_of", "candidates", "turn")

    cost_cap = 5
    protector_cap = 2
    turn_colors = THRESHOLD - 5

    def __init__(self, pg, cover, v1, v2, trace=None):
        v2 = frozenset(v2)
        fc = FaceClasses(augment_visibility(pg, v2), v2)
        comps = connected_components(pg.g.subgraph(v1))
        self._start(pg.g, cover, comps, v2, plan_order(fc), trace)
        holder = {}
        for qi, comp in enumerate(self.comps):
            first = holder.setdefault(fc.class_holding(comp), qi)
            if first != qi:
                raise A2Unattainable(
                    "components %r and %r lie in the same face of the subgraph on %r"
                    % (list(self.comps[first]), list(comp), sorted(v2)))
        self.owed = {v: set() for v in v2}
        for comp, pgq, cmap, v_star in component_planes(fc):
            for v, f in very_nice_subgraph(pgq, v_star):
                if cmap[f] in holder:
                    self.owed[v].add(holder[cmap[f]])
        self.check_invariants()

    def _start(self, g, cover, comps, v2, order, trace):
        """Fill the fields both pipelines share, before any step; comps
        is the split of G[V1] into sorted components."""
        self.v2 = frozenset(v2)
        self.g = g
        self.cover = cover
        self.order = tuple(order)
        self.comps = tuple(tuple(c) for c in comps)
        self.comp_of = {v: qi for qi, comp in enumerate(self.comps) for v in comp}
        self.phi = {}
        self.avail = {v: set(range(cover.sizes[v])) for v in g.vertices}
        self.safe = set()
        self.protectors = {}
        self.trace = trace
        self.res = {v: len(ns) for v, ns in g.adj.items()}
        self.blocks_of = None
        self.candidates = []
        self.turn = 0

    def no_cheap_neighbor(self, v, qi):
        """H may name a component that v cannot protect cheaply; it is
        left to later steps."""

    def assign(self, v, i):
        """Color v with i and update what that can change: the residual
        degrees of v's neighbors, the record of v's component if v is in
        an unsafe one, and the components holding an uncolored neighbor.
        Such a component turns safe once that neighbor has more colors
        than uncolored neighbors; otherwise the neighbor is a candidate
        for (R1) again."""
        if v in self.phi or i not in self.avail[v]:
            raise InternalInvariantBreach("color %r is not available at %r" % (i, v))
        color_vertex(self.cover, self.avail, self.phi, v, i)
        qi = self.comp_of.get(v)
        if qi is not None and qi not in self.safe:
            self._unlink(v, qi)
        for w in self.g.adj[v]:
            self.res[w] -= 1
            qw = self.comp_of.get(w)
            if qw is None or qw in self.safe or w in self.phi:
                continue
            if len(self.avail[w]) > self.res[w]:
                self.safe.add(qw)
            else:
                heapq.heappush(self.candidates, w)

    def _unlink(self, v, qi):
        """Take the colored v out of the record of component qi.

        v must lie in one block B and have no uncolored neighbor in qi
        outside B; then deleting v keeps the uncolored part connected
        (C1) and a GDP-tree, and only B changes: K2 goes, and its other
        end may stop being a cut vertex; K_k becomes K_{k-1}; a cycle
        becomes a path of K2 blocks, whose inner vertices become cut
        vertices.
        """
        adj = self.g.adj
        blks = self.blocks_of[v]
        if len(blks) != 1 or any(self.comp_of.get(w) == qi and w not in self.phi
                                 and w not in blks[0] for w in adj[v]):
            raise InternalInvariantBreach(
                "(C1) uncolored part of component %d fell apart" % self.comps[qi][0])
        blk = blks[0]
        cycle = len(blk) > 3 and sum(1 for w in adj[v] if w in blk) == 2
        blk.discard(v)
        if cycle:
            for x in blk:
                self.blocks_of[x] = [b for b in self.blocks_of[x] if b is not blk]
            for x in blk:
                for y in adj[x]:
                    if y in blk and x < y:
                        edge = {x, y}
                        self.blocks_of[x].append(edge)
                        self.blocks_of[y].append(edge)
        elif len(blk) == 1:
            (w,) = blk
            if len(self.blocks_of[w]) > 1:
                self.blocks_of[w] = [b for b in self.blocks_of[w] if b is not blk]

    def rest(self, qi):
        """The uncolored vertices of component qi, smallest first."""
        return [v for v in self.comps[qi] if v not in self.phi]

    def tight_blocks(self, rest, sub=None):
        """None when the component with uncolored part rest is safe now,
        else the blocks of rest, from one block search on sub (G[rest],
        built here unless given)."""
        if any(len(self.avail[v]) > self.res[v] for v in rest):
            return None
        if sub is None:
            sub = self.g.subgraph(rest)
        blocks, _ = blocks_and_cut_vertices(sub)
        return blocks if all(block_kind(sub, blk) for blk in blocks) else None

    def comp_safe_now(self, qi):
        return self.tight_blocks(self.rest(qi)) is None

    def rebuilt(self, qi):
        """tight_blocks of component qi from scratch, once (C1) holds on
        the one subgraph that builds."""
        rest = self.rest(qi)
        sub = self.g.subgraph(rest)
        if not is_connected(sub):
            raise InternalInvariantBreach(
                "(C1) uncolored part of component %d fell apart" % self.comps[qi][0])
        return self.tight_blocks(rest, sub)

    def refresh_safety(self):
        """Rebuild the record from scratch: {qi: cut vertices} over the
        unsafe components, one subgraph and at most one block search
        each; the safe set only ever grows."""
        self.blocks_of = {}
        for qi in range(len(self.comps)):
            if qi in self.safe:
                continue
            blocks = self.rebuilt(qi)
            if blocks is None:
                self.safe.add(qi)
                continue
            for blk in blocks:
                blk = set(blk)
                for v in blk:
                    self.blocks_of.setdefault(v, []).append(blk)
        out = self.cut_vertices()
        # a sorted list is a heap
        self.candidates = sorted(v for qi in out for v in self.rest(qi))
        return out

    def cut_vertices(self):
        """{qi: cut vertices} over the unsafe components, read off the record."""
        return {qi: {v for v in self.rest(qi) if len(self.blocks_of[v]) > 1}
                for qi in range(len(self.comps)) if qi not in self.safe}

    def next_free(self):
        """The smallest free vertex (see step_r1) of an unsafe component,
        or None.  Vertices that are not free leave the heap; one turns
        free only when a neighbor is colored (its last uncolored V2
        neighbor, or the other end of its K2 block), and assign pushes
        it again then."""
        heap = self.candidates
        while heap:
            v = heap[0]
            if (v not in self.phi and self.comp_of[v] not in self.safe
                    and len(self.blocks_of[v]) == 1
                    and not any(w in self.v2 and w not in self.phi for w in self.g.adj[v])):
                return v
            heapq.heappop(heap)
        return None

    def log(self, line):
        if self.trace is not None:
            self.trace.append(line)

    def check_invariants(self, v=None):
        """(C1)-(C3) and (D1).

        After v is colored, only what that can have changed: (C2) at v's
        uncolored neighbors, (C3) on the safe components holding one of
        them, and (D1) at v.  (C1) on v's own component was checked as v
        left the record, and no other component lost a vertex.  Without
        v, everything from scratch: every residual degree is recounted,
        every component's uncolored part is rebuilt, and refresh_safety
        rebuilds the record, whose cut vertices must match the kept ones.
        """
        if v is None:
            kept = None if self.blocks_of is None else self.cut_vertices()
            for u in sorted(self.g.vertices):
                res = sum(1 for w in self.g.adj[u] if w not in self.phi)
                if self.res[u] != res:
                    raise InternalInvariantBreach(
                        "residual degree of %r kept as %d, recounted %d" % (u, self.res[u], res))
        near = sorted(u for u in (self.g.vertices if v is None else self.g.adj[v])
                      if u in self.comp_of and u not in self.phi)
        for u in near:
            if len(self.avail[u]) < self.res[u]:
                raise InternalInvariantBreach(
                    "(C2) list shorter than residual degree at %r" % (u,))
        if v is None:
            for qi in sorted(self.safe):
                if self.rebuilt(qi) is not None:
                    raise InternalInvariantBreach(
                        "(C3) safety revoked on component %d" % self.comps[qi][0])
            fresh = self.refresh_safety()
            if kept is not None and fresh != kept:
                raise InternalInvariantBreach("the block-cut record does not match a rebuild")
        else:
            for qi in sorted({self.comp_of[u] for u in near} & self.safe):
                if not self.comp_safe_now(qi):
                    raise InternalInvariantBreach(
                        "(C3) safety revoked on component %d" % self.comps[qi][0])
        counts = {}
        for u in self.protectors.values():
            if v is None or u == v:
                counts[u] = counts.get(u, 0) + 1
        for u in sorted(counts):
            if counts[u] > self.protector_cap:
                raise InternalInvariantBreach(
                    "(D1) %r protects %d components" % (u, counts[u]))


def step_r1(state):
    """Color the smallest free vertex of a non-safe component.

    Free means: not a cut vertex of the component's uncolored part and
    no uncolored V2 neighbor.  Returns whether a vertex was colored.
    """
    best = state.next_free()
    if best is None:
        return False
    if not state.avail[best]:
        raise EmptyResidualList("no color left at %r during (R1)" % (best,))
    i = min(state.avail[best])
    state.assign(best, i)
    state.log("R1 %d %d.%d" % (best, best, i))
    state.check_invariants(best)
    return True


def step_r2(state):
    """Color the next uncolored vertex of state.order, protecting the
    non-safe components it owes.

    For each one, the cheapest uncolored neighbor u in it (residual
    degree at most the cost cap) is protected: the chosen color avoids
    the matched partners of u's remaining list, so u ends up with more
    colors than uncolored neighbors.
    """
    order = state.order
    while state.turn < len(order) and order[state.turn] in state.phi:
        state.turn += 1
    if state.turn == len(order):
        raise InternalInvariantBreach("step_r2 needs an uncolored high-degree vertex")
    v = order[state.turn]
    if len(state.avail[v]) < state.turn_colors:
        raise InternalInvariantBreach(
            "(C4) %r reached its turn with %d colors" % (v, len(state.avail[v])))
    owed = state.owed[v]
    if state.cost_cap * len(owed) >= state.turn_colors:
        raise InternalInvariantBreach(
            "(D2) part of %d components cannot be protected with q=%d"
            % (len(owed), state.turn_colors))
    gathered = []
    for qi in sorted(owed - state.safe):
        cands = []
        for u in state.g.adj[v]:
            if state.comp_of.get(u) == qi and u not in state.phi:
                rd = state.res[u]
                if rd <= state.cost_cap:
                    cands.append((rd, u))
        if not cands:
            state.no_cheap_neighbor(v, qi)
            continue
        u = min(cands)[1]
        forb = set()
        for j in state.avail[u]:
            p = state.cover.partner(u, j, v)
            if p is not None:
                forb.add(p)
        if len(forb) > state.cost_cap:
            raise InternalInvariantBreach(
                "(D2) protection of %d would cost %d" % (qi, len(forb)))
        gathered.append((qi, forb))
    if len(gathered) > state.protector_cap:
        raise InternalInvariantBreach(
            "(D1) %r asked to protect %d components" % (v, len(gathered)))
    forbidden = set()
    for _, forb in gathered:
        forbidden |= forb
    allowed = sorted(state.avail[v] - forbidden)
    if not allowed:
        raise ProtectorInfeasible(
            "every color of %r is matched into a protected list" % (v,))
    i = allowed[0]
    state.assign(v, i)
    for qi, _ in gathered:
        state.protectors[qi] = v
        state.safe.add(qi)
    line = "R2 %d %d.%d" % (v, v, i)
    if gathered:
        line += " protects " + " ".join(str(state.comps[qi][0]) for qi, _ in gathered)
    state.log(line)
    state.check_invariants(v)


def finish(state):
    """Color the uncolored rest on the run's own lists and validate the total.

    Each uncolored vertex's colors left are recounted from phi and must
    be the ones in state.avail.  With V2 colored, the rest is the
    uncolored parts of state.comps, each connected by (C1) and left safe
    by (R1) and (R2); degree_dp_extend colors each, in the order of
    their smallest vertices, straight on the input cover.  It picks the
    colors that degree_dp_color picks on the residual cover, which
    numbers each list's live colors in ascending order.
    """
    cover = state.cover
    adj = cover.g.adj
    phi = dict(state.phi)
    if not state.v2 <= phi.keys():
        raise InternalInvariantBreach("finish needs every V2 vertex colored")
    avail = {}
    for v in sorted(adj.keys() - phi.keys()):
        live = set(range(cover.sizes[v]))
        for w in adj[v]:
            if w in phi:
                live.discard(cover.partner(w, phi[w][1], v))
        if live != state.avail[v]:
            raise InternalInvariantBreach("availability drifted at %r" % (v,))
        avail[v] = live
    parts = ([v for v in comp if v not in phi] for comp in state.comps)
    # disjoint sorted parts: sorting them orders them by smallest vertex
    for part in sorted(p for p in parts if p):
        try:
            degree_dp_extend(cover, avail, phi, part)
        except GDPTreeTight:
            raise GDPTreeTight("component %d was never made safe" % part[0])
    if not is_coloring_valid(cover, phi):
        raise InternalInvariantBreach("the finished coloring is not valid")
    return phi


def entry_gate(g, cover, k=THRESHOLD):
    """partition_threshold(g, k), once the cover is known to lie on g
    with at least min(k, degree) colors in every list."""
    if cover.g is not g and cover.g.adj != g.adj:
        raise ValueError("graph does not match the cover's graph")
    for v in sorted(g.vertices):
        need = min(k, g.degree(v))
        if cover.sizes[v] < need:
            raise PreconditionViolated(
                "list at %r has %d colors, needs min(k, degree) = %d" % (v, cover.sizes[v], need))
    return partition_threshold(g, k)


def color_planar_truncated(pg, cover, trace=None):
    """Color a 3-connected non-complete plane graph under a cover with
    list sizes at least min(16, degree).  trace, when given, is a list
    that receives one line per R1/R2 step for replay checking.
    3-connectivity, which augment_visibility needs, is checked by
    connectivity_at_least, one linear separation-pair search."""
    v1, v2 = entry_gate(pg.g, cover)
    if not connectivity_at_least(pg.g, 3):
        raise PreconditionViolated("input graph is not 3-connected")
    if is_complete_graph(pg.g):
        raise PreconditionViolated("complete graphs are excluded")
    state = PipelineState(pg, cover, v1, v2, trace=trace)
    for _ in state.order:
        while step_r1(state):
            pass
        step_r2(state)
    while step_r1(state):
        pass
    state.check_invariants()
    return finish(state)
