"""Degree-truncated DP-coloring of 3-connected plane graphs.

The threshold 16 splits the vertices into a low-degree part V1 and a
high-degree part V2.  V2 vertices sharing a face are made adjacent by
chords, a covering subgraph H of the vertex-face incidences of the drawn
G[V2] assigns each V2 vertex at most two faces to look after, and two
rules consume the graph: (R1) colors a free vertex of a non-safe
low-degree component, (R2) colors the next V2 vertex, picking its color
so that the components it looks after keep a vertex with list surplus.
Everything left at the end is safe and falls to the greedy finisher.
"""

from __future__ import annotations

from .core_graph import (block_kind, blocks_and_cut_vertices, connected_components,
                         connectivity_at_least, degeneracy_order, is_complete_graph,
                         is_connected)
# not called here; kept bound because perfbench/layers.py wraps it by name
from .core_graph import is_gdp_tree
from .dp_cover import color_vertex, degree_dp_color, is_coloring_valid, residual_cover
from .errors import (A2Unattainable, EmptyResidualList, GDPTreeTight,
                     InternalInvariantBreach, PreconditionViolated, ProtectorInfeasible)
from .plane_embed import FaceClasses, augment_visibility, component_planes, very_nice_subgraph

THRESHOLD = 16

NoMove = object()


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
    """

    __slots__ = ("g", "cover", "v1", "v2", "order", "comps", "comp_of",
                 "owed", "phi", "avail", "safe", "protectors", "trace")

    cost_cap = 5
    protector_cap = 2
    turn_colors = THRESHOLD - 5

    def __init__(self, pg, cover, v1, v2, trace=None):
        v2 = frozenset(v2)
        fc = FaceClasses(augment_visibility(pg, v2), v2)
        self._start(pg.g, cover, v1, v2, plan_order(fc), trace)
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

    def _start(self, g, cover, v1, v2, order, trace):
        """Fill the fields both pipelines share, before any step."""
        self.v1 = frozenset(v1)
        self.v2 = frozenset(v2)
        self.g = g
        self.cover = cover
        self.order = tuple(order)
        self.comps = tuple(tuple(c) for c in connected_components(g.subgraph(self.v1)))
        self.comp_of = {v: qi for qi, comp in enumerate(self.comps) for v in comp}
        self.phi = {}
        self.avail = {v: set(range(cover.sizes[v])) for v in g.vertices}
        self.safe = set()
        self.protectors = {}
        self.trace = trace

    def no_cheap_neighbor(self, v, qi):
        """H may name a component that v cannot protect cheaply; it is
        left to later steps."""

    def res_degree(self, v):
        return sum(1 for w in self.g.adj[v] if w not in self.phi)

    def assign(self, v, i):
        if v in self.phi or i not in self.avail[v]:
            raise InternalInvariantBreach("color %r is not available at %r" % (i, v))
        color_vertex(self.cover, self.avail, self.phi, v, i)

    def tight_cuts(self, qi):
        """None when component qi is safe now, else the cut vertices of its
        uncolored part, which (C1) keeps connected: one block search each."""
        rest = [v for v in self.comps[qi] if v not in self.phi]
        if not rest or any(len(self.avail[v]) > self.res_degree(v) for v in rest):
            return None
        sub = self.g.subgraph(rest)
        blocks, cuts = blocks_and_cut_vertices(sub)
        return cuts if all(block_kind(sub, blk) for blk in blocks) else None

    def comp_safe_now(self, qi):
        return self.tight_cuts(qi) is None

    def refresh_safety(self):
        """{qi: tight_cuts(qi)} over the unsafe components; the safe set only ever grows."""
        out = {}
        for qi in range(len(self.comps)):
            if qi in self.safe:
                continue
            cuts = self.tight_cuts(qi)
            if cuts is None:
                self.safe.add(qi)
            else:
                out[qi] = cuts
        return out

    def log(self, line):
        if self.trace is not None:
            self.trace.append(line)

    def check_invariants(self):
        for comp in self.comps:
            rest = [v for v in comp if v not in self.phi]
            if rest and not is_connected(self.g.subgraph(rest)):
                raise InternalInvariantBreach(
                    "(C1) uncolored part of component %d fell apart" % comp[0])
        for v in sorted(self.v1):
            if v not in self.phi and len(self.avail[v]) < self.res_degree(v):
                raise InternalInvariantBreach(
                    "(C2) list shorter than residual degree at %r" % (v,))
        for qi in sorted(self.safe):
            if not self.comp_safe_now(qi):
                raise InternalInvariantBreach(
                    "(C3) safety revoked on component %d" % self.comps[qi][0])
        counts = {}
        for v in self.protectors.values():
            counts[v] = counts.get(v, 0) + 1
        for v in sorted(counts):
            if counts[v] > self.protector_cap:
                raise InternalInvariantBreach(
                    "(D1) %r protects %d components" % (v, counts[v]))


def step_r1(state):
    """Color the smallest free vertex of a non-safe component.

    Free means: not a cut vertex of the component's uncolored part and
    no uncolored V2 neighbor.  Returns NoMove when nothing qualifies.
    """
    best = None
    for qi, cuts in state.refresh_safety().items():
        for v in state.comps[qi]:
            if v in state.phi or v in cuts:
                continue
            if any(w in state.v2 and w not in state.phi for w in state.g.adj[v]):
                continue
            if best is None or v < best:
                best = v
            break
    if best is None:
        return NoMove
    if not state.avail[best]:
        raise EmptyResidualList("no color left at %r during (R1)" % (best,))
    i = min(state.avail[best])
    state.assign(best, i)
    state.log("R1 %d %d.%d" % (best, best, i))
    state.check_invariants()
    return state


def step_r2(state):
    """Color the next uncolored vertex of state.order, protecting the
    non-safe components it owes.

    For each one, the cheapest uncolored neighbor u in it (residual
    degree at most the cost cap) is protected: the chosen color avoids
    the matched partners of u's remaining list, so u ends up with more
    colors than uncolored neighbors.
    """
    v = next((w for w in state.order if w not in state.phi), None)
    if v is None:
        raise InternalInvariantBreach("step_r2 needs an uncolored high-degree vertex")
    if len(state.avail[v]) < state.turn_colors:
        raise InternalInvariantBreach(
            "(C4) %r reached its turn with %d colors" % (v, len(state.avail[v])))
    owed = state.owed[v]
    if state.cost_cap * len(owed) >= state.turn_colors:
        raise InternalInvariantBreach(
            "(D2) part of %d components cannot be protected with q=%d"
            % (len(owed), state.turn_colors))
    gathered = []
    for qi in state.refresh_safety():
        if qi not in owed:
            continue
        cands = []
        for u in state.g.adj[v]:
            if state.comp_of.get(u) == qi and u not in state.phi:
                rd = state.res_degree(u)
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
    state.check_invariants()
    return state


def finish(state):
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


def entry_gate(g, cover, k=THRESHOLD):
    """partition_threshold(g, k), once the cover is known to lie on g
    with at least min(k, degree) colors in every list."""
    if cover.g.vertices != g.vertices or cover.g.edges() != g.edges():
        raise ValueError("graph does not match the cover's graph")
    for v in sorted(g.vertices):
        if cover.sizes[v] < min(k, g.degree(v)):
            raise PreconditionViolated(
                "list at %r is smaller than min(%d, degree)" % (v, k))
    return partition_threshold(g, k)


def color_planar_truncated(pg, cover, trace=None):
    """Color a 3-connected non-complete plane graph under a cover with
    list sizes at least min(16, degree).  trace, when given, is a list
    that receives one line per R1/R2 step for replay checking.
    3-connectivity is checked on the abstract graph by
    connectivity_at_least, one linear separation-pair search."""
    v1, v2 = entry_gate(pg.g, cover)
    if not connectivity_at_least(pg.g, 3):
        raise PreconditionViolated("input graph is not 3-connected")
    if is_complete_graph(pg.g):
        raise PreconditionViolated("complete graphs are excluded")
    state = PipelineState(pg, cover, v1, v2, trace=trace)
    while True:
        while step_r1(state) is not NoMove:
            pass
        if state.v2 <= set(state.phi):
            break
        step_r2(state)
    return finish(state)
