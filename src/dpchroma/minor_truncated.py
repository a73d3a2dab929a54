"""Degree-truncated DP-coloring for s-connected graphs from a proper
minor-closed class.

The class enters only through two numbers: a K_{s,t}-minor-free graph is
(2^{s+2}t-1)-degenerate, and in a bipartite contraction whose branch
side has degrees >= s the other side keeps a vertex of degree at most
4^{s+1}s!st.  From those, vertices of degree >= k form V2, every V2
vertex gets a q-color sublist chosen so that sublists of adjacent V2
vertices share no matched pair, the components of G[V1] are contracted
and peeled against V2, and the peel order is colored with the planar
pipeline's (R1) and (R2) steps, state and finisher.  Only MinorState
differs: a V2 vertex's duties are the not-yet-safe components that the
peel assigned to it, each costs at most s+t-1 forbidden colors because
leaf blocks have at most s+t-1 vertices, and the vertex reaches its
turn with its whole sublist.  The true constants are astronomically
past desk scale, so the entry point takes overridable parameters and
refuses real ones whenever the high-degree machinery would actually
engage.
"""

from __future__ import annotations

import math

from .core_graph import (Graph, connected_components, connectivity_at_least,
                         degeneracy_order, is_complete_graph, is_gdp_tree)
from .dp_cover import degree_dp_color
from .errors import (DegreeBelowS, InstanceTooLarge, InternalInvariantBreach, ListTooSmall,
                     PeelBoundExceeded, PreconditionViolated)
from .planar_truncated import PipelineState, entry_gate, finish, step_r1, step_r2


def _require_at_least(low, **values):
    """ValueError naming the first of values that is below low."""
    for name, value in values.items():
        if value < low:
            raise ValueError("%s must be at least %d (got %r)" % (name, low, value))


class ClassParams:
    """Pipeline constants for a K_{s,t}-minor-free class."""

    __slots__ = ("s", "t", "q", "k", "peel_bound", "degeneracy_bound", "overridden")

    def __init__(self, s, t, q, k, peel_bound, degeneracy_bound, overridden):
        _require_at_least(1, s=s, t=t, q=q, k=k)
        _require_at_least(0, peel_bound=peel_bound, degeneracy_bound=degeneracy_bound)
        self.s = s
        self.t = t
        self.q = q
        self.k = k
        self.peel_bound = peel_bound
        self.degeneracy_bound = degeneracy_bound
        self.overridden = overridden

    def with_overrides(self, q=None, k=None, peel_bound=None, degeneracy_bound=None):
        """These constants with the given ones swapped in, marked overridden.

        The theorem's regime needs q >= peel_bound * (s + t - 1) + 1,
        which constants() meets with equality; overrides are not held to
        it.  A run with q below that bound is outside the regime: nothing
        guarantees it colors, and it may end in a diagnostic (exit 3),
        such as a (D2) protection that q colors cannot make.  The CI hub
        smoke (s=3, t=2, q=6, peel=2: 6 < 9) runs outside the regime and
        still colors; the drum smoke (s=t=2, q=7 = 2*3 + 1) is inside it.
        One below, at q=6, the drum run ends in exit 3 with "(D2) part
        of 2 components cannot be protected with q=6", as
        tests/test_cli.py::test_color_minor_drum_below_the_regime_exits_3
        pins.
        """
        return ClassParams(
            self.s, self.t,
            self.q if q is None else q,
            self.k if k is None else k,
            self.peel_bound if peel_bound is None else peel_bound,
            self.degeneracy_bound if degeneracy_bound is None else degeneracy_bound,
            True)


def constants(s, t):
    """Exact constants for the class; plain ints, arbitrary precision."""
    _require_at_least(1, s=s, t=t)
    peel = 4 ** (s + 1) * math.factorial(s) * s * t
    q = peel * (s + t - 1) + 1
    k = 2 ** (s + 2) * t * q
    degen = 2 ** (s + 2) * t - 1
    return ClassParams(s, t, q, k, peel, degen, False)


def select_sublists(g, v2_order, c, q):
    """q colors per V2 vertex, smallest ids first, skipping the matched
    partners of sublists already fixed on earlier neighbors.  The result
    has no matched pair between sublists of adjacent V2 vertices, so the
    V2 side can be treated as independent from here on."""
    chosen = {}
    for v in v2_order:
        banned = set()
        for w in g.adj[v]:
            if w in chosen:
                for j in chosen[w]:
                    p = c.partner(w, j, v)
                    if p is not None:
                        banned.add(p)
        free = [i for i in range(c.sizes[v]) if i not in banned]
        if len(free) < q:
            raise ListTooSmall(
                "%d of %d colors left at %r, need %d"
                % (len(free), c.sizes[v], v, q))
        chosen[v] = tuple(free[:q])
    return chosen


def contract_components(g, comps, v2, s):
    """Bipartite contraction of the split comps of G[V1]: each component
    becomes one node, named by its smallest vertex, adjacent to the V2
    vertices it touches.  Every component node must see at least s V2
    vertices."""
    node_of = {v: comp[0] for comp in comps for v in comp}
    edges = set()
    for u in sorted(v2):
        for w in g.adj[u]:
            if w in node_of:
                n = node_of[w]
                edges.add((min(u, n), max(u, n)))
    gp = Graph(set(node_of.values()) | v2, sorted(edges))
    for n in sorted(set(node_of.values())):
        if gp.degree(n) < s:
            raise DegreeBelowS(
                "component %r sees %d high-degree vertices, needs %d"
                % (n, gp.degree(n), s))
    return gp, node_of


def peel_sequence(gp, b, bound):
    """Repeatedly delete the min-degree vertex of the b side together
    with its current neighborhood on the other side.  Returns (order,
    parts): the coloring order u_1..u_p of the b side, the reverse of
    the deletion order, and for each u_i the tuple of the other side's
    nodes deleted with it, whose last b-side neighbor in the order is
    u_i and which u_i is responsible for."""
    adj = {v: set(gp.adj[v]) for v in gp.vertices}
    b_left = set(b)
    a_left = set(gp.vertices) - b_left
    rev = []
    while b_left:
        u = min(b_left, key=lambda v: (len(adj[v]), v))
        if len(adj[u]) > bound:
            raise PeelBoundExceeded(
                "%r has degree %d, peel bound is %d" % (u, len(adj[u]), bound))
        r = sorted(adj[u])
        b_left.remove(u)
        for x in adj.pop(u):
            adj[x].discard(u)
        for w in r:
            a_left.remove(w)
            for x in adj.pop(w):
                adj[x].discard(w)
        rev.append((u, r))
    if a_left:
        raise InternalInvariantBreach("component nodes %r survived the peel" % (sorted(a_left),))
    rev.reverse()
    return tuple(u for u, _ in rev), tuple(tuple(r) for _, r in rev)


class MinorState(PipelineState):
    """Run state for the minor pipeline: the planar state with the
    sublists as V2 availability, the parts of peel_sequence's (order,
    parts) plan as what each V2 vertex owes, and the caps q colors at a
    vertex's turn (C4), the peel bound on protections per vertex (D1)
    and s+t-1 colors per protection (D2)."""

    __slots__ = ("cost_cap", "protector_cap", "turn_colors")

    def __init__(self, g, cover, comps, v2, plan, sublists, params, trace=None):
        order, parts = plan
        self._start(g, cover, comps, v2, order, trace)
        for v in self.v2:
            self.avail[v] = set(sublists[v])
        # a component node is named by the component's smallest vertex
        self.owed = {u: {self.comp_of[n] for n in part} for u, part in zip(order, parts)}
        self.cost_cap = params.s + params.t - 1
        self.protector_cap = max(params.peel_bound, 1)
        self.turn_colors = params.q
        self.check_invariants()

    def no_cheap_neighbor(self, v, qi):
        """The peel guarantees v a cheap neighbor in every component of its part."""
        raise InternalInvariantBreach(
            "no cheap neighbor of %r in component %d" % (v, self.comps[qi][0]))


def color_minor_truncated(g, c, params, trace=None):
    """Color an s-connected non-GDP-tree under a cover with list sizes
    at least min(params.k, degree).  With the real constants the
    high-degree machinery only fits graphs far past desk scale, so
    instances that would engage it are refused unless params carries
    overridden values."""
    v1, v2 = entry_gate(g, c, params.k)
    if params.s > 1 and v2 and not params.overridden:
        raise InstanceTooLarge(
            "%d vertices of degree >= %d; override the constants for desk scale"
            % (len(v2), params.k))
    if not connectivity_at_least(g, params.s):
        raise PreconditionViolated("input graph is not %d-connected" % params.s)
    if params.s > 1:
        # g is one block on n > s >= 2 vertices, a cycle iff m == n
        gdp_tree = is_complete_graph(g) or g.m == g.n
    else:
        gdp_tree = is_gdp_tree(g)
    if gdp_tree:
        raise PreconditionViolated("GDP-trees are excluded")
    if params.s == 1:
        # K_{1,t}-minor-free caps the maximum degree below k, so the
        # truncation never bites and the degree-DP argument is the
        # whole pipeline
        return degree_dp_color(g, c)
    comps = connected_components(g.subgraph(v1))
    if v2:
        order_w = degeneracy_order(g.subgraph(v2), params.degeneracy_bound)
        sublists = select_sublists(g, order_w, c, params.q)
        gp, _ = contract_components(g, comps, v2, params.s)
        order, parts = peel_sequence(gp, v2, params.peel_bound)
    else:
        # everything is low degree; one non-GDP-tree component, so the
        # finisher alone suffices
        sublists, order, parts = {}, (), ()
    state = MinorState(g, c, comps, v2, (order, parts), sublists, params, trace=trace)
    for _ in order:
        while step_r1(state):
            pass
        step_r2(state)
    while step_r1(state):
        pass
    state.check_invariants()
    return finish(state)
