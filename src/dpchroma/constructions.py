"""Hand-built instances with engineered list assignments.

gadget_h is a 28-vertex planar graph: two forced vertices x, y and three
kinds of interior gadgets wired so that after x and y take their single
colors, a cascade of forced choices runs out of colors.  Its lists are
tight (interior sizes equal min(degree, 7)) and admit no proper
coloring.

chain_graph strings 42 copies of the gadget interior between a shared x
and y.  Each copy is keyed to one ordered pair of distinct tokens from
{a..g}; whatever colors x and y receive, the copy keyed to that pair has
no proper completion.  The result is 3-connected, has list sizes
min(degree, 7) everywhere, and is not colorable from its lists.
"""

from __future__ import annotations

import itertools
from collections import namedtuple

from .core_graph import Graph, connectivity_at_least, is_connected
from .errors import InputError, InstanceTooLarge, ReconstructionFailed
from .exact_oracle import _coloring_masks, find_list_coloring
from .plane_embed import PlaneGraph

# interior local indices (gadget ids are local + 2, after x = 0 and y = 1)
_U1, _U2, _U3, _V1, _V2, _V3 = 0, 1, 2, 3, 4, 5
_W1, _W2, _W3, _W4 = 6, 7, 8, 9
_S = tuple(range(10, 18))
_T = tuple(range(18, 26))
_LOCALS = 26

_NAMES = ("u1", "u2", "u3", "v1", "v2", "v3", "w1", "w2", "w3", "w4",
          "s1", "s2", "s3", "s4", "s5", "s6", "s7", "s8",
          "t1", "t2", "t3", "t4", "t5", "t6", "t7", "t8")

# locals adjacent to x resp. y (the even-numbered gadget vertices carry
# the extra x/y color in their lists)
_XFAN = (_U1, _U2, _U3, _V1, _V2, _V3, _W2, 11, 15, 19, 23)
_YFAN = (_U1, _U2, _U3, _V1, _V2, _V3, _W4, 13, 17, 21, 25)


def _gadget_copy(base, a, b):
    """One gadget interior on ids base..base+25, keyed to the x-color a
    and the y-color b: its edges, fans to x = 0 and y = 1 included, and
    its lists."""
    es = [(_U1, _U2), (_U2, _U3), (_V1, _V2), (_V2, _V3), (_U1, _V1)]
    for lo, hi, p, q in [(10, 11, _U1, _U2), (12, 13, _U1, _U2),
                         (14, 15, _U2, _U3), (16, 17, _U2, _U3),
                         (18, 19, _V1, _V2), (20, 21, _V1, _V2),
                         (22, 23, _V2, _V3), (24, 25, _V2, _V3)]:
        es += [(lo, hi), (lo, p), (hi, p), (lo, q), (hi, q)]
    for lo, hi in [(_W1, _W2), (_W3, _W4)]:
        es += [(lo, hi), (lo, _U1), (lo, _V1), (hi, _U1), (hi, _V1)]
    edges = [(u + base, w + base) for u, w in es]
    edges += [(0, base + l) for l in _XFAN] + [(1, base + l) for l in _YFAN]
    lists = {l: [a, b, 1, 2, 3, 4, 5] for l in range(6)}
    lists[_W1] = [1, 2, 3]
    lists[_W2] = [a, 1, 2, 3]
    lists[_W3] = [3, 4, 5]
    lists[_W4] = [b, 3, 4, 5]
    for k, (low, extra) in enumerate([([1, 2, 3], a), ([1, 2, 4], b),
                                      ([1, 2, 5], a), ([3, 4, 5], b)]):
        lists[10 + 2 * k] = list(low)
        lists[11 + 2 * k] = [extra] + low
        lists[18 + 2 * k] = list(low)
        lists[19 + 2 * k] = [extra] + low
    return edges, {base + l: ts for l, ts in lists.items()}


def gadget_h():
    """The gadget as (Graph, lists).  x = 0 and y = 1, interior 2..27."""
    edges, lists = _gadget_copy(2, "a", "b")
    return Graph(range(28), edges), {0: ["a"], 1: ["b"], **lists}


def gadget_h_names():
    names = {0: "x", 1: "y"}
    for l, nm in enumerate(_NAMES):
        names[l + 2] = nm
    return names


# rotations of a straight-line drawing: spine u3..v3 on a horizontal
# axis, x above, y below, each gadget pair nested inside its triangle
_H_ROT = {
    0: (4, 17, 3, 13, 2, 9, 5, 21, 6, 25, 7),
    1: (7, 27, 6, 23, 5, 11, 2, 15, 3, 19, 4),
    2: (14, 15, 1, 11, 10, 5, 8, 9, 0, 13, 12, 3),
    3: (18, 19, 1, 15, 14, 2, 12, 13, 0, 17, 16, 4),
    4: (1, 19, 18, 3, 16, 17, 0),
    5: (10, 11, 1, 23, 22, 6, 20, 21, 0, 9, 8, 2),
    6: (22, 23, 1, 27, 26, 7, 24, 25, 0, 21, 20, 5),
    7: (26, 27, 1, 0, 25, 24, 6),
    8: (2, 5, 9),
    9: (2, 8, 5, 0),
    10: (11, 5, 2),
    11: (1, 5, 10, 2),
    12: (3, 2, 13),
    13: (3, 12, 2, 0),
    14: (15, 2, 3),
    15: (1, 2, 14, 3),
    16: (4, 3, 17),
    17: (4, 16, 3, 0),
    18: (19, 3, 4),
    19: (1, 3, 18, 4),
    20: (5, 6, 21),
    21: (5, 20, 6, 0),
    22: (23, 6, 5),
    23: (1, 6, 22, 5),
    24: (6, 7, 25),
    25: (6, 24, 7, 0),
    26: (27, 7, 6),
    27: (1, 7, 26, 6),
}


def gadget_h_plane() -> PlaneGraph:
    """The gadget with its drawing; outer face is the x-u3-y-v3 square."""
    g, _ = gadget_h()
    pg = PlaneGraph(g, _H_ROT)
    outer = [fid for fid in range(pg.face_count())
             if sorted(pg.face_vertices(fid)) == [0, 1, 4, 7]]
    if len(outer) != 1:
        raise ReconstructionFailed("%d faces of the drawing are the x-u3-y-v3 square"
                                   % len(outer))
    pg.outer = outer[0]
    return pg


# ---------------------------------------------------------------------------
# bipartite list counterexamples

BIG_SIDE_CAP = 4096  # most big-side vertices k2k2 and ks will build
SMALL_SIDE_CAP = 12  # most small-side vertices ks will build; k >= 2 stops there anyway


def build_k2_k2(k):
    """K_{2,k^2} with lists splitting a k-set across the big side.

    u carries {a1..ak}, v carries {b1..bk}, and big-side vertex (i,j)
    carries {ai, bj}: whatever u and v take, the vertex keyed to that
    pair sees both of its colors on its neighbors.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    if k * k > BIG_SIDE_CAP:
        raise InstanceTooLarge("big side would have k^2 vertices with k=%d (cap %d)"
                               % (k, BIG_SIDE_CAP))
    a = ["a%d" % i for i in range(1, k + 1)]
    b = ["b%d" % j for j in range(1, k + 1)]
    edges = []
    lists = {0: list(a), 1: list(b)}
    for i in range(k):
        for j in range(k):
            w = 2 + i * k + j
            edges += [(0, w), (1, w)]
            lists[w] = [a[i], b[j]]
    return Graph(range(2 + k * k), edges), lists


def build_ks_minus1(s, k):
    """K_{s-1,k^(s-1)} with product lists, tokens written "c.i".

    Small-side vertex i carries (c,i) for c in 1..k; the big-side vertex
    keyed by x in [k]^(s-1) carries {(x_i, i)}, so the small side's
    coloring always kills exactly one big-side vertex.
    """
    if s < 2 or k < 1:
        raise ValueError("need s >= 2 and k >= 1")
    if s - 1 > SMALL_SIDE_CAP:
        raise InstanceTooLarge("small side would have s-1 vertices with s=%d (cap %d)"
                               % (s, SMALL_SIDE_CAP))
    nbig = k ** (s - 1)
    if nbig > BIG_SIDE_CAP:
        raise InstanceTooLarge("big side would have k^(s-1) vertices with s=%d, k=%d (cap %d)"
                               % (s, k, BIG_SIDE_CAP))
    small = list(range(s - 1))
    lists = {i: ["%d.%d" % (c, i + 1) for c in range(1, k + 1)] for i in small}
    edges = []
    for n, x in enumerate(itertools.product(range(1, k + 1), repeat=s - 1)):
        w = (s - 1) + n
        lists[w] = ["%d.%d" % (x[i], i + 1) for i in small]
        edges += [(i, w) for i in small]
    return Graph(range(s - 1 + nbig), edges), lists


GadgetH = namedtuple("GadgetH", ["g", "lists", "plane", "names"])


def build_H() -> GadgetH:
    """The 28-vertex gadget with its drawing, validated before return.

    The edge set is a pinned reconstruction; the rows of verify_gadget
    are what certify it, and ReconstructionFailed names those that fail.
    """
    g, lists, pg, rows = _checked_gadget()
    bad = [name for name, ok in rows if not ok]
    if bad:
        raise ReconstructionFailed("gadget fails " + ", ".join(bad))
    return GadgetH(g, lists, pg, gadget_h_names())


# ---------------------------------------------------------------------------
# the three forcing claims, as small standalone instances


def w_gadget_instance():
    """u1, v1 and the four w's; every coloring splits {low, high}.

    Lists put w1, w2 inside {1,2,3} and w3, w4 inside {3,4,5}; since
    {u1,v1,w1,w2} and {u1,v1,w3,w4} are cliques, u1 and v1 can spend at
    most one color in each of {1,2,3} and {3,4,5}, which leaves exactly
    one of them in {1,2} and the other in {4,5}.
    """
    g, _ = gadget_h()
    keep = [2, 5, 8, 9, 10, 11]
    lists = {2: [1, 2, 3, 4, 5], 5: [1, 2, 3, 4, 5],
             8: [1, 2, 3], 9: [1, 2, 3], 10: [3, 4, 5], 11: [3, 4, 5]}
    return g.subgraph(keep), lists


def forcing_instance():
    """u1 in {1,2} plus the first two s-pairs forces u2 to color 5."""
    g, _ = gadget_h()
    keep = [2, 3, 12, 13, 14, 15]
    lists = {2: [1, 2], 3: [1, 2, 3, 4, 5],
             12: [1, 2, 3], 13: [1, 2, 3], 14: [1, 2, 4], 15: [1, 2, 4]}
    return g.subgraph(keep), lists


def cascade_instance():
    """u2 stuck on color 5 plus the last two s-pairs: nothing left for u3."""
    g, _ = gadget_h()
    keep = [3, 4, 16, 17, 18, 19]
    lists = {3: [5], 4: [1, 2, 3, 4, 5],
             16: [1, 2, 5], 17: [1, 2, 5], 18: [3, 4, 5], 19: [3, 4, 5]}
    return g.subgraph(keep), lists


def _enumerate_claim(g, lists, prop):
    """(total, proper, violations) over the full product of the lists:
    one bit per coloring (_coloring_masks over the sorted vertices), each
    edge striking those where its ends wear equal tokens; prop runs only
    on the survivors, decoded in mixed radix."""
    vs = sorted(g.vertices)
    ls = [lists[v] for v in vs]
    every, at = _coloring_masks([len(l) for l in ls])
    total, pos = every.bit_length(), {v: i for i, v in enumerate(vs)}
    for u, w in g.edges():
        i, j = pos[u], pos[w]
        for a, x in enumerate(ls[i]):
            for b, y in enumerate(ls[j]):
                if x == y:
                    every &= ~(at[i][a] & at[j][b])
    proper, bad = every.bit_count(), 0
    while every:
        k = (every & -every).bit_length() - 1
        every &= every - 1
        col = {}
        for v, l in zip(vs, ls):
            k, c = divmod(k, len(l))
            col[v] = l[c]
        bad += not prop(col)
    return total, proper, bad


def verify_gadget():
    """Run every gadget check; list of (name, ok) rows."""
    return _checked_gadget()[3]


def _checked_gadget():
    """(g, lists, pg, rows): the gadget, its drawing (None when it is
    broken) and the rows of every gadget check, run on those objects."""
    g, lists = gadget_h()
    # one color at x and y, min(degree, 7) distinct ones elsewhere
    rows = [("list-sizes", len(lists[0]) == 1 and len(lists[1]) == 1
             and all(len(lists[v]) == min(g.degree(v), 7) for v in range(2, 28))
             and all(len(set(lists[v])) == len(lists[v]) for v in g.vertices))]
    pg = None
    try:
        pg = gadget_h_plane()
        rows.append(("planar-embedding", pg.face_count() == 51
                     and sorted(pg.face_vertices(pg.outer)) == [0, 1, 4, 7]))
    except (InputError, ReconstructionFailed):
        # PlaneGraph raises BadRotation or NotConnected on a broken drawing
        rows.append(("planar-embedding", False))
    rows.append(("three-connected", connectivity_at_least(g, 3)))

    g1, l1 = w_gadget_instance()
    lo, hi = {1, 2}, {4, 5}
    total, proper, bad = _enumerate_claim(
        g1, l1, lambda c: (c[2] in lo and c[5] in hi) or (c[2] in hi and c[5] in lo))
    rows.append(("pair-split-claim", total == 2025 and proper > 0 and bad == 0))

    g2, l2 = forcing_instance()
    total, proper, bad = _enumerate_claim(g2, l2, lambda c: c[3] == 5)
    rows.append(("forcing-claim", total == 810 and proper > 0 and bad == 0))

    g3, l3 = cascade_instance()
    total, proper, bad = _enumerate_claim(g3, l3, lambda c: False)
    rows.append(("cascade-claim", total == 405 and proper == 0))

    # the list search runs on the induced cover's strike table, filled from
    # the lists: one strike table answers both rows
    refuted = find_list_coloring(g, lists) is None
    rows += [("no-list-coloring", refuted), ("no-cover-coloring", refuted)]
    return g, lists, pg, rows


# ---------------------------------------------------------------------------
# the 42-copy chain


def chain_token_pairs():
    return sorted(itertools.permutations("abcdefg", 2))


def _copy_base(i):
    return 2 + _LOCALS * i


def chain_graph():
    """42 gadget interiors sharing x and y, consecutive copies linked."""
    pairs = chain_token_pairs()
    edges = [(0, 1)]
    lists = {0: list("abcdefg"), 1: list("abcdefg")}
    for i, (a, b) in enumerate(pairs):
        copy_edges, copy_lists = _gadget_copy(_copy_base(i), a, b)
        edges += copy_edges
        lists.update(copy_lists)
    for i in range(len(pairs) - 1):
        edges.append((_copy_base(i) + _V3, _copy_base(i + 1) + _U3))
    return Graph(range(2 + _LOCALS * len(pairs)), edges), lists


def chain_case(i):
    """Copy i alone, its lists cut down as if x wore a and y wore b.

    Dropping the chain edges and the x/y fans only removes constraints,
    so refuting this reduced instance refutes every coloring of the full
    graph in which x and y carry copy i's token pair.
    """
    a, b = chain_token_pairs()[i]
    base = _copy_base(i)
    edges, lists = _gadget_copy(base, a, b)
    for l in _XFAN:
        lists[base + l].remove(a)
    for l in _YFAN:
        lists[base + l].remove(b)
    # the fan edges are the ones at x = 0 and y = 1
    return Graph(range(base, base + _LOCALS), [e for e in edges if e[0] > 1]), lists


def build_G42():
    """The 1094-vertex chained counterexample; see chain_graph."""
    return chain_graph()


def _case_refuted(i):
    g, lists = chain_case(i)
    return find_list_coloring(g, lists) is None


def verify_chain():
    """Full chain verification; list of (name, ok) rows.

    Checks the list sizes, that each copy induces the gadget, and
    3-connectivity, then refutes the 42 chain cases one after another.
    """
    g, lists = chain_graph()
    rows = []
    rows.append(("list-sizes", all(len(lists[v]) == min(g.degree(v), 7)
                                   and len(set(lists[v])) == len(lists[v])
                                   for v in g.vertices)))
    hg, _ = gadget_h()
    want = set(hg.edges()) | {(0, 1)}
    ok = True
    for i in range(42):
        base = _copy_base(i)
        tr = {0: 0, 1: 1}
        tr.update({base + l: l + 2 for l in range(_LOCALS)})
        keep = [0, 1] + list(range(base, base + _LOCALS))
        got = {(min(tr[u], tr[w]), max(tr[u], tr[w]))
               for u, w in g.subgraph(keep).edges()}
        if got != want:
            ok = False
            break
    rows.append(("copies-induce-gadget", ok))
    rows.append(("three-connected", connectivity_at_least(g, 3)))
    for i, (a, b) in enumerate(chain_token_pairs()):
        rows.append(("case-%s%s" % (a, b), _case_refuted(i)))
    return rows


# jobs must be 1; kept because perfbench/workloads.py passes it (ROADMAP item 6)
def verify_counterexample(name, k=None, s=None, jobs=1):
    """Builder + checks for one family; returns (check, ok) rows."""
    if jobs != 1:
        raise ValueError("jobs must be 1 (got %r)" % (jobs,))
    if name == "H":
        return verify_gadget()
    if name == "G42":
        return verify_chain()
    if name == "k2k2":
        if k is None or k < 1:
            raise ValueError("k2k2 needs k >= 1")
        g, lists = build_k2_k2(k)
        rows = [("bipartite-shape", g.n == 2 + k * k and g.m == 2 * k * k)]
        if k >= 2:
            rows.append(("list-sizes", all(len(lists[v]) == min(g.degree(v), k)
                                           for v in g.vertices)))
            rows.append(("two-connected", connectivity_at_least(g, 2)))
        else:
            rows.append(("list-sizes", all(len(lists[v]) >= min(g.degree(v), k)
                                           for v in g.vertices)))
            rows.append(("connected", is_connected(g)))
        rows.append(("no-list-coloring", find_list_coloring(g, lists) is None))
        return rows
    if name == "ks":
        if s is None or k is None:
            raise ValueError("ks needs s and k")
        g, lists = build_ks_minus1(s, k)
        rows = [("bipartite-shape", g.n == (s - 1) + k ** (s - 1))]
        rows.append(("list-sizes", all(len(lists[v]) >= min(g.degree(v), k)
                                       for v in g.vertices)))
        rows.append(("no-list-coloring", find_list_coloring(g, lists) is None))
        return rows
    raise ValueError("unknown family %r" % (name,))
