"""Input builders for the benchmark: drum fixtures, graph classes, paths.

These are standalone copies, so the benchmark needs neither the test
suite nor networkx.  Class counts are pinned: a drift in the inputs
raises instead of silently changing the workload.
"""

import itertools

from dpchroma.core_graph import Graph
from dpchroma.dp_cover import Cover, degree_truncated_sizes
from dpchroma.plane_embed import PlaneGraph

# connected graphs on n vertices, up to isomorphism (OEIS A001349)
CLASS_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112}

HUBS = (8, 9, 10, 11)


class InputDrift(Exception):
    """A builder produced something other than the pinned input."""


def drum_plane(quarter, perm=(0, 1, 2, 3)):
    """Inner 8-cycle, a ring of four hubs, and an outer cycle in four
    fanned quarters with shared ends.  perm places hub ids around the
    ring.  Hubs have degree quarter + 5, so quarter >= 11 puts them in V2."""
    k = 8
    n_o = 4 * quarter

    def hub(j):
        return 8 + perm[j % 4]

    def out(i):
        return 12 + (i % n_o)

    edges = []
    rot = {}
    for i in range(k):
        edges.append((i, (i + 1) % k))
        edges.append((i, hub(i // 2)))
        rot[i] = ((i + 1) % k, (i - 1) % k, hub(i // 2))
    for j in range(4):
        edges.append((hub(j), hub(j + 1)))
    for i in range(n_o):
        edges.append((out(i), out(i + 1)))
        edges.append((out(i), hub(i // quarter)))
        if i % quarter == 0:
            edges.append((out(i), hub(i // quarter - 1)))
            rot[out(i)] = (out(i + 1), hub(i // quarter), hub(i // quarter - 1), out(i - 1))
        else:
            rot[out(i)] = (out(i + 1), hub(i // quarter), out(i - 1))
    for j in range(4):
        rot[hub(j)] = (hub(j + 1), 2 * j + 1, 2 * j, hub(j - 1)) + tuple(
            out(i) for i in range(quarter * j, quarter * (j + 1) + 1))
    g = Graph(range(12 + n_o), [(min(u, w), max(u, w)) for u, w in edges])
    return PlaneGraph(g, rot)


def drum_forcing_cover(pg):
    """Identity matchings, except hub 11: its first free color (3, after
    the protection of the inner cycle forbids 0..2) is matched into every
    list of its own outer quarter, so (R1) has to march along that arc."""
    g = pg.g
    sizes = degree_truncated_sizes(g, 16)
    matchings = {}
    for u, w in g.edges():
        if u in HUBS and w in HUBS:
            continue
        small = min(sizes[u], sizes[w])
        if 11 in (u, w) and u + w - 11 >= 12:
            if u == 11:
                pairs = [(3 + t, t) for t in range(small)]
            else:
                pairs = [(t, 3 + t) for t in range(small)]
        else:
            pairs = [(t, t) for t in range(small)]
        matchings[(u, w)] = pairs
    return Cover(g, sizes, matchings)


def drum_identity_cover(g):
    """Identity matchings on every edge except the hub ring."""
    sizes = degree_truncated_sizes(g, 16)
    matchings = {}
    for u, w in g.edges():
        if u in HUBS and w in HUBS:
            continue
        matchings[(u, w)] = [(t, t) for t in range(min(sizes[u], sizes[w]))]
    return Cover(g, sizes, matchings)


def _canonical_mask(n, edges, eidx):
    """Smallest edge bitmask over the labelings that order vertices by an
    isomorphism-invariant key; equal for isomorphic graphs."""
    adj = [set() for _ in range(n)]
    for u, w in edges:
        adj[u].add(w)
        adj[w].add(u)
    key = [(len(adj[v]), tuple(sorted(len(adj[w]) for w in adj[v]))) for v in range(n)]
    cells = {}
    for v in range(n):
        cells.setdefault(key[v], []).append(v)
    ordered = [cells[k] for k in sorted(cells)]
    best = None
    for parts in itertools.product(*(itertools.permutations(c) for c in ordered)):
        label = {}
        for part in parts:
            for v in part:
                label[v] = len(label)
        mask = 0
        for u, w in edges:
            a, b = label[u], label[w]
            mask |= 1 << eidx[(a, b) if a < b else (b, a)]
        if best is None or mask < best:
            best = mask
    return best


def connected_graph_classes(max_n):
    """{n: one representative per isomorphism class of connected graphs}.

    Each n-vertex class is reached by attaching vertex n-1 to every
    nonempty subset of the (n-1)-vertex representatives; the first graph
    met in that order represents its class.
    """
    out = {1: [Graph([0], [])]}
    for n in range(2, max_n + 1):
        eidx = {e: i for i, e in enumerate(itertools.combinations(range(n), 2))}
        seen = set()
        reps = []
        for small in out[n - 1]:
            base = small.edges()
            for r in range(1, n):
                for sub in itertools.combinations(range(n - 1), r):
                    edges = base + [(u, n - 1) for u in sub]
                    c = _canonical_mask(n, edges, eidx)
                    if c not in seen:
                        seen.add(c)
                        reps.append(Graph(range(n), sorted(edges)))
        out[n] = reps
    for n in out:
        if len(out[n]) != CLASS_COUNTS[n]:
            raise InputDrift("%d classes on %d vertices, expected %d"
                             % (len(out[n]), n, CLASS_COUNTS[n]))
    return out


def path_instance(n):
    """Path on n vertices with the 2-color list {a, b} everywhere."""
    g = Graph(range(n), [(i, i + 1) for i in range(n - 1)])
    return g, {v: ["a", "b"] for v in range(n)}
