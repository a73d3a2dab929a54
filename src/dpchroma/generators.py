"""Instance generators: the seeded RNG, hub drawings and the drum.

`dpchroma gen` writes the seeded hub instances and `dpchroma build
--family drum` the drum; the tests build both from here too.  The hub
instances fire only (R2); the drum under `drum_forcing_cover` is the
input that drives an (R1) march.  Each builder states a drawing once,
as its rotation system; the graph is the rotation's drawn_graph, and
PlaneGraph checks that every edge is listed at both ends.
"""

from __future__ import annotations

from .core_graph import connectivity_at_least
from .dp_cover import Cover, degree_truncated_sizes
from .errors import BadRotation, GenerationFailed
from .plane_embed import PlaneGraph, drawn_graph
from .planar_truncated import THRESHOLD, partition_threshold

MASK64 = (1 << 64) - 1


class Xorshift64Star:
    """xorshift64* with the 0x2545F4914F6CDD1D multiplier.

    Pinned by hand because generated covers must stay byte-identical
    across reruns and reimplementations in other languages; swapping in
    random.Random would silently break every recorded trace.
    """

    __slots__ = ("x",)

    def __init__(self, seed):
        self.x = seed & MASK64
        if self.x == 0:
            self.x = 0x9E3779B97F4A7C15

    def next64(self):
        x = self.x
        x ^= x >> 12
        x = (x ^ (x << 25)) & MASK64
        x ^= x >> 27
        self.x = x
        return (x * 0x2545F4914F6CDD1D) & MASK64

    def randrange(self, n):
        """Uniform draw from range(n) by rejection, no modulo bias."""
        if n <= 0:
            raise ValueError("randrange needs a positive bound, got %r" % (n,))
        span = (MASK64 + 1) - (MASK64 + 1) % n
        while True:
            r = self.next64()
            if r < span:
                return r % n

    def shuffle(self, seq):
        for i in range(len(seq) - 1, 0, -1):
            j = self.randrange(i + 1)
            seq[i], seq[j] = seq[j], seq[i]
        return seq


# ---------------------------------------------------------------------------
# hub instances: 3-connected planar graphs with a few high-degree vertices


def wheel(rim):
    hub = rim
    rot = {i: ((i + 1) % rim, hub, (i - 1) % rim) for i in range(rim)}
    rot[hub] = tuple(range(rim))
    return drawn_graph(rot), rot


def double_wheel(rim):
    hin, hout = rim, rim + 1
    rot = {i: ((i + 1) % rim, hin, (i - 1) % rim, hout) for i in range(rim)}
    rot[hin] = tuple(range(rim))
    rot[hout] = tuple(range(rim - 1, -1, -1))
    return drawn_graph(rot), rot


def fan_wheel(rim):
    """Two fans inside the rim over complementary arcs, full wheel outside.

    The fan hubs share the two arc ends, so the region between them is a
    quadrilateral face; they are visible but not adjacent, which is what
    makes this shape exercise chord insertion downstream.
    """
    mid = rim // 2
    ha, hb, hout = rim, rim + 1, rim + 2
    rot = {}
    for i in range(rim):
        if i == 0:
            rot[i] = (1, ha, hb, rim - 1, hout)
        elif i == mid:
            rot[i] = (mid + 1, hb, ha, mid - 1, hout)
        elif i < mid:
            rot[i] = (i + 1, ha, i - 1, hout)
        else:
            rot[i] = ((i + 1) % rim, hb, i - 1, hout)
    rot[ha] = tuple(range(mid + 1))
    rot[hb] = tuple(range(mid, rim)) + (0,)
    rot[hout] = tuple(range(rim - 1, -1, -1))
    return drawn_graph(rot), rot


def random_tight_matchings(g, sizes, rng):
    """One random maximal matching per edge, full on the smaller side."""
    matchings = {}
    for u, w in g.edges():
        pu = rng.shuffle(list(range(sizes[u])))
        pw = rng.shuffle(list(range(sizes[w])))
        pairs = sorted(zip(pu, pw))
        if pairs:
            matchings[(u, w)] = pairs
    return matchings


def generate_hub_instance(hubs, rim, seed):
    """Deterministic plane instance with exactly `hubs` vertices of degree >= THRESHOLD.

    hubs=1 is a wheel, hubs=2 a double wheel (one hub inside the rim,
    one outside), hubs=3 the fan wheel.  Returns (PlaneGraph, Cover)
    where the cover has sizes min(THRESHOLD, d) and seeded random matchings.
    The construction is checked, not trusted: planarity via the rotation
    trace, the heavy-vertex count, and 3-connectivity with
    connectivity_at_least.
    """
    if hubs not in (1, 2, 3):
        raise GenerationFailed("supported hub counts are 1, 2, 3 (got %r)" % (hubs,))
    if rim < (4 if hubs == 3 else 3):
        raise GenerationFailed("rim %d is too short for %d hubs" % (rim, hubs))
    build = {1: wheel, 2: double_wheel, 3: fan_wheel}[hubs]
    g, rot = build(rim)
    try:
        pg = PlaneGraph(g, rot)
    except BadRotation as exc:
        raise GenerationFailed("generated rotation is not planar: %s" % exc)
    heavy = len(partition_threshold(g)[1])
    if heavy != hubs:
        raise GenerationFailed("rim %d gives %d vertices of degree >= %d, wanted %d"
                               % (rim, heavy, THRESHOLD, hubs))
    if not connectivity_at_least(g, 3):
        raise GenerationFailed("generated graph is not 3-connected")
    rng = Xorshift64Star(seed)
    sizes = degree_truncated_sizes(g, THRESHOLD)
    cover = Cover(g, sizes, random_tight_matchings(g, sizes, rng))
    return pg, cover


# ---------------------------------------------------------------------------
# the drum: hubs 8..11 in a ring between an inner 8-cycle and a fanned
# outer cycle


def drum_plane(quarter=15, perm=(0, 1, 2, 3)):
    """Inner 8-cycle, ring of four hubs, outer cycle in four fanned
    quarters with shared ends.  perm places hub ids around the ring."""
    hub = lambda j: 8 + perm[j % 4]
    n_o = 4 * quarter
    out = lambda i: 12 + (i % n_o)
    rot = {i: ((i + 1) % 8, (i - 1) % 8, hub(i // 2)) for i in range(8)}
    for i in range(n_o):
        if i % quarter == 0:
            rot[out(i)] = (out(i + 1), hub(i // quarter), hub(i // quarter - 1), out(i - 1))
        else:
            rot[out(i)] = (out(i + 1), hub(i // quarter), out(i - 1))
    for j in range(4):
        rot[hub(j)] = (hub(j + 1), 2 * j + 1, 2 * j, hub(j - 1)) + tuple(
            out(i) for i in range(quarter * j, quarter * (j + 1) + 1))
    return PlaneGraph(drawn_graph(rot), rot)


def _drum_identity(g, sizes):
    """Identity matchings on every edge of the drum outside the hub ring,
    keyed by g.edges() in order."""
    ring = (8, 9, 10, 11)
    return {(u, w): [(t, t) for t in range(min(sizes[u], sizes[w]))]
            for u, w in g.edges() if u not in ring or w not in ring}


def drum_forcing_cover(pg):
    """The identity cover, except on hub 11's q + 1 edges (11, w) to its
    own outer quarter (w >= 12, so 11 is the smaller end): there each
    pair is shifted by 3 at 11.  Its first free color (3, after the
    protection of the inner cycle forbids 0..2) is thus matched into
    every list of that quarter.  Coloring 11 then leaves the whole
    quarter tight, so the outer cycle stays unsafe and (R1) has to march
    along the freed arc.  Quarter 1 is refused by Cover: hub 11 has
    only 6 colors, too few for the shift."""
    g = pg.g
    sizes = degree_truncated_sizes(g, THRESHOLD)
    matchings = _drum_identity(g, sizes)
    for w in g.adj[11]:
        if w >= 12:
            matchings[(11, w)] = [(3 + t, t) for t, _ in matchings[(11, w)]]
    return Cover(g, sizes, matchings)


def drum_identity_cover(g):
    """Identity matchings on every edge of the drum except the hub ring."""
    sizes = degree_truncated_sizes(g, THRESHOLD)
    return Cover(g, sizes, _drum_identity(g, sizes))
