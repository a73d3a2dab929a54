"""Command-line front end, instance generation, and report plumbing."""

from __future__ import annotations

import argparse
import sys

from .constructions import (build_G42, build_H, build_k2_k2, build_ks_minus1,
                            verify_counterexample)
from .core_graph import Graph, connectivity_at_least, parse_graph, write_graph
from .dp_cover import (Cover, degree_truncated_sizes, find_dp_coloring, parse_cover,
                       parse_lists, write_cover, write_lists)
from .errors import (A2Unattainable, BadRotation, DegreeBelowS, EmptyResidualList,
                     GDPTreeTight, GenerationFailed, InstanceTooLarge,
                     InternalInvariantBreach, ListTooSmall, MalformedInput, NotConnected,
                     NotDegenerate, PeelBoundExceeded, PreconditionViolated,
                     ProtectorInfeasible)
from .exact_oracle import solve_list
from .minor_truncated import color_minor_truncated, constants
from .plane_embed import PlaneGraph, parse_plane, very_nice_subgraph, write_plane
from .planar_truncated import color_planar_truncated

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


def _wheel(rim):
    hub = rim
    rot = {i: ((i + 1) % rim, hub, (i - 1) % rim) for i in range(rim)}
    rot[hub] = tuple(range(rim))
    edges = [(i, (i + 1) % rim) for i in range(rim)]
    edges += [(i, hub) for i in range(rim)]
    return Graph(range(rim + 1), edges), rot


def _double_wheel(rim):
    hin, hout = rim, rim + 1
    rot = {i: ((i + 1) % rim, hin, (i - 1) % rim, hout) for i in range(rim)}
    rot[hin] = tuple(range(rim))
    rot[hout] = tuple(range(rim - 1, -1, -1))
    edges = [(i, (i + 1) % rim) for i in range(rim)]
    edges += [(i, hin) for i in range(rim)]
    edges += [(i, hout) for i in range(rim)]
    return Graph(range(rim + 2), edges), rot


def _fan_wheel(rim):
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
    edges = [(i, (i + 1) % rim) for i in range(rim)]
    edges += [(i, ha) for i in range(mid + 1)]
    edges += [(i, hb) for i in range(mid, rim)]
    edges += [(0, hb)]
    edges += [(i, hout) for i in range(rim)]
    return Graph(range(rim + 3), edges), rot


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
    """Deterministic plane instance with exactly `hubs` vertices of degree >= 16.

    hubs=1 is a wheel, hubs=2 a double wheel (one hub inside the rim,
    one outside), hubs=3 the fan wheel.  Returns (PlaneGraph, Cover)
    where the cover has sizes min(16, d) and seeded random matchings.
    The construction is checked, not trusted: planarity via the rotation
    trace, the heavy-vertex count, and 3-connectivity with
    connectivity_at_least.
    """
    if hubs not in (1, 2, 3):
        raise GenerationFailed("supported hub counts are 1, 2, 3 (got %r)" % (hubs,))
    if rim < (4 if hubs == 3 else 3):
        raise GenerationFailed("rim %d is too short for %d hubs" % (rim, hubs))
    build = {1: _wheel, 2: _double_wheel, 3: _fan_wheel}[hubs]
    g, rot = build(rim)
    try:
        pg = PlaneGraph(g, rot)
    except BadRotation as exc:
        raise GenerationFailed("generated rotation is not planar: %s" % exc)
    heavy = sorted(v for v in g.vertices if g.degree(v) >= 16)
    if len(heavy) != hubs:
        raise GenerationFailed("rim %d gives %d vertices of degree >= 16, wanted %d"
                               % (rim, len(heavy), hubs))
    if not connectivity_at_least(g, 3):
        raise GenerationFailed("generated graph is not 3-connected")
    rng = Xorshift64Star(seed)
    sizes = degree_truncated_sizes(g, 16)
    cover = Cover(g, sizes, random_tight_matchings(g, sizes, rng))
    return pg, cover


# ---------------------------------------------------------------------------
# reports


def run_report(rows):
    """(name, ok[, detail]) rows -> one line per check plus a verdict line."""
    lines = []
    bad = 0
    for row in rows:
        name, okv = row[0], row[1]
        detail = row[2] if len(row) > 2 else ""
        if not okv:
            bad += 1
        lines.append(("%s %s %s" % ("ok" if okv else "FAIL", name, detail)).rstrip())
    if not lines:
        lines.append("PASS (0 checks)")
    elif bad:
        lines.append("FAIL (%d of %d checks)" % (bad, len(rows)))
    else:
        lines.append("PASS")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# command front end

_INPUT_ERRORS = (MalformedInput, BadRotation, NotConnected, PreconditionViolated,
                 InstanceTooLarge, ListTooSmall, GenerationFailed, ValueError, OSError)
_DIAGNOSTICS = (GDPTreeTight, EmptyResidualList, ProtectorInfeasible, PeelBoundExceeded,
                DegreeBelowS, NotDegenerate, InternalInvariantBreach, A2Unattainable)


def _read(path):
    with open(path) as fh:
        return fh.read()


def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text)
    print("wrote %s" % path)


def _write_trace(path, trace):
    if path is not None:
        _write(path, "".join(line + "\n" for line in trace))


def _witness(phi):
    for v in sorted(phi):
        c = phi[v]
        print("v %s %s" % (v, c[1] if isinstance(c, tuple) else c))


def cmd_build(args):
    if args.family == "H":
        gadget = build_H()
        _write(args.out + ".graph", write_graph(gadget.g))
        _write(args.out + ".lists", write_lists(gadget.lists))
        _write(args.out + ".plane", write_plane(gadget.plane))
        return 0
    if args.family == "G42":
        g, lists = build_G42()
    elif args.family == "k2k2":
        if args.k is None:
            raise ValueError("k2k2 needs --k")
        g, lists = build_k2_k2(args.k)
    else:
        if args.s is None or args.k is None:
            raise ValueError("ks needs --s and --k")
        g, lists = build_ks_minus1(args.s, args.k)
    _write(args.out + ".graph", write_graph(g))
    _write(args.out + ".lists", write_lists(lists))
    return 0


def cmd_verify(args):
    if args.jobs < 1:
        raise ValueError("--jobs must be at least 1 (got %d)" % args.jobs)
    rows = verify_counterexample(args.family, k=args.k, s=args.s, jobs=args.jobs)
    sys.stdout.write(run_report(rows))
    return 0 if all(r[1] for r in rows) else 10


def cmd_solve(args):
    if args.budget is not None and args.budget < 1:
        raise ValueError("--budget must be at least 1 (got %d)" % args.budget)
    g = parse_graph(_read(args.graph))
    if args.lists is not None:
        col = solve_list(g, parse_lists(_read(args.lists)), budget=args.budget)
    else:
        cover = parse_cover(_read(args.cover), g)
        col = find_dp_coloring(cover, budget=args.budget)
    if col is None:
        print("UNCOLORABLE")
        return 10
    _witness(col)
    return 0


def cmd_nice(args):
    pg = parse_plane(_read(args.embed))
    v_star = args.vstar
    if v_star is None:
        v_star = min(pg.face_vertices(pg.outer))
    h = very_nice_subgraph(pg, v_star)
    for v, f in sorted(h):
        print("h v %s f %d" % (v, f))
    return 0


def cmd_color_planar(args):
    pg = parse_plane(_read(args.embed))
    cover = parse_cover(_read(args.cover), pg.g)
    trace = []
    phi = color_planar_truncated(pg, cover, trace=trace)
    _write_trace(args.trace, trace)
    _witness(phi)
    return 0


def _parse_overrides(text):
    keys = {"q": "q", "k": "k", "peel": "peel_bound", "degen": "degeneracy_bound"}
    out = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        name, _, value = item.partition("=")
        if name not in keys or not value:
            raise ValueError("bad override %r (use q=,k=,peel=,degen=)" % item)
        out[keys[name]] = int(value)
    return out


def cmd_color_minor(args):
    g = parse_graph(_read(args.graph))
    cover = parse_cover(_read(args.cover), g)
    params = constants(args.s, args.t)
    if args.override:
        params = params.with_overrides(**_parse_overrides(args.override))
    trace = []
    phi = color_minor_truncated(g, cover, params, trace=trace)
    _write_trace(args.trace, trace)
    _witness(phi)
    return 0


def cmd_gen(args):
    pg, cover = generate_hub_instance(args.hubs, args.rim, args.seed)
    head = "c seed %d hubs %d rim %d\n" % (args.seed, args.hubs, args.rim)
    print(head.strip())
    _write(args.out + ".plane", head + write_plane(pg))
    _write(args.out + ".cover", head + write_cover(cover))
    return 0


def _build_parser():
    p = argparse.ArgumentParser(prog="dpchroma")
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="write a named family to files")
    b.add_argument("--family", required=True, choices=["H", "G42", "k2k2", "ks"])
    b.add_argument("--k", type=int)
    b.add_argument("--s", type=int)
    b.add_argument("--out", required=True, help="output path prefix")
    b.set_defaults(func=cmd_build)

    v = sub.add_parser("verify", help="run a family's checks and report")
    v.add_argument("--family", required=True, choices=["H", "G42", "k2k2", "ks"])
    v.add_argument("--k", type=int)
    v.add_argument("--s", type=int)
    v.add_argument("--jobs", type=int, default=1)
    v.set_defaults(func=cmd_verify)

    s = sub.add_parser("solve", help="exact coloring of a graph from lists or a cover")
    s.add_argument("--graph", required=True)
    g1 = s.add_mutually_exclusive_group(required=True)
    g1.add_argument("--lists")
    g1.add_argument("--cover")
    s.add_argument("--budget", type=int)
    s.set_defaults(func=cmd_solve)

    n = sub.add_parser("nice", help="covering subgraph of a plane graph's incidences")
    n.add_argument("--embed", required=True)
    n.add_argument("--vstar", type=int)
    n.set_defaults(func=cmd_nice)

    cp = sub.add_parser("color-planar", help="degree-truncated coloring, planar pipeline")
    cp.add_argument("--embed", required=True)
    cp.add_argument("--cover", required=True)
    cp.add_argument("--trace")
    cp.set_defaults(func=cmd_color_planar)

    cm = sub.add_parser("color-minor", help="degree-truncated coloring, minor pipeline")
    cm.add_argument("--graph", required=True)
    cm.add_argument("--cover", required=True)
    cm.add_argument("--s", type=int, required=True)
    cm.add_argument("--t", type=int, required=True)
    cm.add_argument("--override", help="q=..,k=..,peel=..,degen=..")
    cm.add_argument("--trace")
    cm.set_defaults(func=cmd_color_minor)

    ge = sub.add_parser("gen", help="generate a seeded hub instance")
    ge.add_argument("--hubs", type=int, required=True)
    ge.add_argument("--rim", type=int, required=True)
    ge.add_argument("--seed", type=int, required=True)
    ge.add_argument("--out", required=True, help="output path prefix")
    ge.set_defaults(func=cmd_gen)
    return p


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except _DIAGNOSTICS as exc:
        print("diagnostic: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
