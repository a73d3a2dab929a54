"""The benchmark's workloads: inputs, operations and output checks.

Every operation reaches the package through a name bound in this
module, so the span recorder can wrap the benchmark's own calls the
same way it wraps any other caller's.  Checks run outside the timed
call and do not rely on the package's own asserts, which `python -O`
removes.
"""

import collections
import functools
import hashlib
import os

import builders
from dpchroma.cli import generate_hub_instance
from dpchroma.constructions import build_G42, chain_case, chain_token_pairs, verify_counterexample
from dpchroma.core_graph import is_gallai_tree, is_gdp_tree, parse_graph, write_graph
from dpchroma.dp_cover import (is_coloring_valid, parse_cover, parse_lists, write_cover,
                               write_lists)
from dpchroma.exact_oracle import (find_dp_coloring, find_list_coloring, is_degree_choosable,
                                   is_degree_dp_colorable, solve_list)
from dpchroma.minor_truncated import color_minor_truncated, constants
from dpchroma.plane_embed import parse_plane, very_nice_subgraph, write_plane
from dpchroma.planar_truncated import color_planar_truncated

# hub instances x1..x4 (timed) and x8 (long): (hubs, rim), smallest first
HUB_SIZES = [(hubs, rim) for rim in (60, 120, 240) for hubs in (2, 3)]
HUB_LONG_SIZES = [(2, 480), (3, 480)]
# one fixed gen seed, so every run times the same covers
GEN_SEED = 1
DRUM_QUARTERS = (15, 30, 60)
DRUM_LONG_QUARTERS = (120,)
PATHS = (250, 500)
# paths deep enough to exhaust the interpreter's recursion limit today
PROBE_PATHS = (1000, 2000)


class Op:
    """One call into the package, with the checks on its output.

    kind and size group operations into metrics; scale is "small" or
    "large" for the operations behind small_s and large_s.  tally maps
    an output to counts that must not change between versions.
    """

    __slots__ = ("key", "kind", "size", "scale", "call", "check", "tally")

    def __init__(self, key, kind, size, scale, call, check, tally=None):
        self.key = key
        self.kind = kind
        self.size = size
        self.scale = scale
        self.call = call
        self.check = check
        self.tally = tally


class Digests:
    """Output digests recorded when the benchmark was added, by input or operation key.

    With record=True, check() stores the digest instead of comparing.
    """

    def __init__(self, table, record=False):
        self.table = table
        self.record = record

    def check(self, key, text):
        got = hashlib.sha256(text.encode()).hexdigest()[:16]
        if self.record:
            self.table[key] = got
            return []
        want = self.table.get(key)
        if want is None:
            return ["%s: no recorded digest" % key]
        if got != want:
            return ["%s: digest %s, recorded %s" % (key, got, want)]
        return []


def _roundtrip(workdir, name, text):
    path = os.path.join(workdir, name)
    with open(path, "w") as fh:
        fh.write(text)
    with open(path) as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# calls into the package; each looks its callee up in this module when
# called, so the span recorder's wrappers apply only while installed


def _planar(pg, cover):
    trace = []
    return trace, color_planar_truncated(pg, cover, trace=trace)


def _minor(g, cover, params):
    trace = []
    return trace, color_minor_truncated(g, cover, params, trace=trace)


def _nice(pg):
    return very_nice_subgraph(pg, min(pg.face_vertices(pg.outer)))


def _choosable(g):
    return is_degree_choosable(g)


def _dp(g):
    return is_degree_dp_colorable(g)


def _verify(family):
    return verify_counterexample(family, jobs=1)


def _solve(g, lists):
    return solve_list(g, lists)


def _refute(g, lists):
    return find_list_coloring(g, lists)


# ---------------------------------------------------------------------------
# checks and tallies


def _pipeline_check(digests, key, cover):
    def check(out):
        trace, phi = out
        problems = [] if is_coloring_valid(cover, phi) else ["%s: invalid coloring" % key]
        witness = "".join("v %d %d\n" % (v, phi[v][1]) for v in sorted(phi))
        return problems + digests.check(key, "".join(ln + "\n" for ln in trace) + witness)
    return check


def _trace_tally(layer):
    def tally(out):
        trace = out[0]
        protects = [ln.split(" protects ")[1].split() for ln in trace if " protects " in ln]
        return {layer + ".r1_steps": sum(1 for ln in trace if ln.startswith("R1")),
                layer + ".r2_steps": sum(1 for ln in trace if ln.startswith("R2")),
                layer + ".protections": sum(len(p) for p in protects)}
    return tally


def _nice_check(digests, key):
    def check(h):
        return digests.check(key, "".join("h v %d f %d\n" % vf for vf in sorted(h)))
    return check


def _h_tally(h):
    return {"plane_embed.h_size": len(h)}


def _choosable_check(g, key):
    def check(out):
        ok, lists = out
        want = not is_gallai_tree(g)
        if ok != want:
            return ["%s: verdict %s, Gallai-tree test says %s" % (key, ok, want)]
        if ok:
            return []
        if set(lists) != set(g.vertices) or any(
                len(set(lists[v])) != len(lists[v]) or len(lists[v]) != g.degree(v)
                for v in g.vertices):
            return ["%s: certificate lists are not degree-sized" % key]
        if find_list_coloring(g, lists) is not None:
            return ["%s: certificate lists admit a coloring" % key]
        return []
    return check


def _dp_check(g, key):
    def check(out):
        ok, cover = out
        want = not is_gdp_tree(g)
        if ok != want:
            return ["%s: verdict %s, GDP-tree test says %s" % (key, ok, want)]
        if ok:
            return []
        if cover.g.edges() != g.edges() or any(cover.sizes[v] != g.degree(v)
                                               for v in g.vertices):
            return ["%s: certificate cover is not degree-sized on the graph" % key]
        if find_dp_coloring(cover) is not None:
            return ["%s: certificate cover admits a coloring" % key]
        return []
    return check


def _verdict_tally(out):
    return {"exact_oracle.positive_verdicts": 1 if out[0] else 0}


def _rows_check(key, count):
    def check(rows):
        bad = [r[0] for r in rows if not r[1]]
        if len(rows) != count:
            return ["%s: %d rows, expected %d" % (key, len(rows), count)]
        return ["%s: row %s failed" % (key, name) for name in bad]
    return check


def _refuted_check(key):
    def check(col):
        return [] if col is None else ["%s: the chain case has a coloring" % key]
    return check


def _solve_check(g, lists, key):
    def check(col):
        if col is None:
            return ["%s: no coloring found" % key]
        if set(col) != set(g.vertices) or any(col[v] not in lists[v] for v in g.vertices):
            return ["%s: witness leaves a vertex or uses a color off its list" % key]
        if any(col[u] == col[w] for u, w in g.edges()):
            return ["%s: witness colors an edge's ends alike" % key]
        return []
    return check


# ---------------------------------------------------------------------------
# workloads


class Inputs(collections.namedtuple("Inputs", "ops long_ops probes")):
    """What one set-up yields.

    Each workload is a set-up function (workdir, digests, problems,
    long) that builds, writes and re-parses its inputs, appends every
    mismatch it finds to problems, and returns Inputs.  ops are timed in
    every pass.  long_ops run once, traced, and only in a traced run:
    single calls too long to repeat within a run; their inputs are built
    only when long is true.  probes run once after the passes: calls
    known to fail today, kept to show it.
    """

    __slots__ = ()


def _pipeline_ops(key, size, scale, digests, pg, cover, g, mcover, params):
    return [Op("planar." + key, "planar", size, scale, functools.partial(_planar, pg, cover),
               _pipeline_check(digests, "planar." + key, cover),
               _trace_tally("planar_truncated")),
            Op("minor." + key, "minor", size, scale, functools.partial(_minor, g, mcover, params),
               _pipeline_check(digests, "minor." + key, mcover),
               _trace_tally("minor_truncated"))]


def hub_planar(workdir, digests, problems, long):
    ops = []
    long_ops = []
    for hubs, rim in HUB_SIZES + (HUB_LONG_SIZES if long else []):
        pg, cover = generate_hub_instance(hubs, rim, GEN_SEED)
        head = "c seed %d hubs %d rim %d\n" % (GEN_SEED, hubs, rim)
        tag = "h%d.r%d" % (hubs, rim)
        plane_text = _roundtrip(workdir, tag + ".plane", head + write_plane(pg))
        cover_text = _roundtrip(workdir, tag + ".cover", head + write_cover(cover))
        problems += digests.check("gen." + tag, plane_text + cover_text)
        pg = parse_plane(plane_text)
        cover = parse_cover(cover_text, pg.g)
        params = constants(hubs, 2).with_overrides(q=6, k=16, peel_bound=2,
                                                   degeneracy_bound=1)
        size = "x%d" % (rim // 60)
        if (hubs, rim) in HUB_LONG_SIZES:
            target, scale = long_ops, "long"
        else:
            target, scale = ops, {60: "small", 240: "large"}.get(rim, "")
        target += _pipeline_ops(tag, size, scale, digests, pg, cover, pg.g, cover, params)
        target.append(Op("nice." + tag, "nice", size, scale, functools.partial(_nice, pg),
                         _nice_check(digests, "nice." + tag), _h_tally))
    return Inputs(ops, long_ops, [])


def drum_march(workdir, digests, problems, long):
    params = constants(2, 2).with_overrides(q=7, k=16, peel_bound=2, degeneracy_bound=2)
    ops = []
    long_ops = []
    for quarter in DRUM_QUARTERS + (DRUM_LONG_QUARTERS if long else ()):
        pg = builders.drum_plane(quarter, perm=(0, 3, 1, 2))
        tag = "q%d" % quarter
        texts = [_roundtrip(workdir, tag + ".plane", write_plane(pg)),
                 _roundtrip(workdir, tag + ".cover", write_cover(builders.drum_forcing_cover(pg))),
                 _roundtrip(workdir, tag + ".graph", write_graph(pg.g)),
                 _roundtrip(workdir, tag + ".minor.cover",
                            write_cover(builders.drum_identity_cover(pg.g)))]
        problems += digests.check("files." + tag, "".join(texts))
        pg = parse_plane(texts[0])
        g = parse_graph(texts[2])
        size = "q%d" % quarter
        if quarter in DRUM_LONG_QUARTERS:
            target, scale = long_ops, "long"
        else:
            target, scale = ops, {15: "small", 60: "large"}.get(quarter, "")
        target += _pipeline_ops(tag, size, scale, digests, pg, parse_cover(texts[1], pg.g),
                                g, parse_cover(texts[3], g), params)
    return Inputs(ops, long_ops, [])


# connected classes each oracle decides: 125 for choosability, 67 for DP
CHOOSABLE_CLASSES = 125
DP_CLASSES = 67


# which part of the sweep decides a class: "timed", "long" (the densest
# classes) or None (not decided)
def _choosable_part(g):
    if g.n <= 5 or g.m <= 8:
        return "timed"
    return "long" if g.m <= 10 else None


def _dp_part(g):
    if (g.n <= 5 and g.m <= 8) or (g.n == 6 and g.m <= 6):
        return "timed"
    return "long" if g.n == 6 and g.m == 7 else None


def oracle_sweep(workdir, digests, problems, long):
    classes = builders.connected_graph_classes(6)
    graphs = [(n, i, parse_graph(write_graph(g)))
              for n in sorted(classes) for i, g in enumerate(classes[n])]
    parts = {"timed": [], "long": []}
    for oracle, call, check, part_of in (
            ("choosable", _choosable, _choosable_check, _choosable_part),
            ("dp", _dp, _dp_check, _dp_part)):
        for n, i, g in graphs:
            part = part_of(g)
            if part is not None:
                key = "%s.n%d.%d" % (oracle, n, i)
                scale = "long" if part == "long" else "large" if n == 6 else "small"
                parts[part].append(Op(key, oracle, "n%dm%d" % (n, g.m), scale,
                                      functools.partial(call, g), check(g, key),
                                      _verdict_tally))
    every = parts["timed"] + parts["long"]
    counts = [sum(1 for op in every if op.kind == k) for k in ("choosable", "dp")]
    if counts != [CHOOSABLE_CLASSES, DP_CLASSES]:
        raise builders.InputDrift("selected %d choosability and %d DP classes, expected %d and %d"
                                  % (counts[0], counts[1], CHOOSABLE_CLASSES, DP_CLASSES))
    return Inputs(parts["timed"], parts["long"] if long else [], [])


def counterexample_check(workdir, digests, problems, long):
    g42, lists = build_G42()
    texts = [_roundtrip(workdir, "G42.graph", write_graph(g42)),
             _roundtrip(workdir, "G42.lists", write_lists(lists))]
    problems += digests.check("files.G42", "".join(texts))
    if parse_graph(texts[0]).edges() != g42.edges() or parse_lists(texts[1]) != lists:
        problems.append("files.G42: parsed files differ from the built instance")
    ops = [Op("verify.H", "verify", "H", "small", functools.partial(_verify, "H"),
              _rows_check("verify.H", 8))]
    for i, (a, b) in enumerate(chain_token_pairs()):
        g, case_lists = chain_case(i)
        ops.append(Op("chain.%s%s" % (a, b), "chain", "G42", "large",
                      functools.partial(_refute, g, case_lists),
                      _refuted_check("chain.%s%s" % (a, b))))
    probes = []
    for n in PATHS + PROBE_PATHS:
        g, path_lists = builders.path_instance(n)
        tag = "path%d" % n
        g = parse_graph(_roundtrip(workdir, tag + ".graph", write_graph(g)))
        path_lists = parse_lists(_roundtrip(workdir, tag + ".lists", write_lists(path_lists)))
        op = Op("solve.n%d" % n, "solve", "n%d" % n, "", functools.partial(_solve, g, path_lists),
                _solve_check(g, path_lists, "solve.n%d" % n))
        (ops if n in PATHS else probes).append(op)
    long_ops = [Op("verify.G42", "verify", "G42", "long", functools.partial(_verify, "G42"),
                   _rows_check("verify.G42", 45))] if long else []
    return Inputs(ops, long_ops, probes)


WORKLOADS = {"hub-planar": hub_planar, "drum-march": drum_march,
             "oracle-sweep": oracle_sweep, "counterexample-check": counterexample_check}
