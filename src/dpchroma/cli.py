"""Command-line front end and report plumbing."""

from __future__ import annotations

import argparse
import sys

from .constructions import (build_G42, build_H, build_k2_k2, build_ks_minus1,
                            verify_counterexample)
from .core_graph import parse_graph, write_graph
# not called here; kept bound because perfbench/layers.py wraps it by name
from .core_graph import connectivity_at_least
from .dp_cover import find_dp_coloring, parse_cover, parse_lists, write_cover, write_lists
from .errors import Diagnostic, InputError
from .exact_oracle import solve_list
from .generators import (drum_forcing_cover, drum_identity_cover, drum_plane,
                         generate_hub_instance)
from .minor_truncated import color_minor_truncated, constants
from .plane_embed import parse_plane, very_nice_subgraph, write_plane
from .planar_truncated import color_planar_truncated

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
    if args.family == "drum":
        pg = drum_plane(480, perm=(0, 3, 1, 2))
        _write(args.out + ".plane", write_plane(pg))
        _write(args.out + ".graph", write_graph(pg.g))
        _write(args.out + ".forcing.cover", write_cover(drum_forcing_cover(pg)))
        _write(args.out + ".identity.cover", write_cover(drum_identity_cover(pg.g)))
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
    rows = verify_counterexample(args.family, k=args.k, s=args.s)
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
        try:
            key, number = keys[name], int(value)
        except (KeyError, ValueError):
            raise ValueError("bad override %r (use q=,k=,peel=,degen=)" % item) from None
        if key in out:
            raise ValueError("bad override %r (%s= is given twice)" % (item, name))
        out[key] = number
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
    b.add_argument("--family", required=True, choices=["H", "G42", "k2k2", "ks", "drum"])
    b.add_argument("--k", type=int)
    b.add_argument("--s", type=int)
    b.add_argument("--out", required=True, help="output path prefix")
    b.set_defaults(func=cmd_build)

    v = sub.add_parser("verify", help="run a family's checks and report")
    v.add_argument("--family", required=True, choices=["H", "G42", "k2k2", "ks"])
    v.add_argument("--k", type=int)
    v.add_argument("--s", type=int)
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
    except (InputError, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except Diagnostic as exc:
        print("diagnostic: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
