"""Acceptance sweep: one test and one printed verdict line per criterion.

Run with -s to watch the lines; every line must say PASS.  Budgets are
asserted, not aspirational: a slow run fails the test.
"""

import math
import time

import networkx as nx

from corpus import (connected_graph_classes, nx_planar_rotation,
                    planar_classes, random_connected_planar)
from dpchroma.constructions import verify_counterexample
from dpchroma.core_graph import (Graph, connected_components, degeneracy_order,
                                 is_gallai_tree, is_gdp_tree)
from dpchroma.dp_cover import (Cover, degree_truncated_sizes,
                               is_coloring_valid, write_cover)
from dpchroma.errors import InstanceTooLarge
from dpchroma.exact_oracle import is_degree_choosable, is_degree_dp_colorable
from dpchroma.generators import (Xorshift64Star, generate_hub_instance,
                                 random_tight_matchings)
from dpchroma.minor_truncated import (color_minor_truncated, constants,
                                      contract_components, peel_sequence,
                                      select_sublists)
from dpchroma.plane_embed import (PlaneGraph, is_nice, very_nice_subgraph,
                                  write_plane)
from dpchroma.planar_truncated import color_planar_truncated, partition_threshold


def _verdict(num, name, ok, detail):
    print("ACCEPTANCE %d %s: %s (%s)" % (num, name, "PASS" if ok else "FAIL", detail))
    assert ok, "%d %s: %s" % (num, name, detail)


def _polyhedron(name):
    G = getattr(nx, name)()
    g = Graph(sorted(G.nodes()), [(min(u, w), max(u, w)) for u, w in G.edges()])
    return PlaneGraph(g, nx_planar_rotation(g))


def test_acceptance_1_counterexample_h():
    t0 = time.perf_counter()
    rows = verify_counterexample("H")
    dt = time.perf_counter() - t0
    names = {r[0] for r in rows}
    need = {"no-list-coloring", "no-cover-coloring", "planar-embedding",
            "three-connected", "pair-split-claim", "forcing-claim",
            "cascade-claim"}
    ok = all(r[1] for r in rows) and need <= names and dt < 10.0
    _verdict(1, "counterexample-H", ok, "%d checks, %.2fs" % (len(rows), dt))


def test_acceptance_2_chain_of_42():
    t0 = time.perf_counter()
    rows = verify_counterexample("G42")
    dt = time.perf_counter() - t0
    cases = [r for r in rows if r[0].startswith("case-")]
    ok = all(r[1] for r in rows) and len(cases) == 42 and dt < 300.0
    _verdict(2, "42-copy-chain", ok, "%d rows, 42 cases, %.1fs" % (len(rows), dt))


def test_acceptance_3_tight_families():
    worst = 0.0
    bad = []
    jobs = [("k2k2", {"k": 1}), ("k2k2", {"k": 2}), ("k2k2", {"k": 3}),
            ("ks", {"s": 2, "k": 2}), ("ks", {"s": 2, "k": 3}),
            ("ks", {"s": 3, "k": 2}), ("ks", {"s": 3, "k": 3})]
    for name, kw in jobs:
        t0 = time.perf_counter()
        rows = verify_counterexample(name, **kw)
        dt = time.perf_counter() - t0
        worst = max(worst, dt)
        if not all(r[1] for r in rows) or dt >= 5.0:
            bad.append((name, kw, dt))
    _verdict(3, "sharpness-families", not bad,
             "%d verifies, worst %.2fs" % (len(jobs), worst))


def test_acceptance_4_characterizations():
    t0 = time.perf_counter()
    mismatch = []
    n_ch = n_dp = 0
    for n in range(1, 8):
        for g in connected_graph_classes(n):
            n_ch += 1
            if is_gallai_tree(g) != (not is_degree_choosable(g)[0]):
                mismatch.append(("choosable", n, g.edges()))
    # K6, K5 plus a pendant and the octahedron are refused: too many covers
    refused = 0
    for n in range(1, 7):
        for g in connected_graph_classes(n):
            try:
                colorable = is_degree_dp_colorable(g)[0]
            except InstanceTooLarge:
                refused += 1
                continue
            n_dp += 1
            if is_gdp_tree(g) != (not colorable):
                mismatch.append(("dp", n, g.edges()))
    dt = time.perf_counter() - t0
    ok = not mismatch and n_ch == 996 and n_dp == 140 and refused == 3 and dt < 30.0
    _verdict(4, "degree-colorability-characterizations", ok,
             "%d choosable + %d dp classes, %d refused, %d mismatches, %.0fs"
             % (n_ch, n_dp, refused, len(mismatch), dt))


def test_acceptance_5_covering_subgraphs():
    count = 0
    violations = []
    for n in range(1, 7):
        for g, rot in planar_classes(n):
            pg = PlaneGraph(g, rot)
            v_star = min(pg.face_vertices(pg.outer))
            ok, viol = is_nice(pg, very_nice_subgraph(pg, v_star), very=v_star)
            count += 1
            if not ok:
                violations.append((n, g.edges(), viol))
    for n in range(7, 41):
        for seed in (1, 2, 3):
            g, rot = random_connected_planar(n, n // 2, 1000 * n + seed)
            pg = PlaneGraph(g, rot)
            v_star = min(pg.face_vertices(pg.outer))
            ok, viol = is_nice(pg, very_nice_subgraph(pg, v_star), very=v_star)
            count += 1
            if not ok:
                violations.append((n, seed, viol))
    ok = count >= 200 and not violations
    _verdict(5, "very-nice-subgraphs", ok,
             "%d embeddings, %d violations" % (count, len(violations)))


def test_acceptance_6_planar_pipeline():
    bad = 0
    for name in ("icosahedral_graph", "dodecahedral_graph"):
        pg = _polyhedron(name)
        sizes = degree_truncated_sizes(pg.g, 16)
        for seed in range(1, 101):
            rng = Xorshift64Star(seed)
            cov = Cover(pg.g, sizes, random_tight_matchings(pg.g, sizes, rng))
            if not is_coloring_valid(cov, color_planar_truncated(pg, cov)):
                bad += 1
    cells = [(1, r) for r in (20, 30, 40, 50, 60)]
    cells += [(2, r) for r in (20, 30, 40, 50, 60)]
    cells += [(3, r) for r in (30, 40, 50, 60)]
    ran = 0
    worst = 0.0
    for ci, (hubs, rim) in enumerate(cells):
        for j in range(3 if hubs == 3 else 4):
            pg, cov = generate_hub_instance(hubs, rim, 100 * ci + j + 1)
            t0 = time.perf_counter()
            phi = color_planar_truncated(pg, cov)
            worst = max(worst, time.perf_counter() - t0)
            if not is_coloring_valid(cov, phi):
                bad += 1
            ran += 1
    # C1-C4/D1/D2 are asserted inside the pipeline after every move, so
    # completion already certifies them; InternalInvariantBreach would fail here.
    ok = bad == 0 and ran >= 50 and worst < 5.0
    _verdict(6, "planar-pipeline", ok,
             "200 polyhedral covers, %d hub instances, worst %.2fs" % (ran, worst))


def test_acceptance_7_minor_pipeline():
    p22 = constants(2, 2)
    alt_q = 4 ** 3 * math.factorial(2) * 2 * 2 * (2 + 2 - 1) + 1
    alt_k = (1 << 4) * 2 * alt_q
    ok = (p22.q, p22.k) == (1537, 49184) == (alt_q, alt_k)
    for s, t in ((1, 2), (2, 3), (3, 2), (4, 4)):
        p = constants(s, t)
        aq = 4 ** (s + 1) * math.factorial(s) * s * t * (s + t - 1) + 1
        ok = ok and p.q == aq and p.k == (1 << (s + 2)) * t * aq

    from test_minor_truncated import two_c5_instance

    checked = 0
    bad = []
    runs = [(2, 2, hubs_rim, seed)
            for hubs_rim in ((2, 24), (2, 32), (2, 40))
            for seed in range(1, 6)]
    runs += [(3, 3, hubs_rim, seed)
             for hubs_rim in ((3, 30), (3, 36), (3, 44))
             for seed in range(1, 6)]
    for s, hubs, (_, rim), seed in runs:
        pg, cov = generate_hub_instance(hubs, rim, seed)
        g = pg.g
        params = constants(s, 2).with_overrides(q=6, k=16, peel_bound=2,
                                                degeneracy_bound=1)
        bad += _minor_bullets(g, cov, params, "hub s=%d rim=%d seed=%d"
                              % (s, rim, seed))
        checked += 1
    g, cov = two_c5_instance()
    params = constants(2, 2).with_overrides(q=7, k=10, peel_bound=2,
                                            degeneracy_bound=1)
    bad += _minor_bullets(g, cov, params, "two-c5")
    checked += 1
    ok = ok and not bad and checked >= 30
    _verdict(7, "minor-pipeline", ok,
             "constants pinned, %d instances, %d bullet failures"
             % (checked, len(bad)))


def _minor_bullets(g, cov, params, tag):
    """Re-derive the plan and check every property the pipeline relies on."""
    bad = []
    v1, v2 = partition_threshold(g, params.k)
    order_w = degeneracy_order(g.subgraph(v2), params.degeneracy_bound)
    sub = select_sublists(g, order_w, cov, params.q)
    for v in v2:
        if len(sub[v]) != params.q:
            bad.append((tag, "sublist size", v))
    for u, w in g.edges():
        if u in sub and w in sub:
            if any(cov.partner(u, i, w) in sub[w] for i in sub[u]):
                bad.append((tag, "matched pair across sublists", (u, w)))
    gp, node_of = contract_components(g, connected_components(g.subgraph(v1)), v2, params.s)
    order, parts = peel_sequence(gp, set(v2), params.peel_bound)
    nodes = sorted(set(node_of.values()))
    placed = sorted(n for part in parts for n in part)
    if placed != nodes or sorted(order) != sorted(v2):
        bad.append((tag, "peel plan is not a partition"))
    cost_cap = params.s + params.t - 1
    for i, part in enumerate(parts):
        if part and not cost_cap * len(part) < params.q:
            bad.append((tag, "per-step budget", i))
        for node in part:
            if any(order[j] in gp.adj[node] for j in range(i + 1, len(order))):
                bad.append((tag, "node outlives its protector", node))
    phi = color_minor_truncated(g, cov, params)
    if not is_coloring_valid(cov, phi):
        bad.append((tag, "invalid coloring"))
    return bad


def test_acceptance_8_determinism():
    from test_minor_truncated import two_c5_instance

    diffs = 0
    for hubs, rim, seed in ((1, 20, 3), (2, 26, 21), (3, 34, 9)):
        outs = []
        for _ in range(2):
            pg, cov = generate_hub_instance(hubs, rim, seed)
            trace = []
            phi = color_planar_truncated(pg, cov, trace=trace)
            outs.append(("\n".join(trace) + repr(sorted(phi.items()))
                         + write_plane(pg) + write_cover(cov)).encode())
        if outs[0] != outs[1]:
            diffs += 1
    g, cov = two_c5_instance()
    params = constants(2, 2).with_overrides(q=7, k=10, peel_bound=2,
                                            degeneracy_bound=1)
    outs = []
    for _ in range(2):
        trace = []
        phi = color_minor_truncated(g, cov, params, trace=trace)
        outs.append(("\n".join(trace) + repr(sorted(phi.items()))).encode())
    if outs[0] != outs[1]:
        diffs += 1
    _verdict(8, "byte-identical-reruns", diffs == 0, "%d diffs" % diffs)
