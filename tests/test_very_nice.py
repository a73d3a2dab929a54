import itertools
import os
import subprocess
import sys

import pytest

from corpus import planar_classes, random_connected_planar
from oracles import vertex_face_incidences

import dpchroma
from dpchroma import core_graph, plane_embed
from dpchroma.core_graph import Graph, blocks_and_cut_vertices
from dpchroma.errors import NotConnected, PreconditionViolated
from dpchroma.generators import generate_hub_instance
from dpchroma.plane_embed import PlaneGraph, is_nice, very_nice_subgraph


def check_direct(pg, h, v_star):
    """Condition-by-condition evaluation, independent of is_nice."""
    blocks = [set(b) for b in blocks_and_cut_vertices(pg.g)[0]]
    deg = {}
    for (v, f) in h:
        deg[v] = deg.get(v, 0) + 1
    if any(d > 2 for d in deg.values()):
        return False
    for fid in range(pg.face_count()):
        vs = set(pg.face_vertices(fid))
        missing = vs - {v for (v, f) in h if f == fid}
        if len(missing) > 2:
            return False
        if missing and not any(missing <= b for b in blocks):
            return False
    outer_vs = set(pg.face_vertices(pg.outer))
    if outer_vs - {v for (v, f) in h if f == pg.outer}:
        return False
    return deg.get(v_star, 0) == 1


def test_base_cases_take_all_of_theta():
    one = PlaneGraph(Graph([4], []), {4: ()})
    assert very_nice_subgraph(one, 4) == {(4, 0)}
    two = PlaneGraph(Graph([0, 1], [(0, 1)]), {0: (1,), 1: (0,)})
    assert very_nice_subgraph(two, 0) == {(0, 0), (1, 0)}


def test_triangle_matches_exhaustive_search():
    g = Graph(range(3), [(0, 1), (1, 2), (0, 2)])
    pg = PlaneGraph(g, {0: (1, 2), 1: (2, 0), 2: (0, 1)})
    all_edges = sorted(vertex_face_incidences(pg))
    for v_star in range(3):
        good = set()
        for r in range(len(all_edges) + 1):
            for sub in itertools.combinations(all_edges, r):
                if check_direct(pg, set(sub), v_star):
                    good.add(frozenset(sub))
        assert good, "search found no very nice subgraph"
        h = very_nice_subgraph(pg, v_star)
        assert h in good
        # the checker and the direct evaluation agree on every subset
        for r in range(len(all_edges) + 1):
            for sub in itertools.combinations(all_edges, r):
                ok, _ = is_nice(pg, set(sub), very=v_star)
                assert ok == check_direct(pg, set(sub), v_star)


def test_full_theta_on_k4_is_not_nice():
    g = Graph(range(4), [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    pg = PlaneGraph(g, {0: (1, 3, 2), 1: (2, 3, 0), 2: (0, 3, 1), 3: (2, 0, 1)})
    ok, viol = is_nice(pg, vertex_face_incidences(pg))
    assert not ok
    assert any("covered 3" in v for v in viol)


def test_preconditions():
    g = Graph(range(4), [(0, 1), (2, 3)])
    with pytest.raises(NotConnected):
        PlaneGraph(g, {0: (1,), 1: (0,), 2: (3,), 3: (2,)})
    tri = PlaneGraph(Graph(range(4), [(0, 1), (1, 2), (0, 2), (0, 3)]),
                     {0: (1, 2, 3), 1: (2, 0), 2: (0, 1), 3: (0,)})
    inner = [f for f in range(tri.face_count()) if 3 not in tri.face_vertices(f)]
    pg2 = PlaneGraph(tri.g, tri.rot)
    pg2.outer = inner[0]
    with pytest.raises(PreconditionViolated):
        very_nice_subgraph(pg2, 3)


def test_sweep_small_classes_every_outer_and_vstar():
    # the construction self-checks; surviving the sweep is the assertion
    ran = 0
    for n in range(1, 6):
        for g, rot in planar_classes(n):
            pg = PlaneGraph(g, rot)
            for outer in range(pg.face_count()):
                pg.outer = outer
                for v_star in sorted(pg.face_vertices(pg.outer)):
                    h = very_nice_subgraph(pg, v_star)
                    ok, viol = is_nice(pg, h, very=v_star)
                    assert ok, viol
                    ran += 1
    assert ran > 250


def test_sweep_random_planar():
    for seed in range(12):
        g, rot = random_connected_planar(8 + seed, extra_edges=seed % 4, seed=seed)
        pg = PlaneGraph(g, rot)
        v_star = min(pg.face_vertices(pg.outer))
        h = very_nice_subgraph(pg, v_star)
        assert is_nice(pg, h, very=v_star)[0]


def test_no_python_recursion_on_long_rims():
    # n = 243: one reduction per vertex would pass a recursion limit of 200
    src = os.path.dirname(os.path.dirname(os.path.abspath(dpchroma.__file__)))
    script = (
        "import sys\n"
        "from dpchroma.generators import generate_hub_instance\n"
        "from dpchroma.plane_embed import very_nice_subgraph\n"
        "pg, _ = generate_hub_instance(3, 240, 1)\n"
        "sys.setrecursionlimit(200)\n"
        "h = very_nice_subgraph(pg, min(pg.face_vertices(pg.outer)))\n"
        "print(pg.g.n, len({v for v, _ in h}))\n")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert (out.returncode, out.stdout) == (0, "243 243\n"), out.stderr[-2000:]


def test_no_per_level_rebuild(monkeypatch):
    """Full face traces and block decompositions per call do not grow
    with the instance: a rebuild at every reduction would show here as
    counts that quadruple from rim 60 to rim 240."""
    calls = {"trace": 0, "blocks": 0}
    trace, blocks = PlaneGraph.__init__, core_graph.blocks_and_cut_vertices

    def counted_trace(self, *args):
        calls["trace"] += 1
        trace(self, *args)

    def counted_blocks(*args):
        calls["blocks"] += 1
        return blocks(*args)

    counts = []
    for rim in (60, 240):
        pg = generate_hub_instance(3, rim, 1)[0]
        with monkeypatch.context() as m:
            m.setattr(PlaneGraph, "__init__", counted_trace)
            m.setattr(core_graph, "blocks_and_cut_vertices", counted_blocks)
            very_nice_subgraph(pg, min(pg.face_vertices(pg.outer)))
        counts.append(dict(calls))
        calls.update(trace=0, blocks=0)
    assert counts[0] == counts[1], counts


def test_undo_restores_the_working_drawing():
    """Each surgery's undo record puts back every rotation link, head,
    edge label and face representative, whatever the surgery cut."""
    def state(wd):
        return ({v: dict(s) for v, s in wd.succ.items()}, {v: dict(p) for v, p in wd.pred.items()},
                dict(wd.head), dict(wd.ef), dict(wd.rep))

    cuts = smooths = 0
    for seed in range(8):
        pg = PlaneGraph(*random_connected_planar(10 + seed, seed % 4, seed))
        wd = plane_embed._Drawing(pg)
        before = state(wd)
        for v in sorted(pg.g.vertices):
            for dead in ({v}, {v} | set(sorted(pg.g.adj[v])[:1])):
                left = [de for f in pg.faces_at(v) for de in pg.face_walk(f)
                        if not dead & set(de)]
                if left:
                    wd.uncut(wd.cut(dead, wd.fresh, left[0]))
                    assert state(wd) == before, (seed, dead)
                    cuts += 1
            if pg.g.degree(v) == 2:
                x, y = sorted(pg.g.adj[v])
                if not pg.g.has_edge(x, y):
                    f1, f2 = wd.ef[(x, v)], wd.ef[(y, v)]
                    wd.unsmooth(wd.smooth(v, x, y, f1, f2))
                    assert state(wd) == before, (seed, v)
                    smooths += 1
    assert cuts > 150 and smooths > 10, (cuts, smooths)
