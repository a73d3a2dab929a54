import copy
import itertools
import os
import subprocess
import sys
from types import SimpleNamespace

import pytest

from corpus import nx_planar_rotation
from oracles import is_safe, reference_finish
from test_minor_truncated import drum_minor_instance
import dpchroma
from dpchroma import core_graph, dp_cover, minor_truncated, planar_truncated, plane_embed
from dpchroma.core_graph import Graph, connectivity_at_least
from dpchroma.dp_cover import Cover, degree_truncated_sizes, find_dp_coloring, is_coloring_valid
from dpchroma.errors import (EmptyResidualList, GDPTreeTight, InternalInvariantBreach,
                             PreconditionViolated)
from dpchroma.generators import (Xorshift64Star, drum_forcing_cover, drum_plane,
                                 generate_hub_instance, random_tight_matchings)
from dpchroma.minor_truncated import color_minor_truncated, constants
from dpchroma.plane_embed import FaceClasses, PlaneGraph, augment_visibility
from dpchroma.planar_truncated import (PipelineState, color_planar_truncated,
                                       finish, partition_threshold,
                                       plan_order, step_r1, step_r2)


def nx_plane(name):
    import networkx as nx

    G = {"icosahedron": nx.icosahedral_graph,
         "dodecahedron": nx.dodecahedral_graph}[name]()
    g = Graph(range(G.number_of_nodes()),
              [(min(u, w), max(u, w)) for u, w in G.edges()])
    return PlaneGraph(g, nx_planar_rotation(g))


def tight_cover(g, seed):
    sizes = degree_truncated_sizes(g, 16)
    return Cover(g, sizes, random_tight_matchings(g, sizes, Xorshift64Star(seed)))


def test_partition_threshold():
    ico = nx_plane("icosahedron").g
    v1, v2 = partition_threshold(ico)
    assert v2 == frozenset() and v1 == ico.vertices
    star = Graph(range(21), [(0, i) for i in range(1, 21)])
    assert partition_threshold(star)[1] == frozenset({0})
    for hubs, rim in ((1, 20), (2, 24), (3, 31)):
        pg, _ = generate_hub_instance(hubs, rim, 1)
        v1, v2 = partition_threshold(pg.g)
        assert v2 == frozenset(range(rim, rim + hubs))


def test_plan_order():
    assert plan_order(FaceClasses(nx_plane("icosahedron"), set())) == []
    pg, _ = generate_hub_instance(3, 34, 2)
    v2 = {34, 35, 36}
    fc = FaceClasses(augment_visibility(pg, v2), v2)
    g = fc.pg.g
    assert g.has_edge(34, 35) and not pg.g.has_edge(34, 35)  # the chord is drawn
    order = plan_order(fc)
    assert order == [35, 34, 36]  # fan hubs contiguous, then the outer hub
    pos = {v: i for i, v in enumerate(order)}
    for v in order:
        assert sum(1 for w in g.adj[v] if w in pos and pos[w] < pos[v]) <= 5


def test_is_safe_examples():
    p3 = Graph(range(3), [(0, 1), (1, 2)])
    tight = Cover(p3, {0: 1, 1: 2, 2: 1}, {})
    assert not is_safe(p3, tight, [0, 1, 2], {})
    c5 = Graph(range(5), [(i, (i + 1) % 5) for i in range(5)])
    surplus = Cover(c5, {0: 3, 1: 2, 2: 2, 3: 2, 4: 2}, {})
    assert is_safe(c5, surplus, range(5), {})
    k4e = Graph(range(4), [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    sizes = {v: k4e.degree(v) for v in range(4)}
    assert is_safe(k4e, Cover(k4e, sizes, {}), range(4), {})
    # a colored neighbor that removes no color leaves a surplus
    part = Cover(p3, {0: 1, 1: 2, 2: 1}, {(0, 1): [(0, 0)]})
    assert is_safe(p3, part, [1, 2], {0: (0, 0)}) is False
    assert is_safe(p3, Cover(p3, {0: 1, 1: 2, 2: 1}, {}), [1, 2], {0: (0, 0)})


def test_v2_empty_polyhedra():
    for name in ("icosahedron", "dodecahedron"):
        pg = nx_plane(name)
        for seed in (1, 2, 3, 4, 5):
            cover = tight_cover(pg.g, seed)
            trace = []
            phi = color_planar_truncated(pg, cover, trace=trace)
            assert trace == []  # no high-degree part, the finisher does it all
            assert is_coloring_valid(cover, phi)
    pg = nx_plane("icosahedron")
    cover = tight_cover(pg.g, 77)
    assert find_dp_coloring(cover) is not None


def two_k4_plane():
    """Two K4s glued along the edge 01: 2-connected, minimum degree 3,
    and {0, 1} is a 2-cut."""
    g = Graph(range(6), list(itertools.combinations((0, 1, 2, 3), 2))
              + list(itertools.combinations((0, 1, 4, 5), 2))[1:])
    return PlaneGraph(g, {0: (1, 3, 2, 4, 5), 1: (0, 5, 4, 2, 3), 2: (0, 3, 1),
                          3: (0, 1, 2), 4: (0, 1, 5), 5: (0, 4, 1)})


def test_preconditions():
    k4 = Graph(range(4), list(itertools.combinations(range(4), 2)))
    pk4 = PlaneGraph(k4, {0: (1, 3, 2), 1: (2, 3, 0), 2: (0, 3, 1), 3: (2, 0, 1)})
    with pytest.raises(PreconditionViolated):
        color_planar_truncated(pk4, Cover(k4, {v: 3 for v in range(4)}, {}))
    c5 = Graph(range(5), [(i, (i + 1) % 5) for i in range(5)])
    pc5 = PlaneGraph(c5, {i: ((i + 1) % 5, (i - 1) % 5) for i in range(5)})
    with pytest.raises(PreconditionViolated):
        color_planar_truncated(pc5, Cover(c5, {v: 2 for v in range(5)}, {}))
    pg, cover = generate_hub_instance(1, 20, 1)
    sizes = dict(cover.sizes)
    sizes[0] -= 1
    with pytest.raises(PreconditionViolated):
        color_planar_truncated(pg, Cover(pg.g, sizes, {}))
    pg = two_k4_plane()
    g = pg.g
    assert connectivity_at_least(g, 2) and min(map(g.degree, g.vertices)) == 3
    with pytest.raises(PreconditionViolated, match="^input graph is not 3-connected$"):
        color_planar_truncated(pg, Cover(g, {v: g.degree(v) for v in g.vertices}, {}))


def count_calls(monkeypatch, name):
    calls = []
    real = getattr(core_graph, name)

    def counting(g):
        calls.append(g.n)
        return real(g)

    monkeypatch.setattr(core_graph, name, counting)
    return calls


def test_no_per_vertex_pass_on_drawings(monkeypatch):
    # the drawn inputs take the one 3-connectivity path: one search each
    calls = count_calls(monkeypatch, "_palm_tree")
    searches = count_calls(monkeypatch, "_no_separation_pair")
    pg, cover = generate_hub_instance(3, 240, 1)
    assert calls == [243]
    assert searches == [243]
    calls.clear()
    searches.clear()
    color_planar_truncated(pg, cover)
    assert calls == [243]
    assert searches == [243]


def test_no_per_vertex_pass_on_abstract_graphs(monkeypatch):
    pg, cover = generate_hub_instance(3, 240, 1)
    calls = count_calls(monkeypatch, "_palm_tree")
    searches = count_calls(monkeypatch, "_no_separation_pair")
    params = constants(3, 2).with_overrides(q=6, k=16, peel_bound=2, degeneracy_bound=1)
    phi = color_minor_truncated(pg.g, cover, params)
    assert is_coloring_valid(cover, phi)
    assert calls == [243]
    assert searches == [243]


def test_hub_instances_color():
    for hubs, rims in ((1, (20, 45)), (2, (24, 60)), (3, (30, 52))):
        for rim in rims:
            for seed in (1, 9):
                pg, cover = generate_hub_instance(hubs, rim, seed)
                trace = []
                phi = color_planar_truncated(pg, cover, trace=trace)
                assert is_coloring_valid(cover, phi)
                assert sum(1 for ln in trace if ln.startswith("R2")) == hubs


def test_pipeline_deterministic():
    runs = []
    for _ in range(2):
        pg, cover = generate_hub_instance(3, 40, 13)
        trace = []
        phi = color_planar_truncated(pg, cover, trace=trace)
        runs.append(("\n".join(trace), sorted(phi.items())))
    assert runs[0] == runs[1]


def test_drum_double_protection():
    pg = drum_plane()
    assert connectivity_at_least(pg.g, 3)
    cover = tight_cover(pg.g, 1)
    trace = []
    phi = color_planar_truncated(pg, cover, trace=trace)
    assert is_coloring_valid(cover, phi)
    # the ring of hubs bounds two face classes; the first hub serves both
    # and finds both cycles unsafe, so one color protects two components
    assert trace[0].startswith("R2 11 ") and trace[0].endswith("protects 0 12")


def test_drum_r1_march():
    pg = drum_plane(perm=(0, 3, 1, 2))
    cover = drum_forcing_cover(pg)
    traces = []
    for _ in range(2):
        trace = []
        phi = color_planar_truncated(pg, cover, trace=trace)
        assert is_coloring_valid(cover, phi)
        traces.append(list(trace))
    assert traces[0] == traces[1]
    trace = traces[0]
    assert trace[0] == "R2 11 11.3 protects 0"
    r1 = [ln for ln in trace if ln.startswith("R1")]
    assert len(r1) == 14 and r1[0] == "R1 28 28.1" and r1[-1] == "R1 41 41.2"
    assert "R2 9 9.0 protects 12" in trace


@pytest.mark.parametrize("pipeline", ["planar", "minor"])
@pytest.mark.parametrize("quarter", [30, 60])
def test_no_block_search_per_step(monkeypatch, quarter, pipeline):
    """The steps edit the block-cut record in place: each component's
    uncolored part is built and searched for blocks once at set-up and
    once in the closing full check, however long the (R1) march.
    Counted: block searches through planar_truncated's binding, the
    splits of G[V1] from any caller, and the other subgraphs that
    planar_truncated's own code builds."""
    pg = drum_plane(quarter, perm=(0, 3, 1, 2))
    v1, _ = partition_threshold(pg.g)
    comps = len(core_graph.connected_components(pg.g.subgraph(v1)))
    searches = []
    blocks = planar_truncated.blocks_and_cut_vertices

    def counted(g):
        searches.append(g.n)
        return blocks(g)

    kept = []
    splits = []
    subgraph = Graph.subgraph

    def counting(self, keep):
        sub = subgraph(self, keep)
        if sub.vertices == v1:
            splits.append(sub.vertices)
        elif sys._getframe(1).f_globals["__name__"] == planar_truncated.__name__:
            kept.append(sub.vertices)
        return sub

    monkeypatch.setattr(planar_truncated, "blocks_and_cut_vertices", counted)
    monkeypatch.setattr(Graph, "subgraph", counting)
    trace = []
    if pipeline == "planar":
        color_planar_truncated(pg, drum_forcing_cover(pg), trace=trace)
    else:
        color_minor_truncated(*drum_minor_instance(quarter, (0, 3, 1, 2)), trace=trace)
    assert sum(ln.startswith("R1") for ln in trace) >= quarter - 1
    assert len(splits) == 1  # G[V1], split into its components at set-up
    assert len(kept) <= 2 * comps, kept
    assert len(searches) <= 2 * comps, searches


def drop_cut_vertex(state, qi):
    # list a cut vertex that nothing else keeps from (R1) in one block only
    x = min(v for v in state.rest(qi) if len(state.blocks_of[v]) > 1
            and all(w not in state.v2 or w in state.phi for w in state.g.adj[v]))
    state.blocks_of[x] = state.blocks_of[x][:1]


def desync_residual_degree(state, qi):
    state.res[state.rest(qi)[-1]] += 1


# name -> (corrupt(state, qi), the check that must catch it)
CORRUPTIONS = {
    "drop-cut-vertex": (drop_cut_vertex, "(C1)"),
    "tight-marked-safe": (lambda state, qi: state.safe.add(qi), "(C3)"),
    "residual-degree-desync": (desync_residual_degree, "(C2)"),
}


def run_corrupted(name, after=3):
    """The minor pipeline's drum run (quarter 15, perm (0, 3, 1, 2)),
    with CORRUPTIONS[name] applied to the marched component right after
    the given (R1) step.  On the planar drum under drum_forcing_cover,
    a tight component marked safe early is left with a vertex of list
    surplus by the next (R2) step, so no check could ever see that one."""
    corrupt = CORRUPTIONS[name][0]
    g, cover, params = drum_minor_instance(15, (0, 3, 1, 2))
    trace = []
    real = minor_truncated.step_r1

    def step(state):
        out = real(state)
        if out and sum(ln.startswith("R1") for ln in trace) == after:
            corrupt(state, state.comp_of[int(trace[-1].split()[1])])
        return out

    minor_truncated.step_r1 = step
    try:
        return color_minor_truncated(g, cover, params, trace=trace)
    finally:
        minor_truncated.step_r1 = real


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_corrupted_record_is_caught(name):
    with pytest.raises(InternalInvariantBreach) as caught:
        run_corrupted(name)
    assert str(caught.value).startswith(CORRUPTIONS[name][1])


def test_corrupted_record_is_caught_under_optimize():
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.abspath(dpchroma.__file__))
    script = (
        "import sys\n"
        "sys.path.insert(0, %r)\n"
        "from dpchroma.errors import InternalInvariantBreach\n"
        "from test_planar_truncated import run_corrupted\n"
        "try:\n"
        "    run_corrupted('tight-marked-safe')\n"
        "except InternalInvariantBreach as exc:\n"
        "    print(sys.flags.optimize, exc)\n" % tests)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(src) + os.pathsep
               + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=60)
    assert (out.returncode, out.stdout) == (0, "1 (C3) safety revoked on component 12\n"), \
        out.stderr


def test_set_up_builds_the_face_classes_once(monkeypatch):
    built = []
    init = plane_embed.FaceClasses.__init__

    def counting(self, pg, v2):
        built.append(len(v2))
        init(self, pg, v2)

    monkeypatch.setattr(plane_embed.FaceClasses, "__init__", counting)
    for hubs, rim in ((2, 60), (3, 60)):
        built.clear()
        pg, cover = generate_hub_instance(hubs, rim, 7)
        color_planar_truncated(pg, cover)
        assert built == [hubs]


def test_set_up_builds_g_v2_once(monkeypatch):
    pg, cover = generate_hub_instance(3, 60, 7)
    v1, v2 = partition_threshold(pg.g)
    kept = []
    subgraph = Graph.subgraph

    def counting(self, keep):
        sub = subgraph(self, keep)
        kept.append(sub.vertices)
        return sub

    monkeypatch.setattr(Graph, "subgraph", counting)
    PipelineState(pg, cover, v1, v2)
    assert kept.count(v2) == 1


def test_step_functions_direct():
    pg = drum_plane(perm=(0, 3, 1, 2))
    cover = drum_forcing_cover(pg)
    v1, v2 = partition_threshold(pg.g)
    st = PipelineState(pg, cover, v1, v2)
    assert step_r1(st) is False  # every low vertex still sees an uncolored hub
    step_r2(st)
    assert st.phi[11] == (11, 3)
    assert step_r1(st) is True and st.phi[28] == (28, 1)
    st.avail[29].clear()
    with pytest.raises(EmptyResidualList):
        step_r1(st)


def test_step_r2_checks_turn_colors_under_optimize():
    # the wheel's hub reaches its turn with 10 < 16 - 5 colors: (C4)
    src = os.path.dirname(os.path.dirname(os.path.abspath(dpchroma.__file__)))
    script = (
        "import sys\n"
        "from dpchroma.errors import InternalInvariantBreach\n"
        "from dpchroma.generators import generate_hub_instance\n"
        "from dpchroma.planar_truncated import PipelineState, partition_threshold, step_r2\n"
        "pg, cover = generate_hub_instance(1, 20, 1)\n"
        "st = PipelineState(pg, cover, *partition_threshold(pg.g))\n"
        "st.avail[20] = set(range(10))\n"
        "try:\n"
        "    step_r2(st)\n"
        "except InternalInvariantBreach as exc:\n"
        "    print(sys.flags.optimize, exc)\n")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=60)
    assert (out.returncode, out.stdout) == (0, "1 (C4) 20 reached its turn with 10 colors\n"), \
        out.stderr


def test_step_r2_follows_the_state_caps():
    class CheapCap(PipelineState):
        __slots__ = ()
        cost_cap = 2  # a rim vertex has residual degree 3

    class NoProtector(PipelineState):
        __slots__ = ()
        protector_cap = 0

    pg, cover = generate_hub_instance(1, 20, 1)
    v1, v2 = partition_threshold(pg.g)
    st = CheapCap(pg, cover, v1, v2)
    step_r2(st)  # the rim has no cheap neighbor: skipped, not protected
    assert 20 in st.phi and not st.protectors
    with pytest.raises(InternalInvariantBreach, match=r"\(D1\)"):
        step_r2(NoProtector(pg, cover, v1, v2))
    st = PipelineState(pg, cover, v1, v2)
    step_r2(st)
    assert st.protectors == {0: 20}


def test_step_r1_nomove_when_all_safe():
    pg = nx_plane("icosahedron")
    cover = tight_cover(pg.g, 3)
    v1, v2 = partition_threshold(pg.g)
    st = PipelineState(pg, cover, v1, v2)
    assert step_r1(st) is False
    assert st.safe == {0}


def test_finish_rejects_desafed_state():
    p3 = Graph(range(3), [(0, 1), (1, 2)])
    cover = Cover(p3, {0: 1, 1: 2, 2: 1}, {(0, 1): [(0, 0)], (1, 2): [(1, 0)]})
    state = SimpleNamespace(v2=frozenset(), phi={}, cover=cover, comps=((0, 1, 2),),
                            avail={v: set(range(cover.sizes[v])) for v in range(3)})
    with pytest.raises(GDPTreeTight):
        finish(state)


def drifting_finish(finish):
    """finish, once the smallest uncolored vertex has lost its smallest
    live color from the state's lists."""
    def run(state):
        v = min(state.g.vertices - state.phi.keys())
        state.avail[v].discard(min(state.avail[v]))
        return finish(state)
    return run


def clashing_greedy(greedy):
    """_greedy_color, except that the last vertex of the order, whose
    neighbors in the order are all colored by then, takes its smallest
    struck color."""
    def run(cover, avail, coloring, order):
        greedy(cover, avail, coloring, order[:-1])
        v = order[-1]
        dp_cover.color_vertex(cover, avail, coloring, v,
                              min(set(range(cover.sizes[v])) - avail[v]))
    return run


# name -> (owner, attribute, its broken version from the real one, the
# check that must catch it)
FINISH_BREAKS = {
    "drifted-list": (planar_truncated, "finish", drifting_finish, "availability drifted at "),
    "clashing-pick": (dp_cover, "_greedy_color", clashing_greedy,
                      "the finished coloring is not valid"),
}


def run_broken_finish(name):
    """color-planar on the drum march at quarter 15 with
    FINISH_BREAKS[name]: one live list of the closing state corrupted
    before finish, or the finisher's greedy given a clashing pick."""
    owner, attr, brk, _ = FINISH_BREAKS[name]
    pg = drum_plane(15, perm=(0, 3, 1, 2))
    cover = drum_forcing_cover(pg)
    real = getattr(owner, attr)
    setattr(owner, attr, brk(real))
    try:
        return color_planar_truncated(pg, cover)
    finally:
        setattr(owner, attr, real)


@pytest.mark.parametrize("name", sorted(FINISH_BREAKS))
def test_broken_finish_is_caught(name):
    with pytest.raises(InternalInvariantBreach) as caught:
        run_broken_finish(name)
    assert str(caught.value).startswith(FINISH_BREAKS[name][3])


def test_broken_finish_is_caught_under_optimize():
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.abspath(dpchroma.__file__))
    script = (
        "import sys\n"
        "sys.path.insert(0, %r)\n"
        "from dpchroma.errors import InternalInvariantBreach\n"
        "from test_planar_truncated import FINISH_BREAKS, run_broken_finish\n"
        "for name in sorted(FINISH_BREAKS):\n"
        "    try:\n"
        "        run_broken_finish(name)\n"
        "    except InternalInvariantBreach as exc:\n"
        "        print(sys.flags.optimize, exc)\n" % tests)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(src) + os.pathsep
               + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=60)
    assert (out.returncode, out.stdout) == (
        0, "1 the finished coloring is not valid\n1 availability drifted at 0\n"), out.stderr


def two_component_close():
    """A closing state whose uncolored rest has two components: the
    K_{2,3} with three leaves on each of its two hubs 0 and 1, tight,
    whose matchings leave no induced path z-a-z' that spares a color at
    a, so its block needs the exact search; and the path 12-13-14 with
    a list surplus at 12.  V2 is the colored vertex 11, next to the
    leaf 5 and to 12."""
    edges = [(a, z) for a in (0, 1) for z in (2, 3, 4)]
    edges += [(0, x) for x in (5, 6, 7)] + [(1, x) for x in (8, 9, 10)]
    edges += [(5, 11), (11, 12), (12, 13), (13, 14)]
    g = Graph(range(15), edges)
    matchings = {(a, 2 + k): [(2 * k, 0), (2 * k + 1, 1)] for a in (0, 1) for k in range(3)}
    matchings.update({(5, 11): [(0, 0)], (11, 12): [(0, 0)]})
    sizes = {v: g.degree(v) for v in g.vertices}
    sizes[12] += 1
    cover = Cover(g, sizes, matchings)
    avail = {v: set(range(sizes[v])) for v in g.vertices}
    avail[5].discard(0)
    avail[12].discard(0)
    return SimpleNamespace(v2=frozenset({11}), phi={11: (11, 0)}, cover=cover, avail=avail,
                           comps=(tuple(range(11)), (12, 13, 14)))


def test_finish_searches_the_awkward_block_alone(monkeypatch):
    state = two_component_close()
    want = reference_finish(copy.deepcopy(state))
    calls = []
    search = dp_cover.find_dp_coloring

    def counting(res, budget=None):
        calls.append(sorted(res.g.vertices))
        return search(res, budget)

    monkeypatch.setattr(dp_cover, "find_dp_coloring", counting)
    phi = finish(state)
    assert calls == [[0, 1, 2, 3, 4]]
    assert list(phi.items()) == list(want.items())
    assert is_coloring_valid(state.cover, phi) and state.phi == {11: (11, 0)}


@pytest.mark.parametrize("pipeline", ["planar", "minor"])
def test_finish_and_gate_build_no_cover(monkeypatch, pipeline):
    """finish colors on the run's own lists and entry_gate compares
    adjacency, so on the drum march neither builds a Cover or lists the
    edges of a graph."""
    inside = []
    entered = []
    made = []

    def within(fn):
        def run(*args):
            inside.append(fn.__name__)
            entered.append(fn.__name__)
            try:
                return fn(*args)
            finally:
                inside.pop()
        return run

    def counting(real, what):
        def run(*args, **kw):
            if inside:
                made.append((inside[-1], what))
            return real(*args, **kw)
        return run

    for module in (planar_truncated, minor_truncated):
        for name in ("finish", "entry_gate"):
            monkeypatch.setattr(module, name, within(getattr(module, name)))
    monkeypatch.setattr(Cover, "__init__", counting(Cover.__init__, "Cover"))
    monkeypatch.setattr(Graph, "edges", counting(Graph.edges, "edges"))
    if pipeline == "planar":
        pg = drum_plane(60, perm=(0, 3, 1, 2))
        color_planar_truncated(pg, drum_forcing_cover(pg))
    else:
        color_minor_truncated(*drum_minor_instance(60, (0, 3, 1, 2)))
    assert entered == ["entry_gate", "finish"]
    assert made == []


def test_replay_keeps_c1_c2():
    pg, cover = generate_hub_instance(2, 26, 21)
    trace = []
    phi = color_planar_truncated(pg, cover, trace=trace)
    g = pg.g
    v1, _ = partition_threshold(g)
    done = {}
    for line in trace:
        parts = line.split()
        v, color = int(parts[1]), parts[2]
        cv, i = color.split(".")
        assert int(cv) == v
        done[v] = (v, int(i))
        rest = sorted(set(g.vertices) - set(done))
        for comp_rest in _components(g, [u for u in rest if u in v1]):
            assert _connected_within(g, comp_rest)
        for u in rest:
            if u not in v1:
                continue
            blocked = set()
            for w in g.adj[u]:
                if w in done:
                    j = cover.partner(w, done[w][1], u)
                    if j is not None:
                        blocked.add(j)
            res_deg = sum(1 for w in g.adj[u] if w not in done)
            assert cover.sizes[u] - len(blocked) >= res_deg
    assert all(phi[v] == done[v] for v in done)
    assert is_coloring_valid(cover, phi)


def _components(g, vs):
    vs = set(vs)
    out = []
    while vs:
        comp = {vs.pop()}
        queue = list(comp)
        while queue:
            v = queue.pop()
            for w in g.adj[v]:
                if w in vs:
                    vs.remove(w)
                    comp.add(w)
                    queue.append(w)
        out.append(sorted(comp))
    return out


def _connected_within(g, comp):
    seen = {comp[0]}
    queue = [comp[0]]
    cs = set(comp)
    while queue:
        v = queue.pop()
        for w in g.adj[v]:
            if w in cs and w not in seen:
                seen.add(w)
                queue.append(w)
    return seen == cs
