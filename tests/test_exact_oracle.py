import itertools
import os
import random
import subprocess
import sys

import pytest

from corpus import connected_graph_classes
from oracles import raw_choosable, raw_dp_colorable, raw_has_coloring

import dpchroma
from dpchroma import exact_oracle
from dpchroma.constructions import build_G42, build_k2_k2, chain_case, gadget_h
from dpchroma.core_graph import Graph
from dpchroma.dp_cover import Cover, degree_dp_color, induced_cover
from dpchroma.errors import InstanceTooLarge
from dpchroma.exact_oracle import (
    find_dp_coloring,
    find_list_coloring,
    solve_list,
    is_degree_choosable,
    is_degree_dp_colorable,
    is_dp_f_colorable,
    is_f_choosable,
)


def cycle(n):
    return Graph(range(n), [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    return Graph(range(n), list(itertools.combinations(range(n), 2)))


def wheel7():
    """The 8-vertex wheel: hub 0 on the rim cycle 1, ..., 7."""
    return Graph(range(8), [(0, i) for i in range(1, 8)] + [(i, i % 7 + 1) for i in range(1, 8)])


def degrees(g):
    return {v: g.degree(v) for v in g.vertices}


def test_find_list_coloring_basics():
    g = cycle(3)
    col = find_list_coloring(g, {0: [1, 2], 1: [2, 3], 2: [3, 1]})
    assert col is not None
    for u, w in g.edges():
        assert col[u] != col[w]
    assert find_list_coloring(g, {0: [1, 2], 1: [1, 2], 2: [1, 2]}) is None
    # mixed token kinds force the only coloring on a path
    p3 = Graph(range(3), [(0, 1), (1, 2)])
    col = find_list_coloring(p3, {0: ["a"], 1: ["a", 1], 2: [1, "a"]})
    assert col == {0: "a", 1: 1, 2: "a"}


def test_find_list_coloring_agrees_with_raw():
    import random
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(2, 5)
        g = Graph(range(n), [e for e in itertools.combinations(range(n), 2)
                             if rng.random() < 0.5])
        lists = {v: rng.sample(range(5), rng.randint(1, 3)) for v in range(n)}
        got = find_list_coloring(g, lists)
        if got is None:
            assert not raw_has_coloring(g, lists)
        else:
            assert all(got[v] in lists[v] for v in g.vertices)
            assert all(got[u] != got[w] for u, w in g.edges())


def test_find_dp_coloring_follows_matchings():
    g = cycle(4)
    # all perfect matchings identity: behaves like same-token lists
    cover, _ = induced_cover(g, {v: [0, 1] for v in g.vertices})
    assert find_dp_coloring(cover) is not None
    # twist one edge so parity blocks every choice
    from dpchroma.dp_cover import Cover
    m = {(0, 1): [(0, 0), (1, 1)], (1, 2): [(0, 0), (1, 1)],
         (2, 3): [(0, 0), (1, 1)], (0, 3): [(0, 1), (1, 0)]}
    assert find_dp_coloring(Cover(g, {v: 2 for v in g.vertices}, m)) is None


def test_trivial_choosability_cases():
    single = Graph([0], [])
    assert is_f_choosable(single, {0: 1}) == (True, None)
    ok, cert = is_f_choosable(single, {0: 0})
    assert not ok and cert[0] == []
    edge = Graph(range(2), [(0, 1)])
    ok, cert = is_f_choosable(edge, {0: 1, 1: 1})
    assert not ok and not raw_has_coloring(edge, cert)
    assert is_f_choosable(edge, {0: 1, 1: 2}) == (True, None)


def test_known_degree_choosability_verdicts():
    assert is_degree_choosable(complete(4))[0] is False
    assert is_degree_choosable(cycle(5))[0] is False
    assert is_degree_choosable(cycle(6))[0] is True
    k4e = Graph(range(4), [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    assert is_degree_choosable(k4e)[0] is True
    # two triangles sharing a vertex: a Gallai tree
    g = Graph(range(5), [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
    ok, cert = is_degree_choosable(g)
    assert not ok
    assert {v: len(cert[v]) for v in g.vertices} == degrees(g)
    assert not raw_has_coloring(g, cert)


def test_known_degree_dp_verdicts():
    assert is_degree_dp_colorable(complete(4))[0] is False
    # even cycles are GDP trees even though they are degree-choosable
    ok, cover = is_degree_dp_colorable(cycle(6))
    assert not ok and find_dp_coloring(cover) is None
    k4e = Graph(range(4), [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    assert is_degree_dp_colorable(k4e)[0] is True


def test_choosable_certificates_have_right_sizes():
    g = cycle(5)
    ok, cert = is_f_choosable(g, {v: 2 for v in g.vertices})
    assert not ok
    assert all(len(cert[v]) == 2 for v in g.vertices)


def test_oracles_against_raw_up_to_four_vertices():
    # universe of six colors is enough to exhibit every bad assignment here
    for n in range(1, 5):
        for g in connected_graph_classes(n):
            f = degrees(g)
            if n == 1:
                f = {0: 1}
            ok, cert = is_f_choosable(g, f)
            raw_ok, _ = raw_choosable(g, f, range(6))
            assert ok == raw_ok, (n, g.edges())
            if not ok:
                assert not raw_has_coloring(g, cert)
            ok, cover = is_dp_f_colorable(g, f)
            raw_ok, _ = raw_dp_colorable(g, f, maximal_only=True)
            assert ok == raw_ok, (n, g.edges())
            if not ok:
                assert find_dp_coloring(cover) is None


def test_dp_reduction_to_maximal_matchings_is_sound():
    # all partial matchings vs the maximal-only reduction, tiny cases
    for n in range(2, 4):
        for g in connected_graph_classes(n):
            f = degrees(g)
            a, _ = raw_dp_colorable(g, f, maximal_only=False)
            b, _ = raw_dp_colorable(g, f, maximal_only=True)
            assert a == b
    # one sparse 4-vertex case as well
    p4 = Graph(range(4), [(0, 1), (1, 2), (2, 3)])
    f = degrees(p4)
    assert raw_dp_colorable(p4, f, False)[0] == raw_dp_colorable(p4, f, True)[0]


def test_five_vertex_spot_checks():
    w4 = Graph(range(5), [(0, i) for i in range(1, 5)]
               + [(1, 2), (2, 3), (3, 4), (4, 1)])
    assert is_degree_choosable(w4)[0] is True
    assert is_degree_dp_colorable(w4)[0] is True
    assert is_degree_choosable(complete(5))[0] is False
    assert is_degree_dp_colorable(complete(5))[0] is False


def test_non_degree_sizes():
    g = complete(4)
    assert is_f_choosable(g, {v: 4 for v in g.vertices})[0] is True
    ok, _ = is_f_choosable(g, {0: 3, 1: 3, 2: 3, 3: 4})
    assert ok is True
    assert is_dp_f_colorable(g, {v: 4 for v in g.vertices})[0] is True
    ok, cover = is_dp_f_colorable(g, {0: 2, 1: 3, 2: 3, 3: 3})
    assert ok is False and find_dp_coloring(cover) is None


def test_disconnected_inputs():
    g = Graph(range(5), [(0, 1), (1, 2), (0, 2)])   # triangle plus isolated 3, 4
    f = {0: 2, 1: 2, 2: 2, 3: 1, 4: 1}
    ok, cert = is_f_choosable(g, f)
    assert not ok and not raw_has_coloring(g, cert)
    ok, cover = is_dp_f_colorable(g, f)
    assert not ok and find_dp_coloring(cover) is None
    f2 = {0: 3, 1: 3, 2: 3, 3: 1, 4: 1}
    assert is_f_choosable(g, f2) == (True, None)
    assert is_dp_f_colorable(g, f2)[0] is True


def test_empty_graph_and_single_vertex():
    """n = 0 has no component to decide and is colorable; K1 is colorable
    from any non-empty list, and its degree 0 gives it an empty one."""
    empty = Graph([], [])
    for oracle in (is_f_choosable, is_dp_f_colorable):
        assert oracle(empty, {}) == (True, None)
    for oracle in (is_degree_choosable, is_degree_dp_colorable):
        assert oracle(empty) == (True, None)
    single = Graph([0], [])
    for oracle in (is_f_choosable, is_dp_f_colorable):
        for f in (1, 3):
            assert oracle(single, {0: f}) == (True, None)
    ok, cert = is_degree_choosable(single)
    assert not ok and cert == {0: []}
    ok, cover = is_degree_dp_colorable(single)
    assert not ok and cover.sizes == {0: 0}


def test_size_guards(monkeypatch):
    g = complete(9)
    with pytest.raises(InstanceTooLarge, match="at most 8 vertices"):
        is_f_choosable(g, degrees(g))
    with pytest.raises(InstanceTooLarge):
        is_dp_f_colorable(g, degrees(g))
    # the pruned search refutes K7 and K8 on its first branch
    for n in (7, 8):
        kn = complete(n)
        ok, cert = is_degree_choosable(kn)
        assert not ok and find_list_coloring(kn, cert) is None
        assert {v: len(cert[v]) for v in kn.vertices} == degrees(kn)
    c7 = cycle(7)
    ok, cert = is_degree_choosable(c7)
    assert not ok and find_list_coloring(c7, cert) is None
    # the node cap: K_{4,4} needs 92 search nodes
    k44 = Graph(range(8), [(a, b) for a in range(4) for b in range(4, 8)])
    monkeypatch.setattr(exact_oracle, "DEFAULT_SOLVE_BUDGET", 50)
    with pytest.raises(InstanceTooLarge, match="too many list assignments to enumerate"):
        is_degree_choosable(k44)


def test_oracles_at_eight_vertices():
    # the largest coloring masks the oracles build: 3^8 colorings of the
    # cube for DP, 2^7 of C8 - w for choosability
    cube = Graph(range(8), [(u, u | b) for u in range(8) for b in (1, 2, 4) if not u & b])
    assert is_degree_dp_colorable(cube) == (True, None)
    c8 = cycle(8)
    ok, cover = is_degree_dp_colorable(c8)
    assert not ok and find_dp_coloring(cover) is None
    assert is_degree_choosable(c8) == (True, None)
    # the 7-wheel is not a Gallai tree: the surplus shortcut fires at the hub
    wheel = wheel7()
    assert is_degree_choosable(wheel) == (True, None)
    assert is_degree_dp_colorable(wheel) == (True, None)
    # K_{4,4} is regular and 2-connected, so nothing prunes it up front:
    # the pruned list search answers it, the cover count refuses it
    k44 = Graph(range(8), [(a, b) for a in range(4) for b in range(4, 8)])
    assert is_degree_choosable(k44) == (True, None)
    with pytest.raises(InstanceTooLarge):
        is_degree_dp_colorable(k44)


def test_surplus_guards_are_sound(monkeypatch):
    # the bowtie's center is a cut vertex with degree 4 beside degree-2
    # neighbors: the shortcut must not fire there
    bowtie = Graph(range(5), [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
    ok, cert = is_degree_choosable(bowtie)
    assert not ok and not raw_has_coloring(bowtie, cert)
    assert {v: len(cert[v]) for v in bowtie.vertices} == degrees(bowtie)
    ok, cover = is_degree_dp_colorable(bowtie)
    assert not ok and find_dp_coloring(cover) is None
    assert cover.sizes == degrees(bowtie)
    # f < deg at vertex 0: the lemma does not apply, although vertex 1 is
    # non-cut with a smaller neighbor
    k4 = complete(4)
    f = {0: 2, 1: 3, 2: 3, 3: 3}
    ok, cover = is_dp_f_colorable(k4, f)
    assert not ok and find_dp_coloring(cover) is None
    ok, cert = is_f_choosable(k4, f)
    assert not ok and not raw_has_coloring(k4, cert)

    def no_masks(*args):
        raise AssertionError("_coloring_masks called")

    # the wheel is answered before either search builds its masks
    monkeypatch.setattr(exact_oracle, "_coloring_masks", no_masks)
    wheel = wheel7()
    assert is_degree_choosable(wheel) == (True, None)
    assert is_degree_dp_colorable(wheel) == (True, None)


def test_determinism_of_certificates():
    g = Graph(range(5), [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
    a = is_degree_choosable(g)
    b = is_degree_choosable(g)
    assert a == b
    c1 = is_degree_dp_colorable(cycle(4))[1]
    c2 = is_degree_dp_colorable(cycle(4))[1]
    assert c1.sizes == c2.sizes
    assert all(c1.edge_pairs(u, w) == c2.edge_pairs(u, w) for u, w in cycle(4).edges())


def test_solve_list_and_cover_agree():
    rng = random.Random(9)
    for _ in range(50):
        n = rng.randint(2, 6)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5]
        g = Graph(range(n), edges)
        lists = {v: rng.sample(range(6), rng.randint(1, 3)) for v in range(n)}
        cover, tokens = induced_cover(g, lists)
        got = solve_list(g, lists)
        want = find_dp_coloring(cover)
        assert (got is None) == (want is None)
        assert (got is None) == (find_list_coloring(g, lists) is None)
        if got is not None:
            for u, w in g.edges():
                assert got[u] != got[w]


def test_solve_empty_list_uncolorable():
    g = Graph(range(2), [(0, 1)])
    assert solve_list(g, {0: [], 1: [1]}) is None
    assert solve_list(g, {0: [1], 1: [2]}) == {0: 1, 1: 2}


def test_solve_budget_trips():
    n = 10
    g = Graph(range(n), list(itertools.combinations(range(n), 2)))
    lists = {v: list(range(n - 1)) for v in range(n)}
    with pytest.raises(InstanceTooLarge):
        solve_list(g, lists, budget=50)
    # same instance with no cap gets the honest verdict
    assert solve_list(g, lists, budget=None) is None


def test_backjumping_refutes_the_counterexamples_within_small_budgets():
    """Forward checking alone spends 68,459 color attempts on every
    chain case under the dom/deg pick (19,715 when it picked the fewest
    colors left first, with about a million on K_{2,36}); jumping back
    to the vertices to blame needs exactly 254 on each, 42 on K_{2,36}
    and 60,401 on the whole G42: each answers under that budget and
    trips one below it."""
    instances = [(chain_case(i), 254) for i in range(42)]
    instances += [(build_k2_k2(6), 42), (build_G42(), 60_401)]
    for (g, lists), attempts in instances:
        assert solve_list(g, lists, budget=attempts) is None
        with pytest.raises(InstanceTooLarge):
            solve_list(g, lists, budget=attempts - 1)


def test_list_search_builds_no_induced_cover(monkeypatch):
    """The list searches fill the strike table straight from the lists,
    so they answer with induced_cover broken; the choosability oracle
    still re-checks its certificate on the induced cover, once."""
    def broken(g, lists):
        raise RuntimeError("induced_cover called")

    monkeypatch.setattr(exact_oracle, "induced_cover", broken)
    for i in range(42):
        assert solve_list(*chain_case(i)) is None
        assert find_list_coloring(*chain_case(i)) is None
    assert solve_list(*gadget_h()) is None and find_list_coloring(*gadget_h()) is None
    path = Graph(range(500), [(i, i + 1) for i in range(499)])
    col = find_list_coloring(path, {v: ["a", "b"] for v in range(500)})
    assert col == solve_list(path, {v: ["a", "b"] for v in range(500)})
    assert all(col[u] != col[w] for u, w in path.edges())
    calls = []

    def counting(g, lists):
        calls.append(g)
        return induced_cover(g, lists)

    monkeypatch.setattr(exact_oracle, "induced_cover", counting)
    ok, cert = is_degree_choosable(complete(4))
    assert not ok and len(calls) == 1


def test_degree_dp_color_preconditions():
    from dpchroma.errors import NotConnected, PreconditionViolated

    g = Graph(range(2), [])
    with pytest.raises(NotConnected):
        degree_dp_color(g, Cover(g, {0: 1, 1: 1}, {}))
    k2 = Graph(range(2), [(0, 1)])
    with pytest.raises(PreconditionViolated):
        degree_dp_color(k2, Cover(k2, {0: 0, 1: 1}, {}))


def test_certificate_check_survives_optimize():
    # a search that colors everything must make both oracles' negative
    # certificates fail their re-check, also under python -O
    src = os.path.dirname(os.path.dirname(os.path.abspath(dpchroma.__file__)))
    script = (
        "import sys\n"
        "import dpchroma.exact_oracle as eo\n"
        "from dpchroma.core_graph import Graph\n"
        "from dpchroma.errors import InternalInvariantBreach\n"
        "eo.find_dp_coloring = lambda cover, budget=None: {v: (v, 0) for v in cover.g.vertices}\n"
        "k3 = Graph(range(3), [(0, 1), (0, 2), (1, 2)])\n"
        "for oracle in (eo.is_dp_f_colorable, eo.is_f_choosable):\n"
        "    try:\n"
        "        oracle(k3, {v: 2 for v in k3.vertices})\n"
        "    except InternalInvariantBreach as exc:\n"
        "        print(sys.flags.optimize, exc)\n")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=60)
    assert (out.returncode, out.stdout) == (0, "1 certificate cover has a coloring\n" * 2), \
        out.stderr


def test_search_needs_no_recursion_under_optimize():
    # the search is one loop: a recursion limit of 100 still refutes a
    # G42 chain case and colors a 3,000-vertex path, also under python -O
    src = os.path.dirname(os.path.dirname(os.path.abspath(dpchroma.__file__)))
    script = (
        "import sys\n"
        "from dpchroma.constructions import chain_case\n"
        "from dpchroma.core_graph import Graph\n"
        "from dpchroma.exact_oracle import find_list_coloring, solve_list\n"
        "sys.setrecursionlimit(100)\n"
        "print(sys.flags.optimize, find_list_coloring(*chain_case(0)))\n"
        "n = 3000\n"
        "col = solve_list(Graph(range(n), [(i, i + 1) for i in range(n - 1)]),\n"
        "                 {v: [0, 1] for v in range(n)})\n"
        "print(len(col), all(col[v] != col[v + 1] for v in range(n - 1)))\n")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=60)
    assert (out.returncode, out.stdout) == (0, "1 None\n3000 True\n"), out.stderr
