import itertools
import random

import pytest
from oracles import reference_enumerate_claim

from dpchroma import constructions
from dpchroma.constructions import (
    build_G42,
    build_H,
    build_k2_k2,
    build_ks_minus1,
    cascade_instance,
    chain_case,
    chain_graph,
    chain_token_pairs,
    forcing_instance,
    gadget_h,
    gadget_h_names,
    gadget_h_plane,
    verify_counterexample,
    verify_gadget,
    w_gadget_instance,
)
from dpchroma.core_graph import Graph
from dpchroma.errors import InstanceTooLarge, ReconstructionFailed
from dpchroma.exact_oracle import _coloring_masks, find_list_coloring


def proper_colorings(g, lists):
    vs = sorted(g.vertices)
    es = g.edges()
    out = []
    for combo in itertools.product(*(lists[v] for v in vs)):
        col = dict(zip(vs, combo))
        if all(col[u] != col[w] for u, w in es):
            out.append(col)
    return out


def test_gadget_shape():
    g, lists = gadget_h()
    assert g.n == 28 and g.m == 77
    names = gadget_h_names()
    by_name = {names[v]: v for v in g.vertices}
    assert g.degree(by_name["x"]) == 11 and g.degree(by_name["y"]) == 11
    for nm in ("u1", "u2", "v1", "v2"):
        assert g.degree(by_name[nm]) == 12
    assert g.degree(by_name["u3"]) == 7 and g.degree(by_name["v3"]) == 7
    # interior list sizes track min(degree, 7); x and y are forced
    for v in range(2, 28):
        assert len(lists[v]) == min(g.degree(v), 7)
    assert lists[by_name["x"]] == ["a"] and lists[by_name["y"]] == ["b"]
    # the two K4s that drive the pair-split claim
    for quad in ([by_name[n] for n in ("u1", "v1", "w1", "w2")],
                 [by_name[n] for n in ("u1", "v1", "w3", "w4")]):
        for u, w in itertools.combinations(quad, 2):
            assert g.has_edge(u, w)
    assert not g.has_edge(by_name["x"], by_name["y"])


def test_gadget_plane_embedding():
    pg = gadget_h_plane()
    assert pg.face_count() == 51
    assert sorted(pg.face_vertices(pg.outer)) == [0, 1, 4, 7]


def test_pair_split_claim_brute_force():
    g, lists = w_gadget_instance()
    cols = proper_colorings(g, lists)
    assert len(cols) > 0
    lo, hi = {1, 2}, {4, 5}
    for c in cols:
        pair = {c[2], c[5]}
        assert len(pair & lo) == 1 and len(pair & hi) == 1, c


def test_forcing_claim_brute_force():
    g, lists = forcing_instance()
    cols = proper_colorings(g, lists)
    assert len(cols) > 0
    assert all(c[3] == 5 for c in cols)


def test_cascade_claim_brute_force():
    g, lists = cascade_instance()
    assert proper_colorings(g, lists) == []


def claim_cases():
    """(g, lists, prop): the three claim instances under the props
    verify_gadget gives them and under a prop that always fails, then 240
    seeded graphs on 0-6 of the ids 0..9 whose lists of 0-3 tokens mix
    str and int and may repeat a token or be empty, each under a prop
    that fails when one vertex wears one token of its list."""
    lo, hi = {1, 2}, {4, 5}
    never = lambda c: False
    for inst, prop in ((w_gadget_instance,
                        lambda c: (c[2] in lo and c[5] in hi) or (c[2] in hi and c[5] in lo)),
                       (forcing_instance, lambda c: c[3] == 5),
                       (cascade_instance, never)):
        g, lists = inst()
        yield g, lists, prop
        yield g, lists, never
    rng = random.Random(33)
    tokens = ["a", "b", 1, 2, 3]
    for _ in range(240):
        vs = rng.sample(range(10), rng.randint(0, 6))
        es = [e for e in itertools.combinations(vs, 2) if rng.random() < 0.5]
        lists = {v: [rng.choice(tokens) for _ in range(rng.randint(0, 3))] for v in vs}
        worn = [(v, t) for v in vs for t in lists[v]]
        v0, t0 = rng.choice(worn) if worn else (None, None)
        yield Graph(vs, es), lists, lambda c, v0=v0, t0=t0: c.get(v0) != t0


def test_claim_counting_matches_the_product():
    """The mask count equals the product loop and the brute-force list of
    proper colorings on every claim case; the cases include a repeated
    token on an edge, an empty list, an isolated vertex, n = 0, a
    violated prop and no proper coloring at all."""
    seen = dict.fromkeys(("repeat", "empty", "isolated", "n0", "bad", "none"), 0)
    for g, lists, prop in claim_cases():
        got = constructions._enumerate_claim(g, lists, prop)
        assert got == reference_enumerate_claim(g, lists, prop), (g.edges(), lists)
        assert got[1] == len(proper_colorings(g, lists)), (g.edges(), lists)
        seen["repeat"] += any(len(set(lists[v])) < len(lists[v]) and g.degree(v)
                              for v in g.vertices)
        seen["empty"] += any(not lists[v] for v in g.vertices)
        seen["isolated"] += any(not g.degree(v) for v in g.vertices)
        seen["n0"] += g.n == 0
        seen["bad"] += got[2] > 0
        seen["none"] += got[1] == 0
    assert min(seen.values()) > 0, seen


def test_an_empty_list_leaves_no_coloring():
    assert _coloring_masks([2, 0, 3]) == (0, [[0, 0], [], [0, 0, 0]])
    g = Graph(range(3), [(0, 1), (1, 2)])
    assert constructions._enumerate_claim(g, {0: [1, 2], 1: [], 2: ["a"]},
                                          lambda c: False) == (0, 0, 0)


def test_gadget_not_list_colorable():
    g, lists = gadget_h()
    assert find_list_coloring(g, lists) is None


def test_verify_gadget_all_green():
    rows = verify_gadget()
    assert [name for name, ok in rows if not ok] == []
    assert len(rows) == 8


def test_chain_shape():
    g, lists = chain_graph()
    assert g.n == 1094 and g.m == 3276
    assert g.degree(0) == 463 and g.degree(1) == 463
    assert g.has_edge(0, 1)
    assert all(len(lists[v]) == min(g.degree(v), 7) for v in g.vertices)
    pairs = chain_token_pairs()
    assert len(pairs) == 42 and len(set(pairs)) == 42
    assert pairs[0] == ("a", "b") and pairs[-1] == ("g", "f")


def test_chain_case_lists_lose_fan_tokens():
    g, lists = chain_case(0)   # pair (a, b)
    assert g.n == 26 and g.m == 55
    base = min(g.vertices)
    # u1 saw both x and y, so both letters are gone
    assert lists[base] == [1, 2, 3, 4, 5]
    # w2 keeps only its numeric part, w4 likewise
    assert lists[base + 7] == [1, 2, 3]
    assert lists[base + 9] == [3, 4, 5]
    for v in g.vertices:
        assert all(isinstance(t, int) for t in lists[v])


def test_two_chain_cases_refuted():
    for i in (0, 41):
        g, lists = chain_case(i)
        assert find_list_coloring(g, lists) is None


def test_build_k2_k2_instances():
    for k in (1, 2, 3):
        g, lists = build_k2_k2(k)
        assert g.n == 2 + k * k and g.m == 2 * k * k
        if k >= 2:
            assert all(len(lists[v]) == min(g.degree(v), k) for v in g.vertices)
        assert find_list_coloring(g, lists) is None
    with pytest.raises(InstanceTooLarge):
        build_k2_k2(65)  # big side 4225 > 4096, refused before building


def test_build_ks_minus1_instances():
    g, lists = build_ks_minus1(2, 3)
    assert g.n == 4 and sorted(len(lists[v]) for v in g.vertices) == [1, 1, 1, 3]
    assert find_list_coloring(g, lists) is None
    # same shape as the k=2 square instance
    g2, lists2 = build_ks_minus1(3, 2)
    gk, _ = build_k2_k2(2)
    assert g2.n == gk.n and g2.m == gk.m
    assert find_list_coloring(g2, lists2) is None
    with pytest.raises(InstanceTooLarge):
        build_ks_minus1(8, 4)
    # refused at once: s = 10^7 used to form 3^(10^7 - 1) before the
    # big-side test, and k = 1 keeps the big side at one vertex
    for s, k in ((10 ** 7, 3), (10 ** 6, 1), (14, 1)):
        with pytest.raises(InstanceTooLarge, match="small side would have s-1 vertices"):
            build_ks_minus1(s, k)
    assert build_ks_minus1(13, 1)[0].n == 13  # the largest small side, 12 vertices


def test_whole_G42_is_not_list_colorable():
    # the whole graph under its own lists, resting on no chain_case reduction
    assert find_list_coloring(*build_G42()) is None


@pytest.mark.parametrize("build, args", [(build_k2_k2, (64,)), (build_ks_minus1, (4, 16))])
def test_tightness_families_at_scale(build, args):
    """K_{2,64^2} and K_{3,16^3}, each with a 4,096-vertex big side:
    degree-truncated lists of size min(k, d(v)), and no coloring."""
    g, lists = build(*args)
    k = args[-1]
    assert all(len(lists[v]) == min(g.degree(v), k) for v in g.vertices)
    assert find_list_coloring(g, lists) is None


def test_build_H_validates_and_rejects(monkeypatch):
    gh = build_H()
    assert gh.g.n == 28 and gh.plane.face_count() == 51
    assert gh.names[0] == "x" and gh.names[3] == "u2"
    with monkeypatch.context() as m:
        # w1's rotation reversed: a permutation of its neighbors, but not planar
        m.setitem(constructions._H_ROT, 8, (5, 2, 9))
        assert [row for row in verify_gadget() if not row[1]] == [("planar-embedding", False)]
        with pytest.raises(ReconstructionFailed, match="^gadget fails planar-embedding$"):
            build_H()
    rows = [("list-sizes", False), ("three-connected", True), ("no-list-coloring", False)]
    g, lists = gadget_h()
    monkeypatch.setattr(constructions, "_checked_gadget",
                        lambda: (g, lists, gadget_h_plane(), rows))
    with pytest.raises(ReconstructionFailed, match="^gadget fails list-sizes, no-list-coloring$"):
        build_H()


def test_build_H_builds_the_gadget_once(monkeypatch):
    """build_H returns the objects its checks ran on: it builds the
    gadget and its drawing no more often than verify_gadget does."""
    calls = {"gadget_h": 0, "gadget_h_plane": 0}
    for name in calls:
        def counted(_build=getattr(constructions, name), _name=name):
            calls[_name] += 1
            return _build()
        monkeypatch.setattr(constructions, name, counted)
    assert all(ok for _, ok in verify_gadget())
    alone = dict(calls)
    calls.update(gadget_h=0, gadget_h_plane=0)
    gh = build_H()
    assert calls == alone and calls["gadget_h_plane"] == 1, (calls, alone)
    g, lists = gadget_h()
    assert (gh.g.vertices, gh.g.edges(), gh.lists) == (g.vertices, g.edges(), lists)


def test_verify_counterexample_dispatch():
    for fam, kw in (("k2k2", dict(k=2)), ("ks", dict(s=3, k=2))):
        rows = verify_counterexample(fam, **kw)
        assert rows and all(ok for _, ok in rows)
    g, lists = build_G42()
    assert (g.n, g.m) == (1094, 3276)


def test_family_parameters_out_of_range_are_refused():
    with pytest.raises(ValueError, match="^need k >= 1$"):
        build_k2_k2(0)
    for s, k in ((1, 2), (2, 0)):
        with pytest.raises(ValueError, match="^need s >= 2 and k >= 1$"):
            build_ks_minus1(s, k)
    with pytest.raises(ValueError, match="^k2k2 needs k >= 1$"):
        verify_counterexample("k2k2")
    with pytest.raises(ValueError, match="^ks needs s and k$"):
        verify_counterexample("ks", k=3)
    with pytest.raises(ValueError, match="^unknown family 'G43'$"):
        verify_counterexample("G43")


def test_verify_g42_gives_45_ok_rows():
    rows = verify_counterexample("G42")
    assert len(rows) == 45 and all(ok for _, ok in rows)
