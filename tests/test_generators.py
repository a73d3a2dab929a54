"""The generators' drawings and drum covers, pinned at sizes the golden
digests do not reach.  Each builder states only a rotation; these shapes
restate what its graph must be, independently of that rotation."""

import pytest

from dpchroma.core_graph import connectivity_at_least
from dpchroma.generators import (double_wheel, drum_forcing_cover, drum_identity_cover,
                                 drum_plane, fan_wheel, wheel)
from dpchroma.plane_embed import PlaneGraph

RIMS = (4, 5, 16, 61)
QUARTERS = (4, 15, 30)
RING = frozenset(range(8, 12))


def check_drawing(g, rot):
    """g is 3-connected and rot draws it in the plane."""
    PlaneGraph(g, rot)   # raises BadRotation otherwise
    assert connectivity_at_least(g, 3)


@pytest.mark.parametrize("rim", RIMS)
def test_wheels_have_their_sizes_and_degrees(rim):
    g, rot = wheel(rim)
    assert (g.n, g.m) == (rim + 1, 2 * rim)
    assert [g.degree(v) for v in range(rim + 1)] == [3] * rim + [rim]
    check_drawing(g, rot)
    g, rot = double_wheel(rim)
    assert (g.n, g.m) == (rim + 2, 3 * rim)
    assert [g.degree(v) for v in range(rim + 2)] == [4] * rim + [rim, rim]
    check_drawing(g, rot)


@pytest.mark.parametrize("rim", RIMS)
def test_fan_wheel_has_its_sizes_and_degrees(rim):
    g, rot = fan_wheel(rim)
    mid = rim // 2
    assert (g.n, g.m) == (rim + 3, 3 * rim + 2)
    want = dict.fromkeys(range(rim), 4)
    want.update({0: 5, mid: 5, rim: mid + 1, rim + 1: rim - mid + 1, rim + 2: rim})
    assert {v: g.degree(v) for v in g.vertices} == want
    check_drawing(g, rot)


@pytest.mark.parametrize("q", QUARTERS)
def test_drum_has_its_sizes_and_degrees(q):
    pg = drum_plane(q, (0, 3, 1, 2))
    g = pg.g
    assert (g.n, g.m) == (12 + 4 * q, 24 + 8 * q)
    assert all(g.degree(h) == q + 5 for h in RING)
    assert all(g.degree(v) == 3 for v in range(8))
    outer = [g.degree(v) for v in range(12, g.n)]
    assert outer.count(4) == 4 and outer.count(3) == 4 * q - 4
    assert connectivity_at_least(g, 3)


@pytest.mark.parametrize("q", QUARTERS)
def test_drum_forcing_cover_shifts_hub_11_into_its_quarter(q):
    pg = drum_plane(q, (0, 3, 1, 2))
    g = pg.g
    forcing, identity = drum_forcing_cover(pg), drum_identity_cover(g)
    assert forcing.sizes == identity.sizes
    shifted = []
    for u, w in g.edges():
        got, ident = forcing.edge_pairs(u, w), identity.edge_pairs(u, w)
        if u in RING and w in RING:
            assert got == ident == []
            continue
        assert ident == [(t, t) for t in range(min(identity.sizes[u], identity.sizes[w]))]
        if got != ident:
            assert got == [(i + 3, j) for i, j in ident]
            shifted.append((u, w))
    assert shifted == [(11, w) for w in sorted(g.adj[11]) if w >= 12]
    assert len(shifted) == q + 1


def test_drum_forcing_cover_refuses_quarter_1():
    # hub 11 has degree 6, so its shifted colors run past its list
    with pytest.raises(ValueError, match=r"^matched color out of range on \(11, 12\)$"):
        drum_forcing_cover(drum_plane(1))
