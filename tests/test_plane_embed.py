import pytest

from corpus import planar_classes
from oracles import vertex_face_incidences
from dpchroma.constructions import gadget_h_plane
from dpchroma.core_graph import Graph
from dpchroma.dp_cover import Cover
from dpchroma.errors import (A2Unattainable, BadRotation, InternalInvariantBreach, MalformedInput,
                             NotConnected)
from dpchroma.generators import generate_hub_instance, wheel
from dpchroma.plane_embed import (FaceClasses, PlaneGraph, augment_visibility, drawn_graph,
                                  component_planes, parse_plane, write_plane)
from dpchroma.planar_truncated import PipelineState, partition_threshold


def square_with_chord():
    g = Graph(range(4), [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    rot = {0: (1, 2, 3), 1: (2, 0), 2: (3, 0, 1), 3: (0, 2)}
    return PlaneGraph(g, rot)


def test_face_tracing_counts():
    pg = square_with_chord()
    assert pg.face_count() == 3
    walks = sorted(len(pg.faces[f]) for f in range(3))
    assert walks == [3, 3, 4]
    # every directed edge is on exactly one face
    des = [de for f in range(3) for de in pg.faces[f]]
    assert len(des) == 2 * pg.g.m and len(set(des)) == len(des)


def test_face_vertices_and_keys():
    pg = square_with_chord()
    for fid in range(3):
        vs = pg.face_vertices(fid)
        assert len(vs) == len(set(vs))
        # a face is keyed by its directed edges
        assert all(pg.face_of_directed_edge(*de) == fid for de in pg.faces[fid])
    assert len({frozenset(pg.faces[f]) for f in range(3)}) == 3
    tri = [fid for fid in range(3) if len(pg.faces[fid]) == 3]
    assert sorted(sorted(pg.face_vertices(f)) for f in tri) == [[0, 1, 2], [0, 2, 3]]


def test_faces_at_vertex():
    pg = square_with_chord()
    assert len(pg.faces_at(0)) == 3
    assert len(pg.faces_at(1)) == 2


def test_faces_at_matches_face_incidences():
    lone = PlaneGraph(Graph([0], []), {0: ()})
    assert lone.faces_at(0) == [0]
    drawings = [lone, gadget_h_plane()]
    drawings += [PlaneGraph(g, rot) for n in range(1, 7) for g, rot in planar_classes(n)]
    for hubs, rim in ((2, 24), (3, 30), (3, 60)):
        pg, _ = generate_hub_instance(hubs, rim, 7)
        drawings += [pg, augment_visibility(pg, partition_threshold(pg.g)[1])]
    for pg in drawings:
        for v in pg.g.vertices:
            fids = pg.faces_at(v)
            assert fids == sorted(set(fids))
        assert {(v, f) for v in pg.g.vertices for f in pg.faces_at(v)} == vertex_face_incidences(pg)


def test_restrict_filters_each_rotation():
    tri = square_with_chord().restrict({0, 1, 2})
    assert tri.g.edges() == [(0, 1), (0, 2), (1, 2)]
    assert tri.rot == {0: (1, 2), 1: (2, 0), 2: (0, 1)}
    assert tri.outer == 0 and tri.face_count() == 2


def test_euler_check_rejects_nonplanar_rotation():
    g = Graph(range(4), [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    ok = PlaneGraph(g, {0: (1, 3, 2), 1: (2, 3, 0), 2: (0, 3, 1), 3: (2, 0, 1)})
    assert ok.face_count() == 4
    # flipping one vertex of K4 produces a torus trace, not a plane one
    with pytest.raises(BadRotation):
        PlaneGraph(g, {0: (1, 3, 2), 1: (2, 3, 0), 2: (0, 3, 1), 3: (0, 2, 1)})


def test_rotation_must_match_adjacency():
    g = Graph(range(3), [(0, 1), (1, 2)])
    with pytest.raises(BadRotation):
        PlaneGraph(g, {0: (1,), 1: (0,), 2: (1,)})
    with pytest.raises(BadRotation):
        PlaneGraph(g, {0: (1,), 1: (0, 2, 2), 2: (1,)})


def test_drawn_graph_leaves_a_one_sided_neighbour_to_the_rotation_check():
    rot = {0: (1, 2, 3), 1: (2, 0), 2: (3, 0, 1), 3: (0, 2)}
    assert drawn_graph(rot).edges() == square_with_chord().g.edges()
    # 0 lists 2 but 2 does not list 0: the edge is drawn from its smaller
    # end, and 2's rotation misses a neighbour
    smaller_only = {**rot, 2: (3, 1)}
    assert drawn_graph(smaller_only).has_edge(0, 2)
    with pytest.raises(BadRotation, match="^rotation at 2 is not a permutation"):
        PlaneGraph(drawn_graph(smaller_only), smaller_only)
    # 2 lists 0 but 0 does not list 2: no edge is drawn, and 2's
    # rotation names a vertex that is not its neighbour
    larger_only = {**rot, 0: (1, 3)}
    assert not drawn_graph(larger_only).has_edge(0, 2)
    with pytest.raises(BadRotation, match="^rotation at 2 is not a permutation"):
        PlaneGraph(drawn_graph(larger_only), larger_only)


def test_isolated_vertices_are_rejected():
    g = Graph(range(4), [(0, 1)])
    with pytest.raises(NotConnected):
        PlaneGraph(g, {0: (1,), 1: (0,), 2: (), 3: ()})
    with pytest.raises(NotConnected):
        PlaneGraph(Graph([], []), {})
    lone = PlaneGraph(Graph([7], []), {7: ()})
    assert lone.face_count() == 1   # n - m + f = 2
    assert lone.faces[0] == ()
    assert lone.face_vertices(0) == [7]


def test_disconnected_drawing_is_rejected():
    g = Graph(range(6), [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    with pytest.raises(NotConnected):
        PlaneGraph(g, {0: (1, 2), 1: (2, 0), 2: (0, 1), 3: (4, 5), 4: (5, 3), 5: (3, 4)})
    with pytest.raises(NotConnected):
        parse_plane("v 0\n")


def test_plane_file_roundtrip():
    pg = square_with_chord()
    text = write_plane(pg)
    back = parse_plane(text)
    assert back.g.edges() == pg.g.edges()
    assert back.rot == pg.rot
    assert back.face_count() == pg.face_count()
    assert write_plane(parse_plane("v 1\n")) == "v 1\n"


def test_plane_parse_errors():
    for text in [
        "v 2\ne 0 1\n",                 # missing r line
        "v 2\ne 0 1\nr 0 0\nr 1 1\n",   # edge index out of range
        "v 3\ne 0 1\nr 0 0\nr 1 0\nr 2\nr 2\n",
        "v 2\ne 0 1\nr 5 0\n",
        "v 3\ne 0 1\ne 1 2\nr 0 1\nr 1 0 1\nr 2 1\n",  # r 0 names non-incident edge
    ]:
        with pytest.raises(MalformedInput):
            parse_plane(text)
    # r lines before the graph records must not shift the line number
    with pytest.raises(MalformedInput, match="line 7: bad endpoint"):
        parse_plane("v 3\nr 0\nr 1\nr 2\ne 0 1\ne 0 2\ne 1 x\n")


def double_fan_plane():
    # C20 with two inner fan hubs over complementary arcs; the hubs share
    # one quadrilateral face and are not adjacent
    nr = 20
    arc_a = list(range(0, 11))
    arc_b = list(range(10, 20)) + [0]
    es = [(i, (i + 1) % nr) for i in range(nr)]
    es += [(i, 20) for i in arc_a] + [(i, 21) for i in arc_b]
    g = Graph(list(range(nr)) + [20, 21], [(min(a, b), max(a, b)) for a, b in es])
    rot = {20: tuple(arc_a), 21: tuple(arc_b)}
    for i in range(nr):
        if i == 0:
            rot[i] = (1, 20, 21, 19)
        elif i == 10:
            rot[i] = (11, 21, 20, 9)
        elif i in arc_a:
            rot[i] = ((i + 1) % nr, 20, (i - 1) % nr)
        else:
            rot[i] = ((i + 1) % nr, 21, (i - 1) % nr)
    return PlaneGraph(g, rot)


def test_face_walks_cover_every_directed_edge():
    pg = square_with_chord()
    assert pg.face_count() == 3
    walks = [de for fid in range(3) for de in pg.faces[fid]]
    assert len(walks) == len(set(walks)) == 2 * pg.g.m
    for fid in range(3):
        assert set(pg.face_vertices(fid)) == {u for u, _ in pg.faces[fid]}


def test_vertex_face_incidences():
    assert vertex_face_incidences(PlaneGraph(Graph([0], []), {0: ()})) == {(0, 0)}
    tri = PlaneGraph(Graph(range(3), [(0, 1), (1, 2), (0, 2)]),
                     {0: (1, 2), 1: (2, 0), 2: (0, 1)})
    assert len(vertex_face_incidences(tri)) == 6
    assert tri.faces_at(1) == [0, 1]
    assert len(tri.face_vertices(0)) == 3


def test_augment_identity_cases():
    pg = PlaneGraph(*wheel(5))
    assert augment_visibility(pg, set()).g.m == pg.g.m
    assert augment_visibility(pg, {5}).g.m == pg.g.m


def test_augment_double_fan_makes_hubs_adjacent():
    pg = double_fan_plane()
    assert pg.face_count() == 22
    assert not pg.g.has_edge(20, 21)
    aug = augment_visibility(pg, {20, 21})
    assert aug.g.m == pg.g.m + 1
    assert aug.g.has_edge(20, 21)
    # deterministic embedding out
    again = augment_visibility(double_fan_plane(), {20, 21})
    assert write_plane(again) == write_plane(aug)
    # fixpoint: no face holds a nonadjacent hub pair now
    for fid in range(aug.face_count()):
        vs = [v for v in aug.face_vertices(fid) if v in (20, 21)]
        if len(vs) == 2:
            assert aug.g.has_edge(20, 21)


def test_face_classes_wheel_rim():
    pg = PlaneGraph(*wheel(5))
    fc = FaceClasses(pg, set(range(5)))
    assert len(fc.classes()) == 2
    assert fc.outer_class == fc.class_of(pg.outer)
    depths = fc.class_depths()
    inner = [c for c in fc.classes() if c != fc.outer_class][0]
    assert depths[fc.outer_class] == 0 and depths[inner] == 1
    assert fc.class_holding([5]) == inner


def nested_cycles_plane():
    # hexagon 0..5, triangle 6..8 inside, joined by three 2-edge bridges
    # through vertices 9, 10, 11
    es = [(i, (i + 1) % 6) for i in range(6)]
    es += [(6, 7), (7, 8), (6, 8)]
    es += [(0, 9), (6, 9), (2, 10), (7, 10), (4, 11), (8, 11)]
    g = Graph(range(12), [(min(a, b), max(a, b)) for a, b in es])
    rot = {9: (0, 6), 10: (2, 7), 11: (4, 8)}
    for i in range(6):
        nb = [(i + 1) % 6]
        if i in (0, 2, 4):
            nb.append({0: 9, 2: 10, 4: 11}[i])
        nb.append((i - 1) % 6)
        rot[i] = tuple(nb)
    rot[6] = (7, 8, 9)
    rot[7] = (8, 6, 10)
    rot[8] = (6, 7, 11)
    return PlaneGraph(g, rot)


def test_component_planes_nested_cycles():
    pg = nested_cycles_plane()
    assert pg.face_count() == 5
    v2 = set(range(9))
    fc = FaceClasses(pg, v2)
    assert len(fc.classes()) == 3   # outer, ring, triangle interior
    depths = fc.class_depths()
    assert sorted(depths.values()) == [0, 1, 2]
    ring = [c for c, d in depths.items() if d == 1][0]
    # each bridge vertex is its own component, all inside the ring
    for q in ([9], [10], [11]):
        assert fc.class_holding(q) == ring
    pieces = component_planes(fc)
    assert [p[0] for p in pieces] == [(0, 1, 2, 3, 4, 5), (6, 7, 8)]
    hexa, tri = pieces
    assert hexa[2][hexa[1].outer] == fc.outer_class
    assert tri[2][tri[1].outer] == ring
    assert hexa[3] == 0 and tri[3] == 6


def test_a2_unattainable_reports_shared_face():
    # the check lives in the planar set-up; augment_visibility only adds chords
    g = Graph([0, 1, 2], [(0, 1), (0, 2)])
    pg = PlaneGraph(g, {0: (1, 2), 1: (0,), 2: (0,)})
    assert augment_visibility(pg, {0}) is pg
    cover = Cover(g, {0: 2, 1: 1, 2: 1}, {})
    with pytest.raises(A2Unattainable, match=r"^components \[1\] and \[2\] lie in the same "
                                             r"face of the subgraph on \[0\]$"):
        PipelineState(pg, cover, {1, 2}, {0})


def test_class_holding_rejects_straddling_set():
    pg = PlaneGraph(*wheel(5))
    with pytest.raises(InternalInvariantBreach):
        FaceClasses(pg, set(range(5))).class_holding([5, 0])
