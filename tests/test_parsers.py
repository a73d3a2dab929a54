"""The four file parsers: every error message pinned, and the one-pass
parsers checked against the parsers they replaced (tests/oracles.py) on
round-trip files and thousands of seeded mutations of them."""

import random

import pytest

from dpchroma.constructions import build_H, build_k2_k2
from dpchroma.core_graph import Graph, parse_graph, write_graph
from dpchroma.dp_cover import parse_cover, parse_lists, write_cover, write_lists
from dpchroma.errors import BadRotation, MalformedInput, NotConnected
from dpchroma.generators import (drum_forcing_cover, drum_identity_cover, drum_plane,
                                 generate_hub_instance)
from dpchroma.plane_embed import parse_plane, write_plane
from oracles import (reference_parse_cover, reference_parse_graph, reference_parse_lists,
                     reference_parse_plane)

# the graph every cover row is read against: a triangle 0-1-2 with a
# pendant 3 at 2, so 3 0 is a non-edge
COVER_GRAPH = Graph(range(4), [(0, 1), (1, 2), (0, 2), (2, 3)])
SIZES = "L 0 2\nL 1 2\nL 2 3\nL 3 1\n"

PARSERS = {
    "graph": parse_graph,
    "cover": lambda text: parse_cover(text, COVER_GRAPH),
    "lists": parse_lists,
    "plane": parse_plane,
}

# (parser, text, exception type, exact message): one row for each
# raise in the parsers, plus line-break and placement cases
ERRORS = [
    ("graph", "v 2\nv 2\n", MalformedInput, "line 2: second v line"),
    ("graph", "v\n", MalformedInput, "line 1: v line needs one count"),
    ("graph", "v 2 3\n", MalformedInput, "line 1: v line needs one count"),
    ("graph", "v x\n", MalformedInput, "line 1: bad vertex count 'x'"),
    ("graph", "v -1\n", MalformedInput, "line 1: negative vertex count"),
    ("graph", "e 0 1\nv 2\n", MalformedInput, "line 1: e line before v line"),
    ("graph", "v 2\ne 0\n", MalformedInput, "line 2: e line needs two endpoints"),
    ("graph", "v 2\ne 0 x\n", MalformedInput, "line 2: bad endpoint on e line"),
    ("graph", "v 2\ne 0 2\n", MalformedInput, "line 2: endpoint out of range"),
    ("graph", "v 2\ne -1 0\n", MalformedInput, "line 2: endpoint out of range"),
    ("graph", "v 2\ne 1 1\n", MalformedInput, "line 2: self-loop"),
    ("graph", "v 3\ne 2 1\ne 0 1\ne 1 2\n", MalformedInput, "line 4: duplicate edge 1 2"),
    ("graph", "v 2\nq 1\n", MalformedInput, "line 2: unknown record 'q'"),
    ("graph", "v 2\nr 0 0\n", MalformedInput, "line 2: unknown record 'r'"),
    # a huge count costs nothing before the bad line
    ("graph", "v 1000000000000\ne 0 1\nq\n", MalformedInput, "line 3: unknown record 'q'"),
    ("graph", "c nothing\n", MalformedInput, "missing v line"),
    ("graph", "", MalformedInput, "missing v line"),
    ("graph", "v 2\r\ne 0 1\r\ne 0 x\r\n", MalformedInput, "line 3: bad endpoint on e line"),
    ("graph", "v 2\x0ce 0 1\x0ce 0 0\n", MalformedInput, "line 3: self-loop"),
    ("graph", "v 2\x85e 0 1\x85e 1 0\n", MalformedInput, "line 3: duplicate edge 0 1"),
    ("graph", "v 2\ncat 5\n  \ne 0 1\ne 0 9\n", MalformedInput, "line 5: endpoint out of range"),
    ("cover", "L 0\n", MalformedInput, "line 1: L line needs vertex and size"),
    ("cover", "L 0 x\n", MalformedInput, "line 1: bad L line"),
    ("cover", "L 9 1\n", MalformedInput, "line 1: unknown vertex 9"),
    ("cover", "L 0 1\nL 0 2\n", MalformedInput, "line 2: second L line for vertex 0"),
    ("cover", "L 0 -1\n", MalformedInput, "line 1: negative size"),
    ("cover", "M 0 0 1\n", MalformedInput, "line 1: M line needs u i w j"),
    ("cover", "M 0 0 1 x\n", MalformedInput, "line 1: bad M line"),
    ("cover", "M 0 0 3 0\n", MalformedInput, "line 1: M line on non-edge 0 3"),
    ("cover", "M 3 0 0 0\n", MalformedInput, "line 1: M line on non-edge 3 0"),
    ("cover", "M 1 1 1 1\n", MalformedInput, "line 1: M line on non-edge 1 1"),
    ("cover", "M 7 0 0 0\n", MalformedInput, "line 1: M line on non-edge 7 0"),
    ("cover", "M 1 0 0 0\nM 0 0 1 1\n", MalformedInput,
     "line 2: repeated color in matching on 0 1"),
    ("cover", "M 0 0 1 0\nM 1 0 0 1\n", MalformedInput,
     "line 2: repeated color in matching on 0 1"),
    ("cover", "M 3 0 2 1\n" + SIZES + "M 2 2 3 0\n", MalformedInput,
     "line 6: repeated color in matching on 2 3"),
    ("cover", "X 1\n", MalformedInput, "line 1: unknown record 'X'"),
    ("cover", "L 0 1\nL 1 1\nL 3 1\n", MalformedInput, "no L line for vertex 2"),
    ("cover", "M 0 5 1 0\n", MalformedInput, "no L line for vertex 0"),
    ("cover", SIZES + "M 1 2 0 0\n", MalformedInput, "matched color out of range on (0, 1)"),
    ("cover", SIZES + "M 0 0 1 -1\n", MalformedInput, "matched color out of range on (0, 1)"),
    # the range check runs at the end, edge by edge in first-seen order
    ("cover", "M 3 1 2 0\nM 0 0 1 9\n" + SIZES, MalformedInput,
     "matched color out of range on (2, 3)"),
    ("cover", "L 0 2\r\nL 1 2\r\nM 0 0 1 0\r\nM 0 1 1 0\r\n", MalformedInput,
     "line 4: repeated color in matching on 0 1"),
    ("cover", "L 0 2\x0cL 1 2\x85M 0 0 1 0\x0cM 0 0 1 1\n", MalformedInput,
     "line 4: repeated color in matching on 0 1"),
    ("cover", "comment\nL 0 2\nL 0 2\n", MalformedInput, "line 3: second L line for vertex 0"),
    ("lists", "B 0 1\n", MalformedInput, "line 1: unknown record 'B'"),
    ("lists", "A\n", MalformedInput, "line 1: A line needs a vertex"),
    ("lists", "A x 1\n", MalformedInput, "line 1: bad vertex 'x'"),
    ("lists", "A 0 1\nA 0 2\n", MalformedInput, "line 2: second A line for vertex 0"),
    ("lists", "A 0 1 1\n", MalformedInput, "line 1: duplicate token for vertex 0"),
    ("lists", "A 0 a b a\n", MalformedInput, "line 1: duplicate token for vertex 0"),
    ("lists", "A 0 1 +1\n", MalformedInput, "line 1: duplicate token for vertex 0"),
    ("lists", "A 0 1\r\nA 1 2\r\nA 1 3\r\n", MalformedInput, "line 3: second A line for vertex 1"),
    ("lists", "A 0 1\x0cA 1 2\x85A 2 x x\n", MalformedInput,
     "line 3: duplicate token for vertex 2"),
    ("lists", "cow 1 1\nA 0 a\nB\n", MalformedInput, "line 3: unknown record 'B'"),
    ("plane", "v 2\ne 0 1\nr\n", MalformedInput, "line 3: r line needs a vertex"),
    ("plane", "v 2\ne 0 1\nr x 0\n", MalformedInput, "line 3: bad vertex 'x'"),
    ("plane", "v 2\ne 0 1\nr 5 0\n", MalformedInput, "line 3: unknown vertex 5"),
    ("plane", "v 2\ne 0 1\nr 0 0\nr 0 0\n", MalformedInput, "line 4: second r line for vertex 0"),
    ("plane", "v 2\ne 0 1\nr 0 y\n", MalformedInput, "line 3: bad edge index 'y'"),
    ("plane", "v 2\ne 0 1\nr 0 1\n", MalformedInput, "line 3: edge index out of range"),
    ("plane", "v 3\ne 0 1\ne 1 2\nr 0 1\n", MalformedInput,
     "line 4: edge 1 not incident to vertex 0"),
    ("plane", "v 2\ne 0 1\nr 0 0\n", MalformedInput, "missing r line for vertex 1"),
    ("plane", "v 2\ne 0 1\nr 0 0\nq\n", MalformedInput, "line 4: unknown record 'q'"),
    # r lines are read after the graph: their errors come after every
    # graph-record error, and line numbers are the file's
    ("plane", "v 3\nr 0\nr 1\nr 2\ne 0 1\ne 0 2\ne 1 x\n", MalformedInput,
     "line 7: bad endpoint on e line"),
    ("plane", "v 2\nr 9\ne 0 0\n", MalformedInput, "line 3: self-loop"),
    ("plane", "r 0 0\nr 1 0\n", MalformedInput, "missing v line"),
    ("plane", "r 0 0\nr 1 0\nv 2\ne 0 1\nr 1 0\n", MalformedInput,
     "line 5: second r line for vertex 1"),
    ("plane", "v 2\r\ne 0 1\r\nr 0 0\r\nr 1 3\r\n", MalformedInput,
     "line 4: edge index out of range"),
    ("plane", "v 2\x0ce 0 1\x85r 0 0\x0cr 1 0 0\n", BadRotation,
     "rotation at 1 is not a permutation of neighbors"),
    ("plane", "v 3\ne 0 1\ne 0 2\ne 1 2\nr 0 0 0\nr 1 0 2\nr 2 1 2\n", BadRotation,
     "rotation at 0 is not a permutation of neighbors"),
    ("plane", "v 3\ne 0 1\ne 0 2\ne 1 2\nr 0 0\nr 1 0 2\nr 2 1 2\n", BadRotation,
     "rotation at 0 is not a permutation of neighbors"),
    # K4 with every rotation in one cyclic order: 2 faces, not 4
    ("plane", "v 4\ne 0 1\ne 0 2\ne 0 3\ne 1 2\ne 1 3\ne 2 3\n"
     "r 0 0 1 2\nr 1 0 3 4\nr 2 1 3 5\nr 3 2 4 5\n", BadRotation,
     "rotation system is not planar (Euler check failed)"),
    ("plane", "v 0\n", NotConnected, "a plane graph must be connected and non-empty"),
    ("plane", "v 3\ne 0 1\nr 0 0\nr 1 0\n", NotConnected,
     "a plane graph must be connected and non-empty"),
]


@pytest.mark.parametrize("parser, text, exc, message", ERRORS,
                         ids=["%s-%d" % (row[0], i) for i, row in enumerate(ERRORS)])
def test_parse_error_messages(parser, text, exc, message):
    with pytest.raises(exc) as ei:
        PARSERS[parser](text)
    assert type(ei.value) is exc
    assert str(ei.value) == message


def _round_trip_files():
    """(kind, name, text, graph text for a cover) of every base file."""
    files = []
    for hubs, rim in ((1, 16), (2, 20), (3, 30)):
        pg, cover = generate_hub_instance(hubs, rim, hubs)
        name = "hubs%d" % hubs
        files += [("plane", name, write_plane(pg), None),
                  ("graph", name, write_graph(pg.g), None),
                  ("cover", name, write_cover(cover), write_graph(pg.g))]
    pg = drum_plane(4, perm=(0, 3, 1, 2))
    files += [("plane", "drum", write_plane(pg), None),
              ("graph", "drum", write_graph(pg.g), None),
              ("cover", "drum.forcing", write_cover(drum_forcing_cover(pg)), write_graph(pg.g)),
              ("cover", "drum.identity", write_cover(drum_identity_cover(pg.g)),
               write_graph(pg.g))]
    gadget = build_H()
    files += [("plane", "H", write_plane(gadget.plane), None),
              ("graph", "H", write_graph(gadget.g), None),
              ("lists", "H", write_lists(gadget.lists), None)]
    g, lists = build_k2_k2(2)
    files += [("graph", "k2k2", write_graph(g), None),
              ("lists", "k2k2", write_lists(lists), None)]
    return files


# what a mutation may write: ints in and out of range, signs, words,
# record words and a comment word
TOKENS = ["0", "1", "2", "3", "5", "7", "9", "12", "40", "-1", "+1", "x", "a", "1_0",
          "v", "e", "r", "L", "M", "A", "c", "cx"]
SEPARATORS = ["\r\n", "\r", "\x0c", "\x0b", "\x85", " ", "", "\n\n", " \n"]


def _mutate(text, rng):
    """text with one to three random edits of its tokens, lines or line
    separators."""
    for _ in range(rng.choice((1, 1, 2, 3))):
        lines = text.split("\n")
        at = rng.randrange(len(lines))
        words = lines[at].split(" ")
        how = rng.randrange(8)
        if how == 0:
            words[rng.randrange(len(words))] = rng.choice(TOKENS)
        elif how == 1:
            words.insert(rng.randrange(len(words) + 1), rng.choice(TOKENS))
        elif how == 2:
            del words[rng.randrange(len(words))]
        elif how == 3:
            lines.insert(at, lines[at])
        elif how == 4:
            del lines[at]
        elif how == 5:
            other = rng.randrange(len(lines))
            lines[at], lines[other] = lines[other], lines[at]
        if how < 3:
            lines[at] = " ".join(words)
        text = "\n".join(lines)
        if how >= 6 and "\n" in text:
            cut = rng.choice([i for i, ch in enumerate(text) if ch == "\n"])
            text = text[:cut] + rng.choice(SEPARATORS) + text[cut + 1:]
    return text


def _outcome(parse, *args):
    try:
        return "ok", parse(*args)
    except Exception as exc:  # the reference's outcome, whatever it is, must be matched
        return "raised", (type(exc), str(exc))


def _graph_form(g):
    return (sorted(g.vertices), [(v, list(ns)) for v, ns in g.adj.items()])


def _form(kind, obj):
    """Everything a parsed object holds, orders included."""
    if kind == "graph":
        return _graph_form(obj)
    if kind == "cover":
        return (list(obj.sizes.items()),
                [(e, list(d.items())) for e, d in obj._m.items()])
    if kind == "lists":
        return [(v, [(type(t), t) for t in ts]) for v, ts in obj.items()]
    return (_graph_form(obj.g), list(obj.rot.items()), obj.faces,
            list(obj._edge_face.items()), obj.outer)


NEW = {"graph": parse_graph, "cover": parse_cover, "lists": parse_lists, "plane": parse_plane}
REFERENCE = {"graph": reference_parse_graph, "cover": reference_parse_cover,
             "lists": reference_parse_lists, "plane": reference_parse_plane}


def _same_outcome(kind, text, graph):
    args = (text,) if graph is None else (text, graph)
    ref = _outcome(REFERENCE[kind], *args)
    new = _outcome(NEW[kind], *args)
    if ref[0] == "ok" and new[0] == "ok":
        assert _form(kind, new[1]) == _form(kind, ref[1]), (kind, text)
    else:
        assert new == ref, (kind, text)
    return ref[0]


def test_parsers_match_reference_on_round_trip_files():
    for kind, name, text, graph_text in _round_trip_files():
        graph = None if graph_text is None else reference_parse_graph(graph_text)
        assert _same_outcome(kind, text, graph) == "ok", name


MUTATIONS = 6000


def test_parsers_match_reference_on_mutated_files():
    files = _round_trip_files()
    graphs = {text: reference_parse_graph(text) for _, _, _, text in files if text is not None}
    rng = random.Random(2028)
    outcomes = {"ok": 0, "raised": 0}
    for _ in range(MUTATIONS):
        kind, name, text, graph_text = rng.choice(files)
        outcomes[_same_outcome(kind, _mutate(text, rng), graphs.get(graph_text))] += 1
    # both outcomes are well covered
    assert min(outcomes.values()) >= MUTATIONS // 20, outcomes
