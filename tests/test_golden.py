"""Golden digests of the CLI outputs on seeded hub instances.

For hubs 2 at rims 24 and 60, and hubs 3 at rims 30 and 60 (the fan
wheel needs rim 30 for both fan hubs to reach degree 16), with seed 7,
the test runs `gen`, `color-planar`, `color-minor` and `nice` through
`cli.main` and pins the sha256 of each output:

- gen: the .plane file followed by the .cover file;
- planar, minor: the trace file followed by the printed witness;
- nice: the printed covering subgraph.

GEN_SWEEP_GOLDEN pins the `gen` files over hubs 1-3, rims 32, 240 and
1000, and seeds 1 and 7; DRUM_FILES_GOLDEN pins the four files that
`build --family drum` writes, and BUILD_FILES_GOLDEN the two files of
`build --family G42` and of `build --family ks --s 3 --k 3`.

`color-minor` reads the graph records of the .plane file (its `r` lines
dropped) and runs with s = hubs, t = 2 and the override
q=6,k=16,peel=2,degen=1.

The hub traces never show a minor protection, so PROTECTION_GOLDEN also
pins trace plus witness (in the CLI's `v <vertex> <color>` form) of the
runs that do: the planar pipeline on the drum fixture with
drum_forcing_cover at quarters 15 and 30, and the minor pipeline on the
fixtures of test_color_minor_double_protection and
test_color_minor_drum_interleaves_r1.  Refactors must leave every digest
unchanged.

H_GOLDEN pins the covering subgraph H itself: one sha256 over the
sorted `very_nice_subgraph` output for every outer face and every outer
v_star of each planar class on at most 5 vertices, plus the random
planar graphs of test_sweep_random_planar.  That covers the leaf-block,
ear, suppress and interior branches.  PIECES_GOLDEN pins
`component_planes` (piece, outer face, face-to-class map, v_star) on the
chord-augmented hub instances above and the drum fixture at quarters
15 and 30.  ORACLE_GOLDEN pins the verdict and certificate of both
quantified oracles (`is_degree_choosable`, `is_degree_dp_colorable`) on
every connected class on at most 5 vertices: the bad lists, or the
cover's sizes and the matching on every edge.  ORACLE_GOLDEN_6 pins the
same past n = 5: choosability on all 112 classes with n = 6, and
DP-colorability on the 38 of them with at most 7 edges.
ORACLE_DP_GOLDEN_6_DENSE pins the DP oracle on the other 74 classes
with n = 6: verdict and certificate on the 71 under the cover cap, and
the refusal of K6, K5 plus a pendant and the octahedron.

SOLVE_GOLDEN pins the stdout of `solve`: on 100 seeded colorable list
instances whose lists mix int and str tokens, on 100 seeded colorable
covers, on the 2-list path of 5,000 vertices, and on the files of
`build --family k2k2 --k 2` (UNCOLORABLE).
"""

import hashlib
import itertools
import random

import pytest

from corpus import connected_graph_classes, planar_classes, random_connected_planar
from dpchroma.cli import main
from dpchroma.core_graph import Graph, write_graph
from dpchroma.dp_cover import Cover, write_cover, write_lists
from dpchroma.errors import InstanceTooLarge
from dpchroma.exact_oracle import is_degree_choosable, is_degree_dp_colorable
from dpchroma.generators import drum_forcing_cover, drum_plane, generate_hub_instance
from dpchroma.minor_truncated import color_minor_truncated
from dpchroma.planar_truncated import color_planar_truncated, partition_threshold
from dpchroma.plane_embed import (FaceClasses, PlaneGraph, augment_visibility,
                                  component_planes, very_nice_subgraph)
from test_minor_truncated import double_protection_instance, drum_minor_instance

SEED = 7

GOLDEN = {
    (2, 24): {
        "gen": "59e8ab7d10683fb97b682ea98e2b7ef82cc7917709dbe5732a17b9b487d12032",
        "planar": "dec467bd10e9a7d2606aeb61b85f9bec1ab645c5e25efea751d83026055ae7b8",
        "minor": "01435f3a52d2d84149de649f21417fc442675793cbc9cfa177f5207c4ecb16d8",
        "nice": "aaf76a3a6cb08034c7e724e04d0871b497e2799d89f0df286a89811af61a1365",
    },
    (2, 60): {
        "gen": "809ca7e63514e52b23f9467f75923249153fe76212b58359fe42d5bea66bcc56",
        "planar": "dac87a2d12cd8b09a5716bb828a8bf256fd9e5f210c39af782a50302af809164",
        "minor": "bcd5564920184bdf9d67e85588b053c84c9b7f3e661ae186160586e903b8f7fa",
        "nice": "5e2c679869e9d31392facbb2c0747b0890322fcf3a03591dff6f6bb0b4288e30",
    },
    (3, 30): {
        "gen": "ca0d356cf56f4c2b1d5769dfa69560054864566e2ae0033fc84e67908cd6a971",
        "planar": "dbe3630e548d2ee5f6cc12678808dcab0c9236e207fd8f9f467f6e63eeafa4d9",
        "minor": "3f4dc8e3879ca23e70d02139630dde3744b4014552d6fffb5dd51bd48485ffd1",
        "nice": "25b6a90d62e8d940db11b245cd9a204ed5d6ebc336197e0406be48df508e3b1b",
    },
    (3, 60): {
        "gen": "6f6da9efc67527c7a447cce41bd2b070e59cbeebe8c42951e251e07e1de7e6dd",
        "planar": "f4f464b110b6e5496331d453d570c6d8496cf05694270d9c5c6a7f04a1ccf1da",
        "minor": "cfbba61b4e0bf36445ba8463914c7f7b59d8faa5566cffa85cc7a7f4ec794a1c",
        "nice": "9ea2c0feb614714e9377cc5f5f525deb61ca8162e621dfee38612fa46e51d4ce",
    },
}


def _run(capsys, argv):
    assert main(argv) == 0
    return "".join(ln + "\n" for ln in capsys.readouterr().out.splitlines()
                   if not ln.startswith("wrote "))


def golden_outputs(tmp_path, capsys, hubs, rim):
    """Output texts of the four subcommands on one generated instance."""
    pre = str(tmp_path / ("h%d.r%d" % (hubs, rim)))
    _run(capsys, ["gen", "--hubs", str(hubs), "--rim", str(rim),
                  "--seed", str(SEED), "--out", pre])
    with open(pre + ".plane") as fh:
        plane = fh.read()
    with open(pre + ".cover") as fh:
        cover = fh.read()
    with open(pre + ".graph", "w") as fh:
        fh.write("".join(ln + "\n" for ln in plane.splitlines() if not ln.startswith("r ")))
    out = {"gen": plane + cover}
    planar_witness = _run(capsys, ["color-planar", "--embed", pre + ".plane",
                                   "--cover", pre + ".cover", "--trace", pre + ".pt"])
    with open(pre + ".pt") as fh:
        out["planar"] = fh.read() + planar_witness
    minor_witness = _run(capsys, ["color-minor", "--graph", pre + ".graph",
                                  "--cover", pre + ".cover", "--s", str(hubs), "--t", "2",
                                  "--override", "q=6,k=16,peel=2,degen=1",
                                  "--trace", pre + ".mt"])
    with open(pre + ".mt") as fh:
        out["minor"] = fh.read() + minor_witness
    out["nice"] = _run(capsys, ["nice", "--embed", pre + ".plane"])
    return out


@pytest.mark.parametrize("hubs,rim", sorted(GOLDEN))
def test_golden_digests(tmp_path, capsys, hubs, rim):
    out = golden_outputs(tmp_path, capsys, hubs, rim)
    got = {k: hashlib.sha256(text.encode()).hexdigest() for k, text in out.items()}
    assert got == GOLDEN[(hubs, rim)]


# `gen` over hubs 1-3, rims 32/240/1000 and seeds 1 and 7, looped in that
# order: each run's .plane bytes, then its .cover bytes, all concatenated
GEN_SWEEP_GOLDEN = "dd5763ef80dfb4e9f4599c1b12e7e7523517407605515d88dfd17c3398a800e4"

# the four files of `build --family drum` (quarter 480, perm (0, 3, 1, 2))
DRUM_FILES_GOLDEN = {
    ".plane": "7f83bef58d9dceb19a7fbbd9a828e21f313122d2a4684f4fb6e7a2faad3670cf",
    ".graph": "3274ef0223dca512cfbdde0867bbfafdca1f0585357a8892a8b8a9b74b3776a9",
    ".forcing.cover": "1f52956ae6b92e39247e3c3b7a2dafe4d4ffca19b5da5cb4cd87a8405464386e",
    ".identity.cover": "b85ed0fc348b1b5c532adaeae883cd17dfa49652b8908acb9c3a8f34b8086bf1",
}


def _file_digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def test_gen_sweep_digest(tmp_path, capsys):
    pre = str(tmp_path / "g")
    h = hashlib.sha256()
    for hubs in (1, 2, 3):
        for rim in (32, 240, 1000):
            for seed in (1, 7):
                _run(capsys, ["gen", "--hubs", str(hubs), "--rim", str(rim),
                              "--seed", str(seed), "--out", pre])
                for ext in (".plane", ".cover"):
                    with open(pre + ext, "rb") as fh:
                        h.update(fh.read())
    assert h.hexdigest() == GEN_SWEEP_GOLDEN


def test_build_drum_digests(tmp_path, capsys):
    pre = str(tmp_path / "drum")
    _run(capsys, ["build", "--family", "drum", "--out", pre])
    assert {ext: _file_digest(pre + ext) for ext in DRUM_FILES_GOLDEN} == DRUM_FILES_GOLDEN


# the G42 pair concatenated is perfbench/digests.json's files.G42
BUILD_FILES_GOLDEN = {
    ("G42", ".graph"): "96a6e3f598048e2a07b100f4b9ebea14d7e51e1c9114fc4d45fe9299825266fd",
    ("G42", ".lists"): "d5003495e1fa8dbef9c438be22f2808d9b132fa33a84339e3afaf339f4363b5b",
    ("ks", ".graph"): "be158c0f9387075730087e32c2d7636eddeabc65814684529219050222042c84",
    ("ks", ".lists"): "7bf7c8041053c10ec8356b38558938059b331f03d5f7032fdd1756e5fd8bc508",
}


def test_build_family_digests(tmp_path, capsys):
    _run(capsys, ["build", "--family", "G42", "--out", str(tmp_path / "G42")])
    _run(capsys, ["build", "--family", "ks", "--s", "3", "--k", "3", "--out", str(tmp_path / "ks")])
    got = {(pre, ext): _file_digest(str(tmp_path / pre) + ext) for pre, ext in BUILD_FILES_GOLDEN}
    assert got == BUILD_FILES_GOLDEN


def _planar_drum(quarter):
    pg = drum_plane(quarter, perm=(0, 3, 1, 2))
    cover = drum_forcing_cover(pg)
    return lambda trace: color_planar_truncated(pg, cover, trace=trace)


def _minor(instance):
    g, cover, params = instance()
    return lambda trace: color_minor_truncated(g, cover, params, trace=trace)


# name -> () -> run(trace) -> witness; each run fires R2 protections
PROTECTION_RUNS = {
    "planar-drum-q15": lambda: _planar_drum(15),
    "planar-drum-q30": lambda: _planar_drum(30),
    "minor-double-protection": lambda: _minor(double_protection_instance),
    "minor-drum": lambda: _minor(drum_minor_instance),
}

PROTECTION_GOLDEN = {
    "planar-drum-q15": "76c26f703c387b0d5f815ec0c5632685c6528962053eb933ef37fd95c2cd5f71",
    "planar-drum-q30": "14b9ec993906784707bd08b84ec2fcf8408518b3fe725e9f7318634441699245",
    "minor-double-protection": "48699921ca8dd22bdb885d3969c83642177927ca6679749e849f71cc33a426ef",
    "minor-drum": "37435fcb2fd9e669c936b4f060a66e5e4d60777abc16d2c40e2b651cb581f91f",
}


@pytest.mark.parametrize("name", sorted(PROTECTION_RUNS))
def test_protection_digests(name):
    trace = []
    phi = PROTECTION_RUNS[name]()(trace)
    text = "".join(ln + "\n" for ln in trace)
    text += "".join("v %s %s\n" % (v, phi[v][1]) for v in sorted(phi))
    assert "protects" in text
    assert hashlib.sha256(text.encode()).hexdigest() == PROTECTION_GOLDEN[name]


H_GOLDEN = "292cea8048da13119d2a2a6e5cdbef2cd14f0a58f6347726ab80aa3003c79706"
PIECES_GOLDEN = "bd419ac19db83b22b6cdb71431e52bb66f20b55a8492ad896fb2edc247c10e47"
ORACLE_GOLDEN = "d6835479251098155e7503f25cd25b7fcc1d7af08000e4d46e01f3d2c249526b"
ORACLE_GOLDEN_6 = "fdd8b3ba39a15d67dba3f74e57579cad3bbf2a7b7e0b2b7fcc0dd3a9340be1c4"
ORACLE_DP_GOLDEN_6_DENSE = "4e1ae9fe747f40c3dc75d075d938c2866e06c6c64782688e3d2d7e578109d330"


def _digest(lines):
    return hashlib.sha256("".join(ln + "\n" for ln in lines).encode()).hexdigest()


def test_covering_subgraph_digest():
    lines = []
    for n in range(1, 6):
        for ci, (g, rot) in enumerate(planar_classes(n)):
            pg = PlaneGraph(g, rot)
            for outer in range(pg.face_count()):
                pg.outer = outer
                for v_star in sorted(pg.face_vertices(pg.outer)):
                    h = sorted(very_nice_subgraph(pg, v_star))
                    lines.append("%d %d %d %d %r" % (n, ci, outer, v_star, h))
    for seed in range(12):
        g, rot = random_connected_planar(8 + seed, extra_edges=seed % 4, seed=seed)
        pg = PlaneGraph(g, rot)
        v_star = min(pg.face_vertices(pg.outer))
        lines.append("r %d %r" % (seed, sorted(very_nice_subgraph(pg, v_star))))
    assert len(lines) > 250
    assert _digest(lines) == H_GOLDEN


def test_component_planes_digest():
    planes = [("hub %d %d" % key, generate_hub_instance(key[0], key[1], SEED)[0])
              for key in sorted(GOLDEN)]
    planes += [("drum %d" % q, drum_plane(q, perm=(0, 3, 1, 2))) for q in (15, 30)]
    lines = []
    for name, pg in planes:
        v2 = partition_threshold(pg.g)[1]
        fc = FaceClasses(augment_visibility(pg, v2), v2)
        for comp, pgq, cmap, v_star in component_planes(fc):
            lines.append("%s %r %d %r %r" % (name, comp, pgq.outer, sorted(cmap.items()), v_star))
    assert len(lines) >= 6
    assert _digest(lines) == PIECES_GOLDEN


def _dp_line(n, ci, g):
    """The DP oracle's verdict and certificate line of class ci on n
    vertices."""
    ok, cover = is_degree_dp_colorable(g)
    cert = None if ok else (sorted(cover.sizes.items()),
                            [(e, cover.edge_pairs(*e)) for e in g.edges()])
    return "dp %d %d %s %r" % (n, ci, ok, cert)


def _oracle_lines(n, ci, g, dp):
    """Verdict and certificate lines of class ci on n vertices: the
    choosability oracle's, then the DP oracle's when dp is set."""
    ok, lists = is_degree_choosable(g)
    cert = None if ok else sorted((v, list(lst)) for v, lst in lists.items())
    lines = ["ch %d %d %s %r" % (n, ci, ok, cert)]
    if dp:
        lines.append(_dp_line(n, ci, g))
    return lines


def test_oracle_certificates_digest():
    lines = []
    for n in range(1, 6):
        for ci, g in enumerate(connected_graph_classes(n)):
            lines += _oracle_lines(n, ci, g, True)
    assert len(lines) == 2 * (1 + 1 + 2 + 6 + 21)
    assert _digest(lines) == ORACLE_GOLDEN


def test_oracle_certificates_digest_at_six_vertices():
    lines = []
    for ci, g in enumerate(connected_graph_classes(6)):
        lines += _oracle_lines(6, ci, g, g.m <= 7)
    assert len(lines) == 112 + 38
    assert _digest(lines) == ORACLE_GOLDEN_6


def test_dp_certificates_digest_on_dense_six_vertex_classes():
    lines = []
    refused = []
    for ci, g in enumerate(connected_graph_classes(6)):
        if g.m >= 8:
            try:
                lines.append(_dp_line(6, ci, g))
            except InstanceTooLarge:
                lines.append("dp 6 %d InstanceTooLarge" % ci)
                refused.append(sorted(g.degree(v) for v in g.vertices))
    assert len(lines) == 74
    # K5 plus a pendant, the octahedron and K6: past the cover cap
    assert refused == [[1, 4, 4, 4, 4, 5], [4] * 6, [5] * 6]
    assert _digest(lines) == ORACLE_DP_GOLDEN_6_DENSE


SOLVE_GOLDEN = "f246cb2bba66c0f603bb7aaad9827cb0c19a1d8a80dd6ff7cab71ef36d9aad49"


def _solve_stdout(capsys, tmp_path, g, flag, text):
    """(exit code, stdout) of `solve` on g and one --lists or --cover file."""
    (tmp_path / "s.graph").write_text(write_graph(g))
    (tmp_path / "s.data").write_text(text)
    rc = main(["solve", "--graph", str(tmp_path / "s.graph"), flag, str(tmp_path / "s.data")])
    return rc, capsys.readouterr().out


def _seeded_graph(rng):
    n = rng.randint(2, 14)
    return Graph(range(n), [e for e in itertools.combinations(range(n), 2)
                            if rng.random() < 0.3])


def test_solve_witness_digest(tmp_path, capsys):
    rng = random.Random(35)
    outs = []
    mixed = 0
    while len(outs) < 100:
        g = _seeded_graph(rng)
        lists = {v: rng.sample((0, 1, 2, 3, "a", "b", "c"), rng.randint(2, 4)) for v in g.vertices}
        rc, out = _solve_stdout(capsys, tmp_path, g, "--lists", write_lists(lists))
        if rc == 0:
            outs.append(out)
            mixed += any(len({type(t) for t in ts}) == 2 for ts in lists.values())
    while len(outs) < 200:
        g = _seeded_graph(rng)
        sizes = {v: rng.randint(1, 4) for v in g.vertices}
        matchings = {}
        for u, w in g.edges():
            cols = rng.sample(range(sizes[w]), min(sizes[u], sizes[w]))
            matchings[(u, w)] = [(i, j) for i, j in enumerate(cols) if rng.random() < 0.8]
        rc, out = _solve_stdout(capsys, tmp_path, g, "--cover",
                                write_cover(Cover(g, sizes, matchings)))
        if rc == 0:
            outs.append(out)
    n = 5000
    path = Graph(range(n), [(i, i + 1) for i in range(n - 1)])
    rc, out = _solve_stdout(capsys, tmp_path, path, "--lists",
                            "".join("A %d a b\n" % v for v in range(n)))
    assert rc == 0 and len(out.splitlines()) == n
    outs.append(out)
    pre = str(tmp_path / "w")
    _run(capsys, ["build", "--family", "k2k2", "--k", "2", "--out", pre])
    assert main(["solve", "--graph", pre + ".graph", "--lists", pre + ".lists"]) == 10
    out = capsys.readouterr().out
    assert out == "UNCOLORABLE\n"
    outs.append(out)
    assert mixed >= 50
    assert hashlib.sha256("".join(outs).encode()).hexdigest() == SOLVE_GOLDEN
