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
`build --family drum` writes.

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
"""

import hashlib

import pytest

from corpus import connected_graph_classes, planar_classes, random_connected_planar
from dpchroma.cli import main
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


def _oracle_lines(n, ci, g, dp):
    """Verdict and certificate lines of class ci on n vertices: the
    choosability oracle's, then the DP oracle's when dp is set."""
    ok, lists = is_degree_choosable(g)
    cert = None if ok else sorted((v, list(lst)) for v, lst in lists.items())
    lines = ["ch %d %d %s %r" % (n, ci, ok, cert)]
    if dp:
        ok, cover = is_degree_dp_colorable(g)
        cert = None if ok else (sorted(cover.sizes.items()),
                                [(e, cover.edge_pairs(*e)) for e in g.edges()])
        lines.append("dp %d %d %s %r" % (n, ci, ok, cert))
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
