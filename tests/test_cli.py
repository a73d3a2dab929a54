import os
import subprocess
import sys

import pytest

from dpchroma import cli, constructions, errors
from dpchroma.cli import main, run_report
from dpchroma.constructions import verify_counterexample
from dpchroma.core_graph import Graph, write_graph
from dpchroma.dp_cover import write_cover
from dpchroma.generators import Xorshift64Star, generate_hub_instance
from dpchroma.plane_embed import write_plane


def test_xorshift_pinned_stream():
    r = Xorshift64Star(1)
    assert [r.next64() for _ in range(3)] == [
        5180492295206395165, 12380297144915551517, 13389498078930870103]
    r = Xorshift64Star(9)
    assert [r.randrange(10) for _ in range(6)] == [7, 5, 0, 9, 9, 7]
    assert Xorshift64Star(5).shuffle(list(range(8))) == [0, 5, 3, 6, 7, 1, 2, 4]
    assert Xorshift64Star(0).x != 0  # zero seed is remapped, not a fixed point
    with pytest.raises(ValueError):
        Xorshift64Star(1).randrange(0)


def test_run_report_text():
    out = run_report([("alpha", True), ("beta", True, "42 cases")])
    assert out.splitlines() == ["ok alpha", "ok beta 42 cases", "PASS"]
    out = run_report([("alpha", True), ("beta", False, "boom")])
    assert out.splitlines()[-1] == "FAIL (1 of 2 checks)"
    assert "FAIL beta boom" in out
    assert run_report([]).strip() == "PASS (0 checks)"


def test_gen_files_deterministic(tmp_path, capsys):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(["gen", "--hubs", "2", "--rim", "24", "--seed", "7",
                 "--out", str(a)]) == 0
    head = capsys.readouterr().out
    assert head.startswith("c seed 7 hubs 2 rim 24")
    assert main(["gen", "--hubs", "2", "--rim", "24", "--seed", "7",
                 "--out", str(b)]) == 0
    for ext in (".plane", ".cover"):
        ta = (tmp_path / ("a" + ext)).read_bytes()
        assert ta == (tmp_path / ("b" + ext)).read_bytes()
        assert ta.startswith(b"c seed 7 hubs 2 rim 24\n")
    assert main(["gen", "--hubs", "2", "--rim", "24", "--seed", "8",
                 "--out", str(a)]) == 0
    assert (tmp_path / "a.cover").read_bytes() != (tmp_path / "b.cover").read_bytes()


def test_gen_then_color_planar(tmp_path, capsys):
    pre = tmp_path / "inst"
    assert main(["gen", "--hubs", "1", "--rim", "20", "--seed", "3",
                 "--out", str(pre)]) == 0
    capsys.readouterr()
    argv = ["color-planar", "--embed", str(pre) + ".plane",
            "--cover", str(pre) + ".cover", "--trace", str(tmp_path / "t")]
    assert main(argv) == 0
    first = capsys.readouterr().out
    lines = [ln for ln in first.splitlines() if ln.startswith("v ")]
    assert len(lines) == 21
    trace = (tmp_path / "t").read_text().splitlines()
    assert trace and all(ln.split()[0] in ("R1", "R2") for ln in trace)
    assert sum(1 for ln in trace if ln.startswith("R2")) == 1
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_solve_cover_and_lists(tmp_path, capsys):
    gp = tmp_path / "g"
    gp.write_text("v 2\ne 0 1\n")
    (tmp_path / "c").write_text("L 0 1\nL 1 1\n")
    assert main(["solve", "--graph", str(gp), "--cover", str(tmp_path / "c")]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["v 0 0", "v 1 0"]  # empty matching, same index is fine
    (tmp_path / "l").write_text("A 0 x\nA 1 y\n")
    assert main(["solve", "--graph", str(gp), "--lists", str(tmp_path / "l")]) == 0
    assert capsys.readouterr().out.splitlines() == ["v 0 x", "v 1 y"]


def test_build_then_solve_negative(tmp_path, capsys):
    pre = tmp_path / "w"
    assert main(["build", "--family", "k2k2", "--k", "2", "--out", str(pre)]) == 0
    capsys.readouterr()
    rc = main(["solve", "--graph", str(pre) + ".graph",
               "--lists", str(pre) + ".lists"])
    assert rc == 10
    assert capsys.readouterr().out.strip() == "UNCOLORABLE"


def test_build_h_and_nice(tmp_path, capsys):
    pre = tmp_path / "h"
    assert main(["build", "--family", "H", "--out", str(pre)]) == 0
    for ext in (".graph", ".lists", ".plane"):
        assert (tmp_path / ("h" + ext)).exists()
    capsys.readouterr()
    assert main(["nice", "--embed", str(pre) + ".plane"]) == 0
    first = capsys.readouterr().out
    assert first and all(ln.startswith("h v ") for ln in first.splitlines())
    assert main(["nice", "--embed", str(pre) + ".plane"]) == 0
    assert capsys.readouterr().out == first


def test_color_minor_cli(tmp_path, capsys):
    from test_minor_truncated import two_c5_instance

    g, cov = two_c5_instance()
    gp = tmp_path / "g"
    cp = tmp_path / "c"
    gp.write_text(write_graph(g))
    cp.write_text(write_cover(cov))
    rc = main(["color-minor", "--graph", str(gp), "--cover", str(cp),
               "--s", "2", "--t", "2", "--override", "q=7,k=10,peel=2,degen=1",
               "--trace", str(tmp_path / "t")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "v 11 0" in out.splitlines()
    assert (tmp_path / "t").read_text() == "R2 11 11.0\nR2 10 10.4 protects 0 5\n"


def test_verify_smoke_and_report_wiring(capsys, monkeypatch):
    assert main(["verify", "--family", "k2k2", "--k", "1"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == "PASS"
    monkeypatch.setattr(cli, "verify_counterexample",
                        lambda *a, **k: [("good", True), ("bad", False, "boom")])
    assert main(["verify", "--family", "k2k2", "--k", "1"]) == 10
    out = capsys.readouterr().out
    assert "FAIL bad boom" in out


def test_input_errors_exit_2(tmp_path, capsys):
    assert main(["solve", "--graph", str(tmp_path / "nope"),
                 "--lists", str(tmp_path / "nope2")]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["build", "--family", "ks", "--k", "2",
                 "--out", str(tmp_path / "x")]) == 2
    capsys.readouterr()
    assert main(["build", "--family", "k2k2", "--out", str(tmp_path / "x")]) == 2
    assert "error: k2k2 needs --k" in capsys.readouterr().err
    assert main(["gen", "--hubs", "3", "--rim", "20", "--seed", "1",
                 "--out", str(tmp_path / "x")]) == 2
    assert main(["gen", "--hubs", "5", "--rim", "40", "--seed", "1",
                 "--out", str(tmp_path / "x")]) == 2
    g, cov = __import__("test_minor_truncated").two_c5_instance()
    (tmp_path / "g").write_text(write_graph(g))
    (tmp_path / "c").write_text(write_cover(cov))
    assert main(["color-minor", "--graph", str(tmp_path / "g"),
                 "--cover", str(tmp_path / "c"), "--s", "2", "--t", "2",
                 "--override", "frob=1"]) == 2
    capsys.readouterr()
    for bad, named in ((["--s", "0", "--t", "2"], "s must be"),
                       (["--s", "2", "--t", "0"], "t must be"),
                       (["--s", "2", "--t", "2", "--override", "q=0"], "q must be")):
        assert main(["color-minor", "--graph", str(tmp_path / "g"),
                     "--cover", str(tmp_path / "c")] + bad) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err
    (tmp_path / "p2").write_text("v 2\ne 0 1\n")
    for lists, named in (("A 0 1 2\n", "no list for vertex 1"),
                         ("A 0 1 2\nA 1 1 2\nA 7 1 2\n", "list for vertex 7, which is not")):
        (tmp_path / "l").write_text(lists)
        assert main(["solve", "--graph", str(tmp_path / "p2"),
                     "--lists", str(tmp_path / "l")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err
    (tmp_path / "empty.plane").write_text("v 0\n")
    (tmp_path / "split.plane").write_text("v 3\ne 0 1\nr 0 0\nr 1 0\n")
    for plane in ("empty.plane", "split.plane"):
        for argv in (["nice"], ["color-planar", "--cover", str(tmp_path / "c")]):
            assert main(argv + ["--embed", str(tmp_path / plane)]) == 2
            assert "error: a plane graph must be connected" in capsys.readouterr().err
    pg = __import__("test_planar_truncated").two_k4_plane()
    (tmp_path / "k4k4.plane").write_text(write_plane(pg))
    (tmp_path / "k4k4.cover").write_text("".join("L %d %d\n" % (v, pg.g.degree(v))
                                                 for v in sorted(pg.g.vertices)))
    assert main(["color-planar", "--embed", str(tmp_path / "k4k4.plane"),
                 "--cover", str(tmp_path / "k4k4.cover")]) == 2
    assert capsys.readouterr().err == "error: input graph is not 3-connected\n"


def test_bad_override_values_exit_2(tmp_path, capsys):
    pg, cover = generate_hub_instance(2, 24, 1)
    (tmp_path / "g").write_text(write_graph(pg.g))
    (tmp_path / "c").write_text(write_cover(cover))
    base = ["color-minor", "--graph", str(tmp_path / "g"), "--cover", str(tmp_path / "c"),
            "--s", "2", "--t", "2", "--override"]
    for override, first in (("degen=-1", "error: degeneracy_bound must be at least 0 (got -1)"),
                            ("peel=-1", "error: peel_bound must be at least 0 (got -1)"),
                            ("q=x", "error: bad override 'q=x' (use q=,k=,peel=,degen=)"),
                            ("q=7,q=8,k=16", "error: bad override 'q=8' (q= is given twice)")):
        assert main(base + [override]) == 2
        err = capsys.readouterr().err
        assert err.splitlines()[0] == first
        assert "Traceback" not in err


def test_solve_budget_below_one_exits_2(tmp_path, capsys):
    (tmp_path / "g").write_text("v 2\ne 0 1\n")
    (tmp_path / "l").write_text("A 0 x\nA 1 x\n")
    base = ["solve", "--graph", str(tmp_path / "g"), "--lists", str(tmp_path / "l")]
    for budget in ("0", "-1"):
        assert main(base + ["--budget", budget]) == 2
        assert capsys.readouterr().err == "error: --budget must be at least 1 (got %s)\n" % budget
    assert main(base + ["--budget", "1"]) == 10


def test_solve_on_a_10000_vertex_path_exits_0(tmp_path, capsys):
    n = 10000
    (tmp_path / "g").write_text(write_graph(Graph(range(n), [(i, i + 1) for i in range(n - 1)])))
    (tmp_path / "l").write_text("".join("A %d a b\n" % v for v in range(n)))
    assert main(["solve", "--graph", str(tmp_path / "g"), "--lists", str(tmp_path / "l")]) == 0
    out = capsys.readouterr().out.splitlines()
    # the pick starts at vertex 1, the smallest of degree 2
    assert out == ["v %d %s" % (v, "ba"[v % 2]) for v in range(n)]


def test_verify_jobs_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--family", "k2k2", "--k", "2", "--jobs", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err
    with pytest.raises(ValueError):
        verify_counterexample("G42", jobs=2)


def test_k2k2_past_the_big_side_cap_exits_2(capsys):
    assert main(["verify", "--family", "k2k2", "--k", "65"]) == 2
    assert "big side would have k^2 vertices with k=65 (cap 4096)" in capsys.readouterr().err


BIG_K = 10 ** 2999  # 3000 digits: k^2 would pass the 4300-digit limit of str(int)


@pytest.mark.parametrize("argv, err", [
    (["verify", "--family", "ks", "--s", "100000", "--k", "3"],
     "small side would have s-1 vertices with s=100000 (cap 12)"),
    (["verify", "--family", "ks", "--s", "1000000", "--k", "1"],
     "small side would have s-1 vertices with s=1000000 (cap 12)"),
    (["verify", "--family", "ks", "--s", "13", "--k", "3"],
     "big side would have k^(s-1) vertices with s=13, k=3 (cap 4096)"),
    (["build", "--family", "k2k2", "--k", str(BIG_K)],
     "big side would have k^2 vertices with k=%d (cap 4096)" % BIG_K),
], ids=["ks-s100000", "ks-k1", "ks-big-side", "k2k2-3000-digits"])
def test_huge_family_parameters_end_in_the_refusal(tmp_path, capsys, argv, err):
    if argv[0] == "build":
        argv = argv + ["--out", str(tmp_path / "o")]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: %s\n" % err
    assert not list(tmp_path.iterdir())


def test_entry_gate_names_the_size_it_needs(tmp_path, capsys):
    # k of constants(1500, 2) has far more than 4300 digits
    (tmp_path / "g").write_text("v 2\ne 0 1\n")
    (tmp_path / "c").write_text("L 0 0\nL 1 1\n")
    assert main(["color-minor", "--graph", str(tmp_path / "g"), "--cover", str(tmp_path / "c"),
                 "--s", "1500", "--t", "2"]) == 2
    assert capsys.readouterr().err == "error: list at 0 has 0 colors, needs min(k, degree) = 1\n"


def test_color_minor_drum_below_the_regime_exits_3(tmp_path, capsys):
    # q=6 is one below the regime bound peel * (s + t - 1) + 1 = 7
    pre = str(tmp_path / "drum")
    assert main(["build", "--family", "drum", "--out", pre]) == 0
    capsys.readouterr()
    assert main(["color-minor", "--graph", pre + ".graph", "--cover", pre + ".identity.cover",
                 "--s", "2", "--t", "2", "--override", "q=6,k=16,peel=2,degen=2"]) == 3
    assert capsys.readouterr().err == (
        "diagnostic: (D2) part of 2 components cannot be protected with q=6\n")


def test_verify_h_with_a_broken_drawing_exits_10(monkeypatch, capsys):
    monkeypatch.setitem(constructions._H_ROT, 8, (5, 2, 9))
    assert main(["verify", "--family", "H"]) == 10
    out = capsys.readouterr().out.splitlines()
    assert "FAIL planar-embedding" in out and out[-1] == "FAIL (1 of 8 checks)"


def test_module_entry_point(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    pre = str(tmp_path / "w")

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "dpchroma.cli"] + list(argv), env=env,
                              capture_output=True, text=True, timeout=60)

    assert run("build", "--family", "k2k2", "--k", "2", "--out", pre).returncode == 0
    out = run("solve", "--graph", pre + ".graph", "--lists", pre + ".lists")
    assert (out.returncode, out.stdout, out.stderr) == (10, "UNCOLORABLE\n", "")


def test_diagnostics_exit_3(tmp_path, capsys):
    from test_minor_truncated import two_c5_instance

    g, cov = two_c5_instance()
    (tmp_path / "g").write_text(write_graph(g))
    (tmp_path / "c").write_text(write_cover(cov))
    rc = main(["color-minor", "--graph", str(tmp_path / "g"),
               "--cover", str(tmp_path / "c"), "--s", "2", "--t", "2",
               "--override", "q=7,k=10,peel=0,degen=1"])
    assert rc == 3
    assert "diagnostic:" in capsys.readouterr().err


# exit code per error class; ReconstructionFailed is not reachable from CLI input
EXIT_CODES = {
    "MalformedInput": 2, "BadRotation": 2, "NotConnected": 2, "PreconditionViolated": 2,
    "InstanceTooLarge": 2, "ListTooSmall": 2, "GenerationFailed": 2,
    "GDPTreeTight": 3, "EmptyResidualList": 3, "ProtectorInfeasible": 3,
    "PeelBoundExceeded": 3, "DegreeBelowS": 3, "NotDegenerate": 3,
    "InternalInvariantBreach": 3, "A2Unattainable": 3, "ReconstructionFailed": 3,
}


def test_exception_base_class_picks_the_exit_code(monkeypatch, capsys):
    bases = (errors.InputError, errors.Diagnostic)
    concrete = {name: cls for name, cls in vars(errors).items()
                if isinstance(cls, type) and issubclass(cls, errors.DPChromaError)
                and cls not in bases + (errors.DPChromaError,)}
    assert set(concrete) == set(EXIT_CODES)
    for name, cls in sorted(concrete.items()):
        assert [issubclass(cls, b) for b in bases].count(True) == 1, name
        exc = cls(3) if cls is errors.NotDegenerate else cls("boom")

        def raise_it(args, exc=exc):
            raise exc

        monkeypatch.setattr(cli, "cmd_solve", raise_it)
        assert main(["solve", "--graph", "g", "--lists", "l"]) == EXIT_CODES[name], name
        err = capsys.readouterr().err
        assert err.startswith("error:" if EXIT_CODES[name] == 2 else "diagnostic:"), name


def test_cli_import_loads_no_process_machinery():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    code = ("import sys, dpchroma.cli; print(sorted(m for m in sys.modules"
            " if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert (out.returncode, out.stdout, out.stderr) == (0, "[]\n", "")


def test_usage_error_raises_systemexit():
    with pytest.raises(SystemExit):
        main([])
    with pytest.raises(SystemExit):
        main(["solve", "--graph", "x"])  # neither --lists nor --cover
