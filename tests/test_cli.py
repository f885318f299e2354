"""Command line behaviour: outputs, exit codes, file products."""

import hashlib
import json

import pytest

from nmdecomp import cli, complexes
from nmdecomp.cli import main
from nmdecomp.fixtures import load_text


@pytest.fixture()
def tvfile(tmp_path):
    def write(name):
        p = tmp_path / name
        p.write_text(load_text(name))
        return str(p)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# per fixture: (tops, dim, vertices), the flags in output order, and each
# non-pseudomanifold face as (labels, tops)
CHECKED = {
    "fix_a.tv": ((3, 3, 6), (True, True, True, True, True), []),
    "fix_b.tv": ((9, 3, 12), (False, False, False, False, False), []),
    "fix_c.tv": ((27, 3, 21), (True, False, False, True, False), [("x y z", [34, 35, 36])]),
    "fix_d.tv": ((4, 1, 5), (True, False, False, False, False), [("t", [1, 2, 3, 4])]),
    "fix_e.tv": ((2, 2, 5), (True, False, False, False, False), []),
    "fix_f.tv": ((5, 3, 6), (True, True, True, True, False), []),
    "fix_g.tv": ((4, 2, 6), (True, False, False, False, False), [("j k", [1, 2, 3])]),
}
FLAGS = ("regular", "pseudomanifold", "quasi_manifold", "iqm", "manifold_le3")


def test_check_text(tvfile, capsys):
    for name, (sizes, flags, faces) in CHECKED.items():
        code, out, _ = run(capsys, "check", tvfile(name))
        assert code == 0
        want = ["tops: %d  dim: %d  vertices: %d" % sizes]
        want += [f"{flag}: {value}" for flag, value in zip(FLAGS, flags)]
        if faces:
            want.append("non-pseudomanifold faces:")
            for toks, tops in faces:
                want.append(f"  {toks}: order {len(tops)} tops {' '.join(map(str, tops))}")
        else:
            want.append("non-pseudomanifold faces: none")
        assert out == "\n".join(want) + "\n", name


def test_check_json(tvfile, capsys):
    for name, ((nt, d, nv), flags, faces) in CHECKED.items():
        code, out, _ = run(capsys, "check", "--json", tvfile(name))
        assert code == 0
        assert json.loads(out) == {
            "num_tops": nt,
            "dim": d,
            "num_vertices": nv,
            "flags": dict(zip(FLAGS, flags)),
            "non_pseudomanifold_faces": [
                {"face": toks.split(), "tops": tops} for toks, tops in faces
            ],
        }, name


def test_check_reads_one_facet_pass(tvfile, capsys, monkeypatch):
    calls = []
    real = complexes.facet_slots
    monkeypatch.setattr(complexes, "facet_slots", lambda *a: calls.append(1) or real(*a))
    for name in CHECKED:
        calls.clear()
        assert run(capsys, "check", tvfile(name))[0] == 0
        assert len(calls) == 1, name


def test_check_parse_error(tmp_path, capsys):
    p = tmp_path / "bad.tv"
    p.write_text("garbage\n")
    code, _, err = run(capsys, "check", str(p))
    assert code == 1
    assert "ParseError" in err


@pytest.mark.parametrize(
    "text",
    ["simplex 1: 01 1 2\n", "# no simplices\n"],
    ids=["aliased-tokens", "no-simplices"],
)
@pytest.mark.parametrize("command", ["check", "decompose", "query"])
def test_malformed_tv_exits_1(tmp_path, capsys, text, command):
    p = tmp_path / "bad.tv"
    p.write_text(text)
    extra = ["--rel", "S01", "--simplex", "1"] if command == "query" else []
    code, _, err = run(capsys, command, str(p), *extra)
    assert code == 1
    assert "ParseError" in err


@pytest.mark.parametrize(
    "data, offset",
    [(b"\xff\xfe\x00", 0), (b"simplex 1: a b\nsimplex 2: b \xc3(\n", 28)],
    ids=["bom-like", "bad-sequence"],
)
@pytest.mark.parametrize("command", ["check", "decompose", "query", "glue-tv", "glue-script"])
def test_file_that_is_not_utf8_exits_1(tvfile, tmp_path, capsys, data, offset, command):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(data)
    argv = {
        "check": ["check", str(bad)],
        "decompose": ["decompose", str(bad)],
        "query": ["query", str(bad), "--rel", "S01", "--simplex", "a"],
        "glue-tv": ["glue", str(bad), tvfile("fix_g.glue")],
        "glue-script": ["glue", tvfile("fix_g.tv"), str(bad)],
    }[command]
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    bad_byte = f"byte {data[offset]:#04x} at offset {offset}"
    assert err == f"error: ParseError: not UTF-8 text: {bad_byte}\n"


def test_utf8_text_outside_ascii_reaches_the_parser(tmp_path, capsys):
    # a UTF-8 comment reads as text, and a label outside ASCII is no .tv
    # token, so the parser, not the decoder, names its line
    p = tmp_path / "bad.tv"
    p.write_bytes("# \u00e9t\u00e9\nsimplex 1: a b\nsimplex 2: b \u00e9\n".encode())
    code, _, err = run(capsys, "check", str(p))
    assert code == 1
    assert err == "error: ParseError: line 3: bad vertex token '\u00e9'\n"


@pytest.mark.parametrize("command", ["check", "decompose"])
def test_non_maximal_simplex_exits_1_at_its_line(tmp_path, capsys, command):
    p = tmp_path / "bad.tv"
    p.write_text("simplex 1: 1 2 3\n# a face of simplex 1\nsimplex 2: 2 3\n")
    code, _, err = run(capsys, command, str(p))
    assert code == 1
    assert "error: ParseError: line 3: stored simplex 2 is a face of stored simplex 1" in err


def test_decompose_outputs(tvfile, tmp_path, capsys):
    outdir = tmp_path / "out"
    code, out, _ = run(
        capsys, "decompose", tvfile("fix_b.tv"), "-o", str(outdir), "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["num_components"] == 5
    assert doc["cc"] == [2, 1, 1, 1]
    assert doc["sigma_classes"] == {"5": [5, 13], "6": [6, 14], "8": [8, 15]}
    assert doc["stats"]["NS"] == 3 and doc["stats"]["NC"] == 6

    tvs = sorted(f.name for f in outdir.glob("*.tv"))
    assert tvs == [f"component_{i:03d}.tv" for i in range(1, 6)]
    sigma = json.loads((outdir / "sigma.json").read_text())
    assert sigma["13"] == 5 and sigma["15"] == 8
    cc = json.loads((outdir / "cc.json").read_text())
    assert cc == {"cc": [2, 1, 1, 1], "num_components": 5}
    assert (outdir / "ewds.bin").read_bytes()[:4] == b"EWD\x00"


@pytest.mark.parametrize(
    "name, files, digest",
    [
        ("fix_b.tv", 8, "2699cd1362b75cc677d5e6c9447ee5f7f562fe0aa7318921cd5b9272e6a0c884"),
        ("fix_c.tv", 4, "ccb1ed038555710358e204964fdd570f82d8c5ed403a24ee67bae54347388957"),
        ("fix_g.tv", 6, "f6a171a2338f406445b8d16dced38508a8042e3ea79ff5351d147d3182aeaab2"),
    ],
)
def test_decompose_outdir_is_unchanged(tvfile, tmp_path, capsys, name, files, digest):
    # the SHA-256 of every file written, concatenated in name order: each
    # component file is written from its run of nabla's tops, and fix_c
    # carries letter labels
    outdir = tmp_path / "out"
    assert run(capsys, "decompose", tvfile(name), "-o", str(outdir))[0] == 0
    paths = sorted(outdir.iterdir())
    assert len(paths) == files
    assert hashlib.sha256(b"".join(p.read_bytes() for p in paths)).hexdigest() == digest


def test_decompose_text_of_an_identity(tvfile, capsys):
    code, out, _ = run(capsys, "decompose", tvfile("fix_a.tv"))
    assert code == 0
    assert out == (
        "components: 1  cc: 0 0 0 1\n"
        "decomposition is the identity: already initial quasi-manifold\n"
        "NS: 0\nNC: 0\nNSP: 0\nphi: 0\nH_hat: 0.00\n"
    )


def test_decompose_components_parse_back(tvfile, tmp_path, capsys):
    from nmdecomp.complexes import parse_tv

    outdir = tmp_path / "comp"
    run(capsys, "decompose", tvfile("fix_b.tv"), "-o", str(outdir))
    last = parse_tv((outdir / "component_005.tv").read_text())
    assert last.rows() == {7: (10, 9, 12, 11), 8: (9, 12, 11, 14), 9: (9, 11, 14, 15)}


def test_query_text(tvfile, capsys):
    code, out, _ = run(
        capsys, "query", tvfile("fix_c.tv"), "--rel", "S23", "--simplex", "x", "y", "z"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "count: 3"
    assert set(lines[:-1]) == {"a x y z", "b x y z", "c x y z"}


def test_query_matches_oracle(tvfile, capsys):
    from nmdecomp.fixtures import load_tv
    from nmdecomp.oracle import oracle_snm

    src = load_tv("fix_b.tv")
    code, out, _ = run(
        capsys, "query", tvfile("fix_b.tv"), "--json", "--rel", "S13",
        "--simplex", "6", "8",
    )
    assert code == 0
    doc = json.loads(out)
    got = {tuple(int(t) for t in f) for f in doc["faces"]}
    assert got == oracle_snm(src, (6, 8), 1, 3)


def test_query_bad_relation(tvfile, capsys, monkeypatch):
    # a malformed relation is refused before the pipeline is built
    def no_pipeline(c):
        raise AssertionError("pipeline built for a malformed relation")

    monkeypatch.setattr(cli, "_pipeline", no_pipeline)
    code, _, err = run(
        capsys, "query", tvfile("fix_b.tv"), "--rel", "S21", "--simplex", "6", "8"
    )
    assert code == 1 and "BadRelation" in err
    code, _, err = run(
        capsys, "query", tvfile("fix_b.tv"), "--rel", "S13", "--simplex", "6"
    )
    assert code == 1 and "BadRelation" in err
    code, _, err = run(
        capsys, "query", tvfile("fix_b.tv"), "--rel", "X13", "--simplex", "6", "8"
    )
    assert code == 1 and "BadRelation" in err
    # a repeated token leaves a 0-simplex where S12 needs an edge
    code, _, err = run(
        capsys, "query", tvfile("fix_b.tv"), "--rel", "S12", "--simplex", "9", "9"
    )
    assert code == 1 and "BadRelation" in err


@pytest.mark.parametrize("rel", ["S22", "S30", "S\u0660\u0661", "S01\n"])
def test_query_bad_relation_before_reading_input(tmp_path, capsys, rel):
    # n >= m, a non-ASCII digit and a trailing newline are refused from
    # the relation name alone, so a missing input is never opened
    missing = str(tmp_path / "missing.tv")
    code, _, err = run(
        capsys, "query", missing, "--rel", rel, "--simplex", "1", "2", "2"
    )
    assert code == 1 and "BadRelation" in err


def test_query_unknown_token(tvfile, capsys):
    code, _, err = run(
        capsys, "query", tvfile("fix_c.tv"), "--rel", "S01", "--simplex", "zz"
    )
    assert code == 1 and "UnknownToken" in err


def test_glue_ok(tvfile, capsys):
    code, out, _ = run(capsys, "glue", tvfile("fix_g.tv"), tvfile("fix_g.glue"))
    assert code == 0
    assert "j-[1,2]" in out
    assert "j-[1,2,4]" in out
    assert out.strip().endswith("ok")


def test_glue_failing_assert(tvfile, tmp_path, capsys):
    script = tmp_path / "bad.glue"
    script.write_text("explode\nassert-iso\n")
    code, out, _ = run(capsys, "glue", tvfile("fix_g.tv"), str(script))
    assert code == 1
    assert "assert-fail" in out


def test_glue_json(tvfile, capsys):
    code, out, _ = run(
        capsys, "glue", "--json", tvfile("fix_c.tv"), tvfile("fix_c.glue")
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    kinds = [e["kind"] for e in doc["events"]]
    assert kinds.count("assert-pass") == 1
    assert len(kinds) == 32


def test_tables_fig_a(capsys):
    code, out, _ = run(capsys, "tables", "fig-a")
    assert code == 0
    assert out == (
        "# fig-a\n"
        "TV 1: 1 2 3 4\n"
        "TV 2: 2 3 4 5\n"
        "TV 3: 2 4 5 6\n"
        "VTSTAR: 1 1 1 1 2 3\n"
        "TT 1: 2 - - -\n"
        "TT 2: - 3 - 1\n"
        "TT 3: - - - 2\n"
    )


def test_tables_fig_b(capsys):
    code, out, _ = run(capsys, "tables", "fig-b")
    assert code == 0
    assert out == (
        "# fig-b\n"
        "TBase: 1 3 5 7\n"
        "TBaseAddr: 1 3 7 13\n"
        "SIZE: 24\n"
        "NT: 9\n"
        "NV: 15\n"
        "TV 1: 1\n"
        "TV 2: 2\n"
        "TV 3: 3 4\n"
        "TV 4: 4 5\n"
        "TV 5: 6 13 8\n"
        "TV 6: 6 7 13\n"
        "TV 7: 10 9 12 11\n"
        "TV 8: 9 12 11 14\n"
        "TV 9: 9 11 14 15\n"
        "VTSTAR: 1 2 3 3 4 6 6 5 7 7 7 7 5 8 9\n"
        "TT 1: -\n"
        "TT 2: -\n"
        "TT 3: 4 -\n"
        "TT 4: - 3\n"
        "TT 5: - - 6\n"
        "TT 6: - 5 -\n"
        "TT 7: 8 - - -\n"
        "TT 8: - 9 - 7\n"
        "TT 9: - - - 8\n"
        "SIGMA 13: 5\n"
        "SIGMA 14: 6\n"
        "SIGMA 15: 8\n"
        "SPLITMAP 6 8: copy 6 8 reps 5 ; copy 14 15 reps 9\n"
        "STATS NS: 3\n"
        "STATS NC: 6\n"
        "STATS NSP: 5\n"
        "STATS phi: 50\n"
        "STATS H_hat: 1263.08\n"
    )


def test_tables_fig_b_key_lines(capsys):
    code, out, _ = run(capsys, "tables", "fig-b")
    assert code == 0
    lines = out.splitlines()
    assert "TBase: 1 3 5 7" in lines
    assert "TBaseAddr: 1 3 7 13" in lines
    assert "SIZE: 24" in lines
    assert "TV 5: 6 13 8" in lines
    assert "VTSTAR: 1 2 3 3 4 6 6 5 7 7 7 7 5 8 9" in lines
    assert "TT 8: - 9 - 7" in lines
    assert "SIGMA 14: 6" in lines
    assert "SPLITMAP 6 8: copy 6 8 reps 5 ; copy 14 15 reps 9" in lines
    assert "STATS NSP: 5" in lines


def test_tables_fig_b_opt_key_lines(capsys):
    code, out, _ = run(capsys, "tables", "fig-b-opt")
    assert code == 0
    lines = out.splitlines()
    assert "FVV: 1 2 5 3 4 8 7 6 14 13 10 15 9 11 12" in lines
    assert "TVPP: 3 8 9 14 15 10 14 10 11" in lines
    assert "VTSTAR: 1 2 3 4 3 5 6 5 5 7 8 9 7 7 7" in lines


def test_tables_json(capsys):
    code, out, _ = run(capsys, "tables", "--json", "fig-b")
    doc = json.loads(out)
    assert doc["tbase"] == [1, 3, 5, 7]
    assert doc["tv"]["5"] == [6, 13, 8]
    assert doc["splitmap"]["6 8"] == {"6 8": [5], "14 15": [9]}


def test_tables_json_fig_a_and_fig_b_opt(capsys):
    code, out, _ = run(capsys, "tables", "--json", "fig-a")
    assert code == 0
    assert json.loads(out) == {
        "figure": "fig-a",
        "tv": {"1": [1, 2, 3, 4], "2": [2, 3, 4, 5], "3": [2, 4, 5, 6]},
        "vtstar": [1, 1, 1, 1, 2, 3],
        "tt": {"1": [2, 0, 0, 0], "2": [0, 3, 0, 1], "3": [0, 0, 0, 2]},
    }
    code, out, _ = run(capsys, "tables", "--json", "fig-b-opt")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {
        "figure", "fvv", "ftt", "cc", "vbase", "taddr", "iibnd", "iitaddr",
        "tvpp", "tv", "vtstar",
    }
    assert doc["figure"] == "fig-b-opt"
    assert doc["fvv"] == [1, 2, 5, 3, 4, 8, 7, 6, 14, 13, 10, 15, 9, 11, 12]
    assert doc["tvpp"] == [3, 8, 9, 14, 15, 10, 14, 10, 11]
    assert doc["vtstar"] == [1, 2, 3, 4, 3, 5, 6, 5, 5, 7, 8, 9, 7, 7, 7]
    assert doc["cc"] == [2, 1, 1, 1]


def test_gen_json(capsys):
    code, out, _ = run(capsys, "gen", "--json", "--seed", "3", "--max-tops", "5", "--dim", "2")
    assert code == 0
    text = run(capsys, "gen", "--seed", "3", "--max-tops", "5", "--dim", "2")[1]
    assert json.loads(out) == {
        "seed": 3, "num_tops": 2, "dim": 2, "num_vertices": 5, "tv": text,
    }


def test_gen_roundtrip(tmp_path, capsys):
    out_tv = tmp_path / "r.tv"
    code, _, _ = run(
        capsys, "gen", "--seed", "11", "--max-tops", "9", "--dim", "3",
        "-o", str(out_tv),
    )
    assert code == 0
    from nmdecomp.complexes import parse_tv
    from nmdecomp.oracle import random_complex

    c = parse_tv(out_tv.read_text())
    assert c.rows() == random_complex(seed=11, max_tops=9, d=3).rows()


def test_gen_stdout_deterministic(capsys):
    a = run(capsys, "gen", "--seed", "3", "--max-tops", "5", "--dim", "2")
    b = run(capsys, "gen", "--seed", "3", "--max-tops", "5", "--dim", "2")
    assert a == b and a[0] == 0


@pytest.mark.parametrize("flag, value", [("--max-tops", "0"), ("--dim", "-1")])
def test_gen_rejects_out_of_range(capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--seed", "1", flag, value])
    assert exc.value.code == 2
    assert f"argument {flag}: must be at least" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value",
    [("--max-tops", "1001"), ("--max-tops", "100000000000000000000"),
     ("--dim", "17"), ("--dim", "100000000000000000000")],
)
def test_gen_refuses_sizes_above_its_caps(capsys, flag, value):
    # refused before drawing: the huge ones, drawn, would not end
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--seed", "7", flag, value])
    assert exc.value.code == 2
    assert f"argument {flag}: must be at most" in capsys.readouterr().err


def test_gen_accepts_smallest_arguments(capsys):
    code, out, _ = run(capsys, "gen", "--seed", "1", "--max-tops", "1", "--dim", "0")
    assert code == 0 and out == "simplex 1: 1\n"
