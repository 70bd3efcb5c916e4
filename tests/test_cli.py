"""CLI surface: output formats, exit codes, and the corpus runner."""

import json
import os

import pytest

from qmgraph.cli import corpus_dir, main, run_examples

Z5Z3 = "vertex v0 Z/5\nvertex v1 Z/3\n"
WITNESS_WORD = ("v0^4 v1 v0^2 v1 v0^2 v1 v0^3 v1 v0 v1 v0 v1 "
                "v0^3 v1 v0 v1 v0 v1 v0^2 v1 v0^2 v1 v0^2 v1")


@pytest.fixture
def z5z3_file(tmp_path):
    p = tmp_path / "g.graph"
    p.write_text(Z5Z3)
    return str(p)


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_expand(capsys, tmp_path):
    p = tmp_path / "g.graph"
    p.write_text("vertex a Z/12\nvertex b Z\nedge a b\n")
    code, out, _ = run(capsys, "expand", str(p))
    assert code == 0
    assert "vertex a_p2k2 Z/4" in out
    assert "vertex a_p3k1 Z/3" in out
    assert "edge a_p2k2 a_p3k1" in out


def test_classes(capsys, z5z3_file):
    code, out, _ = run(capsys, "classes", z5z3_file)
    assert code == 0
    assert "{v0} FiniteAbelian(1) minimal" in out
    assert "{v1} FiniteAbelian(1) minimal" in out


def test_cones(capsys, z5z3_file):
    code, out, _ = run(capsys, "cones", z5z3_file)
    assert code == 0
    assert "{v0,v1} = {v0} * {v1}" in out


def test_decide_plain_and_trace(capsys, z5z3_file):
    code, out, _ = run(capsys, "decide", z5z3_file)
    assert code == 0
    assert out.splitlines()[0] == "status=ExistsConstructive"
    assert "cone=v0,v1" in out
    code, out, _ = run(capsys, "decide", "--trace", z5z3_file)
    assert code == 0
    assert any(line.startswith("  ") for line in out.splitlines())


def test_decide_json(capsys, z5z3_file):
    code, out, _ = run(capsys, "decide", "--json", z5z3_file)
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "ExistsConstructive"
    assert doc["witness"]["cone"] == ["v0", "v1"]
    assert doc["witness"]["kind"] == "Code"


def test_decide_raag_flag_rejects_finite_labels(capsys, z5z3_file):
    code, _, err = run(capsys, "decide", "--raag", z5z3_file)
    assert code == 3
    assert "infinite cyclic" in err


def test_autos(capsys, tmp_path):
    p = tmp_path / "g.graph"
    p.write_text("vertex a Z/3\nvertex b Z/3\n")
    code, out, _ = run(capsys, "autos", str(p))
    assert code == 0
    lines = out.splitlines()
    assert "a:a b:b" in lines and "a:b b:a" in lines


def test_eval_value_line(capsys, z5z3_file):
    code, out, _ = run(capsys, "eval", z5z3_file, "--word", WITNESS_WORD,
                       "--cone", "v0,v1", "--partA", "v0", "--partB", "v1")
    assert code == 0
    assert out.strip() == "value=1 exact=True err<=0"


def test_eval_json_and_avg(capsys, z5z3_file):
    code, out, _ = run(capsys, "eval", z5z3_file, "--word", WITNESS_WORD,
                       "--cone", "v0,v1", "--partA", "v0", "--partB", "v1",
                       "--avg", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"value": "1", "exact": True, "error_bound": "0"}


def test_homog_subcommand(capsys, z5z3_file):
    code, out, _ = run(capsys, "homog", z5z3_file, "--word", WITNESS_WORD,
                       "--cone", "v0,v1", "--partA", "v0", "--partB", "v1")
    assert code == 0
    assert "value=1" in out


def test_max_n_env_override(capsys, z5z3_file, monkeypatch):
    # an invalid value proves the override reaches the limit detector
    monkeypatch.setenv("QMGRAPH_MAX_N", "1")
    code, _, err = run(capsys, "eval", z5z3_file, "--word", WITNESS_WORD,
                       "--cone", "v0,v1", "--partA", "v0", "--partB", "v1")
    assert code == 3
    assert "max_n" in err


def test_homog_has_no_avg_flag(capsys):
    # on cube_3_z3 the unaveraged value is 1 and the averaged one is 4
    cube = os.path.join(corpus_dir(), "cube_3_z3.graph")
    word = ("v0 v3 v0^2 v3 v0^2 v3 v0 v3 v0 v3 v0 v3 "
            "v0^2 v3 v0^2 v3 v0^2 v3 v0^2 v3")
    flags = ("--word", word, "--cone", "v0,v3", "--partA", "v0",
             "--partB", "v3", "--kind", "sum")
    code, out, _ = run(capsys, "homog", cube, *flags)
    assert (code, out.split()[0]) == (0, "value=1")
    code, out, _ = run(capsys, "eval", cube, *flags, "--avg")
    assert (code, out.split()[0]) == (0, "value=4")
    code, out, err = run(capsys, "homog", cube, *flags, "--avg")
    assert code == 1 and out == ""
    assert "unrecognized arguments: --avg" in err


def test_bad_max_n_env_is_usage_error(capsys, z5z3_file, monkeypatch):
    monkeypatch.setenv("QMGRAPH_MAX_N", "abc")
    # commands without homogenisation never read the variable
    code, out, _ = run(capsys, "decide", z5z3_file)
    assert code == 0 and out.startswith("status=")
    code, _, err = run(capsys, "eval", z5z3_file, "--word", WITNESS_WORD,
                       "--cone", "v0,v1", "--partA", "v0", "--partB", "v1")
    assert code == 1
    assert err == "error: QMGRAPH_MAX_N must be an integer, not 'abc'\n"


def test_bad_max_period_is_exit_3(capsys, z5z3_file):
    code, _, err = run(capsys, "eval", z5z3_file, "--word", WITNESS_WORD,
                       "--cone", "v0,v1", "--partA", "v0", "--partB", "v1",
                       "--max-period", "0")
    assert code == 3
    assert err.startswith("error: ") and "max_period >= 1" in err


@pytest.mark.parametrize("cmd,flags,message", [
    ("defect", ("--max-len", "0"), "max_len must be >= 1"),
    ("defect", ("--samples", "-3"), "samples must be >= 0"),
    ("scl", ("--word", "v0 v1", "--max-len", "0"), "max_len must be >= 1"),
])
def test_bad_defect_sampling_is_exit_3(capsys, z5z3_file, cmd, flags,
                                       message):
    code, out, err = run(capsys, cmd, z5z3_file, "--cone", "v0,v1",
                         "--partA", "v0", "--partB", "v1", *flags)
    assert code == 3 and out == ""
    assert err.startswith("error: ") and message in err


def test_witness_command(capsys, z5z3_file):
    code, out, _ = run(capsys, "witness", z5z3_file)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("v0")
    assert "kind=Code" in lines[1]


def test_witness_without_construction(capsys, tmp_path):
    p = tmp_path / "g.graph"
    p.write_text("vertex a Z/2\nvertex b Z/2\n")
    code, _, err = run(capsys, "witness", str(p))
    assert code == 3
    assert "ProvablyNone" in err


def test_defect_command(capsys, z5z3_file):
    code, out, _ = run(capsys, "defect", z5z3_file,
                       "--cone", "v0,v1", "--partA", "v0", "--partB", "v1",
                       "--samples", "6", "--max-len", "6", "--seed", "1",
                       "--max-n", "8", "--max-period", "2")
    assert code == 0
    assert out.startswith("defect>=")
    assert "samples=6" in out


def test_scl_rigorous(capsys, z5z3_file):
    code, out, _ = run(capsys, "scl", z5z3_file, "--word", WITNESS_WORD,
                       "--cone", "v0,v1", "--partA", "v0", "--partB", "v1",
                       "--defect-bound", "12")
    assert code == 0
    assert out.strip() == "scl_aut_lb=1/24 mode=rigorous-given-bound"


def test_scl_heuristic_json(capsys, z5z3_file):
    code, out, _ = run(capsys, "scl", z5z3_file, "--word", WITNESS_WORD,
                       "--cone", "v0,v1", "--partA", "v0", "--partB", "v1",
                       "--samples", "30", "--max-len", "12", "--seed", "7",
                       "--max-n", "10", "--max-period", "2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["mode"] == "heuristic"


# -- exit codes ---------------------------------------------------------------

def test_usage_error_is_exit_1(capsys):
    code, _, _ = run(capsys, "decide")  # missing file argument
    assert code == 1
    code, _, _ = run(capsys, "no-such-command")
    assert code == 1


def test_parse_error_is_exit_2(capsys, tmp_path):
    p = tmp_path / "bad.graph"
    p.write_text("vertex a Z/1\n")
    code, _, err = run(capsys, "decide", str(p))
    assert code == 2
    assert "parse error" in err
    code, _, _ = run(capsys, "decide", str(tmp_path / "missing.graph"))
    assert code == 2


def test_bad_word_is_exit_2(capsys, z5z3_file):
    code, _, err = run(capsys, "eval", z5z3_file, "--word", "zz",
                       "--cone", "v0,v1", "--partA", "v0", "--partB", "v1")
    assert code == 2
    assert "unknown vertex" in err


def test_math_error_is_exit_3(capsys, z5z3_file):
    # F2-style request: WeightedZ on a torsion side
    code, _, err = run(capsys, "eval", z5z3_file, "--word", "v0",
                       "--cone", "v0,v1", "--partA", "v0", "--partB", "v1",
                       "--kind", "wz")
    assert code == 3
    assert "single Z vertex" in err


def test_partition_edge_is_exit_3(capsys, tmp_path):
    p = tmp_path / "g.graph"
    p.write_text("vertex a Z/5\nvertex b Z/3\nedge a b\n")
    code, _, err = run(capsys, "eval", str(p), "--word", "a",
                       "--cone", "a,b", "--partA", "a", "--partB", "b")
    assert code == 3
    assert "edge between partition sides" in err


def _write(tmp_path, name, lines):
    p = tmp_path / name
    p.write_text("\n".join(lines) + "\n")
    return str(p)


def test_size_caps_are_exit_3(capsys, tmp_path):
    path17 = _write(tmp_path, "path17.graph",
                    [f"vertex v{i} Z/2" for i in range(17)]
                    + [f"edge v{i} v{i + 1}" for i in range(16)])
    for command in ("autos", "cones"):
        code, _, err = run(capsys, command, path17)
        assert code == 3, command
        assert err == "error: vertex bound exceeded (17 > 16)\n"
    free17 = _write(tmp_path, "free17.graph",
                    ["vertex a Z/5", "vertex b Z/3"]
                    + [f"vertex v{i} Z/2" for i in range(15)])
    code, _, err = run(capsys, "eval", free17, "--avg", "--word", "a",
                       "--cone", "a,b", "--partA", "a", "--partB", "b")
    assert code == 3
    assert err == "error: vertex bound exceeded (17 > 16)\n"


def test_witness_on_too_many_classes_is_exit_3(capsys, tmp_path):
    mixed21 = _write(tmp_path, "mixed21.graph",
                     [f"vertex v{i} {'Z' if i % 2 == 0 else 'Z/2'}"
                      for i in range(21)]
                     + [f"edge v{i} v{i + 1}" for i in range(20)])
    for command in ("decide", "witness"):
        code, _, err = run(capsys, command, mixed21)
        assert code == 3, command
        assert err == "error: too many ~_tau classes to enumerate cones\n"


# -- corpus runner ------------------------------------------------------------

def test_examples_bundled_corpus(capsys):
    code, out, _ = run(capsys, "examples")
    assert code == 0
    assert out.splitlines()[-1] == "all verdicts match"
    assert all(line.endswith("OK") for line in out.splitlines()[:-1])


def test_examples_detects_mismatch(capsys, tmp_path):
    (tmp_path / "flip.graph").write_text("vertex a Z/2\nvertex b Z/2\n")
    (tmp_path / "expected.tsv").write_text("flip\tExistsConstructive\n")
    code, out, _ = run(capsys, "examples", str(tmp_path))
    assert code == 1
    assert "MISMATCH expected ExistsConstructive got ProvablyNone" in out
    assert out.splitlines()[-1] == "1 mismatch(es)"


def test_examples_empty_dir_is_error(capsys, tmp_path):
    code, _, err = run(capsys, "examples", str(tmp_path))
    assert code == 2
    assert "expected.tsv" in err


def test_run_examples_empty_tsv(tmp_path):
    (tmp_path / "expected.tsv").write_text("\n")
    with pytest.raises(FileNotFoundError):
        run_examples(str(tmp_path))


def test_corpus_dir_exists():
    d = corpus_dir()
    assert os.path.isfile(os.path.join(d, "expected.tsv"))
