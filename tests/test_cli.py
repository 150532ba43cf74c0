import hashlib
import json
import os
import platform
import resource
import sys

import numpy as np
import pytest

from wrdpm import WeightedGraph, cli, load_graph, save_graph, total_weight
from wrdpm.cli import build_parser, main
from conftest import assert_clean_exit, disjoint_cliques, fresh_python, run_cli


def run(*argv):
    return main(list(argv))


def data_files(out_dir):
    """Names and bytes of every output except the manifest (which has a duration)."""
    names = sorted(n for n in os.listdir(out_dir) if n != "manifest.json")
    return {n: (out_dir / n).read_bytes() for n in names}


AXIS_NOISE = '{"kind": "axis_noise", "d": 3, "sigma2": 0.01}'


def model_text(source=AXIS_NOISE, n="3"):
    """model.json text with ``source`` and ``n`` given as raw JSON."""
    return '{"distribution": {"family": "poisson"}, "n": %s, "sources": [%s]}' % (n, source)


@pytest.fixture
def clique_path(tmp_path):
    path = tmp_path / "cliques.edgelist"
    save_graph(disjoint_cliques([5, 5, 5]), path)
    return path


class TestGenerate:
    def test_builtin_simple_community(self, tmp_path):
        out = tmp_path / "run"
        assert run("generate", "--builtin", "simple-community", "--n", "30",
                   "--out", str(out), "--seed", "4") == 0
        g = load_graph(out / "graph.edgelist")
        assert g.n == 30
        vectors = np.loadtxt(out / "vectors_0.csv", delimiter=",")
        assert vectors.shape == (30, 3)
        # the parameter grid is the vectors' dot products, so it is not written
        assert sorted(os.listdir(out)) == [
            "graph.edgelist", "manifest.json", "model.json", "vectors_0.csv"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["subcommand"] == "generate"
        assert manifest["seed"] == 4

    def test_er_param_zero_gives_empty_graph(self, tmp_path):
        out = tmp_path / "run"
        assert run("generate", "--builtin", "poisson-er", "--n", "12",
                   "--param", "0", "--out", str(out), "--seed", "0") == 0
        assert total_weight(load_graph(out / "graph.edgelist")) == 0

    def test_rerun_is_byte_identical(self, tmp_path):
        args = ("generate", "--builtin", "multiresolution", "--n", "25", "--seed", "7")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(*args, "--out", str(out1)) == 0
        assert run(*args, "--out", str(out2)) == 0
        assert data_files(out1) == data_files(out2)

    def test_sbm_spec_file(self, tmp_path):
        spec = tmp_path / "sbm.json"
        spec.write_text(json.dumps(
            {"B": [[1.0, 0.1], [0.1, 1.0]], "sizes": [4, 4], "family": "poisson"}
        ))
        out = tmp_path / "run"
        assert run("generate", "--builtin", "sbm", "--spec", str(spec),
                   "--out", str(out), "--seed", "1") == 0
        assert load_graph(out / "graph.edgelist").n == 8

    @pytest.mark.parametrize("builtin, doc, entry", [
        ("sbm", {"B": [[1.0, float("nan")], [float("nan"), 1.0]], "sizes": [4, 4]}, "B[0, 1]"),
        ("sbm", {"B": [[float("inf"), 0.1], [0.1, 1.0]], "sizes": [4, 4]}, "B[0, 0]"),
        ("chung-lu", {"weights": [1.0, float("nan"), 2.0]}, "weights[1]"),
        # finite weights whose sum overflows
        ("chung-lu", {"weights": [1e308, 1e308, 1.0]}, "weights must have a finite sum"),
    ])
    def test_non_finite_spec_is_data_error(self, tmp_path, capsys, builtin, doc, entry):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(doc))  # json writes NaN and Infinity literals
        assert run("generate", "--builtin", builtin, "--spec", str(spec),
                   "--out", str(tmp_path / "x")) == 2
        err = capsys.readouterr().err
        assert entry in err and "finite" in err

    def test_model_roundtrip(self, tmp_path):
        out1 = tmp_path / "a"
        assert run("generate", "--builtin", "simple-community", "--n", "15",
                   "--out", str(out1), "--seed", "3") == 0
        out2 = tmp_path / "b"
        assert run("generate", "--model", str(out1 / "model.json"),
                   "--out", str(out2), "--seed", "3") == 0
        assert (out1 / "graph.edgelist").read_bytes() == (out2 / "graph.edgelist").read_bytes()

    # A node count far past graph.MAX_NODES, so a run without the guard fails
    # at once rather than allocating; test_malformed_model_or_spec_is_data_error
    # has the same count in a model file and an sbm spec.
    def test_node_count_past_the_limit_is_data_error(self, tmp_path, capsys):
        out = tmp_path / "x"
        assert run("generate", "--builtin", "simple-community", "--n", "10000000000",
                   "--out", str(out)) == 2
        assert "n=10000000000 exceeds" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["--builtin", "simple-community"],
        ["--builtin", "multiresolution"],
        ["--builtin", "poisson-er", "--param", "1.0"],
    ])
    def test_dimension_flag_past_the_limit_is_usage_error(self, tmp_path, capsys, argv):
        out = tmp_path / "x"
        assert run("generate", *argv, "--n", "3", "--d", "1000000000", "--out", str(out)) == 1
        assert "--d=1000000000 exceeds" in capsys.readouterr().err
        assert not out.exists()

    def test_model_and_builtin_conflict(self, tmp_path):
        assert run("generate", "--model", "m.json", "--builtin", "er",
                   "--out", str(tmp_path / "x")) == 1

    def test_bad_model_file_is_data_error(self, tmp_path):
        bad = tmp_path / "m.json"
        bad.write_text("{not json")
        assert run("generate", "--model", str(bad), "--out", str(tmp_path / "x")) == 2

    @pytest.mark.parametrize("source, builtin, doc, missing", [
        ("--model", None, {}, "'sources'"),
        ("--model", None, {"distribution": {"family": "poisson"}, "n": 3,
                           "sources": [{"kind": "axis_noise", "d": 2}]}, "'sigma2'"),
        ("--model", None, [1], "must be a JSON object"),
        ("--spec", "sbm", {"sizes": [4, 4]}, "'B'"),
        ("--spec", "chung-lu", {"d": 1}, "'weights'"),
        ("--spec", "sbm", {"B": [[1.0]], "sizes": 3}, "'sizes'"),
        ("--model", None, {"distribution": {"family": "poisson"}, "n": 3,
                           "sources": [{"kind": "axis_noise", "d": [3], "sigma2": 0.01}]},
         "axis_noise source"),
        ("--model", None, {"distribution": {"family": "poisson"}, "n": [3],
                           "sources": [{"kind": "axis_noise", "d": 3, "sigma2": 0.01}]}, "'n'"),
        ("--spec", "chung-lu", {"weights": [1, 2, 3], "d": [1]}, "'d'"),
        ("--spec", "chung-lu", {"weights": [1, 2, 3], "d": 0}, "d must be >= 1, got 0"),
        ("--spec", "chung-lu", {"weights": [1, 2, 3], "d": -2}, "d must be >= 1, got -2"),
        # json reads 1e400 as inf; integer keys refuse it rather than overflow
        ("--model", None, model_text(n="1e400"), "'n'"),
        ("--model", None, model_text('{"kind": "axis_noise", "d": 1e400, "sigma2": 0.01}'),
         "axis_noise source"),
        ("--spec", "sbm", '{"B": [[1.0]], "sizes": [1e400]}', "community size"),
        ("--spec", "chung-lu", '{"weights": [1, 2, 3], "d": 1e400}', "'d'"),
        # and refuse a float, string or bool rather than truncate or accept it
        ("--model", None, model_text(n="4.5"), "'n'"),
        ("--model", None, model_text(n="true"), "'n'"),
        ("--model", None, model_text('{"kind": "axis_noise", "d": 2.7, "sigma2": 0.01}'),
         "axis_noise source"),
        ("--model", None, model_text('{"kind": "axis_noise", "d": "3", "sigma2": 0.01}'),
         "axis_noise source"),
        ("--model", None, model_text('{"kind": "finite_support", "vectors": [[1.0], [0.5]], '
                                     '"probabilities": [0.5, 0.5], "assignment": [0.7, 1]}'),
         "finite_support source"),
        ("--spec", "chung-lu", {"weights": [1, 2, 3], "d": 1.5}, "'d'"),
        ("--model", None, model_text('{"kind": "axis_noise", "d": 3, "sigma2": "0.5"}'),
         "sigma2 must be a number, got '0.5'"),
        ("--model", None, model_text('{"kind": "axis_noise", "d": 3, "sigma2": true}'),
         "sigma2 must be a number, got True"),
        ("--model", None, model_text('{"kind": "multiresolution_axis", "d": 3, "sigma2": 0.01, '
                                     '"exp_mean": "2"}'), "exp_mean must be a number"),
        ("--model", None, model_text('{"kind": "ray", "direction": [1.0], "rate": true}'),
         "rate must be a number"),
        # node counts far past graph.MAX_NODES are refused before anything is drawn
        ("--model", None, model_text(n="10000000000"), "n=10000000000 exceeds"),
        ("--spec", "sbm", {"B": [[1.0]], "sizes": [10**10]}, "sum to 10000000000"),
        # and so are dimensions past it: n x d draws take what an n x n grid would
        ("--model", None, model_text('{"kind": "axis_noise", "d": 1000000000, "sigma2": 0.01}'),
         "d=1000000000 exceeds"),
        ("--model", None, model_text('{"kind": "multiresolution_axis", "d": 1000000000, '
                                     '"sigma2": 0.01, "exp_mean": 2.0}'), "d=1000000000 exceeds"),
        ("--spec", "chung-lu", {"weights": [1, 2, 3], "d": 10**9}, "d=1000000000 exceeds"),
        # empty or non-finite vectors
        ("--model", None, model_text('{"kind": "constant", "vector": []}'),
         "constant source: vector must be a non-empty"),
        ("--model", None, model_text('{"kind": "ray", "direction": [], "rate": 1.0}'),
         "ray source: direction must be a non-empty"),
        ("--model", None, model_text('{"kind": "finite_support", "vectors": [[]], '
                                     '"probabilities": [1.0]}'),
         "finite_support source: vectors must be a non-empty"),
        ("--model", None, model_text('{"kind": "constant", "vector": [1.0, NaN]}'),
         "constant source: vector[1] is nan"),
        ("--model", None, model_text('{"kind": "finite_support", "vectors": [[1.0], [Infinity]], '
                                     '"probabilities": [0.5, 0.5]}'),
         "finite_support source: vectors[1, 0] is inf"),
        ("--model", None, model_text('{"kind": "ray", "direction": [NaN], "rate": 1.0}'),
         "ray source: direction[0] is nan"),
        ("--model", None, model_text('{"kind": "ray", "direction": [1.0], '
                                     '"magnitudes": [1.0, Infinity, 1.0]}'),
         "ray source: magnitudes[1] is inf"),
    ])
    def test_malformed_model_or_spec_is_data_error(self, tmp_path, capsys, source, builtin,
                                                   doc, missing):
        path = tmp_path / "doc.json"
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        argv = ["generate", source, str(path), "--out", str(tmp_path / "x")]
        assert run(*argv, *(["--builtin", builtin] if builtin else [])) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and missing in err
        assert "Traceback" not in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("argv, flag", [
        (["--builtin", "er", "--param", "nan"], "--param"),
        (["--builtin", "poisson-er", "--param", "nan"], "--param"),
        (["--builtin", "simple-community", "--sigma2", "nan"], "--sigma2"),
        (["--builtin", "multiresolution", "--exp-mean", "nan"], "--exp-mean"),
        # er reads no --sigma2, yet the manifest would record it
        (["--builtin", "er", "--param", "0.5", "--n", "5", "--sigma2", "nan"], "--sigma2"),
    ])
    def test_non_finite_setting_is_named(self, tmp_path, capsys, argv, flag):
        out = tmp_path / "x"
        assert run("generate", *argv, "--out", str(out)) == 2
        assert f"{flag} must be finite, got nan" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, flag", [
        (["--builtin", "sbm", "--spec", "{sbm}", "--n", "1000"], "--n"),
        (["--builtin", "sbm", "--spec", "{sbm}", "--d", "5"], "--d"),
        (["--builtin", "simple-community", "--family", "bernoulli"], "--family"),
        (["--builtin", "chung-lu", "--spec", "{chung_lu}", "--d", "4"], "--d"),
        (["--model", "{model}", "--n", "50"], "--n"),
        (["--builtin", "er", "--param", "0.5", "--n", "5", "--sigma2", "0.5"], "--sigma2"),
        (["--builtin", "simple-community", "--exp-mean", "7"], "--exp-mean"),
        # Two ignored flags: the one declared first is named, in either order.
        (["--builtin", "sbm", "--spec", "{sbm}", "--param", "1", "--sigma2", "1"], "--param"),
        (["--builtin", "sbm", "--spec", "{sbm}", "--sigma2", "1", "--param", "1"], "--param"),
    ])
    def test_flag_the_model_source_ignores_is_usage_error(self, tmp_path, capsys, argv, flag):
        paths = {"sbm": tmp_path / "sbm.json", "chung_lu": tmp_path / "cl.json",
                 "model": tmp_path / "model.json"}
        paths["sbm"].write_text(json.dumps({"B": [[1.0, 0.1], [0.1, 1.0]], "sizes": [4, 3]}))
        paths["chung_lu"].write_text(json.dumps({"weights": [1.0, 2.0, 3.0], "d": 1}))
        assert run("generate", "--builtin", "er", "--param", "0.5", "--n", "6",
                   "--out", str(tmp_path / "m")) == 0
        (tmp_path / "m" / "model.json").replace(paths["model"])
        out = tmp_path / "x"
        argv = [arg.format(**paths) for arg in argv]
        assert run("generate", *argv, "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert flag in err
        # No other flag given is named.
        given = {arg for arg in argv if arg.startswith("--")}
        assert not any(other in err for other in given - {flag, "--builtin", "--spec", "--model"})
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--n", "--d"])
    def test_zero_size_is_usage_error(self, tmp_path, flag):
        out = tmp_path / "x"
        assert run("generate", "--builtin", "simple-community", flag, "0",
                   "--out", str(out)) == 1
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["--builtin", "er"], "builtin 'er' requires --param"),
        (["--builtin", "sbm"], "builtin 'sbm' requires --spec"),
        (["--builtin", "er", "--param", "0.5", "--n", "x"], "invalid int value"),
    ])
    def test_missing_or_bad_model_flag_is_usage_error(self, tmp_path, capsys, argv, message):
        out = tmp_path / "x"
        assert run("generate", *argv, "--out", str(out)) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestEmbed:
    def test_writes_embedding_and_sidecar(self, tmp_path, clique_path):
        out = tmp_path / "run"
        assert run("embed", "--graph", str(clique_path), "--d", "3",
                   "--out", str(out)) == 0
        x = np.loadtxt(out / "embedding.csv", delimiter=",")
        assert x.shape == (15, 3)
        sidecar = json.loads((out / "embedding.json").read_text())
        assert sidecar["converged"]
        assert sidecar["residual"] < 1e-6

    def test_d_zero_is_usage_error(self, tmp_path, clique_path):
        assert run("embed", "--graph", str(clique_path), "--d", "0",
                   "--out", str(tmp_path / "x")) == 1

    def test_zero_max_iter_is_usage_error(self, tmp_path, clique_path):
        assert run("embed", "--graph", str(clique_path), "--d", "3", "--max-iter", "0",
                   "--out", str(tmp_path / "x")) == 1

    def test_missing_graph_is_data_error(self, tmp_path):
        assert run("embed", "--graph", str(tmp_path / "nope"), "--d", "2",
                   "--out", str(tmp_path / "x")) == 2

    def test_malformed_graph_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.edgelist"
        bad.write_text("0 0 1\n")
        assert run("embed", "--graph", str(bad), "--d", "1",
                   "--out", str(tmp_path / "x")) == 2

    def test_non_finite_weight_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "nan.edgelist"
        bad.write_text("0 1 1\n1 2 nan\n")
        assert run("embed", "--graph", str(bad), "--d", "1",
                   "--out", str(tmp_path / "x")) == 2
        assert "line 2: non-finite weight" in capsys.readouterr().err

    def test_oversized_graph_is_data_error(self, tmp_path, capsys):
        big = tmp_path / "big.edgelist"
        big.write_text("n=99999999999\n0 1 1\n")
        assert run("embed", "--graph", str(big), "--d", "1",
                   "--out", str(tmp_path / "x")) == 2
        assert "line 1: n=99999999999 exceeds" in capsys.readouterr().err

    @pytest.mark.parametrize("row, message", [
        ("1 3000000000 1", "line 2: node id 3000000000 exceeds the limit of 20000 nodes"),
        ("-3000000000 1 1", "line 2: negative node id"),
    ], ids=["past-int32", "below-int32"])
    def test_node_id_outside_int32_is_data_error(self, tmp_path, capsys, row, message):
        # numpy's parser reads node ids as int32 and refuses these; the line
        # parser then names them as it names any id out of range.
        bad = tmp_path / "big.edgelist"
        bad.write_text(f"0 1 1\n{row}\n")
        assert run("embed", "--graph", str(bad), "--d", "1",
                   "--out", str(tmp_path / "x")) == 2
        assert f"error: {message}\n" in capsys.readouterr().err

    # Files Python's int() and float() read but the edge-list grammar refuses,
    # a header after an edge, one before it that declares no nodes, and a
    # byte that is not UTF-8.
    @pytest.mark.parametrize("data, line", [
        ("0 1_0 1\n", 1), ("0 1 1_5\n", 1), ("\u0661 \u0662 3\n", 1),
        ("\uff10 \uff11 3\n", 1), ("0 1 1\nn=5\n", 2), ("n=0\n0 1 1\nn=2\n", 1),
        ("n=3_0\n0 1 1\n", 1), (b"0 1 1\n1 2 1\n2 3 \xff\n", 3)])
    def test_file_outside_the_grammar_names_its_line(self, data, line):
        code, message, caught, made = run_cli(["embed", "--d", "1", "--graph", "{graph}"],
                                              {"graph": data})
        assert code == 2 and message.startswith(f"error: line {line}: "), message
        assert_clean_exit(code, message, caught, made)

    @pytest.mark.parametrize("argv, what", [
        (["embed", "--d", "1", "--graph", "{csv}", "--format", "dense"], "dense matrix"),
        (["likelihood", "--graph", "{graph}", "--embedding", "{csv}"], "embedding"),
    ], ids=["dense", "embedding"])
    @pytest.mark.parametrize("data, line", [(b"0,\xff\n1,0\n", 1), (b"0,1\n1,\xff\n", 2)])
    def test_csv_that_is_not_utf8_names_its_line(self, argv, what, data, line):
        code, message, caught, made = run_cli(argv, {"csv": data, "graph": "0 1 1\n"})
        assert code == 2, message
        assert message.startswith(f"error: could not parse {what}: line {line}: not UTF-8 text")
        assert_clean_exit(code, message, caught, made)

    def test_non_finite_tolerance_is_named(self, tmp_path, clique_path, capsys):
        out = tmp_path / "x"
        assert run("embed", "--graph", str(clique_path), "--d", "3", "--tol", "nan",
                   "--out", str(out)) == 2
        assert "--tol must be finite, got nan" in capsys.readouterr().err
        assert not out.exists()

    def test_strict_nonconvergence_is_numerical_error(self, tmp_path, clique_path):
        assert run("embed", "--graph", str(clique_path), "--d", "3",
                   "--max-iter", "1", "--strict", "--out", str(tmp_path / "x")) == 3

    def test_rerun_is_byte_identical(self, tmp_path, clique_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert run("embed", "--graph", str(clique_path), "--d", "3",
                       "--out", str(out)) == 0
        assert data_files(out1) == data_files(out2)


class TestCluster:
    def test_partition_and_centrality(self, tmp_path, clique_path):
        out = tmp_path / "run"
        assert run("cluster", "--graph", str(clique_path), "--d", "3",
                   "--out", str(out), "--seed", "2") == 0
        rows = (out / "partition.csv").read_text().splitlines()
        assert rows[0] == "node,community"
        labels = np.array([int(r.split(",")[1]) for r in rows[1:]])
        assert labels.shape == (15,)
        for block in range(3):
            assert len(set(labels[5 * block:5 * block + 5])) == 1
        lengths = np.loadtxt(out / "centrality.csv", delimiter=",")
        assert np.allclose(lengths, 1.0, atol=1e-4)
        doc = json.loads((out / "cluster.json").read_text())
        assert doc["stress"] == pytest.approx(0.0, abs=1e-6)

    def test_k_zero_is_usage_error(self, tmp_path, clique_path):
        assert run("cluster", "--graph", str(clique_path), "--d", "3", "--k", "0",
                   "--out", str(tmp_path / "x")) == 1

    @pytest.mark.parametrize("edges, k, code, err", [
        # Past the node count: refused before the embedding, so no solver warning.
        ("0 1 1\n1 2 1\n2 3 1\n", "5", 1, "error: --k must be in [1, 4]\n"),
        # Node 0 is isolated, so its row of X is zero: a k within [1, n] but
        # above the nonzero rows is a fault of the data.
        ("n=4\n1 3 1\n2 3 1\n", "4", 2, "error: only 3 nonzero rows for k=4\n"),
    ], ids=["past-node-count", "past-nonzero-rows"])
    def test_k_beyond_the_rows_is_refused(self, tmp_path, capsys, edges, k, code, err):
        path, out = tmp_path / "g.edgelist", tmp_path / "x"
        path.write_text(edges)
        assert run("cluster", "--graph", str(path), "--d", "2", "--k", k,
                   "--out", str(out)) == code
        assert capsys.readouterr().err == err
        assert not out.exists()


def star_with_isolated_node():
    """Edges 1-3 and 2-3 plus node 0: at d = 1 no X minimizes the residual."""
    w = np.zeros((4, 4))
    w[1, 3] = w[3, 1] = w[2, 3] = w[3, 2] = 1.0
    return WeightedGraph(w)


@pytest.mark.parametrize("command, graph, d, reason", [
    ("embed", disjoint_cliques([5, 5, 5]), 3, "tolerance"),
    ("cluster", disjoint_cliques([5, 5, 5]), 3, "tolerance"),
    ("cluster", disjoint_cliques([90, 100, 110]), 3, "tolerance"),
    ("embed", star_with_isolated_node(), 1, "no-minimiser"),
])
def test_manifest_records_stop_reason(tmp_path, command, graph, d, reason):
    path = tmp_path / "g.edgelist"
    save_graph(graph, path)
    out = tmp_path / "run"
    assert run(command, "--graph", str(path), "--d", str(d), "--out", str(out)) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["solver"] == {"stop_reason": reason}
    sidecar = json.loads((out / "embedding.json").read_text())
    assert sidecar["converged"] is (reason == "tolerance")


def test_cap_is_recorded_as_the_stop_reason(tmp_path, clique_path):
    out = tmp_path / "run"
    assert run("embed", "--graph", str(clique_path), "--d", "3", "--max-iter", "1",
               "--out", str(out)) == 0
    assert json.loads((out / "manifest.json").read_text())["solver"] == {"stop_reason": "cap"}


def test_weight_near_float_max_embeds(tmp_path, capsys):
    path = tmp_path / "huge.edgelist"
    path.write_text("n=3\n0 1 1e308\n1 2 1\n")
    out = tmp_path / "run"
    assert run("embed", "--graph", str(path), "--d", "1", "--out", str(out)) == 0
    x = np.loadtxt(out / "embedding.csv", delimiter=",")
    assert np.isfinite(x).all()
    assert x[0] * x[1] == pytest.approx(1e308, rel=1e-9)
    assert capsys.readouterr().err == ""


HUGE_TRIANGLE = "n=3\n0 1 1e308\n1 2 1e308\n0 2 1e308\n"


class TestSweep:
    def test_selects_three_on_cliques(self, tmp_path, clique_path):
        out = tmp_path / "run"
        assert run("sweep", "--graph", str(clique_path), "--d-range", "2..4",
                   "--out", str(out), "--seed", "0") == 0
        report = json.loads((out / "report.json").read_text())
        assert report["selected_d"] == 3
        lines = (out / "stress.csv").read_text().splitlines()
        assert lines[0] == "d,stress,penalized_stress,residual"
        assert len(lines) == 4
        for d in (2, 3, 4):
            assert (out / f"partition_d{d}.csv").exists()

    def test_manifest_records_solver_per_d(self, tmp_path, clique_path):
        out = tmp_path / "run"
        assert run("sweep", "--graph", str(clique_path), "--d-range", "2..4",
                   "--out", str(out)) == 0
        solver = json.loads((out / "manifest.json").read_text())["solver"]
        assert sorted(solver) == ["2", "3", "4"]
        for entry in solver.values():
            assert entry["stop_reason"] == "tolerance"
            assert entry["iterations"] >= 1
            assert entry["converged"] is True

    def test_singleton_range(self, tmp_path, clique_path):
        out = tmp_path / "run"
        assert run("sweep", "--graph", str(clique_path), "--d-range", "3",
                   "--out", str(out)) == 0
        assert json.loads((out / "report.json").read_text())["selected_d"] == 3

    def test_penalized_requires_weights(self, tmp_path, clique_path):
        for flag in ("--l1", "--l2"):
            out = tmp_path / flag
            assert run("sweep", "--graph", str(clique_path), "--d-range", "2..3",
                       flag, "1.0", "--out", str(out)) == 1
            assert not out.exists()

    def test_penalized_populates_column(self, tmp_path, clique_path):
        out = tmp_path / "run"
        assert run("sweep", "--graph", str(clique_path), "--d-range", "2..3",
                   "--l1", "1.0", "--l2", "0.5", "--out", str(out)) == 0
        for line in (out / "stress.csv").read_text().splitlines()[1:]:
            assert line.split(",")[2] != ""

    def test_unconverged_solves_are_reported_per_d(self, tmp_path, clique_path, capsys):
        argv = ("sweep", "--graph", str(clique_path), "--d-range", "2..3", "--max-iter", "1")
        assert run(*argv, "--out", str(tmp_path / "a")) == 0
        assert capsys.readouterr().err.splitlines() == [
            f"warning: embedding at d={d} did not converge in 1 iterations (cap)"
            for d in (2, 3)]
        assert run(*argv, "--strict", "--out", str(tmp_path / "b")) == 3
        assert capsys.readouterr().err == (
            "numerical failure: embedding at d=2 did not converge in 1 iterations (cap)\n")

    def test_bad_range_is_usage_error(self, tmp_path, clique_path):
        assert run("sweep", "--graph", str(clique_path), "--d-range", "4..2",
                   "--out", str(tmp_path / "x")) == 1

    @pytest.mark.parametrize("d_range", ["2..40", "0..3", "1..100000000000000000000"])
    def test_range_beyond_node_count_is_usage_error(self, tmp_path, clique_path, capsys,
                                                    d_range):
        out = tmp_path / "x"
        assert run("sweep", "--graph", str(clique_path), "--d-range", d_range,
                   "--out", str(out)) == 1
        assert "must be in [1, 15]" in capsys.readouterr().err
        assert not out.exists()

    def test_range_of_a_billion_builds_no_list(self, tmp_path, clique_path):
        # Under the address limit a list of 10^9 ints would exit 2, out of memory.
        out = tmp_path / "x"
        proc = fresh_python("-m", "wrdpm.cli", "sweep", "--graph", str(clique_path),
                            "--d-range", "1..1000000000", "--out", str(out),
                            preexec_fn=_limit_address_space)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr == "error: every --d-range value must be in [1, 15]\n"
        assert not out.exists()

    def test_overflowing_stress_is_a_numerical_failure(self, tmp_path, capsys):
        # Rows near the root of the float maximum overflow the raw dot sums.
        path = tmp_path / "huge.edgelist"
        path.write_text(HUGE_TRIANGLE)
        out = tmp_path / "x"
        assert run("sweep", "--graph", str(path), "--d-range", "1..2", "--out", str(out)) == 3
        assert "stress at d=1 is nan" in capsys.readouterr().err
        assert not out.exists()


class TestNull:
    def test_overflowing_total_weight_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "huge.edgelist"
        path.write_text(HUGE_TRIANGLE)
        out = tmp_path / "x"
        assert run("null", "--graph", str(path), "--samples", "3", "--out", str(out)) == 2
        assert "sum past the float maximum" in capsys.readouterr().err
        assert not out.exists()

    def test_null_json_fields(self, tmp_path, clique_path):
        out = tmp_path / "run"
        assert run("null", "--graph", str(clique_path), "--samples", "25",
                   "--out", str(out), "--seed", "9") == 0
        doc = json.loads((out / "null.json").read_text())
        assert doc["statistic"] == "avg_weighted_clustering"
        assert doc["null"] == "poisson_er"
        assert doc["N"] == 25
        assert doc["seed"] == 9
        assert len(doc["samples"]) == 25
        assert 0.0 <= doc["quantile"] <= 1.0

    def test_single_sample_null_std_is_null(self, tmp_path, clique_path):
        out = tmp_path / "run"
        assert run("null", "--graph", str(clique_path), "--samples", "1",
                   "--out", str(out)) == 0
        assert json.loads((out / "null.json").read_text())["null_std"] is None

    def test_zero_samples_is_usage_error(self, tmp_path, clique_path):
        assert run("null", "--graph", str(clique_path), "--samples", "0",
                   "--out", str(tmp_path / "x")) == 1

    def test_unknown_statistic_is_usage_error(self, tmp_path, clique_path):
        assert run("null", "--graph", str(clique_path), "--statistic", "bogus",
                   "--out", str(tmp_path / "x")) == 1

    def test_dot_product_requires_embedding(self, tmp_path, clique_path):
        assert run("null", "--graph", str(clique_path), "--null", "dot_product",
                   "--out", str(tmp_path / "x")) == 1

    def test_dot_product_with_embedding(self, tmp_path, clique_path):
        emb_out = tmp_path / "emb"
        assert run("embed", "--graph", str(clique_path), "--d", "3",
                   "--out", str(emb_out)) == 0
        out = tmp_path / "run"
        assert run("null", "--graph", str(clique_path), "--null", "dot_product",
                   "--embedding", str(emb_out / "embedding.csv"),
                   "--statistic", "total_weight", "--samples", "50",
                   "--out", str(out)) == 0
        doc = json.loads((out / "null.json").read_text())
        assert doc["observed"] == 30.0


class TestLikelihood:
    def test_prints_value(self, tmp_path, clique_path, capsys):
        emb_out = tmp_path / "emb"
        assert run("embed", "--graph", str(clique_path), "--d", "3",
                   "--out", str(emb_out)) == 0
        assert run("likelihood", "--graph", str(clique_path),
                   "--embedding", str(emb_out / "embedding.csv"), "--clamp") == 0
        value = float(capsys.readouterr().out.strip())
        assert np.isfinite(value)
        assert value < 0

    def test_optional_out_dir(self, tmp_path, clique_path, capsys):
        emb_out = tmp_path / "emb"
        run("embed", "--graph", str(clique_path), "--d", "3", "--out", str(emb_out))
        out = tmp_path / "run"
        assert run("likelihood", "--graph", str(clique_path),
                   "--embedding", str(emb_out / "embedding.csv"), "--clamp",
                   "--out", str(out)) == 0
        doc = json.loads((out / "likelihood.json").read_text())
        assert doc["log_likelihood"] == pytest.approx(
            float(capsys.readouterr().out.strip())
        )

    def test_zero_probability_is_reported_on_stderr(self, tmp_path, capsys, recwarn):
        path, emb = tmp_path / "g.edgelist", tmp_path / "emb.csv"
        path.write_text("n=3\n0 1 1\n1 2 3\n")
        emb.write_text("0\n0\n0\n")
        assert run("likelihood", "--graph", str(path), "--embedding", str(emb), "--clamp") == 0
        captured = capsys.readouterr()
        assert captured.out == "-inf\n"
        assert "warning: an observed weight has zero probability" in captured.err
        assert not recwarn.list

    def test_minus_infinity_is_written_as_json_null(self, tmp_path):
        # JSON (RFC 8259) has no -Infinity: jq and JSON.parse refuse it.
        path, emb = tmp_path / "g.edgelist", tmp_path / "emb.csv"
        path.write_text("n=3\n0 1 1\n1 2 3\n")
        emb.write_text("0\n0\n0\n")
        common = ["--graph", str(path), "--embedding", str(emb)]
        assert run("likelihood", *common, "--clamp", "--out", str(tmp_path / "lik")) == 0
        assert run("null", "--null", "dot_product", "--statistic", "log_likelihood", *common,
                   "--out", str(tmp_path / "null")) == 0

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        docs = {p.relative_to(tmp_path).as_posix(): json.loads(p.read_text(), parse_constant=refuse)
                for p in tmp_path.glob("*/*.json")}
        assert len(docs) == 4  # two data files and two manifests
        assert docs["lik/likelihood.json"]["log_likelihood"] is None
        assert docs["null/null.json"]["observed"] is None
        assert docs["null/null.json"]["quantile"] == 0.0

    def test_bernoulli_needs_zero_one_weights(self, tmp_path, capsys):
        path, emb = tmp_path / "g.edgelist", tmp_path / "emb.csv"
        path.write_text("n=3\n0 1 2\n1 2 1\n")
        emb.write_text("0.5\n0.5\n0.5\n")
        assert run("likelihood", "--graph", str(path), "--embedding", str(emb),
                   "--family", "bernoulli") == 2
        assert "bernoulli likelihood needs 0/1 weights" in capsys.readouterr().err

    @pytest.mark.parametrize("rows", [10, 20])
    def test_embedding_rows_must_match_graph(self, tmp_path, clique_path, capsys, rows):
        emb = tmp_path / "emb.csv"
        np.savetxt(emb, np.full((rows, 3), 0.5), delimiter=",")
        assert run("likelihood", "--graph", str(clique_path),
                   "--embedding", str(emb), "--clamp") == 2
        captured = capsys.readouterr()
        assert f"embedding has {rows} rows for a 15-node graph" in captured.err
        assert captured.out == ""


# This test and the next run the null ensemble's worker beside BLAS threads:
# the error must be the one that drawing and scoring in turn meets first.
@pytest.mark.blas_threads
@pytest.mark.parametrize("command, message", [
    (["null", "--null", "dot_product"], "node strengths overflow the float range"),
    (["null", "--null", "dot_product", "--statistic", "total_weight"],
     "sum past the float maximum"),
    (["null", "--null", "dot_product", "--statistic", "log_likelihood"],
     "at Poisson rate 1e+308 overflows the float range"),
    (["likelihood"], "at Poisson rate 1e+308 overflows the float range"),
])
def test_overflowing_embedding_grid_is_data_error(tmp_path, capsys, recwarn, command, message):
    # Rows near the root of the float maximum give grid entries near it.
    path, emb, out = tmp_path / "huge.edgelist", tmp_path / "emb.csv", tmp_path / "x"
    path.write_text(HUGE_TRIANGLE)
    emb.write_text("1e154\n1e154\n1e154\n")
    assert run(*command, "--graph", str(path), "--embedding", str(emb), "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""
    assert not out.exists()
    assert not recwarn.list, [str(w.message) for w in recwarn]


@pytest.mark.blas_threads
def test_rate_too_large_to_sample_is_data_error(tmp_path, clique_path, capsys):
    emb, out = tmp_path / "emb.csv", tmp_path / "x"
    np.savetxt(emb, np.full((15, 1), 1e10))
    assert run("null", "--null", "dot_product", "--graph", str(clique_path),
               "--embedding", str(emb), "--out", str(out)) == 2
    assert "Poisson rate 1e+20 is too large to sample" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [["null", "--null", "dot_product"], ["likelihood"]])
def test_non_finite_embedding_is_data_error(tmp_path, clique_path, capsys, command):
    emb = tmp_path / "emb.csv"
    x = np.full((15, 3), 0.5)
    x[4, 1] = np.nan
    np.savetxt(emb, x, delimiter=",")
    out = tmp_path / "x"
    assert run(*command, "--graph", str(clique_path), "--embedding", str(emb),
               "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert f"{emb}[4, 1] is nan" in captured.err
    assert captured.out == ""
    assert not out.exists()


def _limit_address_space(limit=2_500_000_000):
    # 2.5 GB by default, for the child process only: embed's 3.2 GB float64
    # copy of a 20 000-node graph does not fit, nor the null's 1.6 GB float32
    # workspace beside the 400 MB graph and two 400 MB count buffers, and
    # the start-up does.
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


@pytest.mark.parametrize("argv", [
    ["embed", "--graph", "{graph}", "--d", "2"],
    ["null", "--graph", "{graph}", "--samples", "2"],
    ["generate", "--builtin", "er", "--param", "0.001", "--n", "20000"],
])
def test_out_of_memory_is_data_error(tmp_path, argv):
    graph = tmp_path / "big.edgelist"
    graph.write_text("n=20000\n0 1 1\n")
    out = tmp_path / "out"
    # generate holds only its draw, and took about 550 MB in all at this
    # size: its 400 MB buffer of one-byte counts alone fills 400 MB.
    limit = 400_000_000 if argv[0] == "generate" else 2_500_000_000
    argv = [a.format(graph=graph) for a in argv]
    proc = fresh_python("-m", "wrdpm.cli", *argv, "--out", str(out),
                        preexec_fn=lambda: _limit_address_space(limit))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: out of memory"), proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["sweep", "--d-range", "2..x"], "bad --d-range '2..x'"),
    (["sweep", "--d-range", "2..3", "--l1", "1"], "--l1 and --l2 go together"),
    (["null", "--null", "dot_product"], "--null dot_product requires --embedding"),
    (["null", "--embedding", "x.csv"], "--embedding is not read by --null poisson_er"),
])
def test_flag_error_is_found_before_the_graph_is_read(tmp_path, capsys, argv, message):
    out = tmp_path / "x"
    assert run(*argv, "--graph", str(tmp_path / "missing.edgelist"), "--out", str(out)) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not out.exists()


@pytest.mark.parametrize("run_cli", [
    "",
    "assert wrdpm.cli.main(['null', '--graph', {graph!r}, '--samples', '2', '--out', {out!r}]) == 0; ",
], ids=["import", "null"])
def test_cli_import_loads_no_scipy(tmp_path, clique_path, run_cli):
    # scipy is imported where it is used, so a run that needs none starts
    # faster; the null ensemble's default statistic needs none.
    run_cli = run_cli.format(graph=str(clique_path), out=str(tmp_path / "out"))
    proc = fresh_python("-c", "import sys, wrdpm.cli; " + run_cli +
                              "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_cli_import_loads_no_package_metadata_or_hashlib():
    # The manifest's version and input digests import these where they are
    # used; importlib.metadata also pulls in email and socket.
    proc = fresh_python("-c", "import sys, wrdpm.cli; print(sorted(m for m in "
                              "('importlib.metadata', 'email', 'hashlib') if m in sys.modules))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_cli_import_loads_no_thread_pool():
    # null_compare imports its worker's thread pool where it runs, so a run
    # that draws no null ensemble starts without it.
    proc = fresh_python("-c", "import sys, wrdpm.cli; print('concurrent.futures' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


class TestManifest:
    def test_embed_records_input_digest(self, tmp_path, clique_path):
        out = tmp_path / "run"
        assert run("embed", "--graph", str(clique_path), "--d", "3",
                   "--out", str(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["inputs"] == [str(clique_path)]
        digest = hashlib.sha256(clique_path.read_bytes()).hexdigest()
        assert manifest["input_sha256"] == {str(clique_path): digest}

    def test_generate_builtin_lists_no_input(self, tmp_path):
        out = tmp_path / "run"
        assert run("generate", "--builtin", "simple-community", "--n", "10",
                   "--out", str(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["inputs"] == []
        assert manifest["input_sha256"] == {}

    @pytest.mark.parametrize("argv", [
        ["generate", "--builtin", "multiresolution", "--n", "12", "--d", "2",
         "--sigma2", "0.02", "--exp-mean", "1.5"],
        ["embed", "--graph", "{graph}", "--d", "3", "--tol", "1e-6"],
        ["cluster", "--graph", "{graph}", "--d", "3", "--k", "2", "--max-iter", "300"],
        ["sweep", "--graph", "{graph}", "--d-range", "2..3", "--l1", "1", "--l2", "0.5"],
        ["null", "--graph", "{graph}", "--samples", "3", "--statistic", "total_weight"],
        ["likelihood", "--graph", "{graph}", "--embedding", "{embedding}", "--clamp"],
    ])
    def test_config_is_every_parsed_flag(self, tmp_path, clique_path, argv):
        embedding = tmp_path / "emb.csv"
        np.savetxt(embedding, np.full((15, 3), 0.5), delimiter=",")
        out = tmp_path / "run"
        argv = [arg.format(graph=clique_path, embedding=embedding) for arg in argv]
        argv += ["--seed", "4", "--out", str(out)]
        assert run(*argv) == 0

        def strict(constant):
            raise ValueError(f"manifest.json holds {constant}, which is not JSON")

        manifest = json.loads((out / "manifest.json").read_text(), parse_constant=strict)
        parsed = vars(build_parser().parse_args(argv))
        assert manifest["config"] == {
            k: v for k, v in parsed.items() if k not in ("func", "command", "seed")}
        assert manifest["seed"] == 4

    def test_generate_config_records_model_settings(self, tmp_path):
        out = tmp_path / "run"
        assert run("generate", "--builtin", "er", "--param", "0.3", "--family", "bernoulli",
                   "--n", "10", "--d", "2", "--out", str(out)) == 0
        assert json.loads((out / "manifest.json").read_text())["config"] == {
            "out": str(out), "format": "edge-list", "model": None, "builtin": "er",
            "n": 10, "d": 2, "family": "bernoulli", "param": 0.3, "sigma2": None,
            "exp_mean": None, "spec": None, "clamp": False,
        }

    @pytest.mark.parametrize("imported", [True, False], ids=["scipy-imported", "scipy-metadata"])
    def test_env_records_versions_blas_and_openblas(self, tmp_path, clique_path, monkeypatch,
                                                    imported):
        import scipy

        if not imported:  # as in a null run, which imports no scipy
            monkeypatch.delitem(sys.modules, "scipy")
        out = tmp_path / "run"
        assert run("null", "--samples", "2", "--graph", str(clique_path), "--out", str(out)) == 0
        assert ("scipy" in sys.modules) == imported
        env = json.loads((out / "manifest.json").read_text())["env"]
        assert sorted(env) == ["blas", "numpy", "openblas_core", "openblas_threads",
                               "python", "scipy"]
        assert env["python"] == platform.python_version()
        assert (env["numpy"], env["scipy"]) == (np.__version__, scipy.__version__)
        assert env["blas"] and env["blas"] != "unknown"
        if cli._openblas() is not None:
            assert isinstance(env["openblas_threads"], int) and env["openblas_threads"] >= 1
            assert env["openblas_core"] and env["openblas_core"] != "unknown"

    def test_env_without_a_bundled_openblas(self, monkeypatch):
        monkeypatch.setattr(cli, "_openblas", lambda: None)
        env = cli._environment()
        assert env["openblas_threads"] == env["openblas_core"] == "unknown"

    def test_an_unmarked_test_and_its_children_run_with_one_openblas_thread(self):
        # conftest's `one_blas_thread`, whatever OPENBLAS_NUM_THREADS says.
        proc = fresh_python("-c", "import os; print(os.environ['OPENBLAS_NUM_THREADS'])")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "1\n"
        if cli._openblas() is None:
            pytest.skip("numpy bundles no OpenBLAS")
        assert cli._environment()["openblas_threads"] == 1

    @pytest.mark.blas_threads
    def test_a_marked_test_runs_with_the_environments_openblas_threads(self):
        # The count a new process takes from this environment, after the
        # unmarked tests before this one set one thread and restored it.
        if cli._openblas() is None:
            pytest.skip("numpy bundles no OpenBLAS")
        proc = fresh_python("-c", "from wrdpm import cli; "
                                  "print(cli._environment()['openblas_threads'])")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"{cli._environment()['openblas_threads']}\n"

    def test_outputs_are_the_data_files(self, tmp_path, clique_path):
        out = tmp_path / "run"
        assert run("sweep", "--graph", str(clique_path), "--d-range", "2..4",
                   "--out", str(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert sorted(manifest["outputs"]) == sorted(data_files(out))


class TestSeedHandling:
    def test_env_fallback(self, tmp_path, monkeypatch):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        monkeypatch.setenv("WRDPM_SEED", "13")
        assert run("generate", "--builtin", "simple-community", "--n", "10",
                   "--out", str(out1)) == 0
        monkeypatch.delenv("WRDPM_SEED")
        assert run("generate", "--builtin", "simple-community", "--n", "10",
                   "--seed", "13", "--out", str(out2)) == 0
        assert data_files(out1) == data_files(out2)

    def test_every_stream_of_a_run_is_its_own(self, tmp_path, clique_path, monkeypatch):
        # Each generator a run makes is recorded by its seed; the first draws
        # of all streams of seeds 0..19 differ, and none is a bare seed's.
        made = []
        default_rng = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed: made.append(seed) or default_rng(seed))
        emb = tmp_path / "emb.csv"
        np.savetxt(emb, np.full((15, 3), 0.5), delimiter=",")
        commands = {
            "generate": ["--builtin", "simple-community", "--n", "15"],
            "cluster": ["--graph", str(clique_path), "--d", "3"],
            "sweep": ["--graph", str(clique_path), "--d-range", "1..8"],
            "null": ["--graph", str(clique_path), "--null", "dot_product",
                     "--embedding", str(emb), "--samples", "100"],
        }
        streams = {}
        for seed in range(20):
            for command, argv in commands.items():
                before = len(made)
                assert run(command, *argv, "--seed", str(seed),
                           "--out", str(tmp_path / f"{command}{seed}")) == 0
                streams[command] = len(made) - before
        # d = 1 clusters into one community and draws nothing.
        assert streams == {"generate": 2, "cluster": 10, "sweep": 70, "null": 100}
        first = [default_rng(seed).integers(2**63) for seed in made]
        assert len(set(first)) == len(first)
        assert not set(first) & {default_rng(seed).integers(2**63) for seed in range(20)}

    def test_bad_env_seed_is_usage_error(self, tmp_path, monkeypatch):
        monkeypatch.setenv("WRDPM_SEED", "notanint")
        assert run("generate", "--builtin", "simple-community", "--n", "10",
                   "--out", str(tmp_path / "x")) == 1

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        assert run("generate", "--builtin", "er", "--param", "0.5", "--n", "4",
                   "--seed", "-1", "--out", str(tmp_path / "x")) == 1
        assert "error: --seed must be >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_negative_env_seed_is_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("WRDPM_SEED", "-1")
        assert run("generate", "--builtin", "er", "--param", "0.5", "--n", "4",
                   "--out", str(tmp_path / "x")) == 1
        assert "error: WRDPM_SEED must be >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_unknown_flag_is_usage_error(self, tmp_path, clique_path):
        assert run("embed", "--graph", str(clique_path), "--d", "2",
                   "--out", str(tmp_path / "x"), "--bogus") == 1
