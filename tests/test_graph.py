import numpy as np
import pytest

from wrdpm import GraphFormatError, WeightedGraph, graph, load_graph, save_graph, total_weight
from conftest import disjoint_cliques, random_integer_graph


def write(tmp_path, text, name="g.edgelist"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadEdgeList:
    def test_three_line_example(self, tmp_path):
        g = load_graph(write(tmp_path, "0 1 2\n1 2 3\n0 2 1\n"))
        assert g.n == 3
        assert g.weights[0, 1] == 2
        assert g.weights[1, 2] == 3
        assert g.weights[0, 2] == 1

    def test_empty_with_declared_n(self, tmp_path):
        g = load_graph(write(tmp_path, "n=4\n"))
        assert g.n == 4
        assert not g.weights.any()

    def test_comments_ignored(self, tmp_path):
        g = load_graph(write(tmp_path, "# header\n0 1 2  # trailing\n"))
        assert g.weights[0, 1] == 2

    def test_duplicate_edge_rejected(self, tmp_path):
        with pytest.raises(GraphFormatError, match="line 2"):
            load_graph(write(tmp_path, "0 1 2\n1 0 3\n"))

    def test_self_loop_rejected(self, tmp_path):
        with pytest.raises(GraphFormatError, match="self-loop"):
            load_graph(write(tmp_path, "2 2 1\n"))

    def test_negative_weight_rejected(self, tmp_path):
        with pytest.raises(GraphFormatError, match="negative"):
            load_graph(write(tmp_path, "0 1 -2\n"))

    @pytest.mark.parametrize("weight", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_weight_rejected(self, tmp_path, weight):
        with pytest.raises(GraphFormatError, match="line 2: non-finite"):
            load_graph(write(tmp_path, f"0 1 2\n1 2 {weight}\n"))

    def test_parse_error_reports_line(self, tmp_path):
        with pytest.raises(GraphFormatError, match="line 3"):
            load_graph(write(tmp_path, "0 1 2\n1 2 3\nnot an edge\n"))

    # Sizes far past the limit, so a parser without the guard fails at once
    # rather than allocating.
    def test_oversized_header_rejected(self, tmp_path):
        with pytest.raises(GraphFormatError, match="line 2: n=10000000000 exceeds"):
            load_graph(write(tmp_path, "# big\nn=10000000000\n0 1 1\n"))

    @pytest.mark.parametrize("edge", ["0 10000000000 1", "10000000000 3 1"])
    def test_oversized_node_id_rejected(self, tmp_path, edge):
        with pytest.raises(GraphFormatError, match="line 2: node id 10000000000 exceeds"):
            load_graph(write(tmp_path, f"0 1 2\n{edge}\n"))

    def test_limit_is_inclusive_of_max_nodes(self, tmp_path, monkeypatch):
        monkeypatch.setattr(graph, "MAX_NODES", 5)
        assert load_graph(write(tmp_path, "n=5\n0 4 1\n")).n == 5
        with pytest.raises(GraphFormatError, match="line 1: n=6 exceeds the limit of 5"):
            load_graph(write(tmp_path, "n=6\n"))
        with pytest.raises(GraphFormatError, match="line 1: node id 5 exceeds"):
            load_graph(write(tmp_path, "0 5 1\n"))

    def test_declared_n_too_small(self, tmp_path):
        with pytest.raises(GraphFormatError):
            load_graph(write(tmp_path, "n=2\n0 5 1\n"))


class TestDense:
    def test_asymmetric_rejected(self, tmp_path):
        path = write(tmp_path, "0,2,0\n3,0,0\n0,0,0\n", "g.csv")
        with pytest.raises(GraphFormatError, match="asymmetric"):
            load_graph(path, "dense")

    def test_nonzero_diagonal_rejected(self, tmp_path):
        path = write(tmp_path, "1,0\n0,0\n", "g.csv")
        with pytest.raises(GraphFormatError, match="diagonal"):
            load_graph(path, "dense")

    def test_non_finite_rejected(self, tmp_path):
        path = write(tmp_path, "0,nan\nnan,0\n", "g.csv")
        with pytest.raises(GraphFormatError, match="finite"):
            load_graph(path, "dense")

    def test_clique_roundtrip(self, tmp_path):
        g = disjoint_cliques([3])
        path = tmp_path / "clique.csv"
        save_graph(g, path, "dense")
        loaded = load_graph(path, "dense")
        assert np.array_equal(loaded.weights, g.weights)
        assert np.array_equal(np.diag(loaded.weights), np.zeros(3))


class TestSave:
    def test_single_edge_file_contents(self, tmp_path):
        g = WeightedGraph(np.array([[0.0, 5.0], [5.0, 0.0]]))
        path = tmp_path / "g.edgelist"
        save_graph(g, path)
        lines = [l for l in path.read_text().splitlines() if not l.startswith("n=")]
        assert lines == ["0 1 5"]

    @pytest.mark.parametrize("fmt", ["edge-list", "dense"])
    def test_roundtrip_identity(self, tmp_path, rng, fmt):
        for trial in range(20):
            g = random_integer_graph(rng, int(rng.integers(1, 12)))
            path = tmp_path / f"g{trial}"
            save_graph(g, path, fmt)
            loaded = load_graph(path, fmt)
            assert np.array_equal(loaded.weights, g.weights)

    def test_roundtrip_fractional_weights(self, tmp_path):
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 0] = 0.1234567891234567
        g = WeightedGraph(w)
        for fmt in ("edge-list", "dense"):
            path = tmp_path / "g"
            save_graph(g, path, fmt)
            assert np.array_equal(load_graph(path, fmt).weights, g.weights)


class TestInvariants:
    def test_constructor_rejects_asymmetry(self):
        with pytest.raises(GraphFormatError):
            WeightedGraph(np.array([[0.0, 1.0], [2.0, 0.0]]))

    def test_constructor_rejects_negative(self):
        w = np.array([[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(GraphFormatError):
            WeightedGraph(w)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_constructor_rejects_non_finite(self, value):
        w = np.array([[0.0, value], [value, 0.0]])
        with pytest.raises(GraphFormatError, match="finite"):
            WeightedGraph(w)

    def test_loaded_graphs_satisfy_invariants(self, tmp_path, rng):
        for trial in range(30):
            g = random_integer_graph(rng, int(rng.integers(2, 10)))
            path = tmp_path / "g"
            save_graph(g, path)
            loaded = load_graph(path)
            w = loaded.weights
            assert np.array_equal(w, w.T)
            assert not np.diag(w).any()
            assert (w >= 0).all()

    def test_weights_read_only(self):
        g = disjoint_cliques([3])
        with pytest.raises(ValueError):
            g.weights[0, 1] = 7


def test_total_weight_examples():
    assert total_weight(disjoint_cliques([3])) == 3
    assert total_weight(WeightedGraph(np.zeros((10, 10)))) == 0
    w = np.zeros((4, 4))
    w[1, 3] = w[3, 1] = 7
    assert total_weight(WeightedGraph(w)) == 7
