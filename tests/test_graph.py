import ast
import inspect
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from wrdpm import (
    AxisNoise,
    BlockModelSpec,
    EdgeDistribution,
    GraphFormatError,
    LatentModel,
    WeightedGraph,
    complete_diagonal,
    dimension_sweep,
    draw_vectors,
    embedding,
    graph,
    load_graph,
    sample_network,
    save_graph,
    specialize,
    total_weight,
)
from conftest import disjoint_cliques, random_integer_graph, traced_peak


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
        with pytest.raises(GraphFormatError, match="declared n=2 but edge references node 5"):
            load_graph(write(tmp_path, "n=2\n0 5 1\n"))

    @pytest.mark.parametrize("text", ["n=-5\n", "n=0\n", "n=0\n# c\n"])
    def test_header_declaring_no_nodes_names_its_line(self, tmp_path, text):
        with pytest.raises(GraphFormatError, match="line 1: n="):
            load_graph(write(tmp_path, text))

    def test_header_declaring_no_nodes_is_refused_before_a_later_header(self, tmp_path):
        with pytest.raises(GraphFormatError, match="line 1: n=0 declares no nodes"):
            load_graph(write(tmp_path, "n=0\n0 1 1\nn=2\n"))

    # Tokens Python's int() and float() read but the grammar refuses, headers
    # after the first content line, and bytes that are not UTF-8.
    @pytest.mark.parametrize("data, message", [
        ("0 1_0 1\n", "line 1: could not parse"),
        ("0 1 1_5\n", "line 1: could not parse"),
        ("\u0661 \u0662 3\n", "line 1: could not parse"),
        ("\uff10 \uff11 3\n", "line 1: could not parse"),
        ("0 1 \u0663.\u0665\n", "line 1: could not parse"),
        ("n=3_0\n0 1 1\n", "line 1: bad node-count header"),
        ("n=\u0663\n0 1 1\n", "line 1: bad node-count header"),
        ("0 1 1\nn=5\n", "line 2: an n= header may only be"),
        ("n=3\n# c\nn=3\n", "line 3: an n= header may only be"),
        ("# c\n\n0 1 1\n\nn=2\n", "line 5: an n= header may only be"),
        (b"0 1 \xff\n1 2 1\n", "line 1: not UTF-8 text"),
        (b"0 1 1\n1 2 1\n2 3 \xff\n", "line 3: not UTF-8 text"),
        (b"# caf\xe9\nn=3\n0 1 1\n", "line 1: not UTF-8 text"),
        (b"n=3\r\n0 1 1 # \xff\r\n", "line 2: not UTF-8 text"),
    ])
    def test_refusal_names_its_line(self, tmp_path, data, message):
        path = tmp_path / "g.edgelist"
        path.write_bytes(data if isinstance(data, bytes) else data.encode("utf-8"))
        with pytest.raises(GraphFormatError, match=f"^{message}"):
            load_graph(path)

    @pytest.mark.parametrize("other, dtype", [("2", np.uint8), ("2.5", np.float64)])
    @pytest.mark.parametrize("weight", ["-0", "-1e-400", "-0.0"])
    def test_negative_zero_weight_round_trips_as_zero(self, tmp_path, weight, other, dtype):
        # In one-byte counts and in float64 alike.
        g = load_graph(write(tmp_path, f"n=3\n0 1 {weight}\n1 2 {other}\n"))
        assert g.weights.dtype == dtype
        assert not np.signbit(g.weights).any()
        save_graph(g, tmp_path / "again.edgelist")
        assert load_graph(tmp_path / "again.edgelist").weights.tobytes() == g.weights.tobytes()


# Weights the grammar accepts; then tokens it refuses, most of which
# Python's int()/float() read and numpy's text parser does not.
WEIGHTS = st.one_of(
    st.integers(0, 5).map(str),
    st.floats(0, 1e308).map(repr),
    st.sampled_from(["+1", "3.", ".5", "1e1", "1E5", "-0", "-1e-400", "1e308", "1e-320"]),
)
ODD_IDS = ["1_0", "\u0661", "\uff10", "3.", ".5", "1e1", "inf", "nan", "1.0", "-1"]
ODD_WEIGHTS = ["1_0", "\u0663.\u0665", "INF", "Infinity", "1e400", "inf", "nan", "-2"]
HEADER_COUNTS = ["15", " 16", "3", "+3", "0", "x", "3_0", "\u0663"]
SEPARATORS = [" ", "  ", "\t", "\x0c", " \x0c ", "\xa0", "\u2003", "\x1c", "\x85"]
BLANKS = ["", "  ", "\x0c", "\xa0", "\x85"]
ENDINGS = ["\n", "\r\n"]


@st.composite
def edge_list_texts(draw):
    """Edge-list files: mostly valid rows, with every kind of line the parser meets."""

    def token(valid, odd):
        return draw(st.sampled_from(odd)) if draw(st.integers(0, 19)) == 0 else valid

    def spell(u):
        return draw(st.sampled_from([str(u), f"+{u}", f"0{u}"] + ["-0"] * (u == 0)))

    lines, pairs = [], []
    for kind in draw(st.lists(st.sampled_from(["comment", "blank"]), max_size=2)):
        lines.append("# comment" if kind == "comment" else draw(st.sampled_from(BLANKS)))
    if draw(st.booleans()):
        lines.append(f"n={draw(st.sampled_from(HEADER_COUNTS))}")
    kinds = ["edge"] * 20 + ["reversed", "loop", "comment", "blank", "header"]
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=10)):
        if kind == "reversed" and pairs:
            v, u = draw(st.sampled_from(pairs))
        elif kind in ("edge", "reversed", "loop"):
            u = draw(st.integers(0, 14))
            v = u if kind == "loop" else draw(st.integers(0, 14).filter(lambda x: x != u))
        elif kind == "comment":
            lines.append("# comment")
            continue
        elif kind == "blank":
            lines.append(draw(st.sampled_from(BLANKS)))
            continue
        else:
            lines.append(f"n={draw(st.sampled_from(['15', '17', '2']))}")
            continue
        pairs.append((u, v))
        fields = [token(spell(u), ODD_IDS), token(spell(v), ODD_IDS),
                  token(draw(WEIGHTS), ODD_WEIGHTS)]
        comment = draw(st.sampled_from(["", " # note", "#"]))
        lines.append(draw(st.sampled_from(SEPARATORS)).join(fields) + comment)
    endings = [draw(st.sampled_from(ENDINGS)) for _ in lines]
    if lines and draw(st.booleans()):
        endings[-1] = ""
    return "".join(line + end for line, end in zip(lines, endings))


def _parsed(parse, source):
    """(matrix, None) if ``parse(source)`` accepts, else (None, its GraphFormatError text)."""
    try:
        return parse(source), None
    except GraphFormatError as exc:
        return None, str(exc)


class TestArrayParser:
    """The array parser against the line parser, its reference."""

    @settings(max_examples=400, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=edge_list_texts())
    @example(text="")
    @example(text="# no rows\n")
    @example(text="n=4\n")
    @example(text="n=3\n0 1 -2\n")
    @example(text="0 1 nan\n")
    @example(text="0 1 inf\r\n")
    @example(text="n=5\n-1 2 1\n")
    @example(text="0 1 1\n1 0 1\n")
    @example(text="0 1_0 1\n")
    @example(text="# c\nn=5\n0 1 1\n")
    @example(text="n=0\n0 1 1\nn=2\n")
    @example(text="\x85\nn=3\r\n0\xa01\u20032\n")
    def test_agrees_with_line_parser(self, tmp_path, text):
        """The array parser returns a matrix exactly when the line parser does,
        with the same bytes; otherwise both refuse with the same message."""
        path = tmp_path / "g.edgelist"
        path.write_bytes(text.encode("utf-8"))
        with open(path, encoding="utf-8") as f:
            expected, message = _parsed(graph._parse_edge_list, f.readlines())
        fast, fast_message = _parsed(graph._parse_edge_array, path)
        if message is None:
            assert fast is not None
            assert fast.shape == expected.shape
            assert fast.tobytes() == expected.tobytes()
            assert load_graph(path).weights.tobytes() == expected.tobytes()
        else:
            assert fast is None
            assert fast_message in (None, message)
            assert _parsed(load_graph, path) == (None, message)

    def test_valid_files_skip_the_line_parser(self, tmp_path, rng, monkeypatch):
        def refuse(lines):
            raise AssertionError("line parser called on a valid file")

        monkeypatch.setattr(graph, "_parse_edge_list", refuse)
        g = random_integer_graph(rng, 9)
        path = tmp_path / "g.edgelist"
        save_graph(g, path)
        assert np.array_equal(load_graph(path).weights, g.weights)
        text = "n=4  # nodes\r\n# comment\r\n0\t1\t2.5\r\n\r\n3 1 1e1 # trailing\r\n"
        loaded = load_graph(write(tmp_path, text))
        assert loaded.n == 4
        assert loaded.weights[1, 0] == 2.5 and loaded.weights[1, 3] == 10
        assert not load_graph(write(tmp_path, "n=4\n")).weights.any()
        assert load_graph(write(tmp_path, "# c\nn=5\n0 1 1\n")).n == 5

    @pytest.mark.parametrize("header", [True, False], ids=["header", "no-header"])
    def test_array_parser_holds_the_rows_and_the_weights(self, tmp_path, header):
        # At n = 600 and density 0.34 the load holds the weights as one-byte
        # counts (n^2 bytes) and the parsed rows (int32 ids and a weight, 16
        # bytes per edge); the sorted pair keys are let go before the weights
        # exist. Built as float64 and then cast, the weights took 11.1 n^2;
        # int64 ids with per-edge lo, hi, key and sorted-key arrays, 17.5.
        n = 600
        m = LatentModel(EdgeDistribution("poisson"), n, AxisNoise(3, 0.01))
        g = sample_network(m, draw_vectors(m, seed=0), seed=1)
        path = tmp_path / "g.edgelist"
        save_graph(g, path)
        if not header:
            path.write_text(path.read_text().split("\n", 1)[1])
        loaded = load_graph(path)  # first-call allocations are not counted
        peak = traced_peak(lambda: load_graph(path))
        assert loaded.weights.dtype == np.uint8
        assert loaded.weights.tobytes() == g.weights[:loaded.n, :loaded.n].astype(np.uint8).tobytes()
        assert peak < 6 * n * n


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

    @pytest.mark.parametrize("text", ["", "# no rows\n\n"])
    def test_empty_dense_file_is_refused_by_name(self, tmp_path, text):
        path = tmp_path / "empty.csv"
        path.write_text(text)
        with pytest.raises(GraphFormatError, match="empty.csv holds no rows"):
            load_graph(path, "dense")

    def test_roundtrip_fractional_weights(self, tmp_path):
        w = np.zeros((4, 4))
        w[0, 1] = w[1, 0] = 0.1234567891234567
        w[0, 2] = w[2, 0] = 2.5
        w[0, 3] = w[3, 0] = 5e-324
        w[1, 3] = w[3, 1] = 1e308
        w[2, 3] = w[3, 2] = 1 / 3
        g = WeightedGraph(w)
        for fmt in ("edge-list", "dense"):
            path = tmp_path / "g"
            save_graph(g, path, fmt)
            assert np.array_equal(load_graph(path, fmt).weights, g.weights)


def per_edge_text(g):
    """The edge-list bytes of ``g``, formatted one edge at a time: the reference
    for `save_graph`."""
    text = f"n={g.n}\n"
    for j, l in zip(*np.nonzero(np.triu(g.weights, 1))):
        text += f"{j} {l} {graph._fmt_weight(g.weights[j, l])}\n"
    return text.encode("utf-8")


class TestSaveBytes:
    @pytest.mark.parametrize("n", [1, 2, 12, 63, 64, 65, 129, 150])
    def test_integer_graphs(self, tmp_path, rng, n):
        for trial in range(3):
            g = random_integer_graph(rng, n, max_weight=12)
            save_graph(g, tmp_path / "g.edgelist")
            assert (tmp_path / "g.edgelist").read_bytes() == per_edge_text(g)

    @pytest.mark.parametrize("n", [2, 12, 150])
    def test_float_graphs(self, tmp_path, rng, n):
        # Listed weights, integral ones among them, about half scaled by a
        # random factor.
        w = rng.choice([0.1, 1 / 3, 2.0, 7.5, 1e-7, 5e-324, 1e22, 1e308, 123456789.0],
                       (n, n)) * rng.random((n, n)) ** rng.integers(0, 2, (n, n))
        w = np.triu(w * (rng.random((n, n)) < 0.6), 1)
        g = WeightedGraph(w + w.T)
        save_graph(g, tmp_path / "g.edgelist")
        assert (tmp_path / "g.edgelist").read_bytes() == per_edge_text(g)

    @pytest.mark.parametrize("n", [1, 7])
    def test_edgeless_graph(self, tmp_path, n):
        save_graph(WeightedGraph(np.zeros((n, n))), tmp_path / "g.edgelist")
        assert (tmp_path / "g.edgelist").read_bytes() == f"n={n}\n".encode()

    def test_more_edges_than_one_write_block(self, tmp_path, rng):
        n = 200
        w = np.triu(rng.integers(1, 1000, (n, n)) * rng.random((n, n)), 1)
        g = WeightedGraph(w + w.T)
        assert n > 3 * graph._ROW_BLOCK
        save_graph(g, tmp_path / "g.edgelist")
        assert (tmp_path / "g.edgelist").read_bytes() == per_edge_text(g)

    def test_edgeless_first_row_block(self, tmp_path, rng):
        # The first block writes no line; the blocks after it write theirs.
        n = 150
        w = random_integer_graph(rng, n).weights.copy()
        w[:graph._ROW_BLOCK] = w[:, :graph._ROW_BLOCK] = 0
        g = WeightedGraph(w)
        assert g.weights.any()
        save_graph(g, tmp_path / "g.edgelist")
        assert (tmp_path / "g.edgelist").read_bytes() == per_edge_text(g)

    @pytest.mark.parametrize("rate", [0.05, 0.7])
    def test_writes_without_an_n_by_n_copy(self, tmp_path, rate):
        # A float64 Poisson graph at density about 0.05 (rate 0.05) or 0.5
        # (rate 0.7) is written by row blocks. An n x n float64 copy alone
        # would take 8 n^2 bytes; the write's traced peak stays below 4 n^2
        # (2.24 at rate 0.7).
        n = 1200
        assert write_peak(tmp_path, n, rate, np.float64) < 4 * n * n

    @pytest.mark.parametrize("rate", [0.05, 0.7])
    def test_writes_counts_without_an_n_by_n_copy(self, tmp_path, rate):
        # The same graphs held as one-byte counts. np.triu of the counts
        # would take 2 n^2 bytes with its mask; the write's traced peak stays
        # below 1.9 n^2 (1.73 at rate 0.7).
        n = 1200
        assert write_peak(tmp_path, n, rate, np.uint8) < 1.9 * n * n


def write_peak(tmp_path, n, rate, dtype):
    """The traced peak of saving, as an edge list, an n-node Poisson graph of
    rate ``rate`` whose weights are held in ``dtype``."""
    w = np.triu(np.random.default_rng(0).poisson(rate, (n, n)), 1)
    g = WeightedGraph._wrap((w + w.T).astype(dtype))
    return traced_peak(lambda: save_graph(g, tmp_path / "g.edgelist"))


def poisson_graph_and_counts(tmp_path, n, seed=0):
    """A Poisson AxisNoise (d = 3) graph loaded from its saved edge list, as
    one-byte counts, and the same counts as a float64 graph, first."""
    m = LatentModel(EdgeDistribution("poisson"), n, AxisNoise(3, 0.01))
    save_graph(sample_network(m, draw_vectors(m, seed), seed + 1), tmp_path / "g.edgelist")
    counts = load_graph(tmp_path / "g.edgelist")
    assert counts.weights.dtype == np.uint8
    return WeightedGraph._wrap(counts.weights.astype(float)), counts


def constructed_or_loaded(w, tmp_path, source):
    """The graph of the weights ``w``, constructed, or saved in the format
    ``source`` and loaded back; a float64 copy of ``w`` is saved, so both
    formats write a float64 graph's bytes."""
    if source == "constructed":
        return WeightedGraph(w)
    save_graph(WeightedGraph._wrap(w.astype(float)), tmp_path / "g", source)
    return load_graph(tmp_path / "g", source)


class TestCountGraphs:
    """A graph of integer weights in 0..255, constructed or loaded, is held as
    one-byte counts (`graph._weight_dtype`), and every reader gives it its
    float64 graph's bits, at any BLAS thread count."""

    @pytest.mark.parametrize("source", ["constructed", "edge-list", "dense"])
    @pytest.mark.parametrize("weight", [255.5, 256.0, 1e308, 2.5])
    def test_weights_past_one_byte_stay_float64(self, tmp_path, weight, source):
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 0] = weight
        w[1, 2] = w[2, 1] = 3.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the cast of 1e308 warns
            g = constructed_or_loaded(w, tmp_path, source)
        assert g.weights.dtype == np.float64
        assert g.weights.tobytes() == w.tobytes()

    @pytest.mark.parametrize("source", ["constructed", "edge-list", "dense"])
    @pytest.mark.parametrize("n", [1, 5, 70])
    def test_integers_up_to_255_become_one_byte(self, tmp_path, rng, n, source):
        for top in (0, 1, 255):  # top 0: an edgeless graph, a bare header as an edge list
            w = np.triu(rng.integers(0, top + 1, (n, n)) * (rng.random((n, n)) < 0.5), 1)
            counts = constructed_or_loaded(w + w.T, tmp_path, source)
            assert counts.weights.dtype == np.uint8 and not counts.weights.flags.writeable
            assert counts.weights.tobytes() == (w + w.T).astype(np.uint8).tobytes()
        assert counts.n == n

    @pytest.mark.blas_threads
    @pytest.mark.parametrize("d", [1, 3, 8])
    @pytest.mark.parametrize("n", [150, 300], ids=["eigh-start", "arpack-start"])
    def test_embed_is_bitwise(self, tmp_path, n, d):
        assert embedding._takes_eigh(n, d) == (n == 150)
        g, counts = poisson_graph_and_counts(tmp_path, n)
        fits = [embedding.embed(h, d) for h in (g, counts)]
        assert fits[0].X.tobytes() == fits[1].X.tobytes()
        assert fits[0].residual_history == fits[1].residual_history
        assert fits[0].stop_reason == fits[1].stop_reason

    @pytest.mark.blas_threads
    def test_sweep_records_are_bitwise(self, tmp_path):
        g, counts = poisson_graph_and_counts(tmp_path, 150)
        reports = [dimension_sweep(h, range(2, 6), seed=3, penalty=(1.0, 0.5))
                   for h in (g, counts)]
        assert reports[0].selected_d == reports[1].selected_d
        for a, b in zip(reports[0].records, reports[1].records):
            assert (a.d, a.stress, a.penalized_stress) == (b.d, b.stress, b.penalized_stress)
            assert a.partition.assignment.tobytes() == b.partition.assignment.tobytes()
            assert a.embedding.X.tobytes() == b.embedding.X.tobytes()
            assert a.embedding.residual_history == b.embedding.residual_history

    @pytest.mark.blas_threads
    @pytest.mark.parametrize("fmt", ["edge-list", "dense"])
    def test_save_graph_is_bitwise(self, tmp_path, fmt):
        g, counts = poisson_graph_and_counts(tmp_path, 130)
        save_graph(g, tmp_path / "floats", fmt)
        save_graph(counts, tmp_path / "counts", fmt)
        assert (tmp_path / "counts").read_bytes() == (tmp_path / "floats").read_bytes()


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

    def test_weight_near_float_max_stays_finite(self, tmp_path):
        g = load_graph(write(tmp_path, "n=3\n0 1 1e308\n1 2 1\n"))
        assert g.weights[0, 1] == g.weights[1, 0] == 1e308
        top = np.finfo(float).max
        below = np.nextafter(top, 0)
        w = WeightedGraph(np.array([[0.0, top], [below, 0.0]])).weights
        assert w[0, 1] == w[1, 0] and below <= w[0, 1] <= top
        m = complete_diagonal(np.array([[0.0, -top], [-below, 0.0]]))
        assert m[0, 1] == m[1, 0] and -top <= m[0, 1] <= -below

    def test_symmetry_tolerance_is_relative_to_the_weights(self, rng):
        w = random_integer_graph(rng, 8).weights * 1e6
        noisy = w + rng.uniform(-1e-9, 1e-9, w.shape) * (w > 0)
        before = noisy.tobytes()
        for matrix in (WeightedGraph(noisy).weights, BlockModelSpec(noisy, (1,) * 8).B):
            assert np.array_equal(matrix, matrix.T)
            assert np.abs(matrix - w).max() <= 1e-9
            # the constructor averages its own copy: the caller's array is
            # neither written, nor frozen, nor aliased
            assert not np.shares_memory(matrix, noisy)
        assert noisy.tobytes() == before and noisy.flags.writeable

    def test_unit_scale_asymmetry_rejected(self):
        w = np.array([[0.0, 1.0], [1.0 + 1e-6, 0.0]])
        with pytest.raises(GraphFormatError, match="asymmetric"):
            WeightedGraph(w)
        with pytest.raises(ValueError, match="symmetric"):
            complete_diagonal(w)

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


def test_overflowing_total_weight_is_named():
    w = np.full((3, 3), 1e308)
    np.fill_diagonal(w, 0.0)
    with pytest.raises(ValueError, match="sum past the float maximum"):
        total_weight(WeightedGraph(w))


@pytest.mark.parametrize("call, message", [
    (lambda path: WeightedGraph(np.zeros((0, 0))), "graph must have at least one node"),
    (lambda path: load_graph(path, "bogus"), "unknown graph format 'bogus'"),
    (lambda path: save_graph(disjoint_cliques([2]), path, "bogus"),
     "unknown graph format 'bogus'"),
], ids=["no-nodes", "load-format", "save-format"])
def test_bad_argument_is_named(tmp_path, call, message):
    path = write(tmp_path, "0 1 1\n")
    with pytest.raises(ValueError, match=message):
        call(path)


def test_only_graph_reads_the_weight_array():
    # Every other module asks graph for what it needs, so the storage of the
    # weights can change in graph alone. The one other `.weights` is
    # ChungLuSpec's own field: read through `self` in its class and through
    # make_chung_lu's ChungLuSpec argument.
    reads = set()
    for path in sorted(Path(graph.__file__).parent.glob("*.py")):
        if path.name != "graph.py":
            for top in ast.parse(path.read_text(encoding="utf-8")).body:
                reads |= {(path.name, getattr(top, "name", None), ast.unparse(node.value))
                          for node in ast.walk(top)
                          if isinstance(node, ast.Attribute) and node.attr == "weights"}
    assert reads == {("specialize.py", "ChungLuSpec", "self"),
                     ("specialize.py", "make_chung_lu", "spec")}
    assert inspect.signature(specialize.make_chung_lu).parameters["spec"].annotation \
        == "ChungLuSpec"
