"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines
as they complete.
"""

import contextlib
import io
import itertools
import time
from fractions import Fraction

import numpy as np
import pytest

from wrdpm import (
    AxisNoise,
    BlockModelSpec,
    ChungLuSpec,
    EdgeDistribution,
    LatentModel,
    MultiresolutionAxis,
    WeightedGraph,
    angular_kmeans,
    complete_diagonal,
    dimension_sweep,
    dot_product_grid,
    draw_vectors,
    embed,
    evaluate_null_likelihood,
    factor_psd,
    fit_poisson_er,
    make_chung_lu,
    make_sbm,
    null_compare,
    sample_network,
    stress,
    total_weight,
    weighted_clustering,
)
from wrdpm.cli import main as cli_main
from conftest import bridge_graph, disjoint_cliques

B_PAPER = np.array([
    [0.50, 0.05, 0.10],
    [0.05, 0.40, 0.05],
    [0.10, 0.05, 0.30],
])


def report(number, name, ok):
    print(f"criterion {number:2d} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


@pytest.fixture(scope="module")
def theorem_instances():
    rng = np.random.default_rng(20240820)
    instances = []
    for _ in range(1000):
        n = int(rng.integers(5, 51))
        a = np.triu(rng.uniform(-5.0, 5.0, (n, n)), 1)
        instances.append(a + a.T)
    return instances


def test_criterion_01_exact_recovery():
    start = time.perf_counter()
    g = disjoint_cliques([5, 5, 5])
    emb = embed(g, 3)
    part = angular_kmeans(emb.X, 3, seed=0)
    truth = np.repeat(np.arange(3), 5)
    pure = all(
        len(set(truth[part.assignment == c])) == 1 for c in range(3)
    ) and sorted(part.sizes) == [5, 5, 5]
    s = stress(emb.X, part)
    elapsed = time.perf_counter() - start
    report(1, "exact recovery", emb.residual < 1e-6 and pure
           and abs(s) < 1e-9 and elapsed < 1.0)


def test_criterion_02_bridge_centrality():
    start = time.perf_counter()
    emb = embed(bridge_graph(5), 3)
    lengths = np.linalg.norm(emb.X, axis=1)
    bridge = lengths[[0, 5]]
    others = np.delete(lengths, [0, 5])
    ratio_ok = np.allclose(bridge / others.max(), np.sqrt(2), rtol=0.05)
    elapsed = time.perf_counter() - start
    report(2, "bridge centrality", emb.residual < 1e-6
           and bridge.min() > others.max() and ratio_ok and elapsed < 1.0)


def test_criterion_03_dimension_selection():
    start = time.perf_counter()
    b = np.full((3, 3), 0.1)
    np.fill_diagonal(b, 1.0)
    model = make_sbm(BlockModelSpec(b, (50, 50, 50)), "poisson")
    hits = 0
    for seed in range(20):
        g = sample_network(model, draw_vectors(model, seed), seed + 1000)
        if dimension_sweep(g, range(2, 9), seed=seed).selected_d == 3:
            hits += 1
    elapsed = time.perf_counter() - start
    report(3, "dimension selection", hits >= 18 and elapsed < 120.0)


def test_criterion_04_diagonal_completion(theorem_instances):
    start = time.perf_counter()
    min_eig = min(
        np.linalg.eigvalsh(complete_diagonal(m))[0]
        for m in theorem_instances
    )
    elapsed = time.perf_counter() - start
    report(4, "diagonal completion", min_eig >= 0.5 and elapsed < 30.0)


def test_criterion_05_completion_roundtrip(theorem_instances):
    worst = 0.0
    for m in theorem_instances:
        c = complete_diagonal(m)
        x = factor_psd(c)
        grid = x @ x.T
        off = ~np.eye(c.shape[0], dtype=bool)
        worst = max(worst, np.abs(grid - c)[off].max())
    report(5, "completion roundtrip", worst < 1e-9)


def test_criterion_06_sbm_grid_law():
    model = make_sbm(BlockModelSpec(B_PAPER, (2, 2, 2)), "poisson")
    x = model.source.vectors
    report(6, "SBM grid law",
           np.abs(x @ x.T - B_PAPER).max() < 1e-10
           and np.linalg.norm(x @ x.T - B_PAPER) < 1e-10)


def test_criterion_07_chung_lu_law():
    rng = np.random.default_rng(7)
    w = rng.uniform(0.2, 3.0, 50)
    model = make_chung_lu(ChungLuSpec(w), "poisson")
    vectors = draw_vectors(model, 0)
    grid = dot_product_grid(vectors)
    expected = np.outer(w, w) / w.sum()
    np.fill_diagonal(expected, 0.0)
    masked = grid.copy()
    np.fill_diagonal(masked, 0.0)
    grid_ok = np.abs(masked - expected).max() < 1e-12

    n_samples = 10_000
    pairs = [(0, 1), (10, 20), (48, 49)]
    sums = np.zeros(len(pairs))
    for s in range(n_samples):
        w = sample_network(model, vectors, s).weights
        for idx, (j, l) in enumerate(pairs):
            sums[idx] += w[j, l]
    means_ok = all(
        abs(sums[idx] / n_samples - grid[j, l])
        < 4 * np.sqrt(grid[j, l] / n_samples)
        for idx, (j, l) in enumerate(pairs)
    )
    report(7, "Chung-Lu law", grid_ok and means_ok)


def test_criterion_08_poisson_er_mle():
    rng = np.random.default_rng(8)
    ok = True
    for _ in range(50):
        n = int(rng.integers(2, 25))
        a = np.triu(rng.integers(0, 7, (n, n)).astype(float), 1)
        g = WeightedGraph(a + a.T)
        v = fit_poisson_er(g).source.vector
        exact = Fraction(int(total_weight(g)), n * (n - 1) // 2)
        # lambda-hat must equal the rational ratio rounded once to float;
        # the model encodes it as sqrt(lambda), so compare on that side
        ok &= float(v[0]) == np.sqrt(float(exact))
    report(8, "Poisson-ER MLE", ok)


def test_criterion_09_clustering_direction():
    start = time.perf_counter()
    dist = EdgeDistribution("poisson")
    above = below = 0
    for seed in range(20):
        for source, counter in ((AxisNoise(3, 0.01), "above"),
                                (MultiresolutionAxis(3, 0.01, 2.0), "below")):
            model = LatentModel(dist, 150, source)
            g = sample_network(model, draw_vectors(model, seed), seed + 500)
            rep = null_compare(g, n_samples=100, seed=seed)
            if counter == "above" and rep.observed > rep.null_mean:
                above += 1
            if counter == "below" and rep.observed < rep.null_mean:
                below += 1
    elapsed = time.perf_counter() - start
    report(9, "clustering direction",
           above >= 18 and below >= 18 and elapsed < 300.0)


def test_criterion_10_weighted_clustering_oracle():
    rng = np.random.default_rng(10)
    ok = True
    for _ in range(300):
        n = int(rng.integers(2, 9))
        a = np.triu((rng.random((n, n)) < 0.5).astype(float), 1)
        g = WeightedGraph(a + a.T)
        per_node, _ = weighted_clustering(g)
        brute = np.zeros(n)
        w = g.weights.astype(float)  # uint8 sums wrap past 255
        for j in range(n):
            nbrs = [l for l in range(n) if w[j, l] > 0]
            if len(nbrs) < 2:
                continue
            # ordered neighbor pairs, so each triangle contributes twice
            closed = sum(
                w[j, l] + w[j, h]
                for l, h in itertools.combinations(nbrs, 2)
                if w[l, h] > 0
            )
            brute[j] = closed / (w[j].sum() * (len(nbrs) - 1))
        ok &= bool(np.array_equal(per_node, brute))
    report(10, "weighted clustering oracle", ok)


def test_criterion_11_likelihood_sanity():
    dist = EdgeDistribution("poisson")
    model = LatentModel(dist, 50, AxisNoise(3, 0.01))
    vectors = draw_vectors(model, seed=11)
    wins = 0
    for seed in range(200):
        g = sample_network(model, vectors, seed=seed, clamp=True)
        base = evaluate_null_likelihood(g, vectors)
        # vectors scaled by sqrt(s) scale every rate by s
        if (base > evaluate_null_likelihood(g, vectors * np.sqrt(1.25))
                and base > evaluate_null_likelihood(g, vectors * np.sqrt(0.75))):
            wins += 1
    report(11, "likelihood sanity", wins >= 190)


def test_criterion_12_cli_determinism(tmp_path):
    from wrdpm import save_graph

    graph_path = tmp_path / "g.edgelist"
    save_graph(disjoint_cliques([5, 5, 5]), graph_path)

    def run_twice(*argv):
        dirs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{argv[0]}_{tag}"
            assert cli_main(list(argv) + ["--out", str(out)]) == 0
            files = {
                p.name: p.read_bytes()
                for p in out.iterdir() if p.name != "manifest.json"
            }
            dirs.append(files)
        return dirs[0] == dirs[1] and len(dirs[0]) > 0

    emb_dir = tmp_path / "embed_a"  # reused below for the likelihood run
    ok = run_twice("generate", "--builtin", "simple-community", "--n", "20", "--seed", "5")
    ok &= run_twice("embed", "--graph", str(graph_path), "--d", "3", "--seed", "5")
    ok &= run_twice("cluster", "--graph", str(graph_path), "--d", "3", "--seed", "5")
    ok &= run_twice("sweep", "--graph", str(graph_path), "--d-range", "2..4", "--seed", "5")
    ok &= run_twice("null", "--graph", str(graph_path), "--samples", "20", "--seed", "5")
    with contextlib.redirect_stdout(io.StringIO()):  # swallow the printed value
        ok &= run_twice(
            "likelihood", "--graph", str(graph_path),
            "--embedding", str(emb_dir / "embedding.csv"), "--clamp", "--seed", "5",
        )
    report(12, "CLI determinism", ok)
