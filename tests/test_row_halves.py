"""Halves on two threads, from `graph._SPLIT_MIN_N` nodes on: the fit
operator's build and products run in two row halves at once, and an edge
list's writes in two halves of its edges, one half on a worker thread that
lives for one `embed` call or one load (`graph._by_halves`).

With one OpenBLAS thread every split call has the bits of the whole call;
with two, a split product's bits differ from the whole product's. So the
tests of the bits are not marked `blas_threads`: conftest's
`one_blas_thread` runs them with one thread, and they skip where it cannot.
"""

import platform
import sys
import threading
import time

import numpy as np
import pytest

from wrdpm import (
    AxisNoise,
    EdgeDistribution,
    LatentModel,
    WeightedGraph,
    draw_vectors,
    embed,
    graph,
    load_graph,
    sample_network,
    save_graph,
)
from conftest import ROOT, fresh_python

N = 1100  # above the floor, and a fit in a few steps


def skip_without_one_thread(one_blas_thread):
    if not one_blas_thread:
        pytest.skip("numpy bundles no OpenBLAS whose thread count can be set")


def planted(n, seed):
    """A Poisson AxisNoise (d = 8) graph of one-byte counts, density about 0.34."""
    m = LatentModel(EdgeDistribution("poisson"), n, AxisNoise(8, 0.01))
    return sample_network(m, draw_vectors(m, seed=seed), seed=seed + 1)


@pytest.fixture(scope="module")
def g():
    return planted(N, 0)


@pytest.fixture(scope="module")
def saved(g, tmp_path_factory):
    """Edge lists of N nodes: g; g's weights times 0.375 (float64); g's edges
    shuffled, every other one written ``v u``; and a single edge."""
    tmp = tmp_path_factory.mktemp("halves")
    save_graph(g, tmp / "counts.edgelist")
    save_graph(WeightedGraph(g.weights * 0.375), tmp / "floats.edgelist")
    header, *edges = (tmp / "counts.edgelist").read_text().splitlines()
    edges = [edges[k] for k in np.random.default_rng(0).permutation(len(edges))]
    edges[::2] = [f"{v} {u} {w}" for u, v, w in map(str.split, edges[::2])]
    (tmp / "shuffled.edgelist").write_text("\n".join([header, *edges]) + "\n")
    (tmp / "one-edge.edgelist").write_text(f"n={N}\n5 1099 3\n")
    return [tmp / f"{name}.edgelist" for name in ("counts", "floats", "shuffled", "one-edge")]


@pytest.fixture
def splits(monkeypatch):
    """Whether each `graph._by_halves` call since the fixture was set up had a worker."""
    seen = []
    by_halves = graph._by_halves

    def spy(worker, n, job):
        seen.append(worker is not None)
        return by_halves(worker, n, job)

    monkeypatch.setattr(graph, "_by_halves", spy)
    return seen


@pytest.mark.parametrize("n", [1023, 1024, 1031, 1537])
def test_products_have_the_whole_products_bits(one_blas_thread, n):
    skip_without_one_thread(one_blas_thread)
    w = np.triu(np.random.default_rng(n).poisson(0.5, (n, n)), 1).astype(np.uint8)
    h = WeightedGraph(w + w.T)
    rng = np.random.default_rng(0)
    with graph._worker(n) as worker:
        assert (worker is None) == (n < graph._SPLIT_MIN_N)
        fit = graph._FitMatrix(h, worker)
        for v in [rng.standard_normal(n)] + [rng.standard_normal((n, d)) for d in (1, 2, 8, 13)]:
            product = fit @ v
            assert product.flags.c_contiguous
            assert product.tobytes() == (fit._a @ v).tobytes(), v.shape
    whole = graph._FitMatrix(h)
    assert fit._a.tobytes() == whole._a.tobytes()
    assert (fit.sq_norm, fit.degree_mean.tobytes()) == (whole.sq_norm, whole.degree_mean.tobytes())


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"),
                    reason="OpenBLAS's Haswell and Zen kernels run on x86-64 only")
@pytest.mark.parametrize("core", ["Haswell", "Zen"])
def test_products_have_the_whole_products_bits_under_other_kernels(core):
    # OpenBLAS picks its kernel from the CPU; it is set for a new process only.
    run = fresh_python("-m", "pytest", "-q", "-p", "no:cacheprovider",
                       f"{__file__}::test_products_have_the_whole_products_bits",
                       env={"OPENBLAS_CORETYPE": core}, cwd=ROOT, timeout=300)
    assert run.returncode == 0, run.stdout
    assert "4 passed" in run.stdout, run.stdout


def test_embed_has_the_bits_of_the_whole_calls(one_blas_thread, g, splits, monkeypatch):
    skip_without_one_thread(one_blas_thread)
    split = embed(g, 8)
    assert splits and all(splits)
    splits.clear()
    monkeypatch.setattr(graph, "_SPLIT_MIN_N", g.n + 1)
    whole = embed(g, 8)
    assert splits and not any(splits)
    assert split.converged
    assert split.X.tobytes() == whole.X.tobytes()
    assert split.residual_history == whole.residual_history


@pytest.mark.parametrize("which, dtype", [(0, np.uint8), (1, np.float64), (2, np.uint8),
                                           (3, np.uint8)],
                         ids=["counts", "floats", "shuffled", "one-edge"])
def test_load_has_the_bits_of_the_serial_writes(saved, splits, monkeypatch, which, dtype):
    split = load_graph(saved[which])
    assert splits == [True]
    monkeypatch.setattr(graph, "_SPLIT_MIN_N", N + 1)
    serial = load_graph(saved[which])
    assert splits == [True, False]
    assert split.weights.dtype == serial.weights.dtype == dtype
    assert split.weights.tobytes() == serial.weights.tobytes()


def test_one_worker_starts_per_call_and_none_below_the_floor(g, saved, tmp_path, monkeypatch):
    started = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda t: started.append(t) or start(t))
    threads = threading.active_count()
    small = planted(300, 0)
    save_graph(small, tmp_path / "g.edgelist")
    embed(load_graph(tmp_path / "g.edgelist"), 3)
    assert started == []
    embed(load_graph(saved[0]), 8)
    assert len(started) == 2 and not any(t.is_alive() for t in started)
    assert threading.active_count() == threads


def fail_in(half, error, ran):
    """A `_by_halves` that raises ``error`` from ``half`` ("first", the
    caller's part, or "second", the worker's) of each call, after the real
    part has run; each part that ended appends its thread to ``ran``."""
    by_halves = graph._by_halves

    def failing(worker, n, job):
        def part(rows):
            name = "first" if rows.start is None else "second"
            if name == "second":
                time.sleep(0.02)  # the caller's part ends first
            job(rows)
            ran.append(threading.current_thread())
            if name == half:
                raise error
        return by_halves(worker, n, part)

    return failing


CALLS = {
    "embed": lambda g, saved: embed(g, 8),
    "load_graph": lambda g, saved: load_graph(saved[0]),
}


@pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
@pytest.mark.parametrize("half", ["first", "second"], ids=["caller", "worker"])
def test_an_error_in_either_half_reaches_the_caller_after_both_end(
        g, saved, monkeypatch, call, half):
    error = RuntimeError(f"the {half} half failed")
    ran = []
    monkeypatch.setattr(graph, "_by_halves", fail_in(half, error, ran))
    threads = threading.active_count()
    with pytest.raises(RuntimeError) as caught:
        call(g, saved)
    assert caught.value is error
    # Both halves of the failing call ran to their end, each on its thread.
    assert len(ran) == 2 and ran[0] is threading.current_thread() is not ran[1]
    assert threading.active_count() == threads


def test_the_callers_error_wins_where_both_halves_raise():
    # The caller's part's error, raised once the worker's part has ended.
    from concurrent.futures import ThreadPoolExecutor

    first_error, second_error = ValueError("first"), ValueError("second")
    ended = []

    def job(rows):
        if rows.start is None:  # the caller's part, or the whole
            ended.append(rows)
            raise first_error
        time.sleep(0.05)
        ended.append(rows)
        raise second_error

    with pytest.raises(ValueError) as caught:
        graph._by_halves(None, N, job)
    assert caught.value is first_error
    assert ended == [slice(None)]  # without a worker, one part: the whole
    ended.clear()
    with ThreadPoolExecutor(1) as worker:
        with pytest.raises(ValueError) as caught:
            graph._by_halves(worker, N, job)
        assert caught.value is first_error
        # Both parts, before the executor's exit joins its thread.
        assert ended == [slice(None, 576), slice(576, None)]


def test_four_callers_each_fit_their_own_graph(one_blas_thread):
    skip_without_one_thread(one_blas_thread)
    # Four fits at once, each with its own worker, on two cores, with the
    # interpreter switching threads as often as it can: each X is its
    # serial fit's, and every thread has ended.
    graphs = [planted(N, seed) for seed in (0, 2, 4, 6)]
    serial = [embed(h, 8).X.tobytes() for h in graphs]
    results, errors = [None] * len(graphs), []

    def fit(k):
        try:
            results[k] = embed(graphs[k], 8).X.tobytes()
        except BaseException as exc:
            errors.append(exc)

    threads = threading.active_count()
    callers = [threading.Thread(target=fit, args=(k,)) for k in range(len(graphs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=240)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert not errors
    assert results == serial
    assert threading.active_count() == threads
