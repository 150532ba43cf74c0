"""Row halves on two threads, from `graph._SPLIT_MIN_N` nodes on: the fit
operator's build and products and an edge list's writes to its two
triangles run in two parts at once, one on a worker thread that lives for
one `embed` call or one load.

With one OpenBLAS thread every split call has the bits of the whole call;
with two, a split product's bits differ from the whole product's. So the
tests of the bits run under `one_blas_thread` and are not marked
`blas_threads`.
"""

import ctypes
import os
import platform
import subprocess
import sys
import threading
import time
from pathlib import Path

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
from wrdpm.cli import _openblas

N = 1100  # above the floor, and a fit in a few steps


@pytest.fixture
def one_blas_thread():
    """Run the test with one OpenBLAS thread, whatever the environment sets."""
    lib = _openblas()
    if lib is None:
        if os.environ.get("OPENBLAS_NUM_THREADS") != "1":
            pytest.skip("numpy bundles no OpenBLAS whose thread count can be set")
        yield
        return
    get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


def planted(n, seed):
    """A Poisson AxisNoise (d = 8) graph of one-byte counts, density about 0.34."""
    m = LatentModel(EdgeDistribution("poisson"), n, AxisNoise(8, 0.01))
    return sample_network(m, draw_vectors(m, seed=seed), seed=seed + 1)


@pytest.fixture(scope="module")
def g():
    return planted(N, 0)


@pytest.fixture(scope="module")
def saved(g, tmp_path_factory):
    """g as an edge list, and g's weights times 0.375 (float64) as another."""
    tmp = tmp_path_factory.mktemp("halves")
    save_graph(g, tmp / "counts.edgelist")
    save_graph(WeightedGraph(g.weights * 0.375), tmp / "floats.edgelist")
    return tmp / "counts.edgelist", tmp / "floats.edgelist"


@pytest.fixture
def splits(monkeypatch):
    """Whether each `graph._at_once` call since the fixture was set up had a worker."""
    seen = []
    at_once = graph._at_once

    def spy(worker, first, second):
        seen.append(worker is not None)
        return at_once(worker, first, second)

    monkeypatch.setattr(graph, "_at_once", spy)
    return seen


@pytest.mark.parametrize("n", [1023, 1024, 1031, 1537])
def test_products_have_the_whole_products_bits(one_blas_thread, n):
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
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, OPENBLAS_CORETYPE=core, PYTHONPATH=str(root / "src"))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{__file__}::test_products_have_the_whole_products_bits"],
        cwd=root, env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout
    assert "4 passed" in run.stdout, run.stdout


def test_embed_has_the_bits_of_the_whole_calls(one_blas_thread, g, splits, monkeypatch):
    split = embed(g, 8)
    assert splits and all(splits)
    splits.clear()
    monkeypatch.setattr(graph, "_SPLIT_MIN_N", g.n + 1)
    whole = embed(g, 8)
    assert not splits
    assert split.converged
    assert split.X.tobytes() == whole.X.tobytes()
    assert split.residual_history == whole.residual_history


@pytest.mark.parametrize("which", [0, 1], ids=["counts", "floats"])
def test_load_has_the_bits_of_the_serial_writes(saved, splits, monkeypatch, which):
    split = load_graph(saved[which])
    assert splits == [True]
    monkeypatch.setattr(graph, "_SPLIT_MIN_N", N + 1)
    serial = load_graph(saved[which])
    assert splits == [True, False]
    assert split.weights.dtype == serial.weights.dtype == (np.uint8, np.float64)[which]
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
    """An `_at_once` that raises ``error`` from ``half`` ("first" or
    "second") of each call, after the real part has run; each part that
    ended appends its thread to ``ran``."""
    at_once = graph._at_once

    def failing(worker, first, second):
        def part(name, job):
            def run():
                if name == "second":
                    time.sleep(0.02)  # the caller's part ends first
                job()
                ran.append(threading.current_thread())
                if name == half:
                    raise error
            return run
        return at_once(worker, part("first", first), part("second", second))

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
    monkeypatch.setattr(graph, "_at_once", fail_in(half, error, ran))
    threads = threading.active_count()
    with pytest.raises(RuntimeError) as caught:
        call(g, saved)
    assert caught.value is error
    # Both halves of the failing call ran to their end, each on its thread.
    assert len(ran) == 2 and ran[0] is threading.current_thread() is not ran[1]
    assert threading.active_count() == threads


def test_the_callers_error_wins_where_both_halves_raise():
    # As in turn: the first part's error, raised once the second has ended.
    from concurrent.futures import ThreadPoolExecutor

    first_error, second_error = ValueError("first"), ValueError("second")
    ended = []

    def first():
        raise first_error

    def second():
        time.sleep(0.05)
        ended.append(True)
        raise second_error

    with pytest.raises(ValueError) as caught:
        graph._at_once(None, first, second)
    assert caught.value is first_error
    assert ended == []  # in turn, second never starts
    with ThreadPoolExecutor(1) as worker:
        with pytest.raises(ValueError) as caught:
            graph._at_once(worker, first, second)
        assert caught.value is first_error
        assert ended == [True]  # before the executor's exit joins its thread


def test_four_callers_each_fit_their_own_graph(one_blas_thread):
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
