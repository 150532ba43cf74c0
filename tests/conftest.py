import contextlib
import ctypes
import io
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from wrdpm import WeightedGraph
from wrdpm.cli import _openblas, main

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="session")
def openblas_threads():
    """The getter and setter of the thread count of numpy's bundled
    OpenBLAS (`cli._openblas`), or None where numpy bundles none."""
    lib = _openblas()
    if lib is None:
        return None
    get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


@pytest.fixture(autouse=True)
def one_blas_thread(request, monkeypatch, openblas_threads):
    """Run a test not marked `blas_threads` with one OpenBLAS thread, and the
    processes it starts too; a marked test keeps the environment's count.

    Yields whether the test runs with one thread: where numpy bundles no
    OpenBLAS whose count can be set, only if the environment set one. Small
    eigensolves with two threads can be 100x slower, and a product split in
    row halves has the whole product's bits with one thread only.
    """
    pinned = os.environ.get("OPENBLAS_NUM_THREADS") == "1"
    if request.node.get_closest_marker("blas_threads"):
        yield pinned
        return
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    if openblas_threads is None:
        yield pinned
        return
    get, put = openblas_threads
    before = get()
    put(1)
    try:
        yield True
    finally:
        put(before)


def fresh_python(*argv, env=None, timeout=120, **kwargs):
    """Run ``python *argv`` in a new interpreter that imports wrdpm from this
    checkout's ``src``, with the variables ``env`` added to this process's;
    the finished process, with its text output."""
    env = dict(os.environ, **(env or {}), PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True,
                          timeout=timeout, **kwargs)


def disjoint_cliques(sizes, weight=1.0):
    """Union of complete graphs with constant edge weight."""
    n = sum(sizes)
    w = np.zeros((n, n))
    start = 0
    for z in sizes:
        w[start:start + z, start:start + z] = weight
        start += z
    np.fill_diagonal(w, 0.0)
    return WeightedGraph(w)


def bridge_graph(clique_size=5):
    """Two cliques joined by one edge between node 0 and node clique_size."""
    g = disjoint_cliques([clique_size, clique_size])
    w = g.weights.copy()
    w[0, clique_size] = w[clique_size, 0] = 1.0
    return WeightedGraph(w)


def random_integer_graph(rng, n, max_weight=5, density=0.5):
    w = rng.integers(0, max_weight + 1, (n, n)).astype(float)
    w *= rng.random((n, n)) < density
    w = np.triu(w, 1)
    return WeightedGraph(w + w.T)


def run_cli(argv, files):
    """Run ``cli.main(argv)`` with ``files`` (name -> text, or bytes written as
    they are) written to a fresh directory, each ``{name}`` in argv replaced by
    its path, and ``--out`` and ``--seed 1`` added; (exit code, stderr,
    warnings, whether --out was made)."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            with open(os.path.join(tmp, name), "wb") as f:
                f.write(text if isinstance(text, bytes) else text.encode("utf-8"))
        out = os.path.join(tmp, "out")
        argv = [a.format(**{name: os.path.join(tmp, name) for name in files}) for a in argv]
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("always")
            code = main(argv + ["--out", out, "--seed", "1"])
        return code, err.getvalue(), [str(w.message) for w in caught], os.path.exists(out)


def assert_clean_exit(code, message, caught, made, codes=(0, 1, 2, 3)):
    """A run of ``run_cli`` exited with one of ``codes``, with no traceback and
    no Python warning; a failed run wrote nothing, and its stderr starts with
    its error line."""
    assert code in codes, message
    assert "Traceback" not in message
    assert not caught, caught
    if code == 0:
        assert made
    else:
        assert message.startswith(("error: ", "numerical failure: ")), message
        assert not made


def traced_peak(call):
    """The peak bytes that `tracemalloc` traces while ``call()`` runs; a
    caller that does not count first-call allocations warms ``call`` first."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
