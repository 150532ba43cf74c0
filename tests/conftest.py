import contextlib
import io
import os
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest

from wrdpm import WeightedGraph
from wrdpm.cli import main


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
