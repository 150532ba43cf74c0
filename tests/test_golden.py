"""Golden sha256 digests of the CLI's data files.

The six runs of acceptance criterion 12 (generate on the
``simple-community`` builtin at n = 20; embed, cluster, sweep, null and
likelihood on three disjoint 5-cliques; seed 5) must keep writing exactly
these bytes. ``manifest.json`` is left out: it records a duration.

Recorded with numpy 2.4.6, scipy 1.17.1 and OpenBLAS 0.3.31, identical
with OPENBLAS_NUM_THREADS=1 and 2. Every run here is below the ARPACK
crossover (n < 256), so the eigensolves are full LAPACK ``eigh`` calls.
"""

import contextlib
import hashlib
import io

import numpy as np
import pytest

from wrdpm import dot_product_grid, save_graph
from wrdpm.cli import main
from conftest import disjoint_cliques

GOLDEN = {
    "generate": {
        "graph.edgelist":
            "358e46b585c9e02021c4a2304260ef5d59df025f4625047b75fb56be334fb141",
        "model.json":
            "2b5ff37b10f24b67e57504792f1b20a1d7b360ca473eaa001de68cda128338c4",
        "vectors_0.csv":
            "4fcea72e1d3d60afb944095eb2ffaed90ab4675b68a80f2e76c88451dc51ccb7",
    },
    "embed": {
        "embedding.csv":
            "06ff5ac5e13c183abe2e93fbed071ff503805d16b635225e5799cf4cdd9f1598",
        "embedding.json":
            "3d1e1f3f3d6168e9f3846836c603264338c25c53e02d8167a49ebdf533022fae",
    },
    "cluster": {
        "centrality.csv":
            "41c39c6c05adfb4f6630437a39f869bb86858771863b76596e0383362cd75d64",
        "cluster.json":
            "01b965285718a9422cfec2ca4490b8a26bb43ae20af3634d8b92d02b8a678770",
        "embedding.csv":
            "06ff5ac5e13c183abe2e93fbed071ff503805d16b635225e5799cf4cdd9f1598",
        "embedding.json":
            "3d1e1f3f3d6168e9f3846836c603264338c25c53e02d8167a49ebdf533022fae",
        "partition.csv":
            "1ab812069ba9fd88640da55a99412058a0c2344a535b380d9fc757ea552fed65",
    },
    "sweep": {
        "centrality.csv":
            "41c39c6c05adfb4f6630437a39f869bb86858771863b76596e0383362cd75d64",
        "partition_d2.csv":
            "68843462f4ba2ea9e27eb803294a887eaff25bdde2e769e238f6a303ba390bd1",
        "partition_d3.csv":
            "1ab812069ba9fd88640da55a99412058a0c2344a535b380d9fc757ea552fed65",
        "partition_d4.csv":
            "f98cc0f567c28b06df7bacc6421bbe48c9754cac0830eb56dbfa2f440faea450",
        "report.json":
            "1b7c42e4cd26d39897ca72856d5e4470efb8d9650cb3aef5db8c308a06739198",
        "stress.csv":
            "e84ca2d97df8fc39e00ed7e98e78722ec03b3687694dc4757262f1471050cdc3",
    },
    "null": {
        "null.json":
            "e91b30cbed6600e0ab6d13155f2d9863dbbe74b5cdaaf42e941ff2aaa1342bf4",
    },
    "likelihood": {
        "likelihood.json":
            "d44a349d663990b9b62ad187deed3ddde1e6e97c4f28b6e3973ad0f3b07bb407",
    },
}


# generate no longer writes grid_0.csv, the dot-product grid of its vectors;
# rebuilt from vectors_0.csv it keeps these bytes.
GRID_0_SHA256 = "1a9d3128e6f0eb87a5001a3a2e49738857acabd6a242eb2dad14778544be2c4e"


@pytest.fixture(scope="module")
def golden_root(tmp_path_factory):
    """Directory holding the output directory of each golden run, by command."""
    root = tmp_path_factory.mktemp("golden")
    graph_path = root / "cliques.edgelist"
    save_graph(disjoint_cliques([5, 5, 5]), graph_path)
    runs = {
        "generate": ["--builtin", "simple-community", "--n", "20"],
        "embed": ["--graph", str(graph_path), "--d", "3"],
        "cluster": ["--graph", str(graph_path), "--d", "3"],
        "sweep": ["--graph", str(graph_path), "--d-range", "2..4"],
        "null": ["--graph", str(graph_path), "--samples", "20"],
        "likelihood": ["--graph", str(graph_path), "--embedding",
                       str(root / "embed" / "embedding.csv"), "--clamp"],
    }
    for command, argv in runs.items():
        with contextlib.redirect_stdout(io.StringIO()):
            code = main([command, *argv, "--seed", "5", "--out", str(root / command)])
        assert code == 0, command
    return root


@pytest.fixture(scope="module")
def digests(golden_root):
    return {
        command: {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted((golden_root / command).iterdir()) if p.name != "manifest.json"
        }
        for command in GOLDEN
    }


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_data_files_match_golden_digests(digests, command):
    assert digests[command] == GOLDEN[command]


def test_grid_rebuilds_from_vectors(golden_root, tmp_path):
    vectors = np.loadtxt(golden_root / "generate" / "vectors_0.csv", delimiter=",", ndmin=2)
    path = tmp_path / "grid_0.csv"
    np.savetxt(path, dot_product_grid(vectors), delimiter=",", fmt="%.17g")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GRID_0_SHA256
