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

pytestmark = pytest.mark.blas_threads

GOLDEN = {
    "generate": {
        "graph.edgelist":
            "fe297db8f346d5efca9075d14e25908c57115a0d06bc8eca108bb1567eb13cb2",
        "model.json":
            "2b5ff37b10f24b67e57504792f1b20a1d7b360ca473eaa001de68cda128338c4",
        "vectors_0.csv":
            "30b999799acbc30445025d4a6f82dcb052598e23ca5395a3670d2bcb653ea2b3",
    },
    "embed": {
        "embedding.csv":
            "5b0f398b3a79541cda1795020a2f0205d973e42471b28cd878dbdf9e7cfcc1b4",
        "embedding.json":
            "f3f2e8731215b02310f588039c98f32c706dfcc318ca7b876cbafa69cf4ddf65",
    },
    "cluster": {
        "centrality.csv":
            "a2764be3c7863429d3aa8c6d78cc85a8184a80ff79edcf91afc5c75ffc82479e",
        "cluster.json":
            "35dd38664bb8fc29e797fedb457f7fb3910752bef1bcba0a69578676637fe911",
        "embedding.csv":
            "5b0f398b3a79541cda1795020a2f0205d973e42471b28cd878dbdf9e7cfcc1b4",
        "embedding.json":
            "f3f2e8731215b02310f588039c98f32c706dfcc318ca7b876cbafa69cf4ddf65",
        "partition.csv":
            "1ab812069ba9fd88640da55a99412058a0c2344a535b380d9fc757ea552fed65",
    },
    "sweep": {
        "centrality.csv":
            "a2764be3c7863429d3aa8c6d78cc85a8184a80ff79edcf91afc5c75ffc82479e",
        "partition_d2.csv":
            "68843462f4ba2ea9e27eb803294a887eaff25bdde2e769e238f6a303ba390bd1",
        "partition_d3.csv":
            "039217d99c1b35978c44504edd783db5af64fccf351e310bd308faf1eb4d1010",
        "partition_d4.csv":
            "f98cc0f567c28b06df7bacc6421bbe48c9754cac0830eb56dbfa2f440faea450",
        "report.json":
            "9ade802e7242578268bde28a6479ff0d794a940244b5831e9d141dae2be6e62c",
        "stress.csv":
            "83dc908fdf3edc64c9b8999a33893bc45239e97a94d028123b3e336a3d167e92",
    },
    "null": {
        "null.json":
            "83fb78d80de0a06f686b5e6aa2ace7815a22424c00dfe1092f2b221390ff6132",
    },
    "likelihood": {
        "likelihood.json":
            "d44a349d663990b9b62ad187deed3ddde1e6e97c4f28b6e3973ad0f3b07bb407",
    },
}


# generate no longer writes grid_0.csv, the dot-product grid of its vectors;
# rebuilt from vectors_0.csv it keeps these bytes.
GRID_0_SHA256 = "0799bdbad7bfd369e33259f009eba994047b1774ef048541f88cc02c4b3939dd"


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
