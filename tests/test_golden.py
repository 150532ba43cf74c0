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

import pytest

from wrdpm import save_graph
from wrdpm.cli import main
from conftest import disjoint_cliques

GOLDEN = {
    "generate": {
        "graph.edgelist":
            "358e46b585c9e02021c4a2304260ef5d59df025f4625047b75fb56be334fb141",
        "grid_0.csv":
            "1a9d3128e6f0eb87a5001a3a2e49738857acabd6a242eb2dad14778544be2c4e",
        "model.json":
            "2b5ff37b10f24b67e57504792f1b20a1d7b360ca473eaa001de68cda128338c4",
        "vectors_0.csv":
            "4fcea72e1d3d60afb944095eb2ffaed90ab4675b68a80f2e76c88451dc51ccb7",
    },
    "embed": {
        "embedding.csv":
            "35dcc423e0dd96e2e35fd6a7abbbf5d9c0ab0d30eb72feaca60d14e89a497fb2",
        "embedding.json":
            "f9d687bc6d50f964bbcc51edeeb888c3e1a17fe02209f88d47658568b5ff20a4",
    },
    "cluster": {
        "centrality.csv":
            "5df653051ee72a7a6443b945ad8ae447b08de044fc906cc79da9338239fc66e9",
        "cluster.json":
            "393d71963f64b582182320941ca890c2a55ba32d94ad39e27665ccb042436ff6",
        "embedding.csv":
            "35dcc423e0dd96e2e35fd6a7abbbf5d9c0ab0d30eb72feaca60d14e89a497fb2",
        "embedding.json":
            "f9d687bc6d50f964bbcc51edeeb888c3e1a17fe02209f88d47658568b5ff20a4",
        "partition.csv":
            "1ab812069ba9fd88640da55a99412058a0c2344a535b380d9fc757ea552fed65",
    },
    "sweep": {
        "centrality.csv":
            "5df653051ee72a7a6443b945ad8ae447b08de044fc906cc79da9338239fc66e9",
        "partition_d2.csv":
            "68843462f4ba2ea9e27eb803294a887eaff25bdde2e769e238f6a303ba390bd1",
        "partition_d3.csv":
            "1ab812069ba9fd88640da55a99412058a0c2344a535b380d9fc757ea552fed65",
        "partition_d4.csv":
            "ed665cd7e9e5bdcd49c72e696ef3904b8768334795833005abcc1d576e9d8e28",
        "report.json":
            "3d745836a7db9385c0012c5f6255a56f6876b42cee2ae385296912dd51d12a66",
        "stress.csv":
            "5ceae639a9eb1681ce8c5cb42e2923a094f0635c2583aab052ef0781800c7881",
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


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
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
    out = {}
    for command, argv in runs.items():
        out_dir = root / command
        with contextlib.redirect_stdout(io.StringIO()):
            code = main([command, *argv, "--seed", "5", "--out", str(out_dir)])
        assert code == 0, command
        out[command] = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir()) if p.name != "manifest.json"
        }
    return out


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_data_files_match_golden_digests(digests, command):
    assert digests[command] == GOLDEN[command]
