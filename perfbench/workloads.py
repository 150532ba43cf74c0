"""The benchmark's workloads: inputs made from a seed, ops, output checks.

An op is one user-level pipeline run, ``wrdpm.cli.main(argv)`` called in
this process, on one freshly written input.

The graph of op i of a fit or sweep run is drawn from a fixed stream of its
own; the run's seed draws a relabelling of its nodes and the CLI seed. Graph
difficulty varies a lot (one sweep input needs 276 solver iterations over
d=2..8, another 1510, with some d stopping at the 500 cap), so fresh graphs
per seed would make a run's cost depend on the luck of the draw. This way
every run meets the same mix of easy and hard graphs, and run-to-run spread
measures the program. Relabelling leaves the solver's iteration counts
unchanged.

Input graphs are drawn here with numpy rather than by ``wrdpm generate``,
so they stay the same when the library's sampling code changes; they
follow the distributions of the library's own builtins.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np
from scipy.optimize import linear_sum_assignment


class CheckFailed(Exception):
    """An op's output files are missing, unparsable or wrong."""


def pool_rng(op):
    """The fixed stream of op i's graph; the spawn key keeps it apart from the
    ``[seed, op]`` streams."""
    return np.random.default_rng(np.random.SeedSequence(op, spawn_key=(0,)))


def axis_vectors(rng, n, d, exp_mean=None, sigma2=0.01):
    """Latent vectors of the `simple-community` builtin (AxisNoise: e_c plus
    half-normal noise) or, given ``exp_mean``, of `multiresolution` (an
    exponential magnitude on axis c)."""
    axes = rng.integers(0, d, size=n)
    x = np.abs(rng.normal(0.0, math.sqrt(sigma2), size=(n, d)))
    if exp_mean is None:
        x[np.arange(n), axes] += 1.0
    else:
        x[np.arange(n), axes] = rng.exponential(exp_mean, size=n)
    return x


def poisson_graph(rng, means):
    """Symmetric weights with W_ij ~ Poisson(means_ij) for i < j and a zero diagonal."""
    w = np.triu(rng.poisson(means), 1)
    return w + w.T


def write_edge_list(w, path):
    """Write ``w`` in the edge-list format and return its Frobenius norm."""
    iu, ju = np.nonzero(np.triu(w, 1))
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"n={w.shape[0]}\n")
        f.write("".join(f"{u} {v} {x}\n" for u, v, x in zip(
            iu.tolist(), ju.tolist(), w[iu, ju].tolist())))
    return float(np.linalg.norm(w))


def data_digest(out_dir):
    """sha256 over an op's data files; manifest.json carries a duration, so it is left out."""
    h = hashlib.sha256()
    for root, dirs, files in os.walk(out_dir):
        dirs.sort()
        for name in sorted(files):
            if name == "manifest.json":
                continue
            path = os.path.join(root, name)
            h.update(os.path.relpath(path, out_dir).encode())
            with open(path, "rb") as f:
                h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()


def _load_json(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"{os.path.basename(path)}: {exc}")


def _read_partition(path, n):
    try:
        table = np.loadtxt(path, delimiter=",", skiprows=1, dtype=int, ndmin=2)
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"{os.path.basename(path)}: {exc}")
    if table.shape != (n, 2) or not np.array_equal(table[:, 0], np.arange(n)):
        raise CheckFailed(f"{os.path.basename(path)} does not cover all {n} nodes")
    return table[:, 1]


def matched_accuracy(found, planted):
    """Share of nodes whose label agrees with the planted one after the best one-to-one matching."""
    k = int(max(found.max(), planted.max())) + 1
    confusion = np.zeros((k, k), dtype=int)
    np.add.at(confusion, (found, planted), 1)
    rows, cols = linear_sum_assignment(-confusion)
    return confusion[rows, cols].sum() / len(found)


class Workload:
    """One workload: `make_input` writes an op's input, `commands` gives its
    CLI argv lists, `check` validates its outputs and returns quality values."""

    nominal_op_s = 1.0  # op cost on a 2-vCPU x86 VM; sets the op count for --seconds

    def __init__(self, smoke):
        self.smoke = smoke

    def op_count(self, seconds):
        return max(2, round(seconds / self.nominal_op_s))

    def quality(self, per_op):
        return {}

    def quality_ok(self, quality):
        return True


class Fit(Workload):
    name = "fit-1500"
    nominal_op_s = 11.0

    def __init__(self, smoke):
        super().__init__(smoke)
        self.n, self.d = (40, 3) if smoke else (1500, 8)

    def make_input(self, op, seed, path):
        rng = pool_rng(op)
        x = axis_vectors(rng, self.n, self.d, exp_mean=2.0 if op % 2 else None)
        w = poisson_graph(rng, x @ x.T)
        p = np.random.default_rng([seed, op]).permutation(self.n)
        norm = write_edge_list(w[np.ix_(p, p)], path)
        return {"graph": path, "planted": np.argmax(x, axis=1)[p], "norm": norm}

    def commands(self, inp, out, seed):
        return [["cluster", "--graph", inp["graph"], "--d", str(self.d),
                 "--seed", str(seed), "--out", out]]

    def check(self, inp, out):
        emb = _load_json(os.path.join(out, "embedding.json"))
        if emb.get("converged") is not True:
            raise CheckFailed("embedding.json: converged is not true")
        res = emb.get("residual")
        if not isinstance(res, (int, float)) or not math.isfinite(res):
            raise CheckFailed(f"embedding.json: residual {res!r} is not finite")
        part = _read_partition(os.path.join(out, "partition.csv"), self.n)
        return {"rel_residual": res / inp["norm"],
                "recovery": matched_accuracy(part, inp["planted"])}

    def quality(self, per_op):
        return {"fit_rel_residual": float(np.median([q["rel_residual"] for q in per_op])),
                "recovery_acc": float(np.mean([q["recovery"] for q in per_op]))}

    def quality_ok(self, quality):
        return self.smoke or quality["recovery_acc"] >= 0.9


class Sweep(Workload):
    name = "sweep-150"
    nominal_op_s = 1.3
    B = np.array([[1.0, 0.1, 0.1], [0.1, 1.0, 0.1], [0.1, 0.1, 1.0]])

    def __init__(self, smoke):
        super().__init__(smoke)
        self.block, self.d_range = (10, range(2, 5)) if smoke else (50, range(2, 9))

    def make_input(self, op, seed, path):
        blocks = np.repeat(np.arange(3), self.block)
        w = poisson_graph(pool_rng(op), self.B[blocks][:, blocks])
        p = np.random.default_rng([seed, op]).permutation(len(blocks))
        return {"graph": path, "norm": write_edge_list(w[np.ix_(p, p)], path)}

    def commands(self, inp, out, seed):
        return [["sweep", "--graph", inp["graph"], "--d-range",
                 f"{self.d_range[0]}..{self.d_range[-1]}", "--seed", str(seed), "--out", out]]

    def check(self, inp, out):
        report = _load_json(os.path.join(out, "report.json"))
        selected = report.get("selected_d")
        res = report.get("residual")
        if selected not in self.d_range:
            raise CheckFailed(f"report.json: selected_d {selected!r} outside the range")
        if not isinstance(res, (int, float)) or not math.isfinite(res):
            raise CheckFailed(f"report.json: residual {res!r} is not finite")
        try:
            with open(os.path.join(out, "stress.csv"), encoding="utf-8") as f:
                rows = f.read().splitlines()
            ds = [int(r.split(",")[0]) for r in rows[1:]]
            [float(r.split(",")[1]) for r in rows[1:]]
        except (OSError, ValueError, IndexError) as exc:
            raise CheckFailed(f"stress.csv: {exc}")
        if ds != list(self.d_range):
            raise CheckFailed(f"stress.csv: rows for d={ds}")
        return {"rel_residual": res / inp["norm"], "selected_d": selected}

    def quality(self, per_op):
        return {"fit_rel_residual": float(np.median([q["rel_residual"] for q in per_op])),
                "dsel_acc": float(np.mean([q["selected_d"] == 3 for q in per_op]))}

    def quality_ok(self, quality):
        return self.smoke or quality["dsel_acc"] >= 0.9


class Null(Workload):
    name = "null-1500"
    nominal_op_s = 11.0
    SAMPLES = 20

    def __init__(self, smoke):
        super().__init__(smoke)
        self.n = 30 if smoke else 1500

    def make_input(self, op, seed, path):
        return {}

    def commands(self, inp, out, seed):
        gen, null = os.path.join(out, "generate"), os.path.join(out, "null")
        return [
            ["generate", "--builtin", "simple-community", "--n", str(self.n),
             "--seed", str(seed), "--out", gen],
            ["null", "--graph", os.path.join(gen, "graph.edgelist"),
             "--samples", str(self.SAMPLES), "--seed", str(seed), "--out", null],
        ]

    def check(self, inp, out):
        report = _load_json(os.path.join(out, "null", "null.json"))
        samples = report.get("samples")
        if (not isinstance(samples, list) or len(samples) != self.SAMPLES
                or not all(isinstance(s, (int, float)) and math.isfinite(s) for s in samples)):
            raise CheckFailed(f"null.json: expected {self.SAMPLES} finite samples")
        if not report.get("observed", -math.inf) > report.get("null_mean", math.inf):
            raise CheckFailed("null.json: observed clustering is not above the null mean")
        return {}


WORKLOADS = {w.name: w for w in (Fit, Sweep, Null)}
