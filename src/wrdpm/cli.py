"""Command-line pipeline: generate, embed, cluster, sweep, null, likelihood.

Every subcommand writes its data files plus a run manifest into --out.
Data files are a pure function of (inputs, flags, seed); the manifest
additionally records wall-clock duration.

Exit codes: 0 success, 1 usage error, 2 data/validation error,
3 numerical failure (non-convergence under --strict).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from importlib import metadata

import numpy as np

from . import analysis, community, embedding, graph, model, specialize

EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3

BUILTINS = ("simple-community", "multiresolution", "er", "poisson-er", "sbm", "chung-lu")


class UsageError(Exception):
    pass


class NumericalError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _version() -> str:
    try:
        return metadata.version("wrdpm")
    except metadata.PackageNotFoundError:
        return "unknown"


def _default_seed(value):
    if value is not None:
        return value
    env = os.environ.get("WRDPM_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise UsageError(f"WRDPM_SEED={env!r} is not an integer")
    return 0


def _write_manifest(out_dir, subcommand, config, seed, inputs, outputs, started,
                    solver=None):
    manifest = {
        "subcommand": subcommand,
        "config": config,
        "seed": seed,
        "inputs": inputs,
        "outputs": outputs,
        "version": _version(),
        "duration_seconds": time.perf_counter() - started,
    }
    if solver is not None:
        manifest["solver"] = solver
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2)
        f.write("\n")


def _save_matrix(path, m):
    np.savetxt(path, np.atleast_2d(m), delimiter=",", fmt="%.17g")


def _graph_filename(fmt: str) -> str:
    return "graph.edgelist" if fmt == "edge-list" else "graph.csv"


def _load_graph_arg(args) -> graph.WeightedGraph:
    return graph.load_graph(args.graph, args.format)


def _load_embedding_csv(path) -> np.ndarray:
    return np.atleast_2d(np.loadtxt(path, delimiter=",", ndmin=2))


def _write_partition_csv(path, part: community.Partition):
    with open(path, "w", encoding="utf-8") as f:
        f.write("node,community\n")
        for j, c in enumerate(part.assignment):
            f.write(f"{j},{int(c)}\n")


# ---------------------------------------------------------------------------
# Builtin model construction

def _builtin_model(args) -> model.LatentModel:
    name = args.builtin
    n = args.n
    if name == "simple-community":
        return model.LatentModel(
            model.EdgeDistribution("poisson"),
            n if n else 150,
            (model.AxisNoise(d=args.d or 3, sigma2=args.sigma2),),
        )
    if name == "multiresolution":
        return model.LatentModel(
            model.EdgeDistribution("poisson"),
            n if n else 150,
            (model.MultiresolutionAxis(
                d=args.d or 3, sigma2=args.sigma2, exp_mean=args.exp_mean
            ),),
        )
    if name in ("er", "poisson-er"):
        if args.param is None:
            raise UsageError(f"builtin {name!r} requires --param")
        family = "poisson" if name == "poisson-er" else (args.family or "bernoulli")
        return specialize.make_er(n if n else 150, family, args.param, d=args.d or 1)
    if name in ("sbm", "chung-lu"):
        if not args.spec:
            raise UsageError(f"builtin {name!r} requires --spec <json file>")
        with open(args.spec, encoding="utf-8") as f:
            doc = json.load(f)
        family = args.family or doc.get("family", "poisson")
        if name == "sbm":
            spec = specialize.BlockModelSpec(
                np.array(doc["B"], dtype=float), tuple(doc["sizes"])
            )
            return specialize.make_sbm(
                spec, family, magnitude_normalization=bool(doc.get("normalize", False))
            )
        spec = specialize.ChungLuSpec(np.array(doc["weights"], dtype=float))
        return specialize.make_chung_lu(spec, family, d=int(doc.get("d", args.d or 1)))
    raise UsageError(f"unknown builtin {name!r}; valid: {', '.join(BUILTINS)}")


# ---------------------------------------------------------------------------
# Subcommands

def cmd_generate(args):
    started = time.perf_counter()
    if bool(args.model) == bool(args.builtin):
        raise UsageError("generate needs exactly one of --model or --builtin")
    if args.model:
        with open(args.model, encoding="utf-8") as f:
            m = model.LatentModel.from_json(f.read())
    else:
        m = _builtin_model(args)
    seed = args.seed
    vectors = model.draw_vectors(m, seed)
    g = model.sample_network(m, vectors, seed + 1, clamp=args.clamp)

    os.makedirs(args.out, exist_ok=True)
    graph_file = _graph_filename(args.format)
    graph.save_graph(g, os.path.join(args.out, graph_file), args.format)
    outputs = [graph_file, "model.json"]
    with open(os.path.join(args.out, "model.json"), "w", encoding="utf-8") as f:
        f.write(m.to_json())
        f.write("\n")
    for i, mat in enumerate(vectors.matrices):
        name = f"vectors_{i}.csv"
        _save_matrix(os.path.join(args.out, name), mat)
        outputs.append(name)
        grid_name = f"grid_{i}.csv"
        _save_matrix(os.path.join(args.out, grid_name), model.dot_product_grid(vectors, i))
        outputs.append(grid_name)
    config = {
        "model": args.model,
        "builtin": args.builtin,
        "n": m.n,
        "format": args.format,
        "clamp": args.clamp,
    }
    _write_manifest(args.out, "generate", config, seed, [args.model or args.spec], outputs, started)
    return 0


def _solver_config(args) -> embedding.SolverConfig:
    return embedding.SolverConfig(
        max_iterations=args.max_iter,
        tolerance=args.tol,
        diagonal_init=args.init,
    )


def _check_convergence(emb: embedding.Embedding, strict: bool):
    if not emb.converged:
        msg = f"embedding did not converge in {emb.iterations} iterations"
        if strict:
            raise NumericalError(msg)
        print(f"warning: {msg}", file=sys.stderr)


def _write_embedding(out_dir, emb: embedding.Embedding):
    _save_matrix(os.path.join(out_dir, "embedding.csv"), emb.X)
    sidecar = {
        "d": emb.d,
        "residual": emb.residual,
        "iterations": emb.iterations,
        "converged": emb.converged,
    }
    with open(os.path.join(out_dir, "embedding.json"), "w", encoding="utf-8") as f:
        json.dump(sidecar, f, indent=2)
        f.write("\n")


def cmd_embed(args):
    started = time.perf_counter()
    g = _load_graph_arg(args)
    if not 1 <= args.d <= g.n:
        raise UsageError(f"--d must be in [1, {g.n}]")
    emb = embedding.embed(g, args.d, _solver_config(args))
    _check_convergence(emb, args.strict)
    os.makedirs(args.out, exist_ok=True)
    _write_embedding(args.out, emb)
    config = {
        "d": args.d,
        "max_iter": args.max_iter,
        "tol": args.tol,
        "init": args.init,
        "format": args.format,
    }
    _write_manifest(
        args.out, "embed", config, args.seed, [args.graph],
        ["embedding.csv", "embedding.json"], started,
        solver={"eigensolver": emb.eigensolver},
    )
    return 0


def cmd_cluster(args):
    started = time.perf_counter()
    g = _load_graph_arg(args)
    if not 1 <= args.d <= g.n:
        raise UsageError(f"--d must be in [1, {g.n}]")
    k = args.k if args.k else args.d
    emb = embedding.embed(g, args.d, _solver_config(args))
    _check_convergence(emb, args.strict)
    part = community.angular_kmeans(emb.X, k, seed=args.seed)
    s = community.stress(emb.X, part)
    os.makedirs(args.out, exist_ok=True)
    _write_embedding(args.out, emb)
    _write_partition_csv(os.path.join(args.out, "partition.csv"), part)
    _save_matrix(os.path.join(args.out, "centrality.csv"), community.centrality(emb.X)[:, None])
    with open(os.path.join(args.out, "cluster.json"), "w", encoding="utf-8") as f:
        json.dump({"d": args.d, "k": k, "stress": s, "residual": emb.residual}, f, indent=2)
        f.write("\n")
    config = {"d": args.d, "k": k, "max_iter": args.max_iter, "tol": args.tol,
              "init": args.init, "format": args.format}
    _write_manifest(
        args.out, "cluster", config, args.seed, [args.graph],
        ["embedding.csv", "embedding.json", "partition.csv", "centrality.csv", "cluster.json"],
        started, solver={"eigensolver": emb.eigensolver},
    )
    return 0


def _parse_d_range(text: str) -> list[int]:
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            lo, hi = int(lo), int(hi)
            if hi < lo:
                raise ValueError
            return list(range(lo, hi + 1))
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise UsageError(f"bad --d-range {text!r}; expected 'lo..hi' or 'd1,d2,...'")


def cmd_sweep(args):
    started = time.perf_counter()
    g = _load_graph_arg(args)
    ds = _parse_d_range(args.d_range)
    if args.penalized and (args.l1 is None or args.l2 is None):
        raise UsageError("--penalized requires explicit --l1 and --l2")
    report = community.dimension_sweep(
        g, ds, config=_solver_config(args), seed=args.seed,
        penalized=args.penalized,
        lam1=args.l1 if args.l1 is not None else 1.0,
        lam2=args.l2 if args.l2 is not None else 1.0,
    )
    if args.strict and any(not r.embedding.converged for r in report.records):
        raise NumericalError("one or more sweep embeddings did not converge")
    os.makedirs(args.out, exist_ok=True)
    outputs = ["stress.csv", "report.json", "centrality.csv"]
    with open(os.path.join(args.out, "stress.csv"), "w", encoding="utf-8") as f:
        f.write("d,stress,penalized_stress,residual\n")
        for rec in report.records:
            sf = "" if rec.penalized_stress is None else repr(rec.penalized_stress)
            f.write(f"{rec.d},{rec.stress!r},{sf},{rec.residual!r}\n")
    for rec in report.records:
        name = f"partition_d{rec.d}.csv"
        _write_partition_csv(os.path.join(args.out, name), rec.partition)
        outputs.append(name)
    sel = report.selected
    _save_matrix(
        os.path.join(args.out, "centrality.csv"),
        community.centrality(sel.embedding.X)[:, None],
    )
    with open(os.path.join(args.out, "report.json"), "w", encoding="utf-8") as f:
        json.dump(
            {"selected_d": report.selected_d, "stress": sel.stress,
             "penalized_stress": sel.penalized_stress, "residual": sel.residual},
            f, indent=2,
        )
        f.write("\n")
    config = {"d_range": args.d_range, "penalized": args.penalized,
              "l1": args.l1, "l2": args.l2, "max_iter": args.max_iter,
              "tol": args.tol, "init": args.init, "format": args.format}
    solver = {
        str(rec.d): {"eigensolver": rec.embedding.eigensolver,
                     "iterations": rec.embedding.iterations,
                     "converged": rec.embedding.converged}
        for rec in report.records
    }
    _write_manifest(args.out, "sweep", config, args.seed, [args.graph], outputs, started,
                    solver=solver)
    return 0


def cmd_null(args):
    started = time.perf_counter()
    g = _load_graph_arg(args)
    x = None
    if args.null == "dot_product":
        if not args.embedding:
            raise UsageError("--null dot_product requires --embedding <csv>")
        x = _load_embedding_csv(args.embedding)
    try:
        report = analysis.null_compare(
            g, null=args.null, statistic=args.statistic,
            n_samples=args.samples, seed=args.seed, x=x,
        )
    except ValueError as exc:
        if "unknown statistic" in str(exc) or "unknown null" in str(exc):
            raise UsageError(str(exc))
        raise
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "null.json"), "w", encoding="utf-8") as f:
        f.write(report.to_json())
        f.write("\n")
    config = {"null": args.null, "statistic": args.statistic,
              "samples": args.samples, "format": args.format,
              "embedding": args.embedding}
    _write_manifest(args.out, "null", config, args.seed, [args.graph], ["null.json"], started)
    return 0


def cmd_likelihood(args):
    started = time.perf_counter()
    g = _load_graph_arg(args)
    x = _load_embedding_csv(args.embedding)
    value = analysis.evaluate_null_likelihood(g, x, family=args.family, clamp=args.clamp)
    print(value)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "likelihood.json"), "w", encoding="utf-8") as f:
            json.dump({"family": args.family, "log_likelihood": value}, f, indent=2)
            f.write("\n")
        config = {"family": args.family, "clamp": args.clamp, "format": args.format}
        _write_manifest(args.out, "likelihood", config, args.seed,
                        [args.graph, args.embedding], ["likelihood.json"], started)
    return 0


# ---------------------------------------------------------------------------

def _add_common(p, need_graph=True):
    p.add_argument("--seed", type=int, default=None, help="RNG seed (fallback: WRDPM_SEED, then 0)")
    p.add_argument("--out", required=not p.prog.endswith("likelihood"), default=None)
    p.add_argument("--format", choices=["edge-list", "dense"], default="edge-list")
    if need_graph:
        p.add_argument("--graph", required=True, help="input graph file")


def _add_solver(p):
    p.add_argument("--max-iter", type=int, default=500)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--init", choices=["degree-mean", "zeros"], default="degree-mean")
    p.add_argument("--strict", action="store_true",
                   help="treat non-convergence as a failure (exit 3)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="wrdpm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="sample a network from a latent model")
    _add_common(p, need_graph=False)
    p.add_argument("--model", help="latent model JSON file")
    p.add_argument("--builtin", choices=BUILTINS)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--family", choices=["bernoulli", "poisson"], default=None)
    p.add_argument("--param", type=float, default=None, help="ER edge parameter")
    p.add_argument("--sigma2", type=float, default=0.01,
                   help="axis noise variance of the underlying normal")
    p.add_argument("--exp-mean", type=float, default=2.0,
                   help="multiresolution exponential magnitude mean")
    p.add_argument("--spec", help="JSON spec file for sbm / chung-lu builtins")
    p.add_argument("--clamp", action="store_true",
                   help="clamp out-of-domain grid entries instead of erroring")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("embed", help="fit latent vectors to a graph")
    _add_common(p)
    p.add_argument("--d", type=int, required=True)
    _add_solver(p)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("cluster", help="embed and cluster by vector direction")
    _add_common(p)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, default=None, help="cluster count (default: d)")
    _add_solver(p)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("sweep", help="stress-driven dimension selection")
    _add_common(p)
    p.add_argument("--d-range", required=True, help="'lo..hi' or comma list")
    p.add_argument("--penalized", action="store_true")
    p.add_argument("--l1", type=float, default=None)
    p.add_argument("--l2", type=float, default=None)
    _add_solver(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("null", help="compare a graph against a null ensemble")
    _add_common(p)
    p.add_argument("--null", choices=list(analysis.NULL_KINDS), default="poisson_er")
    p.add_argument("--statistic", default="avg_weighted_clustering",
                   help=f"one of: {', '.join(analysis.STATISTICS)}")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--embedding", help="embedding CSV for the dot_product null")
    p.set_defaults(func=cmd_null)

    p = sub.add_parser("likelihood", help="log-likelihood of a graph under an embedding")
    _add_common(p)
    p.add_argument("--embedding", required=True)
    p.add_argument("--family", choices=["bernoulli", "poisson"], default="poisson")
    p.add_argument("--clamp", action="store_true")
    p.set_defaults(func=cmd_likelihood)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.seed = _default_seed(args.seed)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (graph.GraphFormatError, model.DomainError, model.ModelError,
            specialize.NotPSDError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
