"""Command-line pipeline: generate, embed, cluster, sweep, null, likelihood.

Every subcommand writes its data files plus a run manifest into --out.
Data files are a pure function of (inputs, flags, seed); the manifest
records every parsed flag as its config, and the wall-clock duration.

Exit codes: 0 success, 1 usage error, 2 data/validation error or out of
memory, 3 numerical failure (non-convergence under --strict).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import analysis, community, embedding, graph, model, specialize

EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3

# The generate flags with a None default that each model source reads (None
# is --model); giving any other of them is a usage error.
_GENERATE_READS = {
    "simple-community": ("n", "d", "sigma2"), "multiresolution": ("n", "d", "sigma2", "exp_mean"),
    "er": ("n", "d", "family", "param"), "poisson-er": ("n", "d", "param"),
    "sbm": ("family", "spec"), "chung-lu": ("d", "family", "spec"), None: (),
}


class UsageError(Exception):
    pass


class NumericalError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _version(package: str) -> str:
    """The installed version of ``package``, read without importing it."""
    # Imported here, as hashlib in _sha256: importlib.metadata pulls in email
    # and socket, and the two cost about 30 ms of every CLI start-up.
    from importlib import metadata

    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "unknown"


def _openblas():
    """The OpenBLAS library that numpy's wheels bundle, through ctypes, or
    None where numpy has none: its wheels put it in numpy.libs (Linux,
    Windows) or .dylibs (macOS)."""
    import ctypes
    import glob

    root = os.path.dirname(np.__file__)
    for where in (os.path.join(root, os.pardir, "numpy.libs"), os.path.join(root, ".dylibs")):
        for path in sorted(glob.glob(os.path.join(where, "libscipy_openblas64_*"))):
            try:
                return ctypes.CDLL(path)
            except OSError:
                pass
    return None


def _environment() -> dict:
    """What a run's data bytes may depend on beyond its inputs, flags and
    seed: the python, numpy and scipy versions, numpy's BLAS, and the thread
    count and core name (the kernel it picked for this CPU) of `_openblas`;
    "unknown" where one cannot be read."""
    import ctypes
    import platform

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    threads = core = "unknown"
    lib = _openblas()
    try:
        get_threads = lib.scipy_openblas_get_num_threads64_
        get_core = lib.scipy_openblas_get_corename64_
    except AttributeError:  # no library, or not this one
        pass
    else:
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        get_core.argtypes, get_core.restype = [], ctypes.c_char_p
        threads, core = get_threads(), get_core().decode("ascii", "replace")
    # A run that imported scipy reads its version from it: the package
    # metadata takes about 4 ms to find.
    scipy = sys.modules.get("scipy")
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": _version("scipy") if scipy is None else scipy.__version__, "blas": blas,
            "openblas_threads": threads, "openblas_core": core}


def _default_seed(value):
    name = "--seed"
    if value is None:
        env = os.environ.get("WRDPM_SEED")
        if env is None:
            return 0
        name = "WRDPM_SEED"
        try:
            value = int(env)
        except ValueError:
            raise UsageError(f"WRDPM_SEED={env!r} is not an integer")
    # numpy's SeedSequence takes no negative entropy.
    if value < 0:
        raise UsageError(f"{name} must be >= 0, got {value}")
    return value


def _sha256(path) -> str:
    import hashlib

    with open(path, "rb") as f:
        return hashlib.file_digest(f, "sha256").hexdigest()


class _RunFiles:
    """The files one command reads and writes, as its manifest lists them.

    Commands write data files only through `save`, which makes the output
    directory and records the name, so the manifest's outputs are exactly
    the files written. Each writer streams to the path it is given.
    """

    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.inputs = []
        self.outputs = []

    def read(self, path):
        """Record ``path`` as an input of the run and return it."""
        self.inputs.append(path)
        return path

    def save(self, name, writer):
        """Write data file ``name`` by calling ``writer(path)``."""
        os.makedirs(self.out_dir, exist_ok=True)
        writer(os.path.join(self.out_dir, name))
        self.outputs.append(name)

    def save_lines(self, name, lines):
        def write(path):
            with open(path, "w", encoding="utf-8") as f:
                f.writelines(lines)

        self.save(name, write)

    def save_json(self, name, doc):
        self.save_lines(name, [json.dumps(doc, indent=2, allow_nan=False), "\n"])

    def save_matrix(self, name, m):
        self.save(name, lambda path: graph._write_csv_matrix(path, m))

    def write_manifest(self, subcommand, config, solver, seed, started):
        """Write manifest.json; ``solver`` is the command's solver trace, or None."""
        manifest = {
            "subcommand": subcommand,
            "config": config,
            **({} if solver is None else {"solver": solver}),
            "seed": seed,
            "inputs": self.inputs,
            "input_sha256": {path: _sha256(path) for path in self.inputs},
            # A copy: the manifest is not one of its own outputs.
            "outputs": list(self.outputs),
            "version": _version("wrdpm"),
            "env": _environment(),
            "duration_seconds": time.perf_counter() - started,
        }
        self.save_json("manifest.json", manifest)


def _load_embedding_csv(path) -> np.ndarray:
    x = graph._read_csv_matrix(path, "embedding")
    graph._require_finite(x, str(path))
    return x


def _partition_rows(part: community.Partition):
    yield "node,community\n"
    for j, c in enumerate(part.assignment):
        yield f"{j},{int(c)}\n"


def _require_dims(ds, g: graph.WeightedGraph, flag: str):
    if not all(1 <= d <= g.n for d in ds):
        raise UsageError(f"{flag} must be in [1, {g.n}]")


# ---------------------------------------------------------------------------
# Builtin model construction

def _builtin_model(args, files) -> model.LatentModel:
    name = args.builtin
    n = 150 if args.n is None else args.n
    if name in ("simple-community", "multiresolution"):
        source = model.AxisNoise if name == "simple-community" else model.MultiresolutionAxis
        given = {key: getattr(args, key) for key in _GENERATE_READS[name]
                 if key != "n" and getattr(args, key) is not None}
        return model.LatentModel(model.EdgeDistribution("poisson"), n, source(**given))
    d = 1 if args.d is None else args.d
    if name in ("er", "poisson-er"):
        if args.param is None:
            raise UsageError(f"builtin {name!r} requires --param")
        family = "poisson" if name == "poisson-er" else (args.family or "bernoulli")
        return specialize.make_er(n, family, args.param, d=d)
    # What is left is sbm or chung-lu: argparse refuses any other name.
    if not args.spec:
        raise UsageError(f"builtin {name!r} requires --spec <json file>")
    with open(files.read(args.spec), encoding="utf-8") as f:
        doc = json.load(f)
    what = f"the {name} spec"
    values = model._json_key(doc, "B" if name == "sbm" else "weights", what,
                             lambda v: np.array(v, dtype=float))
    family = args.family or doc.get("family", "poisson")
    if name == "sbm":
        sizes = model._json_key(doc, "sizes", what, tuple)
        normalize = doc.get("normalize", False)
        if not isinstance(normalize, bool):
            raise model.ModelError(f"{what}'s 'normalize' must be a boolean, got {normalize!r}")
        return specialize.make_sbm(specialize.BlockModelSpec(values, sizes), family,
                                   magnitude_normalization=normalize)
    spec = specialize.ChungLuSpec(values)
    if "d" in doc and args.d is not None:
        raise UsageError(f"--d conflicts with the 'd' of {what}")
    d = model._json_key(doc, "d", what, lambda v: model._integer(v, "d")) if "d" in doc else d
    return specialize.make_chung_lu(spec, family, d=d)


# ---------------------------------------------------------------------------
# Subcommands: each writes its data files through ``files``; those that
# embed return their solver trace for the manifest.

def cmd_generate(args, files):
    if bool(args.model) == bool(args.builtin):
        raise UsageError("generate needs exactly one of --model or --builtin")
    ignored = set().union(*_GENERATE_READS.values()) - set(_GENERATE_READS[args.builtin])
    for key, value in vars(args).items():
        if key in ignored and value is not None:
            raise UsageError(f"--{key.replace('_', '-')} is not read by "
                             f"{args.builtin or '--model'}")
    if args.d is not None and args.d > graph.MAX_NODES:
        raise UsageError(f"--d={args.d} exceeds the limit of {graph.MAX_NODES}")
    if args.model:
        with open(files.read(args.model), encoding="utf-8") as f:
            m = model.LatentModel.from_json(f.read())
    else:
        m = _builtin_model(args, files)
    vectors = model.draw_vectors(m, args.seed)
    g = model.sample_network(m, vectors, args.seed, clamp=args.clamp)

    files.save("graph.edgelist" if args.format == "edge-list" else "graph.csv",
               lambda path: graph.save_graph(g, path, args.format))
    files.save_lines("model.json", [m.to_json(), "\n"])
    files.save_matrix("vectors_0.csv", vectors)


def _solver_config(args) -> embedding.SolverConfig:
    return embedding.SolverConfig(max_iterations=args.max_iter, tolerance=args.tol)


def _check_convergence(emb: embedding.Embedding, strict: bool):
    if not emb.converged:
        msg = (f"embedding at d={emb.d} did not converge in {emb.iterations} iterations "
               f"({emb.stop_reason})")
        if strict:
            raise NumericalError(msg)
        print(f"warning: {msg}", file=sys.stderr)


def _save_embedding(files, emb: embedding.Embedding):
    files.save_matrix("embedding.csv", emb.X)
    files.save_json("embedding.json", {
        "d": emb.d,
        "residual": emb.residual,
        "iterations": emb.iterations,
        "converged": emb.converged,
    })


def cmd_embed(args, files):
    g = graph.load_graph(files.read(args.graph), args.format)
    _require_dims([args.d], g, "--d")
    emb = embedding.embed(g, args.d, _solver_config(args))
    _check_convergence(emb, args.strict)
    _save_embedding(files, emb)
    return {"stop_reason": emb.stop_reason}


def cmd_cluster(args, files):
    g = graph.load_graph(files.read(args.graph), args.format)
    _require_dims([args.d], g, "--d")
    k = args.d if args.k is None else args.k
    _require_dims([k], g, "--k")
    emb = embedding.embed(g, args.d, _solver_config(args))
    _check_convergence(emb, args.strict)
    part = community.angular_kmeans(emb.X, k, seed=args.seed)
    s = community.stress(emb.X, part)
    _save_embedding(files, emb)
    files.save_lines("partition.csv", _partition_rows(part))
    files.save_matrix("centrality.csv", community.centrality(emb.X)[:, None])
    files.save_json("cluster.json", {"d": args.d, "k": k, "stress": s, "residual": emb.residual})
    return {"stop_reason": emb.stop_reason}


def _parse_d_range(text: str) -> range | list[int]:
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            lo, hi = int(lo), int(hi)
            if hi < lo:
                raise ValueError
            # Not a list: `_require_dims` stops at the first d outside [1, n].
            return range(lo, hi + 1)
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise UsageError(f"bad --d-range {text!r}; expected 'lo..hi' or 'd1,d2,...'")


def cmd_sweep(args, files):
    ds = _parse_d_range(args.d_range)
    if (args.l1 is None) != (args.l2 is None):
        raise UsageError("--l1 and --l2 go together: give both for penalized stress")
    g = graph.load_graph(files.read(args.graph), args.format)
    _require_dims(ds, g, "every --d-range value")
    penalty = None if args.l1 is None else (args.l1, args.l2)
    report = community.dimension_sweep(
        g, ds, config=_solver_config(args), seed=args.seed, penalty=penalty)
    for rec in report.records:
        for name, value in (("stress", rec.stress), ("penalized stress", rec.penalized_stress)):
            if value is not None and not np.isfinite(value):
                raise NumericalError(f"{name} at d={rec.d} is {value}: it overflows "
                                     "the float range")
        _check_convergence(rec.embedding, args.strict)

    def stress_rows():
        yield "d,stress,penalized_stress,residual\n"
        for rec in report.records:
            sf = "" if rec.penalized_stress is None else repr(rec.penalized_stress)
            yield f"{rec.d},{rec.stress!r},{sf},{rec.embedding.residual!r}\n"

    files.save_lines("stress.csv", stress_rows())
    for rec in report.records:
        files.save_lines(f"partition_d{rec.d}.csv", _partition_rows(rec.partition))
    sel = report.selected
    files.save_matrix("centrality.csv", community.centrality(sel.embedding.X)[:, None])
    files.save_json("report.json", {
        "selected_d": report.selected_d, "stress": sel.stress,
        "penalized_stress": sel.penalized_stress, "residual": sel.embedding.residual,
    })
    return {
        str(rec.d): {"iterations": rec.embedding.iterations,
                     "converged": rec.embedding.converged,
                     "stop_reason": rec.embedding.stop_reason}
        for rec in report.records
    }


def cmd_null(args, files):
    if args.null == "dot_product" and not args.embedding:
        raise UsageError("--null dot_product requires --embedding <csv>")
    if args.null != "dot_product" and args.embedding:
        raise UsageError(f"--embedding is not read by --null {args.null}")
    g = graph.load_graph(files.read(args.graph), args.format)
    x = _load_embedding_csv(files.read(args.embedding)) if args.embedding else None
    report = analysis.null_compare(
        g, null=args.null, statistic=args.statistic,
        n_samples=args.samples, seed=args.seed, x=x,
    )
    files.save_lines("null.json", [report.to_json(), "\n"])


def cmd_likelihood(args, files):
    g = graph.load_graph(files.read(args.graph), args.format)
    x = _load_embedding_csv(files.read(args.embedding))
    value = analysis.evaluate_null_likelihood(g, x, family=args.family, clamp=args.clamp)
    if value == -np.inf:
        print("warning: an observed weight has zero probability under the embedding",
              file=sys.stderr)
    print(value)
    if args.out:
        # JSON has no -inf: a zero-probability weight is written as null.
        files.save_json("likelihood.json", {"family": args.family,
                                            "log_likelihood": None if value == -np.inf else value})


# ---------------------------------------------------------------------------

def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_common(p, need_graph=True, out_required=True):
    p.add_argument("--seed", type=int, default=None, help="RNG seed (fallback: WRDPM_SEED, then 0)")
    p.add_argument("--out", required=out_required, default=None)
    p.add_argument("--format", choices=["edge-list", "dense"], default="edge-list")
    if need_graph:
        p.add_argument("--graph", required=True, help="input graph file")


def _add_solver(p):
    defaults = embedding.SolverConfig()
    p.add_argument("--max-iter", type=_positive_int, default=defaults.max_iterations,
                   help="cap on L-BFGS steps")
    p.add_argument("--tol", type=float, default=defaults.tolerance, help="converged when "
                   "|grad f| <= TOL ||A||_F ||X||_F, f = ||offdiag(X X^T - A)||_F^2 "
                   "(default: %(default)g)")
    p.add_argument("--strict", action="store_true",
                   help="treat non-convergence as a failure (exit 3)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="wrdpm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="sample a network from a latent model")
    _add_common(p, need_graph=False)
    p.add_argument("--model", help="latent model JSON file")
    p.add_argument("--builtin", choices=[name for name in _GENERATE_READS if name])
    p.add_argument("--n", type=_positive_int, default=None)
    p.add_argument("--d", type=_positive_int, default=None)
    p.add_argument("--family", choices=["bernoulli", "poisson"], default=None)
    p.add_argument("--param", type=float, default=None, help="ER edge parameter")
    p.add_argument("--sigma2", type=float, default=None,
                   help="axis noise variance of the underlying normal")
    p.add_argument("--exp-mean", type=float, default=None,
                   help="multiresolution exponential magnitude mean")
    p.add_argument("--spec", help="JSON spec file for sbm / chung-lu builtins")
    p.add_argument("--clamp", action="store_true",
                   help="clamp out-of-domain grid entries instead of erroring")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("embed", help="fit latent vectors to a graph")
    _add_common(p)
    p.add_argument("--d", type=_positive_int, required=True)
    _add_solver(p)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("cluster", help="embed and cluster by vector direction")
    _add_common(p)
    p.add_argument("--d", type=_positive_int, required=True)
    p.add_argument("--k", type=_positive_int, default=None, help="cluster count (default: d)")
    _add_solver(p)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("sweep", help="stress-driven dimension selection")
    _add_common(p)
    p.add_argument("--d-range", required=True, help="'lo..hi' or comma list")
    p.add_argument("--l1", type=float, default=None,
                   help="with --l2, select d by L1 * stress + L2 * residual")
    p.add_argument("--l2", type=float, default=None)
    _add_solver(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("null", help="compare a graph against a null ensemble")
    _add_common(p)
    p.add_argument("--null", choices=list(analysis.NULL_KINDS), default="poisson_er")
    p.add_argument("--statistic", choices=analysis.STATISTICS,
                   default="avg_weighted_clustering")
    p.add_argument("--samples", type=_positive_int, default=100)
    p.add_argument("--embedding", help="embedding CSV for the dot_product null")
    p.set_defaults(func=cmd_null)

    p = sub.add_parser("likelihood", help="log-likelihood of a graph under an embedding")
    _add_common(p, out_required=False)
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
        config = {k: v for k, v in vars(args).items() if k not in ("func", "command", "seed")}
        for key, value in config.items():
            if isinstance(value, float) and not np.isfinite(value):
                raise ValueError(f"--{key.replace('_', '-')} must be finite, got {value}")
        started = time.perf_counter()
        files = _RunFiles(args.out)
        solver = args.func(args, files)
        if args.out:
            files.write_manifest(args.command, config, solver, args.seed, started)
        return 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
