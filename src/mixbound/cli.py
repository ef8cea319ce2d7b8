"""Command-line interface.

Subcommands: graph gen | chain build | chain analyze | instance sample |
bench | bound | verify. Exit codes: 0 success, 1 input error, 2 cap or
capability error, 3 verification/benchmark failure. Every command that
uses randomness requires --seed, and repeating a command with the same
seed reproduces its output byte for byte.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, fields, replace

from . import chains as ch
from . import graphs as gr
from . import staircase as st
from .adversary import bound_values
from .bench import CSV_HEADER, bound_context, build_system, run_bench
from .config import ExperimentConfig
from .errors import DEFAULT_CAPS, CapabilityError, InputError, read_json
from .solvers import SOLVER_NAMES
from .verify import SUITES, VerifyCaps, run_verify


def _dump(doc: dict, fh) -> None:
    """Write doc as indented, key-sorted JSON and a newline, chunk by
    chunk: the whole string of a chain file (60 MB at hypercube:16) would
    double the command's peak memory. A value that cannot be encoded is
    found only once the chunks before it are written."""
    json.dump(doc, fh, indent=2, sort_keys=True)
    fh.write("\n")


def _emit(doc: dict, out: str | None) -> None:
    """Write doc to the file out, or to stdout. A file whose writing
    fails is removed rather than left half written; stdout keeps what
    was written."""
    if not out:
        _dump(doc, sys.stdout)
        return
    with open(out, "w", encoding="utf-8") as fh:
        try:
            _dump(doc, fh)
        except BaseException:
            fh.close()
            os.remove(out)
            raise


def analyze_report(P: ch.TransitionMatrix, eps: float | None = None,
                   expansion_cap: int = DEFAULT_CAPS["expansion_bruteforce"]) -> dict:
    """Chain analytics document: flags always; each derived quantity is
    either present or listed under "omitted" with the reason."""
    flags = P.flags
    doc: dict = {
        "n": P.n,
        "kind": P.kind,
        "flags": {"lazy": flags.lazy, "irreducible": flags.irreducible,
                  "reversible": flags.reversible},
        "omitted": {},
    }
    omitted = doc["omitted"]
    if P.pi is None:
        for name in ("sigma", "t_mix", "t_mix_bracket", "lambda2", "gap", "phi_star"):
            omitted[name] = "chain is reducible"
    else:
        sigma = ch.stationary_ratio(P)
        doc["sigma"] = sigma
        if flags.reversible:
            try:
                doc["lambda2"], doc["gap"] = ch.spectral_gap(P)
            except CapabilityError as exc:
                omitted["lambda2"] = omitted["gap"] = str(exc)
        else:
            omitted["lambda2"] = "chain is not reversible"
            omitted["gap"] = "chain is not reversible"
        eps_val = eps if eps is not None else sigma / (2 * P.n)
        if not 0 < eps_val < 0.5:
            omitted["t_mix"] = omitted["t_mix_bracket"] = (
                f"eps={eps_val:.4g} outside (0, 1/2)")
        else:
            doc["t_mix_eps"] = eps_val
            try:
                doc["t_mix"] = ch.mixing_time(P, eps_val)
            except CapabilityError as exc:
                omitted["t_mix"] = str(exc)
            if flags.reversible and "gap" not in doc:  # the bracket would solve it again
                omitted["t_mix_bracket"] = omitted["gap"]
            else:
                try:
                    doc["t_mix_bracket"] = list(
                        ch.t_mix_bracket(P, eps_val, doc.get("gap")))
                except CapabilityError as exc:
                    omitted["t_mix_bracket"] = str(exc)
        if P.n <= expansion_cap:
            doc["phi_star"] = ch.bottleneck_ratio(P, cap=expansion_cap)
        else:
            omitted["phi_star"] = f"n={P.n} exceeds brute-force cap {expansion_cap}"
    if P.n <= expansion_cap:
        doc["beta"] = gr.edge_expansion(P.graph, cap=expansion_cap)
    else:
        omitted["beta"] = f"n={P.n} exceeds brute-force cap {expansion_cap}"
    return doc


# ---------------------------------------------------------------------------
# Subcommand bodies
# ---------------------------------------------------------------------------

def _cmd_graph_gen(args) -> int:
    g = gr.graph_from_spec(args.graph, seed=args.seed)
    _emit(gr.graph_to_json(g), args.out)
    return 0


def _cmd_chain_build(args) -> int:
    g = gr.graph_from_spec(args.graph, seed=args.seed)
    P = ch.chain_from_spec(args.chain, g)
    _emit(ch.chain_to_json(P), args.out)
    return 0


def _cmd_chain_analyze(args) -> int:
    g = gr.graph_from_spec(args.graph, seed=args.seed)
    P = ch.chain_from_spec(args.chain, g)
    doc = analyze_report(P, eps=args.eps, expansion_cap=args.expansion_cap)
    _emit(doc, args.out)
    return 0


def _cmd_instance_sample(args) -> int:
    config = ExperimentConfig(graph=args.graph, chain=args.chain, seed=args.seed,
                              T=args.T, L=args.L)
    _, P, params = build_system(config)
    inst = st.sample_instance(P, params, args.seed)
    doc = st.instance_to_json(inst, graph_ref=args.graph, chain_ref=args.chain,
                              reveal=args.reveal)
    _emit(doc, args.out)
    return 0


def _cmd_bench(args) -> int:
    if args.config:
        given = [f"--{name}" for name in ("graph", "chain", "seed", "trials", "solver", "T", "L",
                                          "format") if getattr(args, name) is not None]
        if given:
            raise InputError(f"--config sets the experiment; drop {', '.join(given)}")
        config = ExperimentConfig.from_dict(read_json(args.config))
        if args.out:
            config = replace(config, out=args.out)
    else:
        if args.graph is None or args.seed is None:
            raise InputError("bench needs --config or --graph plus --seed")
        config = ExperimentConfig(
            graph=args.graph, chain="lazy-simple" if args.chain is None else args.chain,
            seed=args.seed, trials=10 if args.trials is None else args.trials,
            solvers=tuple(args.solver) if args.solver else SOLVER_NAMES,
            T=args.T, L=args.L, out=args.out,
            format="csv" if args.format is None else args.format)
    rows, summary = run_bench(config)
    if config.format == "json":
        doc = {"trials": [asdict(r) for r in rows], "summary": summary}
        _emit(doc, config.out)
    else:
        csv_text = "\n".join([CSV_HEADER] + [r.to_csv() for r in rows]) + "\n"
        if config.out:
            with open(config.out, "w", encoding="utf-8") as fh:
                fh.write(csv_text)
            _dump(summary, sys.stdout)
        else:
            sys.stdout.write(csv_text)
            _dump(summary, sys.stderr)
    if any(r.error for r in rows) or not summary["all_correct"]:
        return 3
    return 0


def _cmd_bound(args) -> int:
    if args.graph:
        config = ExperimentConfig(graph=args.graph, chain=args.chain,
                                  seed=args.seed if args.seed is not None else 0,
                                  T=args.T, L=args.L)
        _, P, params = build_system(config)
        values = bound_context(P, params, expansion_cap=args.expansion_cap)
        inputs = {"n": P.n, "t_mix": params.T if params.is_default else None,
                  "sigma": params.sigma}
    else:
        needed = {"--n": args.n, "--t-mix": args.t_mix, "--sigma": args.sigma}
        missing = [k for k, v in needed.items() if v is None]
        if missing:
            raise InputError(f"bound needs --graph or explicit {missing}")
        values = bound_values(args.n, args.t_mix, args.sigma,
                              lambda2=args.lambda2, beta=args.beta,
                              d_max=args.d_max)
        inputs = {"n": args.n, "t_mix": args.t_mix, "sigma": args.sigma,
                  "lambda2": args.lambda2, "beta": args.beta, "d_max": args.d_max}
    _emit({"inputs": inputs, "values": values,
           "note": "shape values without Omega constants"}, args.out)
    return 0


def _cmd_verify(args) -> int:
    caps = VerifyCaps(**{f.name: getattr(args, f.name) for f in fields(VerifyCaps)})
    checks = args.checks.split(",") if args.checks else None
    results = run_verify(suite=args.suite, checks=checks, caps=caps, seed=args.seed)
    for r in results:
        sys.stderr.write(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.details}\n")
    doc = {
        "suite": args.suite,
        "seed": args.seed,
        "caps": caps.to_json(),
        "passed": all(r.passed for r in results),
        "checks": [r.to_json() for r in results],
    }
    _emit(doc, args.out)
    return 0 if doc["passed"] else 3


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Usage problems are input errors: exit 1, not argparse's default 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"input error: {message}\n")
        raise SystemExit(1)


def _add_common(p: argparse.ArgumentParser, *, seed_required: bool = False) -> None:
    p.add_argument("--seed", type=int, required=seed_required,
                   help="random seed (required for stochastic commands)")
    p.add_argument("--out", help="write output to this file instead of stdout")


def _positive_int(text: str) -> int:
    """argparse type for effort and cap options: an integer of at least 1."""
    try:
        if int(text) >= 1:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mixbound",
        description="Staircase instances, chain analytics, adversary bounds, "
                    "and local-search benchmarks on graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    graph = sub.add_parser("graph", help="graph utilities")
    graph_sub = graph.add_subparsers(dest="graph_command", required=True)
    gen = graph_sub.add_parser("gen", help="generate a graph and emit JSON")
    gen.add_argument("--graph", required=True,
                     help="family spec, e.g. cycle:8, hypercube:4, random-regular:8,3")
    _add_common(gen)
    gen.set_defaults(func=_cmd_graph_gen)

    chain = sub.add_parser("chain", help="chain utilities")
    chain_sub = chain.add_subparsers(dest="chain_command", required=True)
    build = chain_sub.add_parser("build", help="build a chain and emit its entries as JSON")
    build.add_argument("--graph", required=True)
    build.add_argument("--chain", default="lazy-simple",
                       help="lazy-simple | metropolis | max-degree | chain file")
    _add_common(build)
    build.set_defaults(func=_cmd_chain_build)
    analyze = chain_sub.add_parser("analyze", help="chain analytics JSON")
    analyze.add_argument("--graph", required=True)
    analyze.add_argument("--chain", default="lazy-simple")
    analyze.add_argument("--eps", type=float,
                         help="mixing-time accuracy; defaults to sigma/(2n)")
    analyze.add_argument("--expansion-cap", type=_positive_int,
                         default=DEFAULT_CAPS["expansion_bruteforce"])
    _add_common(analyze)
    analyze.set_defaults(func=_cmd_chain_analyze)

    inst = sub.add_parser("instance", help="staircase instances")
    inst_sub = inst.add_subparsers(dest="instance_command", required=True)
    sample = inst_sub.add_parser("sample", help="sample an instance and emit JSON")
    sample.add_argument("--graph", required=True)
    sample.add_argument("--chain", default="lazy-simple")
    sample.add_argument("--T", type=int)
    sample.add_argument("--L", type=int)
    sample.add_argument("--reveal", action="store_true",
                        help="include all value-function entries (debugging only)")
    _add_common(sample, seed_required=True)
    sample.set_defaults(func=_cmd_instance_sample)

    bench = sub.add_parser("bench", help="benchmark solvers against instances")
    bench.add_argument("--config", help="JSON experiment config; only --out may join it")
    bench.add_argument("--graph")
    bench.add_argument("--chain", help="defaults to lazy-simple")
    bench.add_argument("--solver", action="append", choices=SOLVER_NAMES,
                       help="repeatable; defaults to all three")
    bench.add_argument("--trials", type=int, help="defaults to 10")
    bench.add_argument("--T", type=int)
    bench.add_argument("--L", type=int)
    bench.add_argument("--format", choices=["csv", "json"], help="defaults to csv")
    _add_common(bench)
    bench.set_defaults(func=_cmd_bench)

    bound = sub.add_parser("bound", help="closed-form lower-bound shapes")
    bound.add_argument("--graph")
    bound.add_argument("--chain", default="lazy-simple")
    bound.add_argument("--T", type=int)
    bound.add_argument("--L", type=int)
    bound.add_argument("--n", type=int)
    bound.add_argument("--t-mix", dest="t_mix", type=float)
    bound.add_argument("--sigma", type=float)
    bound.add_argument("--lambda2", type=float)
    bound.add_argument("--beta", type=float)
    bound.add_argument("--d-max", dest="d_max", type=float)
    bound.add_argument("--expansion-cap", type=_positive_int,
                       default=DEFAULT_CAPS["expansion_bruteforce"])
    _add_common(bound)
    bound.set_defaults(func=_cmd_bound)

    verify = sub.add_parser("verify", help="run the verification suite")
    verify.add_argument("--suite", choices=list(SUITES), default="all")
    verify.add_argument("--checks", help="comma-separated check names (overrides --suite)")
    for f in fields(VerifyCaps):
        verify.add_argument(f"--{f.name.replace('_', '-')}", type=_positive_int,
                            default=f.default)
    _add_common(verify, seed_required=True)
    verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.func(args)
    except InputError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 1
    except CapabilityError as exc:
        sys.stderr.write(f"capability error: {exc}\n")
        return 2
    except OSError as exc:  # an --out path that cannot be written
        sys.stderr.write(f"input error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
