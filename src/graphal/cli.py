"""Command-line surface: marginal inspection, experiments, self-checks.

Node ids are 1-based on this boundary (flags, printed tables, files) and
0-based everywhere inside the library; the conversion lives here and only
here.  All outputs are deterministic functions of argv.
"""
from __future__ import annotations

import argparse
import sys

from .config import DEFAULT_BETA, DEFAULT_ENUM_CAP
from .errors import GraphalError, UsageError
from .graph_core import Graph, build_laplacian, init_label_state, read_edge_list
from .harness import TOY_GENERATORS, gen_chain, gen_jittered_grid, load_dataset, run_experiment, write_csv
from .inference import exact_bmrf_marginals, lp_harmonic, tsa_marginals, zlg_marginals
from .strategies import StrategyKind

_MARGINAL_METHODS = ("tsa", "zlg", "lp", "exact")


def _parse_label_spec(spec: str, n: int) -> tuple[list[int], list[float]]:
    """Parse ``"1:+1,11:-1"`` into 0-based nodes and +/-1 labels."""
    if not spec or not spec.strip():
        raise UsageError("empty label spec; expected e.g. \"1:+1,11:-1\"")
    nodes: list[int] = []
    labels: list[float] = []
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        head, sep, tail = item.partition(":")
        if not sep:
            raise UsageError(f"bad label assignment {item!r}; expected node:+1 or node:-1")
        try:
            node = int(head)
        except ValueError:
            raise UsageError(f"bad node id {head!r} in label spec") from None
        if tail in ("+1", "1"):
            y = 1.0
        elif tail == "-1":
            y = -1.0
        else:
            raise UsageError(f"bad label {tail!r} for node {head}; expected +1 or -1")
        if not 1 <= node <= n:
            raise UsageError(f"node {node} outside 1..{n}")
        if node - 1 in nodes:
            raise UsageError(f"node {node} assigned twice in label spec")
        nodes.append(node - 1)
        labels.append(y)
    if not nodes:
        raise UsageError("empty label spec; expected e.g. \"1:+1,11:-1\"")
    return nodes, labels


def _resolve_graph(args) -> Graph:
    picked = [x for x in ("edges", "chain", "grid") if getattr(args, x) is not None]
    if len(picked) != 1:
        raise UsageError("choose exactly one graph source: --edges FILE, --chain N, or --grid")
    if args.edges is not None:
        return read_edge_list(args.edges, n=args.n)
    if args.n is not None:
        raise UsageError("--n applies only to --edges")
    if args.chain is not None:
        if args.chain < 2:
            raise UsageError(f"--chain needs N >= 2, got {args.chain}")
        return gen_chain(args.chain, 0).graph  # the chain and grid graphs do not depend on the seed
    return gen_jittered_grid(0).graph


def cmd_marginals(args) -> int:
    """Print P(Y=+1) per unlabeled node under the requested methods."""
    methods = [m.strip().lower() for m in args.methods.split(",") if m.strip()]
    for m in methods:
        if m not in _MARGINAL_METHODS:
            raise UsageError(f"unknown method {m!r}; expected one of: {', '.join(_MARGINAL_METHODS)}")
    if not methods:
        raise UsageError("no methods requested")
    graph = _resolve_graph(args)
    nodes, labels = _parse_label_spec(args.labels, graph.n)
    if args.enum_cap > DEFAULT_ENUM_CAP and "exact" in methods:
        print(
            f"warning: enumeration cap raised to {args.enum_cap}; "
            f"2^{args.enum_cap} completions can take minutes and gigabytes",
            file=sys.stderr,
        )
    lap = build_laplacian(graph, beta=args.beta, ridge=args.ridge)
    state = init_label_state(lap, nodes, labels)

    columns: dict[str, object] = {}
    for m in methods:
        if m == "tsa":
            columns[m] = tsa_marginals(state).prob_plus
        elif m == "zlg":
            columns[m] = zlg_marginals(state).prob_plus
        elif m == "lp":
            columns[m] = lp_harmonic(state)  # harmonic value, not a probability
        else:
            columns[m] = exact_bmrf_marginals(lap, nodes, labels, cap=args.enum_cap).prob_plus

    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("node," + ",".join(methods) + "\n")
            for i, v in enumerate(state.unlabeled):
                row = ",".join(f"{columns[m][i]:.17g}" for m in methods)
                fh.write(f"{v + 1},{row}\n")
        print(f"wrote {args.output}")
    else:
        print("node  " + "  ".join(f"{m:>8s}" for m in methods))
        for i, v in enumerate(state.unlabeled):
            row = "  ".join(f"{columns[m][i]:8.6f}" for m in methods)
            print(f"{v + 1:4d}  {row}")
    return 0


def cmd_experiment(args) -> int:
    """Run paired trials and write the aggregate accuracy CSV."""
    kinds = tuple(StrategyKind.from_string(s) for s in args.strategies.split(","))
    if args.toy and args.edges:
        raise UsageError("choose either --toy or --edges/--labels, not both")
    if args.toy:
        if args.toy not in TOY_GENERATORS:
            raise UsageError(f"unknown toy {args.toy!r}; expected one of: {', '.join(sorted(TOY_GENERATORS))}")
        source = TOY_GENERATORS[args.toy]
    elif args.edges:
        if not args.labels:
            raise UsageError("--edges requires --labels FILE")
        source = load_dataset(args.edges, args.labels)
    else:
        raise UsageError("choose a dataset: --toy NAME or --edges FILE --labels FILE")

    result = run_experiment(
        source, kinds, args.budget, args.trials, args.seed, beta=args.beta, ridge=args.ridge
    )
    write_csv(result, args.output)

    mid = args.budget // 2
    print(f"{result.name}: {args.trials} trials, budget {args.budget}, seed {args.seed}")
    for kind in kinds:
        mean = result.mean(kind)
        tag = " (reference baseline)" if kind.is_reference_baseline else ""
        print(
            f"  {kind.value:7s} t=0: {mean[0]:.4f}  t={mid}: {mean[mid]:.4f}  "
            f"t={args.budget}: {mean[args.budget]:.4f}{tag}"
        )
    print(f"wrote {args.output}")
    return 0


def cmd_selftest(args) -> int:
    """Run the oracle-equivalence checks; nonzero exit on any failure."""
    from .selftest import format_report, run_selftest

    results = run_selftest(seed=args.seed, graphs=args.graphs)
    print(format_report(results))
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphal",
        description="Graph-based active learning: risk-minimizing query selection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("marginals", help="print per-node P(Y=+1) for a labeled graph")
    p.add_argument("--edges", help="edge-list file: 'i j [w]' per line, 1-based ids")
    p.add_argument("--n", type=int, default=None, help="node count override for --edges")
    p.add_argument("--chain", type=int, default=None, metavar="N", help="unit-weight path graph on N nodes")
    p.add_argument("--grid", action="store_true", default=None, help="10x10 unit-weight grid graph")
    p.add_argument("--labels", required=True, help="observed labels, e.g. \"1:+1,11:-1\"")
    p.add_argument("--methods", default="tsa,zlg,lp", help="comma list of tsa,zlg,lp,exact")
    p.add_argument("--beta", type=float, default=DEFAULT_BETA, help="coupling strength")
    p.add_argument("--ridge", type=float, default=0.0, help="add ridge*I to the Laplacian")
    p.add_argument("--enum-cap", type=int, default=DEFAULT_ENUM_CAP, help="max unlabeled nodes for exact enumeration")
    p.add_argument("-o", "--output", default=None, help="write CSV here instead of printing")
    p.set_defaults(func=cmd_marginals)

    p = sub.add_parser("experiment", help="run paired active-learning trials, write accuracy CSV")
    p.add_argument("--toy", default=None, help=f"toy dataset: {', '.join(sorted(TOY_GENERATORS))}")
    p.add_argument("--edges", default=None, help="edge-list file for a real dataset")
    p.add_argument("--labels", default=None, help="label file: 'node_id class_id' per line")
    p.add_argument("--strategies", default="tsa,zlg,vopt,sopt,random", help="comma list of strategies")
    p.add_argument("--trials", type=int, default=50, help="number of paired trials")
    p.add_argument("--budget", type=int, required=True, help="queries per trial")
    p.add_argument("--seed", type=int, default=0, help="base seed for all trial streams")
    p.add_argument("--beta", type=float, default=DEFAULT_BETA, help="coupling strength")
    p.add_argument("--ridge", type=float, default=0.0, help="add ridge*I to the Laplacian")
    p.add_argument("-o", "--output", required=True, help="CSV output path")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("selftest", help="oracle-equivalence checks on random graphs")
    p.add_argument("--seed", type=int, default=0, help="corpus seed")
    p.add_argument("--graphs", type=int, default=50, help="graphs per check")
    p.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except GraphalError as exc:
        text = exc.template.format(*(v + 1 for v in exc.nodes)) if exc.nodes else str(exc)
        print(f"error: {text}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
