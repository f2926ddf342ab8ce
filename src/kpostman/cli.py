"""Command-line front-end.

Exit codes: 0 success, 1 input or usage error, 2 valid instance whose
decision answer is no (optimum exceeds the budget p).  Reports are
line-oriented key=value; comment reports start with '#'.
"""

from __future__ import annotations

import argparse
import random
import sys

from .cpp import Multiplicities, euler_tour, solve_cpp
from .cycles import check_packing, greedy_cycle_packing, packing_upper_bound
from .digraph import (
    parse_directed_instance,
    serialize_directed_instance,
    verify_packing_equivalence,
)
from .generators import (
    NAMED_BASES,
    named_graph,
    random_connected_graph,
    random_digraph,
    theta_graph,
    uniform_inflation,
)
from .graph import (
    Chain,
    GraphError,
    Instance,
    ParseError,
    Solution,
    checked_instance,
    parse_instance,
    serialize_instance,
    serialize_solution,
)
from .kernel import Reduced, Solved, kernel_report, kernelize
from .solve import oracle_kcpp, solve_kcpp


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="ascii") as fh:
        return fh.read()


def _write_output(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)


def _instance_from(args) -> Instance:
    inst = parse_instance(_read_input(args.input))
    k = args.k if args.k is not None else inst.k
    p = inst.p if getattr(args, "p", None) is None else args.p  # pack-cycles has no --p
    return checked_instance(inst.graph, k, p)


def _cmd_solve(args) -> int:
    inst = _instance_from(args)
    result = solve_kcpp(inst.graph, inst.k, inst.p)
    _write_output(args.output, serialize_solution(result.solution))
    print(f"# method={result.method} weight={result.weight} cpp_weight={result.cpp_weight}")
    if inst.p is not None:
        verdict = "yes" if result.decision else "no"
        print(f"# optimum={result.weight} budget={inst.p} decision={verdict}")
        if not result.decision:
            return 2
    return 0


def _cmd_cpp(args) -> int:
    inst = parse_instance(_read_input(args.input))
    res = solve_cpp(inst.graph)
    start = min(inst.graph.adjacency)
    walk = euler_tour(res.multiplicities, start)
    _write_output(args.output, serialize_solution(Solution((walk,), res.weight)))
    print(f"# weight={res.weight} join_size={len(res.join)}")
    return 0


def _cmd_kernelize(args) -> int:
    inst = _instance_from(args)
    outcome = kernelize(inst.graph, inst.k)
    for line in kernel_report(inst.graph, outcome).lines():
        print(f"# {line}")
    if isinstance(outcome, Solved):
        _write_output(args.output, serialize_solution(outcome.solution))
        print(f"# solved=packing weight={outcome.solution.total_weight}")
        return 0
    assert isinstance(outcome, Reduced)
    em = outcome.expansion
    kernel = em.kernel
    body = serialize_instance(Instance(kernel, outcome.k, inst.p))
    # the kernel file numbers its edges by position, and so does the sidecar
    sidecar_lines = [
        "x " + " ".join(map(str, (pos, *em.expansions[e.id])))
        for pos, e in enumerate(kernel.edges, start=1)
    ]
    sidecar = "\n".join(sidecar_lines) + "\n"
    if args.output is None or args.output == "-":
        _write_output(None, body)
        _write_output(None, sidecar)
    else:
        _write_output(args.output, body)
        _write_output(args.output + ".exp", sidecar)
    print(f"# reduced=1 kernel_vertices={len(kernel.adjacency)} kernel_edges={len(kernel.edges)}")
    return 0


def _cmd_pack_cycles(args) -> int:
    inst = _instance_from(args)
    cut: list[Chain] = []  # the 2-core cut of what greedy's 2-cycles leave
    m = Multiplicities.uniform(inst.graph)
    packing = greedy_cycle_packing(m, inst.k, cut)
    if not packing:  # the solution format needs k >= 1 walks
        raise GraphError("graph has no cycle")
    _, total = check_packing(m, packing)
    _write_output(args.output, serialize_solution(Solution(packing, total)))
    # some maximum packing holds greedy's 2-cycles, so the bound on the
    # rest, plus them, bounds the maximum; it equals len(packing) when
    # greedy's packing is proven maximum
    pairs = sum(len(c) == 2 for c in packing)
    bound = pairs + packing_upper_bound(cut, len(packing) - pairs)
    print(f"# cycles={len(packing)} requested={inst.k} upper_bound={bound}")
    return 0


def _cmd_oracle(args) -> int:
    inst = _instance_from(args)
    weight = oracle_kcpp(inst.graph, inst.k)
    # walks for the emitted file come from the pipeline; disagreement with
    # the oracle weight is a hard error, never papered over
    best = solve_kcpp(inst.graph, inst.k).solution
    if best.total_weight != weight:
        raise GraphError(
            f"oracle weight {weight} != pipeline weight {best.total_weight}"
        )
    _write_output(args.output, serialize_solution(best))
    print(f"# oracle_weight={weight}")
    if inst.p is not None:
        verdict = "yes" if weight <= inst.p else "no"
        print(f"# optimum={weight} budget={inst.p} decision={verdict}")
        if weight > inst.p:
            return 2
    return 0


def _cmd_gadget(args) -> int:
    d, k = parse_directed_instance(_read_input(args.input))
    rep = verify_packing_equivalence(d)
    _write_output(args.output, serialize_directed_instance(rep.d_prime, k))
    print(f"g r={rep.r} r'={rep.r_prime} dx={rep.x_outdegree} holds={int(rep.holds)}")
    return 0


def _cmd_gen(args) -> int:
    rng = random.Random(args.seed)
    if args.kind == "directed-random":
        if args.k < 1:
            raise GraphError(f"k must be >= 1, got {args.k}")
        text = serialize_directed_instance(random_digraph(rng, args.n, args.arcs), args.k)
    else:
        if args.kind == "theta":
            g = theta_graph(args.paths, args.len)
        elif args.kind == "chain-inflated":
            g = uniform_inflation(named_graph(args.base), args.chain)
        elif args.kind == "random-connected":
            g = random_connected_graph(rng, args.n, args.m, args.max_weight)
        else:  # pragma: no cover - argparse restricts choices
            raise GraphError(f"unknown generator kind {args.kind}")
        # the checks parse_instance applies, so solve reads what gen writes
        text = serialize_instance(checked_instance(g, args.k, args.p))
    _write_output(args.output, text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kpostman")
    sub = parser.add_subparsers(dest="command", required=True)

    overrides = {"k": "override k from the header", "p": "override budget p"}

    def add_io(p, *flags):
        """Input, output and the header overrides the command reads."""
        p.add_argument("input", nargs="?", default="-", help="instance file or - for stdin")
        p.add_argument("-o", "--output", default=None, help="output file (default stdout)")
        for flag in flags:
            p.add_argument(f"--{flag}", type=int, default=None, help=overrides[flag])

    p = sub.add_parser("solve", help="full pipeline: kernelize, solve, lift")
    add_io(p, "k", "p")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("cpp", help="single-walk optimum and Euler tour")
    add_io(p)
    p.set_defaults(func=_cmd_cpp)

    p = sub.add_parser("kernelize", help="emit a solution or a kernel instance plus expansions")
    add_io(p, "k", "p")
    p.set_defaults(func=_cmd_kernelize)

    p = sub.add_parser("pack-cycles", help="greedy edge-disjoint cycle packing")
    add_io(p, "k")
    p.set_defaults(func=_cmd_pack_cycles)

    p = sub.add_parser("oracle", help="gated brute-force optimum")
    add_io(p, "k", "p")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("gadget", help="balancing gadget and packing equivalence report")
    add_io(p)
    p.set_defaults(func=_cmd_gadget)

    p = sub.add_parser("gen", help="emit a generated instance")
    p.add_argument("kind", choices=["theta", "chain-inflated", "random-connected", "directed-random"])
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--paths", type=int, default=4)
    p.add_argument("--len", type=int, default=2)
    p.add_argument("--base", choices=list(NAMED_BASES), default="bowtie")
    p.add_argument("--chain", type=int, default=2)
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--m", type=int, default=6)
    p.add_argument("--arcs", type=int, default=8)
    p.add_argument("--max-weight", type=int, default=2)
    p.set_defaults(func=_cmd_gen)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ParseError, GraphError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
