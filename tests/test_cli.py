"""Command-line interface: exit codes, file formats, determinism."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import kpostman
import kpostman.cycles
import kpostman.solve
from kpostman.cli import main
from kpostman.cpp import Multiplicities
from kpostman.cycles import check_packing, greedy_cycle_packing
from kpostman.digraph import DiGraph, serialize_directed_instance, verify_packing_equivalence
from kpostman.generators import (
    cycle_graph,
    named_graph,
    random_digraph,
    theta_graph,
    uniform_inflation,
)
from kpostman.graph import (
    GraphError,
    Instance,
    MultiGraph,
    SearchBudgetExceeded,
    parse_instance,
    parse_solution,
    serialize_instance,
    verify_solution,
)
from kpostman.kernel import ExpansionMap

from conftest import (
    all_simple_cycles,
    bouquet,
    max_disjoint_from_list,
    random_small_graphs,
    reference_edge_bound,
)

BOWTIE = "p kcpp 5 6 2 6\ne 1 2 1\ne 2 3 1\ne 1 3 1\ne 3 4 1\ne 4 5 1\ne 3 5 1\n"
TRIANGLE = "p kcpp 3 3 2 4\ne 1 2 1\ne 2 3 1\ne 3 1 1\n"
PATH3 = "p kcpp 3 2 2\ne 1 2 1\ne 2 3 1\n"
PATH3D = "p dkcpp 3 2 1\na 1 2 1\na 2 3 1\n"


@pytest.fixture
def bowtie_file(tmp_path):
    f = tmp_path / "bowtie.kcpp"
    f.write_text(BOWTIE)
    return f


def test_solve_writes_verifiable_solution(bowtie_file, tmp_path, capsys):
    out = tmp_path / "sol.txt"
    rc = main(["solve", str(bowtie_file), "-o", str(out)])
    assert rc == 0
    sol = parse_solution(out.read_text())
    inst = parse_instance(BOWTIE)
    assert verify_solution(inst.graph, 2, sol) == 6
    report = capsys.readouterr().out
    assert "decision=yes" in report


def test_solve_decision_no_exit_code(tmp_path, capsys):
    f = tmp_path / "tri.kcpp"
    f.write_text(TRIANGLE)
    rc = main(["solve", str(f), "-o", str(tmp_path / "s.txt")])
    assert rc == 2
    report = capsys.readouterr().out
    assert "optimum=5" in report and "budget=4" in report and "decision=no" in report


def test_solve_k_override(tmp_path, capsys):
    f = tmp_path / "tri.kcpp"
    f.write_text("p kcpp 3 3 1\ne 1 2 1\ne 2 3 1\ne 3 1 1\n")
    rc = main(["solve", "--k", "2", str(f), "-o", str(tmp_path / "s.txt")])
    assert rc == 0
    sol = parse_solution((tmp_path / "s.txt").read_text())
    assert len(sol.walks) == 2 and sol.total_weight == 5


def test_cpp_subcommand(tmp_path):
    f = tmp_path / "tri.kcpp"
    f.write_text("p kcpp 3 3 1\ne 1 2 1\ne 2 3 1\ne 3 1 1\n")
    out = tmp_path / "cpp.txt"
    assert main(["cpp", str(f), "-o", str(out)]) == 0
    sol = parse_solution(out.read_text())
    assert sol.total_weight == 3 and len(sol.walks) == 1


def test_kernelize_reduced_emits_instance_and_sidecar(tmp_path, capsys):
    f = tmp_path / "tri.kcpp"
    f.write_text(TRIANGLE)
    out = tmp_path / "kernel.kcpp"
    assert main(["kernelize", str(f), "-o", str(out)]) == 0
    kern = parse_instance(out.read_text())
    assert kern.graph.vertex_count == 3 and len(kern.graph.edges) == 3
    sidecar = (tmp_path / "kernel.kcpp.exp").read_text().strip().splitlines()
    assert sidecar == ["x 1 1", "x 2 2", "x 3 3"]


@pytest.mark.parametrize(
    "graph",
    [theta_graph(4, 8), uniform_inflation(named_graph("bowtie"), 20)],
    ids=["theta", "inflated-bowtie"],
)
def test_kernelize_file_and_sidecar_validate_against_the_input(graph, tmp_path, capsys):
    f = tmp_path / "in.kcpp"
    f.write_text(serialize_instance(Instance(graph, 3)))
    out = tmp_path / "kernel.kcpp"
    assert main(["kernelize", str(f), "-o", str(out)]) == 0
    source = parse_instance(f.read_text()).graph
    kern = parse_instance(out.read_text()).graph
    assert kern.vertex_count == source.vertex_count
    expansions = {}
    for line in (tmp_path / "kernel.kcpp.exp").read_text().splitlines():
        tag, kid, *ids = line.split()
        assert tag == "x"
        expansions[int(kid)] = tuple(map(int, ids))
    ExpansionMap(source, kern, expansions).validate()
    counts = f"kernel_vertices={len(kern.adjacency)} kernel_edges={len(kern.edges)}"
    assert capsys.readouterr().out.splitlines()[-1] == f"# reduced=1 {counts}"


def test_kernelize_solved_emits_solution(tmp_path):
    f = tmp_path / "star.kcpp"
    f.write_text("p kcpp 4 3 3\ne 1 2 1\ne 1 3 1\ne 1 4 1\n")
    out = tmp_path / "sol.txt"
    assert main(["kernelize", str(f), "-o", str(out)]) == 0
    sol = parse_solution(out.read_text())
    assert sol.total_weight == 6 and len(sol.walks) == 3


@pytest.mark.parametrize(
    "graph, k, line",
    [
        (
            named_graph("star3"), 3,
            "k=3 fired=packing v1=3 v2=0 v3plus=1 bare_cycle=0 h_edges=- max_parallel=- "
            "max_chain_internal=0 blocked_chains=0 dropped_vertices=0",
        ),
        (
            uniform_inflation(named_graph("bowtie"), 10), 2,
            "k=2 fired=packing v1=0 v2=58 v3plus=1 bare_cycle=0 h_edges=- max_parallel=- "
            "max_chain_internal=29 blocked_chains=2 dropped_vertices=0",
        ),
        (
            theta_graph(4, 8), 3,
            "k=3 fired=none v1=0 v2=12 v3plus=2 bare_cycle=0 h_edges=4 max_parallel=4 "
            "max_chain_internal=3 blocked_chains=0 dropped_vertices=16",
        ),
        (
            cycle_graph(10), 2,
            "k=2 fired=none v1=0 v2=4 v3plus=0 bare_cycle=1 h_edges=- max_parallel=- "
            "max_chain_internal=2 blocked_chains=0 dropped_vertices=6",
        ),
        (
            MultiGraph(12, cycle_graph(10).edges), 2,
            "k=2 fired=none v1=0 v2=4 v3plus=0 bare_cycle=1 h_edges=- max_parallel=- "
            "max_chain_internal=2 blocked_chains=0 dropped_vertices=6",
        ),
        (
            MultiGraph(1_000_000, named_graph("triangle").edges), 2,
            "k=2 fired=none v1=0 v2=3 v3plus=0 bare_cycle=1 h_edges=- max_parallel=- "
            "max_chain_internal=1 blocked_chains=0 dropped_vertices=0",
        ),
    ],
    ids=[
        "pendant", "packing", "reduced-theta", "reduced-ring", "reduced-ring-isolated",
        "reduced-triangle-wide-header",
    ],
)  # fmt: skip
def test_kernelize_report_line(graph, k, line, tmp_path, capsys):
    f = tmp_path / "in.kcpp"
    f.write_text(serialize_instance(Instance(graph, k)))
    assert main(["kernelize", str(f), "-o", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().out.splitlines()[0] == f"# {line}"


def test_pack_cycles(tmp_path, capsys):
    f = tmp_path / "bowtie.kcpp"
    f.write_text(BOWTIE)
    out = tmp_path / "pack.txt"
    assert main(["pack-cycles", str(f), "-o", str(out)]) == 0
    packed = parse_solution(out.read_text())
    assert len(packed.walks) == 2
    assert packed.total_weight == 6
    assert capsys.readouterr().out.splitlines() == ["# cycles=2 requested=2 upper_bound=2"]


UPPER_BOUND_CASES = [
    # a 2-cycle, then nothing on the path that is left
    ("p kcpp 3 4 3\ne 1 2 1\ne 1 2 2\ne 2 3 1\ne 3 1 1\n", "cycles=1 requested=3 upper_bound=1"),
    # cycle rank 3, but the lengths prove greedy's 2 cycles maximum
    (serialize_instance(Instance(theta_graph(4, 2), 3)), "cycles=2 requested=3 upper_bound=2"),
    # one triangle, and the bound is K4's fractional packing of 2
    (serialize_instance(Instance(named_graph("k4"), 2)), "cycles=1 requested=2 upper_bound=2"),
    # the 2-cycles reach k first, and the pair left on 2-3 is one more
    # cycle that the bound has to count
    ("p kcpp 3 5 1\ne 1 2 1\ne 1 2 1\ne 2 3 1\ne 2 3 1\ne 1 3 1\n", "cycles=1 requested=1 upper_bound=2"),
]
UPPER_BOUND_IDS = ["pair", "theta", "k4", "pairs-reach-k"]


@pytest.mark.parametrize("text, line", UPPER_BOUND_CASES, ids=UPPER_BOUND_IDS)
def test_pack_cycles_reports_an_upper_bound(text, line, tmp_path, capsys):
    f = tmp_path / "in.kcpp"
    f.write_text(text)
    assert main(["pack-cycles", str(f), "-o", str(tmp_path / "pack.txt")]) == 0
    assert capsys.readouterr().out.splitlines() == [f"# {line}"]


def test_pack_cycles_bound_holds_the_maximum_on_parallel_edges(tmp_path, capsys):
    # every k from 1 to nu + 1, so greedy's 2-cycles reach k on some runs
    # and run out on others: the bound, read off the cut greedy hands back,
    # is at least the maximum and equals the earlier bound over the edges
    # that greedy's 2-cycles leave
    rng = random.Random(35)
    f = tmp_path / "in.kcpp"
    reached = 0
    for g in random_small_graphs(seed=35, trials=160, max_n=6, max_m=8, max_w=3):
        copies = [(e.u, e.v, e.weight) for e in g.edges for _ in range(rng.choice((1, 1, 2, 3)))]
        rng.shuffle(copies)
        h = MultiGraph.from_edges(g.vertex_count, copies)
        ones = dict.fromkeys(h.edge_by_id, 1)
        nu = max_disjoint_from_list(all_simple_cycles(h, ones), ones)
        for k in range(1, nu + 2) if nu else ():  # a forest is refused
            f.write_text(serialize_instance(Instance(h, k)))
            assert main(["pack-cycles", str(f), "-o", str(tmp_path / "pack.txt")]) == 0
            packing = greedy_cycle_packing(Multiplicities.uniform(h), k)
            pairs = [c for c in packing if len(c) == 2]
            paired = {eid for c in pairs for eid in c.edge_ids()}
            rest = [e for e in h.edges if e.id not in paired]
            bound = len(pairs) + reference_edge_bound(rest, len(packing) - len(pairs))
            assert bound >= nu, (h.edges, k)
            line = f"# cycles={len(packing)} requested={k} upper_bound={bound}"
            assert capsys.readouterr().out.splitlines() == [line], (h.edges, k)
            reached += len(pairs) == k < bound
    # runs whose 2-cycles reach k with a cycle left in the rest
    assert reached >= 400


@pytest.mark.parametrize(
    "text", [BOWTIE, *(text for text, _ in UPPER_BOUND_CASES)], ids=["bowtie", *UPPER_BOUND_IDS]
)
def test_pack_cycles_file_reads_back_as_greedys_packing(text, tmp_path, capsys):
    # the walks written are the packed cycles themselves, so the file read
    # back goes straight into check_packing
    f = tmp_path / "in.kcpp"
    f.write_text(text)
    out = tmp_path / "pack.txt"
    assert main(["pack-cycles", str(f), "-o", str(out)]) == 0
    inst = parse_instance(text)
    m = Multiplicities.uniform(inst.graph)
    packed = parse_solution(out.read_text())
    assert check_packing(m, packed.walks)[1] == packed.total_weight
    assert packed.walks == greedy_cycle_packing(m, inst.k)


@pytest.mark.parametrize(
    "text, refusals",
    [(BOWTIE, {}), (PATH3, {"pack-cycles": "graph has no cycle"})],
    ids=["bowtie", "path"],
)
@pytest.mark.parametrize("command", ["solve", "cpp", "kernelize", "pack-cycles", "oracle"])
def test_solution_text_reads_back(command, text, refusals, tmp_path, capsys):
    # kernelize solves both instances by the packing shortcut; a packing of
    # zero cycles would be the header `s 0 0`, which parse_solution refuses
    f = tmp_path / "in.kcpp"
    f.write_text(text)
    out = tmp_path / "out.txt"
    rc = main([command, str(f), "-o", str(out)])
    if command in refusals:
        assert rc == 1 and not out.exists()
        assert capsys.readouterr().err == f"error: {refusals[command]}\n"
        return
    assert rc == 0
    assert parse_solution(out.read_text()).walks


def test_oracle_matches_solver(tmp_path, capsys):
    f = tmp_path / "tri.kcpp"
    f.write_text("p kcpp 3 3 2\ne 1 2 1\ne 2 3 1\ne 3 1 1\n")
    assert main(["oracle", str(f), "-o", str(tmp_path / "o.txt")]) == 0
    assert "oracle_weight=5" in capsys.readouterr().out


def test_gadget_report_line(tmp_path, capsys):
    f = tmp_path / "p.dkcpp"
    f.write_text(PATH3D)
    out = tmp_path / "dprime.dkcpp"
    assert main(["gadget", str(f), "-o", str(out)]) == 0
    report = capsys.readouterr().out
    assert "g r=0 r'=1 dx=1 holds=1" in report
    assert out.read_text().startswith("p dkcpp")


def test_gen_round_trips_and_is_deterministic(tmp_path):
    a = tmp_path / "a.kcpp"
    b = tmp_path / "b.kcpp"
    for dest in (a, b):
        assert main([
            "gen", "random-connected", "--n", "6", "--m", "8", "--seed", "9",
            "-o", str(dest),
        ]) == 0
    assert a.read_bytes() == b.read_bytes()
    inst = parse_instance(a.read_text())
    assert inst.graph.vertex_count == 6 and len(inst.graph.edges) == 8


def test_gen_theta_triggers_parallel_shortcut(tmp_path):
    f = tmp_path / "theta.kcpp"
    assert main(["gen", "theta", "--paths", "4", "--len", "2", "--k", "2", "-o", str(f)]) == 0
    inst = parse_instance(f.read_text())
    assert inst.k == 2 and len(inst.graph.edges) == 8


def test_gen_chain_inflated_size(tmp_path):
    f = tmp_path / "inflated.kcpp"
    assert main([
        "gen", "chain-inflated", "--base", "bowtie", "--chain", "10", "--k", "2",
        "-o", str(f),
    ]) == 0
    inst = parse_instance(f.read_text())
    assert len(inst.graph.edges) == 60


def test_gen_directed_random(tmp_path):
    f = tmp_path / "d.dkcpp"
    assert main(["gen", "directed-random", "--n", "5", "--arcs", "8", "--seed", "7",
                 "-o", str(f)]) == 0
    assert f.read_text().startswith("p dkcpp 5 8")


@pytest.mark.parametrize(
    "argv",
    [
        ["theta", "--k", "0"],
        ["theta", "--p", "-3"],
        ["directed-random", "--k", "0"],
        ["random-connected", "--max-weight", "-1"],
        ["directed-random", "--n", "1"],
        ["directed-random", "--arcs", "-1"],
        # weights whose totals overflow 64 bits, which parse_instance refuses
        ["random-connected", "--n", "3", "--m", "3", "--max-weight", str(2**62), "--seed", "1"],
    ],
    ids=[
        "theta-k0", "theta-p-3", "directed-k0", "random-max-weight", "directed-n1",
        "directed-arcs-1", "random-overflow",
    ],
)
def test_gen_refuses_what_the_parsers_refuse(argv, tmp_path, capsys):
    out = tmp_path / "gen.txt"
    assert main(["gen", *argv, "-o", str(out)]) == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "text, flags",
    [
        (TRIANGLE, ["--p", "-1"]),
        (f"p kcpp 3 3 1\ne 1 2 {2**40}\ne 2 3 {2**40}\ne 3 1 {2**40}\n", ["--k", "4194304"]),
        ("p kcpp 3 3 1\ne 1 2 0\ne 2 3 0\ne 3 1 0\n", ["--k", str(10**21)]),
    ],
    ids=["p-negative", "k-overflows-totals", "k-overflows-zero-weights"],
)
def test_overrides_refuse_what_the_header_refuses(text, flags, tmp_path, capsys):
    f = tmp_path / "in.kcpp"
    f.write_text(text)
    parse_instance(text)  # the header itself is valid
    assert main(["solve", str(f), *flags, "-o", str(tmp_path / "s.txt")]) == 1
    assert "error:" in capsys.readouterr().err


def test_random_digraph_refuses_negative_max_weight():
    with pytest.raises(GraphError, match="max weight"):
        random_digraph(random.Random(0), 5, 3, max_weight=-1)


def test_parse_error_exits_one(tmp_path, capsys):
    f = tmp_path / "bad.kcpp"
    f.write_text("p kcpp 2 1 1\ne 1 1 1\n")
    assert main(["solve", str(f)]) == 1
    assert "error:" in capsys.readouterr().err


def test_search_refusal_exits_one(tmp_path, capsys, monkeypatch):
    # the 24-triangle bouquet at k = 40 needs more even sets than the budget
    # allows; a smaller budget takes the same exit path in a fraction of
    # the time (test_solver checks the real budget)
    monkeypatch.setattr(kpostman.solve, "MAX_SEARCH_SETS", 50)
    f = tmp_path / "bouquet.kcpp"
    f.write_text(serialize_instance(Instance(bouquet([1] * 24), 40)))
    assert main(["solve", str(f)]) == 1
    err = capsys.readouterr().err
    assert err == "error: search budget exceeded: more than 50 even duplication sets\n"


def test_packing_state_budget_exits_one(tmp_path, capsys, monkeypatch):
    # a ring of 3 layers of 3 vertices, every arc from one layer to the
    # next: balanced, so d' is d, with no inner vertex and no parallel arcs;
    # its search needs 5649 packing states, and a budget of 100 refuses it
    monkeypatch.setattr(kpostman.cycles, "MAX_PACKING_STATES", 100)
    d = DiGraph.from_arcs(
        9, [(3 * i + a, 3 * ((i + 1) % 3) + b, 1) for i in range(3) for a in (1, 2, 3) for b in (1, 2, 3)]
    )
    with pytest.raises(SearchBudgetExceeded) as refused:
        verify_packing_equivalence(d)
    assert str(refused.value) == "search budget exceeded: more than 100 packing states"
    f = tmp_path / "star.dkcpp"
    f.write_text(serialize_directed_instance(d, 1))
    assert main(["gadget", str(f), "-o", str(tmp_path / "dprime.dkcpp")]) == 1
    err = capsys.readouterr().err
    assert err == "error: search budget exceeded: more than 100 packing states\n"


def test_packing_search_too_deep_exits_one():
    # the 500-vertex double ring, arcs v -> v+1 and v -> v+2: every vertex
    # has in- and out-degree 2, so nothing contracts, and the search of its
    # 1000 arcs recurses deeper than the interpreter allows
    n = 500
    d = DiGraph.from_arcs(n, [(v, (v + s - 1) % n + 1, 1) for v in range(1, n + 1) for s in (1, 2)])
    env = {**os.environ, "PYTHONPATH": str(Path(kpostman.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "kpostman", "gadget", "-"],
        input=serialize_directed_instance(d, 1),
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 1
    assert proc.stderr == "error: search budget exceeded: packing search deeper than the recursion limit\n"


def test_usage_error_exits_one():
    assert main(["no-such-command"]) == 1


@pytest.mark.parametrize(
    "argv, text",
    [
        (["solve", "--c", "8"], BOWTIE),
        (["gadget", "--size-limit", "8"], PATH3D),
        (["oracle", "--cap", "4"], BOWTIE),
        (["cpp", "--k", "2"], BOWTIE),
        (["cpp", "--p", "3"], BOWTIE),
        (["pack-cycles", "--p", "3"], BOWTIE),
    ],
    ids=["solve", "gadget", "oracle", "cpp-k", "cpp-p", "pack-cycles-p"],
)
def test_kernel_constant_flags_are_gone(tmp_path, argv, text):
    f = tmp_path / "instance"
    f.write_text(text)
    assert main([*argv, str(f)]) == 1


def test_console_entry_point_runs():
    # the child imports the package from where this process found it
    env = {**os.environ, "PYTHONPATH": str(Path(kpostman.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "kpostman.cli", "gen", "theta", "--paths", "3", "--len", "1"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("p kcpp")


def test_package_runs_as_a_module():
    env = {**os.environ, "PYTHONPATH": str(Path(kpostman.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "kpostman", "gen", "theta"], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("p kcpp")
