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

from conftest import bouquet

BOWTIE = "p kcpp 5 6 2 6\ne 1 2 1\ne 2 3 1\ne 1 3 1\ne 3 4 1\ne 4 5 1\ne 3 5 1\n"
TRIANGLE = "p kcpp 3 3 2 4\ne 1 2 1\ne 2 3 1\ne 3 1 1\n"
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
            "max_chain_internal=2 blocked_chains=0 dropped_vertices=8",
        ),
    ],
    ids=["pendant", "packing", "reduced-theta", "reduced-ring", "reduced-ring-isolated"],
)  # fmt: skip
def test_kernelize_report_line(graph, k, line, tmp_path, capsys):
    f = tmp_path / "in.kcpp"
    f.write_text(serialize_instance(Instance(graph, k)))
    assert main(["kernelize", str(f), "-o", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().out.splitlines()[0] == f"# {line}"


def test_pack_cycles(tmp_path):
    f = tmp_path / "bowtie.kcpp"
    f.write_text(BOWTIE)
    out = tmp_path / "pack.txt"
    assert main(["pack-cycles", str(f), "-o", str(out)]) == 0
    packed = parse_solution(out.read_text())
    assert len(packed.walks) == 2
    assert packed.total_weight == 6


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
    ],
    ids=["p-negative", "k-overflows-totals"],
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
    # d' of the 8-arc out-star needs about 1700 packing states; a budget of
    # 100 refuses it in the search of d' (the 8 arcs of d pass their cap)
    monkeypatch.setattr(kpostman.cycles, "MAX_PACKING_STATES", 100)
    d = DiGraph.from_arcs(9, [(1, v, 1) for v in range(2, 10)])
    with pytest.raises(SearchBudgetExceeded) as refused:
        verify_packing_equivalence(d)
    assert str(refused.value) == "search budget exceeded: more than 100 packing states"
    f = tmp_path / "star.dkcpp"
    f.write_text(serialize_directed_instance(d, 1))
    assert main(["gadget", str(f), "-o", str(tmp_path / "dprime.dkcpp")]) == 1
    err = capsys.readouterr().err
    assert err == "error: search budget exceeded: more than 100 packing states\n"


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
    ],
    ids=["solve", "gadget", "oracle", "cpp-k", "cpp-p"],
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
