"""Tests of the benchmark harness's own code.

    PYTHONPATH=src python3 -m pytest perfbench/test_harness.py
"""

from __future__ import annotations

import pytest

from tracer import Tracer, self_times
from workloads import WORKLOADS, generate, instance_text


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_text(workload):
    first = [instance_text(s) for s in generate(workload, 7, count=40)]
    second = [instance_text(s) for s in generate(workload, 7, count=40)]
    assert first == second


@pytest.mark.parametrize("workload", WORKLOADS)
def test_other_seed_gives_other_text(workload):
    a = [instance_text(s) for s in generate(workload, 7, count=40)]
    b = [instance_text(s) for s in generate(workload, 8, count=40)]
    assert a != b


def test_self_time_on_synthetic_span_tree():
    # root [0, 10] has children [1, 4] and [5, 9]; the second child has a
    # grandchild [6, 8]; a second root [11, 12] stands alone
    parents = [-1, 0, 0, 2, -1]
    starts = [0.0, 1.0, 5.0, 6.0, 11.0]
    ends = [10.0, 4.0, 9.0, 8.0, 12.0]
    assert self_times(parents, starts, ends) == pytest.approx([3.0, 3.0, 2.0, 2.0, 1.0])


def test_tracer_wraps_every_binding_and_restores_it():
    import kpostman
    import kpostman.kernel
    import kpostman.solve
    from kpostman.graph import MultiGraph

    original = kpostman.cpp.solve_cpp
    tracer = Tracer()
    tracer.install()
    try:
        assert kpostman.kernel.solve_cpp is not original
        assert kpostman.kernel.solve_cpp is kpostman.cpp.solve_cpp is kpostman.solve_cpp
        g = MultiGraph.from_edges(3, [(1, 2, 1), (2, 3, 1), (3, 1, 1)])
        tracer.begin_instance(0)
        kpostman.solve.solve_kcpp(g, 2)
        tracer.end_instance(refused=False)
    finally:
        tracer.uninstall()
    assert kpostman.kernel.solve_cpp is original and kpostman.cpp.solve_cpp is original
    totals = tracer.totals()
    assert totals["solve.solve_kcpp"]["calls"] == 1
    assert totals["cpp.solve_cpp"]["calls"] >= 1
    root = totals["solve.solve_kcpp"]
    assert sum(row["self_s"] for row in totals.values()) == pytest.approx(root["total_s"])


def test_speed_scales_by_the_median_reference_around_a_sample():
    from speed import NOMINAL_S, Speed

    speed = Speed()
    speed.samples = [NOMINAL_S, NOMINAL_S, 2 * NOMINAL_S, 2 * NOMINAL_S, 2 * NOMINAL_S, 2 * NOMINAL_S]
    # samples 0..2 around mark 0: median NOMINAL_S, so no scaling
    assert speed.scaled(1.0, 0) == pytest.approx(1.0)
    # samples 1..5 around mark 3: median 2 * NOMINAL_S, a machine at half speed
    assert speed.scaled(1.0, 3) == pytest.approx(0.5)


def test_refusal_is_accepted_only_on_over_cap_slots():
    import run
    from workloads import Spec

    kp = run.import_library()
    wl = run.Workload("search", kp, {"answers": [None, 7]})
    spec = Spec("over-cap", 3, ((1, 2, 1), (2, 3, 1), (3, 1, 1)), 25)
    cap = kp.graph.GraphError("search budget exceeded")
    wl.check_refusal(0, spec, cap)
    with pytest.raises(run.CheckFailed):
        wl.check_refusal(1, spec, cap)  # pinned as solved on the default seed
    with pytest.raises(run.CheckFailed):
        wl.check_refusal(0, Spec("base", 3, spec.triples, 2), cap)
    with pytest.raises(run.CheckFailed):
        wl.check_refusal(0, spec, kp.graph.VerificationError("uncovered edges"))
    with pytest.raises(run.CheckFailed):
        wl.check_refusal(0, spec, KeyError(3))
