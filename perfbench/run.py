"""Benchmark harness for kpostman: one workload, one seed, one closed loop.

    python3 perfbench/run.py --workload chains --seed 1 --seconds 25 --trace 0

One caller in one process and thread sends the next instance only after the
previous answer is back.  With ``--trace 0`` the loop runs over the seeded
instance list, pass after pass, until ``--seconds`` have gone and every
instance ran at least once, and the report gives the end-to-end metrics,
with times scaled to a nominal machine speed (see ``speed.py``).
With ``--trace 1`` it makes one traced pass over the list between two
untraced ones and reports per-layer metrics from the spans, so the counts
cover the same fixed work on every commit.  Every answer goes
through the correctness gate; a wrong one stops the run with exit code 1
and no result.  The last line of output is the JSON result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from speed import NOMINAL_S, Speed, reference
from tracer import MODULES, Tracer
from workloads import DEFAULT_SEED, WORKLOADS, generate, load_digest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
PINS = HERE / "pins.json"
SETUP_REPEATS = 5


class CheckFailed(Exception):
    """A wrong answer, a changed load or too many refusals; the message
    names the instance where there is one."""


def import_library():
    """Import kpostman afresh from this checkout's sources."""
    for key in [k for k in sys.modules if k == "kpostman" or k.startswith("kpostman.")]:
        del sys.modules[key]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    kp = importlib.import_module("kpostman")
    if Path(kp.__file__).resolve().parent != SRC / "kpostman":
        raise ImportError(f"kpostman was imported from {kp.__file__}, not from {SRC}")
    for mod in MODULES:
        importlib.import_module(f"kpostman.{mod}")
    return kp


class Workload:
    """How one workload builds its inputs, runs one operation and checks it.

    ``prepare`` (untimed) gives the operation a fresh graph, so the timer
    covers each graph's first use of its cached adjacency, as a user's call
    would.  ``run`` is the timed operation; it looks the library functions
    up at call time so that traced bindings are used.  ``check`` is the
    gate, called with the library's original functions.
    """

    def __init__(self, name: str, kp, pins: dict | None):
        self.name = name
        self.kp = kp
        self.pins = pins
        self.graph_mod = kp.graph
        self.verify_solution = kp.graph.verify_solution  # untraced, for the gate

    def build(self, spec):
        g = self.kp.graph.MultiGraph.from_edges(spec.n, spec.triples)
        if self.name == "joins":
            return self.kp.graph.serialize_instance(self.kp.graph.Instance(g, spec.k))
        if self.name == "gadget":
            return self.kp.digraph.DiGraph.from_arcs(spec.n, spec.triples)
        return g

    def prepare(self, built, spec):
        if self.name == "joins":
            return built
        if self.name == "gadget":
            return self.kp.digraph.DiGraph(built.vertex_count, built.arcs)
        return self.kp.graph.MultiGraph(built.vertex_count, built.edges)

    def run(self, arg, spec):
        kp = self.kp
        if self.name == "gadget":
            return kp.digraph.verify_packing_equivalence(arg)
        if self.name == "joins":
            inst = kp.graph.parse_instance(arg)
            res = kp.solve.solve_kcpp(inst.graph, inst.k)
            sol = kp.graph.parse_solution(kp.graph.serialize_solution(res.solution))
            weight = kp.graph.verify_solution(inst.graph, inst.k, sol)
            return inst.graph, res, sol, weight
        return kp.solve.solve_kcpp(arg, spec.k)

    def check(self, i: int, spec, built, out):
        """Raise CheckFailed unless `out` is right; return the answer."""

        def fail(why: str):
            raise CheckFailed(
                f"{self.name} instance {i} ({spec.kind}, {len(spec.triples)} edges, k={spec.k}): {why}"
            )

        if self.name == "gadget":
            if not out.holds:
                fail(f"packing equivalence fails: r={out.r} r'={out.r_prime} x_out={out.x_outdegree}")
            answer = [out.r, out.r_prime]
        else:
            if self.name == "joins":
                g, res, sol, weight = out
                if g.vertex_count != spec.n or [(e.u, e.v, e.weight) for e in g.edges] != list(spec.triples):
                    fail("parsed instance differs from the generated one")
                if sol.total_weight != res.weight:
                    fail(f"solution text carries weight {sol.total_weight}, solver said {res.weight}")
            else:
                g, res = built, out
                try:
                    weight = self.verify_solution(g, spec.k, res.solution)
                except self.graph_mod.GraphError as exc:
                    fail(f"verify_solution: {exc}")
            if res.weight != res.solution.total_weight or weight != res.weight:
                fail(f"weight {res.weight} != solution total {res.solution.total_weight} / verified {weight}")
            mu = min(w for _, _, w in spec.triples)
            if not res.cpp_weight <= weight <= res.cpp_weight + 2 * mu * (spec.k - 1):
                fail(f"weight {weight} outside [cpp, cpp + 2*mu*(k-1)] with cpp={res.cpp_weight}, mu={mu}")
            answer = weight
        pinned = self.pins["answers"][i] if self.pins else None
        if pinned is not None and answer != pinned:
            fail(f"answer {answer} differs from the pinned {pinned}")
        return answer

    def check_refusal(self, i: int, spec, exc: Exception) -> None:
        """Raise CheckFailed unless `exc` is a cap refusal where one may
        come: a slot built to exceed a cap, pinned as refused on the
        default seed.  Any other exception, a plain GraphError from a
        failed consistency check too, is a wrong answer."""
        g = self.graph_mod
        pinned = self.pins["answers"][i] if self.pins else None
        if (
            spec.kind == "over-cap"
            and pinned is None
            and isinstance(exc, g.GraphError)
            and not isinstance(exc, (g.ParseError, g.VerificationError))
        ):
            return
        raise CheckFailed(f"{self.name} instance {i} ({spec.kind}): {type(exc).__name__}: {exc}") from exc


def set_up(workload: str, seed: int):
    """Import, generate and build inputs SETUP_REPEATS times; keep the last.
    Returns (Workload, specs, inputs, setup seconds per repeat, the same
    scaled to nominal machine speed by reference samples on both sides)."""
    pins = json.loads(PINS.read_text())[workload] if seed == DEFAULT_SEED else None
    times, scaled = [], []
    for _ in range(SETUP_REPEATS):
        specs = inputs = None  # so that peak memory holds one copy of the load
        before = reference()
        t0 = time.perf_counter()
        kp = import_library()
        specs = generate(workload, seed)
        wl = Workload(workload, kp, pins)
        inputs = [wl.build(spec) for spec in specs]
        times.append(time.perf_counter() - t0)
        scaled.append(times[-1] * NOMINAL_S / statistics.fmean([before, reference()]))
    if pins is not None and load_digest(specs) != pins["digest"]:
        raise CheckFailed(f"{workload}: generated load differs from the pinned digest for seed {seed}")
    return wl, specs, inputs, times, scaled


class Loop:
    """Per-instance samples and answers of a closed loop over one list.

    Machine speed is sampled between operations; each timed sample keeps
    the index of the speed sample taken just before it, so that it can be
    scaled to nominal speed.
    """

    def __init__(self, wl: Workload, specs, inputs):
        self.wl, self.specs, self.inputs = wl, specs, inputs
        self.speed = Speed()
        self.samples: list[list[float]] = [[] for _ in specs]
        self.marks: list[list[int]] = [[] for _ in specs]
        self.refused: list[bool | None] = [None] * len(specs)
        self.answers: list = [None] * len(specs)

    def one(self, i: int, tracer: Tracer | None = None) -> float:
        mark = self.speed.tick()
        wl, spec = self.wl, self.specs[i]
        arg = wl.prepare(self.inputs[i], spec)
        if tracer:
            tracer.begin_instance(i)
        out = None
        t0 = time.perf_counter()
        try:
            out = wl.run(arg, spec)
        except Exception as exc:
            wl.check_refusal(i, spec, exc)
        dt = time.perf_counter() - t0
        refused = out is None
        if tracer:
            tracer.end_instance(refused)
        answer = None if refused else wl.check(i, spec, arg, out)
        if self.refused[i] is not None and (refused, answer) != (self.refused[i], self.answers[i]):
            raise CheckFailed(f"{wl.name} instance {i}: answer changed between passes")
        self.refused[i], self.answers[i] = refused, answer
        self.samples[i].append(dt)
        self.marks[i].append(mark)
        return dt

    def timed(self, seconds: float) -> None:
        """Cycle over the list until `seconds` passed and each ran once."""
        end = time.perf_counter() + seconds
        i = done = 0
        while done < len(self.specs) or time.perf_counter() < end:
            self.one(i)
            i = (i + 1) % len(self.specs)
            done += 1

    def one_pass(self, tracer: Tracer | None = None) -> tuple[float, float]:
        """One operation per instance; their wall seconds, and the same
        scaled to nominal speed."""
        for i in range(len(self.specs)):
            self.one(i, tracer)
        last = [(s[-1], m[-1]) for s, m in zip(self.samples, self.marks)]
        return sum(dt for dt, _ in last), sum(self.speed.scaled(dt, m) for dt, m in last)

    def scaled_samples(self) -> list[list[float]]:
        return [[self.speed.scaled(dt, m) for dt, m in zip(s, ms)] for s, ms in zip(self.samples, self.marks)]


def percentile(values: list[float], q: float) -> float:
    """Inclusive linear-interpolation quantile; inf ranks above every number."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    if ordered[hi] == float("inf"):
        return ordered[hi] if pos > lo else ordered[lo]
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def timings(loop: Loop, samples: list[list[float]]) -> tuple[float, float, float]:
    """p50, p90 and successful operations per second from per-instance
    samples; an instance's time is the median of its samples, and a
    refused instance ranks slower than every success."""
    per_instance = [float("inf") if refused else statistics.median(s) for s, refused in zip(samples, loop.refused)]
    p50, p90 = percentile(per_instance, 0.5), percentile(per_instance, 0.9)
    if p90 == float("inf"):
        raise CheckFailed(f"{loop.wl.name}: more than a tenth of the instances were refused")
    solved = sum(len(s) for s, refused in zip(samples, loop.refused) if not refused)
    return p50, p90, solved / sum(map(sum, samples))


def end_to_end(loop: Loop, setup: tuple[list[float], list[float]]) -> tuple[dict, dict, int, int]:
    """The six end-to-end metrics with times scaled to nominal machine
    speed, and the same metrics from raw wall times."""
    attempted = sum(len(s) for s in loop.samples)
    refused_ops = sum(len(s) for s, refused in zip(loop.samples, loop.refused) if refused)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out = []
    for samples, setup_times in ((loop.scaled_samples(), setup[1]), (loop.samples, setup[0])):
        p50, p90, ops = timings(loop, samples)
        out.append({
            "op_s.p50": (p50, "s"),
            "op_s.p90": (p90, "s"),
            "ops_per_s": (ops, "1/s"),
            "solved_share": ((attempted - refused_ops) / attempted, "share"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (rss, "MB"),
        })
    return out[0], out[1], attempted, refused_ops


# derived counters -> the span whose calls make them defined
COUNTER_SPANS = {
    "cpp.min_weight_join.terminals": "cpp.min_weight_join",
    "kernel.pendant_shortcut.fired": "kernel.pendant_shortcut",
    "kernel.packing_shortcut.fired": "kernel.packing_shortcut",
    "cycles.PackingSearch.memo_entries": "cycles.PackingSearch.run",
    "cpp.refused": "cpp.min_weight_join",
    "solve.refused": "solve.solve_kcpp",
}
# derived ratios -> (numerator counter, denominator counter)
RATIOS = {
    "kernel.size_ratio": ("kernel.reduced_kernel_edges", "kernel.reduced_input_edges"),
    "kernel.h_edges": ("kernel.h_edges.sum", "kernel.h_edges.n"),
    "solve.solve_kcpp_exact.greedy_settled_ratio": (
        "solve.solve_kcpp_exact.greedy_settled",
        "solve.solve_kcpp_exact.greedy_tried",
    ),
}


def per_layer(tracer: Tracer, traced_s: float, overhead: float) -> tuple[dict, list[str]]:
    """Every per-layer metric from the spans of a traced pass that took
    `traced_s` wall seconds, and the names of those whose layer did not
    run on this workload.  The result must name every metric, so an idle
    layer reports 0 calls and 0 s, and a ratio without a denominator 0."""
    totals = tracer.totals()
    c = tracer.counters
    metrics, idle = {}, []
    for span, row in totals.items():
        metrics[f"{span}.calls"] = (row["calls"], "count")
        metrics[f"{span}.self_s"] = (row["self_s"], "s")
        metrics[f"{span}.total_s"] = (row["total_s"], "s")
        if not row["calls"]:
            idle += [f"{span}.calls", f"{span}.self_s", f"{span}.total_s"]
    for key, span in COUNTER_SPANS.items():
        metrics[key] = (c.get(key, 0), "count")
        if not totals[span]["calls"]:
            idle.append(key)
    for key, (num, den) in RATIOS.items():
        metrics[key] = (c[num] / c[den] if c.get(den) else 0.0, "count" if key == "kernel.h_edges" else "ratio")
        if not c.get(den):
            idle.append(key)
    for mod in MODULES:
        rows = [row for span, row in totals.items() if span.startswith(mod + ".")]
        metrics[f"{mod}.self_share"] = (sum(row["self_s"] for row in rows) / traced_s, "share")
        if not any(row["calls"] for row in rows):
            idle.append(f"{mod}.self_share")
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    return metrics, idle


def context(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg": list(os.getloadavg()),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    ctx = context(args)
    print("# context " + " ".join(f"{k}={v}" for k, v in ctx.items()), flush=True)
    try:
        wl, specs, inputs, *setup = set_up(args.workload, args.seed)
        loop = Loop(wl, specs, inputs)
        if args.trace:
            # untraced passes on both sides of the traced one, all scaled to
            # nominal speed, so that drift in machine speed does not read as
            # tracing overhead
            before = loop.one_pass()[1]
            tracer = Tracer()
            tracer.install()
            try:
                traced_wall, traced_s = loop.one_pass(tracer)
            finally:
                tracer.uninstall()
            untraced_s = (before + loop.one_pass()[1]) / 2
            metrics, idle = per_layer(tracer, traced_wall, traced_s / untraced_s)
            attempted = 3 * len(specs)
        else:
            idle = []
            loop.timed(args.seconds)
            metrics, raw, attempted, refused_ops = end_to_end(loop, setup)
            print("# raw " + " ".join(f"{k}={v:.6g}" for k, (v, _) in raw.items()))
            speed = loop.speed.samples
            print(f"# speed samples {len(speed)}, median {statistics.median(speed):.6g} s")
            print(f"# failed_share = {refused_ops / attempted:.6f} (cap refusals: {refused_ops} of {attempted})")
    except ImportError as exc:
        print(f"benchmark: cannot import kpostman from {SRC}: {exc}", file=sys.stderr)
        return 2
    except CheckFailed as exc:
        print(f"benchmark: check failed: {exc}", file=sys.stderr)
        return 1
    for name, (value, unit) in metrics.items():
        if name not in idle:
            print(f"# {name} = {value:.6g} {unit}")
    if idle:
        print(f"# {len(idle)} metrics of layers idle on this workload are reported as 0: {' '.join(idle)}")
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {
        "context": ctx,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "idle": idle,
    }
    stem.with_suffix(".json").write_text(json.dumps(report, indent=1) + "\n")
    if args.trace:
        tracer.write(stem.with_suffix(".spans.tsv.gz"))
    result = {"correct": True, "attempted": attempted, "failed": 0, "metrics": report["metrics"]}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
