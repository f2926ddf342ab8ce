"""Outside-in spans around the public functions of each ``kpostman`` module.

``Tracer.install`` replaces every binding of a listed function in every
loaded ``kpostman.*`` module (``kpostman.kernel.solve_cpp`` is the same
function as ``kpostman.cpp.solve_cpp``, and calls inside the package go
through such bindings) and ``cycles.PackingSearch.run`` on the class, so
recursive search nodes are spans too.  ``uninstall`` puts the originals back.

Spans are kept in flat arrays while the run goes (name, parent span,
instance id, start, end, raised) and written out when it ends.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array

# module -> public functions whose calls become spans
TARGETS = {
    "graph": (
        "parse_instance",
        "serialize_solution",
        "parse_solution",
        "verify_solution",
        "is_connected",
        "bypass",
    ),
    "cpp": ("solve_cpp", "min_weight_join", "euler_tour"),
    "cycles": ("shortest_cycle", "greedy_cycle_packing", "PackingSearch.run"),
    "kernel": (
        "kernelize",
        "pendant_shortcut",
        "packing_shortcut",
        "apply_reduction_rule",
        "find_chains",
        "lift_solution",
    ),
    "walks": ("split_into_k_walks",),
    "solve": ("solve_kcpp", "solve_kcpp_exact"),
    "digraph": ("build_balanced_extension", "max_arc_disjoint_cycles", "verify_packing_equivalence"),
}
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns)
MODULES = tuple(TARGETS)


def self_times(parents, starts, ends) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans of one thread nest, so the children's durations are exactly the
    part of the parent's interval that they cover.  Parent ids precede
    their children's ids; -1 marks a root.
    """
    own = [e - s for s, e in zip(starts, ends)]
    for sid, parent in enumerate(parents):
        if parent >= 0:
            own[parent] -= ends[sid] - starts[sid]
    return own


class Tracer:
    def __init__(self) -> None:
        self.name = array("h")
        self.parent = array("q")
        self.instance = array("l")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self.outermost = array("b")
        self.stack: list[int] = []
        self._active = [0] * len(SPAN_NAMES)
        self._origin = -1
        self.current_instance = -1
        self.counters: dict[str, float] = {}
        self._searchers: dict[int, object] = {}
        self._restore: list[tuple[object, str, object]] = []

    def count(self, key: str, by: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + by

    # -- hooks: counts taken where the work happens, from arguments and results

    def _observe(self, name: str, args: tuple, result, ok: bool) -> None:
        if name == "cpp.min_weight_join":
            self.count("cpp.min_weight_join.terminals", len(set(args[1])))
        elif not ok:
            return
        elif name in ("kernel.pendant_shortcut", "kernel.packing_shortcut"):
            self.count(f"{name}.fired", result is not None)
        elif name == "kernel.kernelize" and hasattr(result, "expansion"):
            self.count("kernel.reduced_input_edges", len(args[0].edges))
            self.count("kernel.reduced_kernel_edges", len(result.kernel.edges))
        elif name == "solve.solve_kcpp" and result.report is not None and result.report.h_edges is not None:
            self.count("kernel.h_edges.sum", result.report.h_edges)
            self.count("kernel.h_edges.n")
        elif name == "cycles.greedy_cycle_packing" and self.stack:
            if SPAN_NAMES[self.name[self.stack[-1]]] == "solve.solve_kcpp_exact":
                self.count("solve.solve_kcpp_exact.greedy_tried")
                self.count("solve.solve_kcpp_exact.greedy_settled", len(result) >= args[1])
        elif name == "cycles.PackingSearch.run":
            self._searchers[id(args[0])] = args[0]

    def _wrap(self, idx: int, fn):
        name = SPAN_NAMES[idx]
        clock = time.perf_counter
        stack = self.stack
        active = self._active

        def traced(*args, **kwargs):
            sid = len(self.start)
            self.name.append(idx)
            self.parent.append(stack[-1] if stack else -1)
            self.instance.append(self.current_instance)
            self.outermost.append(active[idx] == 0)
            self.raised.append(0)
            self.end.append(0.0)
            active[idx] += 1
            stack.append(sid)
            self.start.append(clock())
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                self.end[sid] = clock()
                stack.pop()
                active[idx] -= 1
                if not ok:
                    self.raised[sid] = 1
                    if self._origin < 0:
                        self._origin = idx
                    result = None
                self._observe(name, args, result, ok)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every binding of every target in the loaded kpostman modules."""
        modules = [m for key, m in sys.modules.items() if key == "kpostman" or key.startswith("kpostman.")]
        for idx, span in enumerate(SPAN_NAMES):
            mod, _, attr = span.partition(".")
            home = sys.modules[f"kpostman.{mod}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                orig = cls.__dict__[meth]
                self._restore.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(idx, orig))
                continue
            orig = getattr(home, attr)
            wrapped = self._wrap(idx, orig)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._restore.append((m, key, orig))
                        setattr(m, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    def begin_instance(self, instance: int) -> None:
        self.current_instance = instance
        self._origin = -1

    def end_instance(self, refused: bool) -> None:
        """Read each packing searcher's memo, and attribute a refusal to the
        module of the span that raised first, which is the innermost one."""
        for searcher in self._searchers.values():
            self.count("cycles.PackingSearch.memo_entries", len(searcher.memo))
        self._searchers.clear()
        if refused:
            self.count(SPAN_NAMES[self._origin].split(".")[0] + ".refused")
        self.current_instance = -1

    def totals(self) -> dict[str, dict[str, float]]:
        """calls, self_s and total_s per span name (total_s counts only
        outermost calls, so recursion is not counted twice)."""
        own = self_times(self.parent, self.start, self.end)
        out = {span: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for span in SPAN_NAMES}
        for sid, idx in enumerate(self.name):
            row = out[SPAN_NAMES[idx]]
            row["calls"] += 1
            row["self_s"] += own[sid]
            if self.outermost[sid]:
                row["total_s"] += self.end[sid] - self.start[sid]
        return out

    def write(self, path) -> None:
        """Spans as gzipped tab-separated text, times relative to the first."""
        t0 = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("span\tparent\tinstance\tname\tstart_s\tend_s\traised\n")
            for sid, idx in enumerate(self.name):
                f.write(
                    f"{sid}\t{self.parent[sid]}\t{self.instance[sid]}\t{SPAN_NAMES[idx]}\t"
                    f"{self.start[sid] - t0:.9f}\t{self.end[sid] - t0:.9f}\t{self.raised[sid]}\n"
                )
