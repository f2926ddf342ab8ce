"""Record the load digest and every answer of the default seed in pins.json.

    python3 perfbench/record_pins.py

Run it only when a workload's generator changes on purpose, with the
library at a commit whose answers are trusted (the test suite checks the
solver against the brute-force oracle).  Refused instances are pinned as
null; any verified answer is accepted for them later.
"""

from __future__ import annotations

import json

import run
from workloads import DEFAULT_SEED, WORKLOADS, generate, load_digest


def main() -> None:
    kp = run.import_library()
    pins = {}
    for name in WORKLOADS:
        specs = generate(name, DEFAULT_SEED)
        wl = run.Workload(name, kp, None)
        loop = run.Loop(wl, specs, [wl.build(spec) for spec in specs])
        loop.one_pass()
        pins[name] = {"digest": load_digest(specs), "answers": loop.answers}
        print(name, sum(r for r in loop.refused), "refused of", len(specs), flush=True)
    entries = [f"{json.dumps(name)}: {json.dumps(entry)}" for name, entry in pins.items()]
    run.PINS.write_text("{\n " + ",\n ".join(entries) + "\n}\n")


if __name__ == "__main__":
    main()
