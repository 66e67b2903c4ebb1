"""Per-call time of ``vqopt.ansatz.prepare_state``, written to BENCH_prepare_state.json.

Rows: family {vqe, qaoa} x {ideal, noisy} x L in {6, 8, 10, 12} at depth 2.
Each row is the median over REPEATS batches of the microseconds per
call; a batch times enough calls to last about BATCH_MS milliseconds.
Batches are interleaved: every repeat visits every row once, and, with
``--baseline``, runs the two source trees back to back on each row, so
a slow phase of the machine lands on both sides alike.

    python3 bench/prepare_state.py                         # this checkout only
    python3 bench/prepare_state.py --baseline OTHER/src    # plus another tree

``--baseline`` names the ``src`` directory of another checkout (say, the
parent commit, made with ``git archive`` or ``git clone``); its rows are
labelled ``parent`` and this checkout's ``change``.  Both packages are
loaded into one process under different names.  Noisy rows use
``NoiseModel(t1_us=50, t2_us=70)``; QAOA rows use disordered instance 0,
whose energy table is built before timing.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import statistics
import sys
import time
from importlib import import_module
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SIZES = (6, 8, 10, 12)
DEPTH = 2
REPEATS = 15
BATCH_MS = 40.0


def load_tree(src: Path, name: str):
    """Import the vqopt package under ``src`` as the top-level package ``name``."""
    init = src / "vqopt" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def make_case(vq, family: str, noisy: bool, size: int):
    """A zero-argument callable that prepares one state of the given row."""
    anz = import_module(f"{vq.__name__}.ansatz")
    ising = import_module(f"{vq.__name__}.ising")
    sim = import_module(f"{vq.__name__}.simulator")
    if family == "vqe":
        spec = anz.AnsatzSpec(anz.FAMILY_VQE, size, DEPTH)
    else:
        instance = ising.make_disordered(size, 0)
        ising.energy_table(instance)
        spec = anz.AnsatzSpec(anz.FAMILY_QAOA, size, DEPTH, instance=instance)
    theta = anz.init_random(spec, np.random.default_rng(size))
    noise = sim.NoiseModel(t1_us=50.0, t2_us=70.0) if noisy else None
    rng = np.random.default_rng(7)
    return lambda: anz.prepare_state(spec, theta, noise=noise, rng=rng)


def time_batch(call, n: int) -> float:
    """Microseconds per call over ``n`` calls."""
    start = time.perf_counter()
    for _ in range(n):
        call()
    return (time.perf_counter() - start) / n * 1e6


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", type=Path, help="src directory of the tree to compare with")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_prepare_state.json")
    args = parser.parse_args(argv)

    trees = {"change": load_tree(ROOT / "src", "vqopt_change")}
    if args.baseline is not None:
        trees = {"parent": load_tree(args.baseline, "vqopt_parent"), **trees}
    rows = [(family, noisy, size) for family in ("vqe", "qaoa") for noisy in (False, True)
            for size in SIZES]
    cases = {(row, label): make_case(vq, *row) for row in rows for label, vq in trees.items()}

    # warm up and size each batch from the first tree's pace
    batch = {}
    for row in rows:
        for label in trees:
            cases[row, label]()
        per_call = time_batch(cases[row, next(iter(trees))], 20)
        batch[row] = max(5, int(BATCH_MS * 1e3 / per_call))

    samples = {key: [] for key in cases}
    for repeat in range(REPEATS):
        order = list(trees) if repeat % 2 == 0 else list(reversed(trees))
        for row in rows:
            for label in order:
                samples[row, label].append(time_batch(cases[row, label], batch[row]))

    out = []
    for family, noisy, size in rows:
        entry = {"family": family, "noise": "noisy" if noisy else "ideal", "L": size, "d": DEPTH,
                 "calls_per_batch": batch[family, noisy, size]}
        for label in trees:
            runs = samples[(family, noisy, size), label]
            q1, _, q3 = statistics.quantiles(runs, n=4)
            entry[f"{label}_us_p50"] = round(statistics.median(runs), 2)
            entry[f"{label}_us_iqr"] = round(q3 - q1, 2)
        if "parent" in trees:
            entry["change_over_parent"] = round(entry["change_us_p50"] / entry["parent_us_p50"], 3)
        out.append(entry)
        print(json.dumps(entry), file=sys.stderr)

    record = {
        "topic": "prepare_state",
        "what": "microseconds per vqopt.ansatz.prepare_state call, median of interleaved batches",
        "machine": {"nproc": os.cpu_count(), "numpy": np.__version__,
                    "python": platform.python_version(), "processor": platform.machine()},
        "repeats": REPEATS,
        "batch_ms": BATCH_MS,
        "noise": {"t1_us": 50.0, "t2_us": 70.0, "t1q_ns": 50.0, "t2q_ns": 300.0},
        "trees": list(trees),
        "rows": out,
    }
    args.out.write_text(json.dumps(record, indent=2) + "\n")


if __name__ == "__main__":
    main()
