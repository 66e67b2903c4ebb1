"""Per-call time of ``vqopt.ansatz.prepare_state`` and ``vqopt.ising.energy_table``,
written to BENCH_prepare_state.json.

``prepare_state`` rows: family {vqe, qaoa} x {ideal, noisy} x L in
{6, 8, 10, 12} at depth 2, plus ideal QAOA at L in {16, 18, 20}, depth 8
(the states of the large-L depth sweep, 1-16 MB).  ``linear`` rows:
``prepare_state`` of ideal QAOA from ``init_linear_schedule(d, 0.8)``, the
depth sweep's start, whose last mixer angle is 0, at L in {12, 16, 18,
20} and d in {2, 4, 8}.  ``prepare_batch``
rows: the same families, noise and sizes at depth 2 with P in {1, 5, 31,
2 n_par} points, in microseconds per state: one ``prepare_state`` call on
the (P, n_par) batch.  Every call draws the uniforms of its relaxations
from one generator and passes them in, as ``estimator.sample_round`` does,
so the trees compared must take drawn uniforms (batch preparation came
with them).
``ry_layer`` rows: the first RY layer of an ideal RY-CNOT state at L in
{6, 8, 10, 12}, built by ``simulator.init_ry_product`` where the tree has
it and by L ``apply_ry`` calls on |0...0> otherwise.  ``rotation`` rows:
one ``apply_rx`` on a complex state and one ``apply_ry`` on a real state
at L in {8, 10, 12, 14}, in microseconds per gate over a call that
rotates every qubit once.  ``mixer_layer`` and ``phase`` rows: one step of
an ideal QAOA plan, in milliseconds: the mixer layer (every qubit's RX,
cache-blocked) at L in {16, 17, 18, 19, 20} and the diagonal problem phase
at L in {10, 12, 16, 18, 20}, the two steps of one layer.  ``energy_table``
rows: one fresh table per call at L in {12, 14, 16, 18, 20}, in
milliseconds, with the tracemalloc peak of one build in MB (the 8 B/entry
table included); L = 12 is the largest table built as one chunk.

Each timed row is the median over REPEATS batches of the time per call;
a batch times enough calls to last about BATCH_MS milliseconds, and at
least MIN_BATCH calls.  Batches are interleaved: every repeat visits
every row once, and, with ``--baseline``, runs the two source trees back
to back on each row, so a slow phase of the machine lands on both sides
alike.

    python3 bench/prepare_state.py                         # this checkout only
    python3 bench/prepare_state.py --baseline OTHER/src    # plus another tree

``--baseline`` names the ``src`` directory of another checkout (say, the
parent commit, made with ``git archive`` or ``git clone``); its rows are
labelled ``parent`` and this checkout's ``change``.  Both packages are
loaded into one process under different names.  Noisy rows use
``NoiseModel(t1_us=50, t2_us=70)``; QAOA rows use disordered instance 0,
whose energy table is built before timing; an ``energy_table`` call also
makes that instance (microseconds), since tables are cached on it.
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
import tracemalloc
from importlib import import_module
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SIZES = (6, 8, 10, 12)
DEPTH = 2
LARGE_SIZES = (16, 18, 20)
LARGE_DEPTH = 8
LINEAR_SIZES = (12, 16, 18, 20)
LINEAR_DEPTHS = (2, 4, 8)
LINEAR_DT = 0.8
TABLE_SIZES = (12, 14, 16, 18, 20)
ROTATION_SIZES = (8, 10, 12, 14)
MIXER_SIZES = (16, 17, 18, 19, 20)
PHASE_SIZES = (10, 12, 16, 18, 20)
BATCH_POINTS = (1, 5, 31, None)  # None: the 2 n_par points of a gradient round
REPEATS = 15
BATCH_MS = 40.0
MIN_BATCH = 3


def load_tree(src: Path, name: str):
    """Import the vqopt package under ``src`` as the top-level package ``name``."""
    init = src / "vqopt" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def make_case(vq, layer: str, family: str, noisy: bool, size: int, depth: int, points=None):
    """A zero-argument callable that runs one call of the given row."""
    anz = import_module(f"{vq.__name__}.ansatz")
    ising = import_module(f"{vq.__name__}.ising")
    sim = import_module(f"{vq.__name__}.simulator")
    if layer == "energy_table":
        return lambda: ising.energy_table(ising.make_disordered(size, 0))
    if layer == "rotation":
        gate = getattr(sim, f"apply_{family}")
        rng = np.random.default_rng(size)
        state = rng.standard_normal(1 << size)
        if family == "rx":
            state = state + 1j * rng.standard_normal(1 << size)

        def rotations():
            for j in range(size):
                gate(state, j, 0.3)
        return rotations
    if layer in ("mixer_layer", "phase"):
        instance = ising.make_disordered(size, 0)
        spec = anz.AnsatzSpec(anz.FAMILY_QAOA, size, 1, instance=instance)
        step = anz.compile_plan(spec).steps[layer == "mixer_layer"]  # (phase, mixer layer)
        state, angles = sim.init_plus(size), np.array([0.3, 0.4])
        return lambda: step(state, angles, None)
    if layer == "ry_layer":
        angles = np.random.default_rng(size).uniform(-np.pi, np.pi, size)
        if hasattr(sim, "init_ry_product"):
            return lambda: sim.init_ry_product(size, angles)

        def gates():
            state = sim.init_zero(size, dtype=float)
            for j in range(size):
                sim.apply_ry(state, j, angles[j])
        return gates
    if family == "vqe":
        spec = anz.AnsatzSpec(anz.FAMILY_VQE, size, depth)
    else:
        instance = ising.make_disordered(size, 0)
        ising.energy_table(instance)
        spec = anz.AnsatzSpec(anz.FAMILY_QAOA, size, depth, instance=instance)
    if layer == "linear":
        theta = anz.init_linear_schedule(depth, LINEAR_DT)
    else:
        theta = anz.init_random(spec, np.random.default_rng(size))
    noise = sim.NoiseModel(t1_us=50.0, t2_us=70.0) if noisy else None
    rng = np.random.default_rng(7)
    # each call draws its uniforms, as a sampling round does, and passes them
    # positionally, which a tree whose fourth parameter is named rng accepts too
    draws = anz.compile_plan(spec, noise).draws
    if layer in ("prepare_state", "linear"):
        return lambda: anz.prepare_state(spec, theta, noise, rng.random(draws))
    batch = np.stack([anz.init_random(spec, np.random.default_rng([size, r]))
                      for r in range(batch_points(spec.n_params, points))])
    return lambda: anz.prepare_state(spec, batch, noise, rng.random((len(batch), draws)))


def batch_points(n_params: int, points) -> int:
    return 2 * n_params if points is None else points


def time_batch(call, n: int) -> float:
    """Microseconds per call over ``n`` calls."""
    start = time.perf_counter()
    for _ in range(n):
        call()
    return (time.perf_counter() - start) / n * 1e6


def peak_mb(call) -> float:
    """Peak traced allocation of one call, in MB."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def table_rows() -> list[tuple]:
    """Every row, as the arguments of ``make_case`` after the tree."""
    rows = [("prepare_state", family, noisy, size, DEPTH) for family in ("vqe", "qaoa")
            for noisy in (False, True) for size in SIZES]
    rows += [("prepare_state", "qaoa", False, size, LARGE_DEPTH) for size in LARGE_SIZES]
    rows += [("linear", "qaoa", False, size, depth) for size in LINEAR_SIZES
             for depth in LINEAR_DEPTHS]
    rows += [("prepare_batch", family, noisy, size, DEPTH, points) for family in ("vqe", "qaoa")
             for noisy in (False, True) for size in SIZES for points in BATCH_POINTS]
    rows += [("ry_layer", "vqe", False, size, None) for size in SIZES]
    rows += [("rotation", gate, False, size, None) for gate in ("rx", "ry")
             for size in ROTATION_SIZES]
    rows += [("mixer_layer", "qaoa", False, size, None) for size in MIXER_SIZES]
    rows += [("phase", "qaoa", False, size, None) for size in PHASE_SIZES]
    rows += [("energy_table", None, False, size, None) for size in TABLE_SIZES]
    return rows


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", type=Path, help="src directory of the tree to compare with")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_prepare_state.json")
    args = parser.parse_args(argv)

    trees = {"change": load_tree(ROOT / "src", "vqopt_change")}
    if args.baseline is not None:
        trees = {"parent": load_tree(args.baseline, "vqopt_parent"), **trees}
    rows = table_rows()
    cases = {(row, label): make_case(vq, *row) for row in rows for label, vq in trees.items()}

    # warm up and size each batch from the first tree's pace
    batch = {}
    for row in rows:
        for label in trees:
            cases[row, label]()
        per_call = time_batch(cases[row, next(iter(trees))], 3)
        batch[row] = max(MIN_BATCH, int(BATCH_MS * 1e3 / per_call))

    samples = {key: [] for key in cases}
    for repeat in range(REPEATS):
        order = list(trees) if repeat % 2 == 0 else list(reversed(trees))
        for row in rows:
            for label in order:
                samples[row, label].append(time_batch(cases[row, label], batch[row]))

    out = []
    for row in rows:
        layer, family, noisy, size, depth, *points = row
        if layer == "energy_table":
            entry, unit, scale = {"layer": layer, "L": size}, "ms", 1e-3
        elif layer == "ry_layer":
            entry, unit, scale = {"layer": layer, "family": family, "L": size}, "us", 1.0
        elif layer == "rotation":  # per gate
            dtype = "complex" if family == "rx" else "float"
            entry = {"layer": layer, "gate": family, "dtype": dtype, "L": size}
            unit, scale = "us_per_gate", 1.0 / size
        elif layer in ("mixer_layer", "phase"):
            entry, unit, scale = {"layer": layer, "family": family, "L": size}, "ms", 1e-3
        else:
            entry = {"layer": layer, "family": family, "noise": "noisy" if noisy else "ideal",
                     "L": size, "d": depth}
            unit, scale = "us", 1.0
            if layer == "prepare_batch":  # per state
                n_params = size * (depth + 1) if family == "vqe" else 2 * depth
                entry["P"] = batch_points(n_params, points[0])
                unit, scale = "us_per_state", 1.0 / entry["P"]
        entry["calls_per_batch"] = batch[row]
        for label in trees:
            runs = [sample * scale for sample in samples[row, label]]
            q1, _, q3 = statistics.quantiles(runs, n=4)
            entry[f"{label}_{unit}_p50"] = round(statistics.median(runs), 3)
            entry[f"{label}_{unit}_iqr"] = round(q3 - q1, 3)
            if layer == "energy_table":
                entry[f"{label}_peak_mb"] = round(peak_mb(cases[row, label]), 2)
        if "parent" in trees:
            entry["change_over_parent"] = round(entry[f"change_{unit}_p50"]
                                                / entry[f"parent_{unit}_p50"], 3)
        out.append(entry)
        print(json.dumps(entry), file=sys.stderr)

    record = {
        "topic": "prepare_state",
        "what": "per call: microseconds of vqopt.ansatz.prepare_state (per state for a "
                "batch of P points), of the first ideal RY layer and of one RX or RY gate, "
                "milliseconds of one ideal QAOA mixer layer or phase step and of "
                "vqopt.ising.energy_table (with its tracemalloc peak), median of interleaved "
                "batches",
        "machine": {"nproc": os.cpu_count(), "numpy": np.__version__,
                    "python": platform.python_version(), "processor": platform.machine()},
        "repeats": REPEATS,
        "batch_ms": BATCH_MS,
        "min_batch": MIN_BATCH,
        "noise": {"t1_us": 50.0, "t2_us": 70.0, "t1q_ns": 50.0, "t2q_ns": 300.0},
        "trees": list(trees),
        "rows": out,
    }
    args.out.write_text(json.dumps(record, indent=2) + "\n")


if __name__ == "__main__":
    main()
