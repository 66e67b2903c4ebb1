"""Wall time of criterion-9-style success sweeps, written to BENCH_sweeps.json.

Rows: the trust-region CVaR(0.25) sweeps of acceptance criterion 9 from
random starts, over its grid (4 shot counts x n_iter in {10, 30, 90,
270}, so one run of 270 evaluations per M and repetition), at
REPETITIONS repetitions: QAOA d = 2 at L = 10 and 12 (master seed 901)
and VQE RY-CNOT d = 1 at L = 8 (master seed 900), all ideal, plus the
VQE sweep at L = 6 under ``NoiseModel(t1_us=50, t2_us=70)`` as a control
whose every state takes its own relaxation draws.

Each row reports, per tree, the median and interquartile range of the
sweep's wall time over REPEATS interleaved repeats, in one process
(``threads = 1``); the states prepared (rows passed to
``estimator.prepare_state``) and the sample sets drawn (``simulator.
sample_shots`` calls), counted on one more untimed sweep; and whether
the ``save_result`` bytes of that sweep are equal across the trees.

    python3 bench/sweeps.py                         # this checkout only
    python3 bench/sweeps.py --baseline OTHER/src    # plus another tree

``--baseline`` names the ``src`` directory of another checkout (say, the
parent commit, made with ``git archive`` or ``git clone``); its rows are
labelled ``parent`` and this checkout's ``change``.  Both packages are
loaded into one process under different names, and every repeat runs
them back to back on each row, in alternating order.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import tempfile
import time
from importlib import import_module
from pathlib import Path
from typing import NamedTuple

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from prepare_state import load_tree  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
ITERS = (10, 30, 90, 270)
REPETITIONS = 4
REPEATS = 7


class Row(NamedTuple):
    name: str
    family: str
    size: int
    depth: int
    shots: tuple[int, ...]
    noisy: bool
    master_seed: int


ROWS = (
    Row("qaoa-L10", "qaoa", 10, 2, (4, 16, 64, 256), False, 901),
    Row("qaoa-L12", "qaoa", 12, 2, (4, 16, 64, 256), False, 901),
    Row("vqe-L8", "vqe-ry-cnot", 8, 1, (8, 32, 128, 512), False, 900),
    Row("vqe-L6-noisy", "vqe-ry-cnot", 6, 1, (8, 32, 128, 512), True, 900),
)


def make_sweep(vq, row: Row, repetitions: int):
    """A zero-argument callable that runs the row's sweep on tree ``vq``."""
    exp = import_module(f"{vq.__name__}.experiment")
    opt = import_module(f"{vq.__name__}.optimizer")
    est = import_module(f"{vq.__name__}.estimator")
    sim = import_module(f"{vq.__name__}.simulator")
    problem = exp.ProblemSpec(row.family, row.size, row.depth, init=exp.InitSpec("random"))
    grid = [(m, n) for m in row.shots for n in ITERS]
    noise = sim.NoiseModel(t1_us=50.0, t2_us=70.0) if row.noisy else None
    return lambda: exp.success_sweep(problem, opt.TrustRegionConfig(), est.CVAR25, grid,
                                     repetitions, row.master_seed, noise=noise)


def audit(vq, sweep, path: Path) -> tuple[bytes, int, int]:
    """Run ``sweep`` once with counters on ``vq``; returns its ``save_result``
    bytes, the states it prepared and the sample sets it drew."""
    est = import_module(f"{vq.__name__}.estimator")
    sim = import_module(f"{vq.__name__}.simulator")
    exp = import_module(f"{vq.__name__}.experiment")
    prepare_state, sample_shots = est.prepare_state, sim.sample_shots
    counts = {"states": 0, "sets": 0}

    def counted_prepare(spec, theta, *args):
        counts["states"] += 1 if np.ndim(theta) == 1 else len(theta)
        return prepare_state(spec, theta, *args)

    def counted_sample(state, uniforms):
        counts["sets"] += 1
        return sample_shots(state, uniforms)

    est.prepare_state, sim.sample_shots = counted_prepare, counted_sample
    try:
        exp.save_result(sweep(), path)
    finally:
        est.prepare_state, sim.sample_shots = prepare_state, sample_shots
    return path.read_bytes(), counts["states"], counts["sets"]


def measure(trees: dict, rows, repetitions: int = REPETITIONS, repeats: int = REPEATS) -> list[dict]:
    """One entry per row: per tree the median wall time in seconds, its IQR
    (with three or more repeats), the states prepared and the sample sets
    drawn, and whether every tree wrote the same result bytes."""
    sweeps = {(row, label): make_sweep(vq, row, repetitions)
              for row in rows for label, vq in trees.items()}
    out = []
    with tempfile.TemporaryDirectory() as work:
        for row in rows:
            entry = {"row": row.name, "family": row.family, "L": row.size, "d": row.depth,
                     "noise": "noisy" if row.noisy else "ideal",
                     "grid": {"shots": list(row.shots), "iters": list(ITERS)},
                     "repetitions": repetitions, "master_seed": row.master_seed}
            written = set()
            for label, vq in trees.items():
                data, states, sets = audit(vq, sweeps[row, label], Path(work) / f"{label}.json")
                entry[f"{label}_states"], entry[f"{label}_sets"] = states, sets
                written.add(data)
            entry["bytes_equal"] = len(written) == 1
            out.append(entry)
        times = {key: [] for key in sweeps}
        for repeat in range(repeats):
            order = list(trees) if repeat % 2 == 0 else list(reversed(trees))
            for row in rows:
                for label in order:
                    start = time.perf_counter()
                    sweeps[row, label]()
                    times[row, label].append(time.perf_counter() - start)
    for row, entry in zip(rows, out):
        for label in trees:
            runs = times[row, label]
            entry[f"{label}_s_p50"] = round(statistics.median(runs), 4)
            if len(runs) >= 3:
                q1, _, q3 = statistics.quantiles(runs, n=4)
                entry[f"{label}_s_iqr"] = round(q3 - q1, 4)
        if "parent" in trees:
            entry["change_over_parent"] = round(entry["change_s_p50"] / entry["parent_s_p50"], 3)
    return out


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", type=Path, help="src directory of the tree to compare with")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_sweeps.json")
    args = parser.parse_args(argv)

    trees = {"change": load_tree(ROOT / "src", "vqopt_change")}
    if args.baseline is not None:
        trees = {"parent": load_tree(args.baseline, "vqopt_parent"), **trees}
    rows = measure(trees, ROWS)
    for entry in rows:
        print(json.dumps(entry), file=sys.stderr)
    record = {
        "topic": "sweeps",
        "what": "per row: seconds of one experiment.success_sweep in one process (median "
                "and IQR of interleaved repeats), the states it prepared, the sample sets "
                "it drew, and whether its save_result bytes are equal across the trees",
        "machine": {"nproc": os.cpu_count(), "numpy": np.__version__,
                    "python": platform.python_version(), "processor": platform.machine()},
        "repeats": REPEATS,
        "optimizer": "trust-region-dfo, cost CVaR 0.25, init random",
        "noise": {"t1_us": 50.0, "t2_us": 70.0, "t1q_ns": 50.0, "t2q_ns": 300.0},
        "trees": list(trees),
        "rows": rows,
    }
    args.out.write_text(json.dumps(record, indent=2) + "\n")


if __name__ == "__main__":
    main()
