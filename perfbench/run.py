"""vqopt benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a vqopt checkout; the package is imported from its
``src`` directory, and scratch files go under ``.perfbench_work/`` there.

``--trace 0`` measures the end-to-end metrics with tracing off: set-up
time (fresh processes that import vqopt and build the workload's
instances with their ground truth), then executions of the workload
repeated for S seconds, reporting medians.  ``--trace 1`` measures the
per-layer metrics: untraced and traced executions at one process,
alternated for S seconds, so the tracing overhead is a stated number.

Every execution is checked: the invariants in ``workloads.check``, equal
outputs across repeats, process counts and tracing, the shot audit of
traced runs and, for the default seed, the sha256 digest recorded in
``reference.json``.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
non-zero when any check failed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5  # spread over the run: the machine's speed drifts over seconds
MIN_REPEATS = 2
PROBE_TIMEOUT_S = 120


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny runs the same paths at toy sizes (self-test)")
    ap.add_argument("--reference", type=Path, default=HERE / "reference.json",
                    help="digests of the default seed's outputs")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def import_checkout():
    """Put the checkout's ``src`` first on the path and import vqopt from it."""
    src = ROOT / "src"
    if not (src / "vqopt" / "__init__.py").is_file():
        raise SystemExit(f"error: no vqopt sources under {src}; run from a vqopt checkout")
    sys.path.insert(0, str(src))
    import vqopt

    if Path(vqopt.__file__).resolve().parent != (src / "vqopt").resolve():
        raise SystemExit(f"error: imported vqopt from {vqopt.__file__}, not from {src}")


def machine_record() -> dict:
    import numpy as np

    record = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_model": None,
        "caches": {},
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                record["cpu_model"] = line.split(":", 1)[1].strip()
                break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                record["caches"][f"L{level}"] = (index / "size").read_text().strip()
    except OSError:
        pass  # the record is informational; a sandbox may hide these files
    return record


def measure_setup(args) -> float:
    """Wall time of a fresh process doing the workload's set-up work."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0",
           "--scale", args.scale]
    start = time.perf_counter()
    subprocess.run(cmd, cwd=ROOT, check=True, timeout=PROBE_TIMEOUT_S,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; RUSAGE_CHILDREN reports the largest child
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


class Bench:
    """Executions of one workload with their checks and tallies."""

    def __init__(self, args, workloads, inputs, reference):
        self.args = args
        self.w = workloads
        self.inputs = inputs
        self.volume = workloads.volume(inputs)
        self.reference = reference
        self.work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digests: set[str] = set()
        self.count = 0

    def execute(self, threads: int, tracer=None) -> float | None:
        """One checked execution; returns its wall time, or None if it failed."""
        self.count += 1
        workdir = self.work / f"x{self.count}"
        self.attempted += self.volume.ops
        errors = []
        try:
            start = time.perf_counter()
            with tracer or contextlib.nullcontext():
                out = self.w.execute(self.inputs, workdir, threads)
            wall = time.perf_counter() - start
            errors = self.w.check(self.inputs, out)
            self.digests.add(self.w.digest(out))
        except Exception:  # the benchmark reports any crash as a failed execution
            errors = ["execution raised:\n" + traceback.format_exc()]
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if len(self.digests) > 1:
            errors.append(f"outputs differ between executions: {sorted(self.digests)}")
        if self.reference is not None and self.digests and self.digests != {self.reference}:
            errors.append(f"output digest {sorted(self.digests)} != reference {self.reference}")
        if errors:
            self.failed += self.volume.ops
            self.errors += [f"{self.args.workload} execution {self.count} "
                            f"(threads={threads}): {e}" for e in errors]
            return None
        return wall

    def repeat(self, seconds: float, step) -> bool:
        """Call ``step`` until ``seconds`` have passed (at least MIN_REPEATS times)."""
        start = time.perf_counter()
        done = 0
        while done < MIN_REPEATS or time.perf_counter() - start < seconds:
            if not step():
                return False
            done += 1
        return True

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:
            pass  # another run is still using it


def run_end_to_end(bench: Bench, args) -> tuple[dict, dict]:
    threads = bench.inputs.threads
    walls: list[float] = []
    setup: list[float] = []
    last_probe = -math.inf

    def step():
        nonlocal last_probe
        if time.perf_counter() - last_probe >= args.seconds / SETUP_PROBES:
            setup.append(measure_setup(args))
            last_probe = time.perf_counter()
        wall = bench.execute(threads)
        if wall is not None:
            walls.append(wall)
        return wall is not None

    if bench.repeat(args.seconds, step) and threads > 1:
        bench.execute(1)  # the single-process result must be byte-identical
    while len(setup) < SETUP_PROBES:
        setup.append(measure_setup(args))
    detail = {"wall_samples_s": walls, "setup_samples_s": setup}
    if not walls:
        return {}, detail
    wall = statistics.median(walls)
    metrics = {
        "wall_s": wall,
        "runs_per_s": bench.volume.runs / wall,
        "shots_per_s": bench.volume.shots / wall,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb(),
    }
    return metrics, detail


def run_traced(bench: Bench, args) -> tuple[dict, dict]:
    import tracing

    tracer = tracing.Tracer()
    threads = bench.inputs.threads
    pool_walls, plain, traced = [], [], []
    if threads > 1:
        wall = bench.execute(threads)
        if wall is not None:
            pool_walls.append(wall)

    def step():
        for walls, tr in ((plain, None), (traced, tracer)):
            wall = bench.execute(1, tr)
            if wall is None:
                return False
            walls.append(wall)
        return True

    ok = (threads == 1 or pool_walls) and bench.repeat(args.seconds, step)
    detail = {"untraced_wall_samples_s": plain, "traced_wall_samples_s": traced,
              "pool_wall_samples_s": pool_walls,
              "shots_drawn": tracer.shots_drawn, "shots_accounted": tracer.shots_accounted}
    if not ok:
        return {}, detail
    if tracer.shots_drawn != tracer.shots_accounted:
        bench.failed += bench.attempted - bench.failed
        bench.errors.append(
            f"shot audit: sample_shots drew {tracer.shots_drawn} shots, traces account "
            f"for {tracer.shots_accounted} (n_calls + probe shots)")
    metrics = tracing.layer_metrics(tracer, len(traced), bench.volume.runs)
    one = statistics.median(plain)
    metrics["experiment.parallel_efficiency"] = (
        one / (threads * statistics.median(pool_walls)) if pool_walls else 0.0)
    metrics["trace.wall_s"] = statistics.median(traced)
    metrics["trace.untraced_wall_s"] = one
    metrics["trace.overhead"] = statistics.median(traced) / one
    return metrics, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    import_checkout()
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; choose from {workloads.NAMES}",
              file=sys.stderr)
        return 2
    inputs = workloads.make_inputs(args.workload, args.seed, args.scale)
    if args.setup_probe:
        workloads.build_instances(inputs)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    ref = json.loads(args.reference.read_text())
    reference = (ref["digests"][args.scale][args.workload]
                 if args.seed == ref["default_seed"] else None)
    logging.getLogger("vqopt").setLevel(logging.WARNING)  # keep CLI progress lines quiet

    bench = Bench(args, workloads, inputs, reference)
    try:
        metrics, detail = (run_traced if args.trace else run_end_to_end)(bench, args)
    finally:
        bench.close()
    correct = not bench.errors
    for error in bench.errors:
        print(f"check failed: {error}", file=sys.stderr)
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if correct and missing:
        print(f"error: metrics not computed: {missing}", file=sys.stderr)
        return 2

    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "inputs": {"master_seed": inputs.master_seed,
                   "instance_seeds": list(inputs.instance_seeds)},
        "digest": sorted(bench.digests),
        "reference_checked": reference is not None,
        "volume": vars(bench.volume),
        "failed_frac": bench.failed / max(1, bench.attempted),
        "state_bytes": {f"L={size}": 16 << size for size in inputs.sizes()},
        "machine": machine_record(),
        **detail,
    }))
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared if m["name"] in metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
